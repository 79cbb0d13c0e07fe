"""The brute-force identification search, kept as the tests' oracle for ``modular.identify``.

``identify_search`` forms every candidate ``series * Delta^a E4^b E6^c`` of
the bounded search, rebuilding each classical factor, reads the product's
valuation off the product, and only then looks up a one-dimensional space by
weight in ``_EIS_DIM1`` or ``_CUSP_DIM1``, whose basis ``_basis_series``
builds by name.  The library decides the pole and the missing space before
any product; the tests hold it to this search on the same inputs.
"""

from __future__ import annotations

from fractions import Fraction

from bianchi9.modular import (
    ExceptionalOrbitError,
    IdentificationError,
    IdentificationResult,
    _series_match,
    classical_series,
    eisenstein_constant,
    is_exceptional,
)
from bianchi9.series import Grade, PuiseuxSeries

# one-dimensional spaces: weight -> basis description
_EIS_DIM1 = {4: ("E4",), 6: ("E6",), 8: ("E4", "E4"), 10: ("E4", "E6"), 14: ("E4", "E4", "E6")}
_CUSP_DIM1 = {12: (), 16: ("E4",), 18: ("E6",), 20: ("E4", "E4"), 22: ("E4", "E6"), 26: ("E4", "E4", "E6")}


def _basis_series(weight: int, cusp: bool, trunc: int) -> PuiseuxSeries | None:
    table = _CUSP_DIM1 if cusp else _EIS_DIM1
    if weight not in table:
        return None
    s = classical_series("Delta", trunc) if cusp else PuiseuxSeries(1, {0: Fraction(1)}, trunc)
    for kind in table[weight]:
        s = s * classical_series(kind, trunc)
    return s


def identify_search(result, orb) -> IdentificationResult:
    if is_exceptional(orb):
        raise ExceptionalOrbitError("identification excludes this orbit")
    series: PuiseuxSeries = result.representation
    series.as_q_expansion()  # raises if not rational / integer-grid
    trunc = series.trunc
    candidates = sorted(
        ((a, b, c) for a in range(3) for b in range(5) for c in range(3)),
        key=lambda m: 12 * m[0] + 4 * m[1] + 6 * m[2],
    )
    grade = series.grade
    for a, b, c in candidates:
        weight = 2 + 12 * a + 4 * b + 6 * c
        t = series
        for kind, e in (("Delta", a), ("E4", b), ("E6", c)):
            for _ in range(e):
                t = t * classical_series(kind, trunc - series.valuation + 1)
        if t.valuation is None or t.valuation < 0:
            continue
        cusp = t.valuation >= 1
        basis = _basis_series(weight, cusp, trunc - series.valuation + 1)
        if basis is None:
            continue
        r = _series_match(t, basis)
        if r is None:
            continue
        if (a, b, c) == (1, 0, 0) and weight == 14 and not cusp:
            g14 = eisenstein_constant(14)
            return IdentificationResult((a, b, c), "G14/Delta", r / g14, grade + Grade(pi_exp=-14), orb)
        if (a, b, c) == (0, 4, 0) and weight == 18 and cusp:
            g4, g6 = eisenstein_constant(4), eisenstein_constant(6)
            return IdentificationResult((a, b, c), "Delta*G6/G4^4", r * g4**4 / g6, grade + Grade(pi_exp=10), orb)
        space = f"weight {weight} {'cusp' if cusp else 'Eisenstein'} (dim 1)"
        return IdentificationResult((a, b, c), space, r, grade, orb)
    raise IdentificationError("no identification within the bounded multiplier search")
