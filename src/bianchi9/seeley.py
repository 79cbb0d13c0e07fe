"""Heat-trace coefficients a0, a2, a4 of the conformally rescaled Dirac square.

All three are evaluated from the machine-readable term tables in
:mod:`bianchi9.seeley_terms` (a0 = 4 F^2 w1 w2 w3 is a one-row table).  Both
representations of an InstantonFrame are supported: exact nome series (with
grade bookkeeping pi^{2n-3} Lambda^{n-2}) and numeric jets (Lambda set to 1).

Orbit sums collapse the cyclotomic phases: summed over a full PSL2(Z) orbit
of parameter points the series has rational coefficients at integer powers of
Q only; ``orbit_sum`` verifies this exactly and down-converts.  It builds one
frame per class of points whose series are Galois images of each other.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .instanton import InstantonFrame, TwoParamPoint, frame_two_param_series
from .jets import Jet
from .series import Grade, PuiseuxSeries
from .seeley_terms import A0_TERMS, A2_TERMS, A4_TERMS
from .theta import Characteristics, cyclotomic_order


@dataclass(frozen=True)
class CoeffIndex:
    """Which coefficient: n in {0,1,2} meaning a0, a2, a4."""

    n: int

    def __post_init__(self):
        if self.n not in (0, 1, 2):
            raise ValueError("only a0, a2, a4 have closed forms; n must be 0, 1 or 2")

    @property
    def order(self) -> int:
        return 2 * self.n

    @property
    def grade(self) -> Grade:
        return Grade(2 * self.n - 3, self.n - 2)


@dataclass(frozen=True)
class CoeffResult:
    index: CoeffIndex
    representation: object  # PuiseuxSeries or Jet

    def to_json(self) -> dict:
        return {"order": self.index.order, "series": self.representation.to_json()}


def _term_environment(frame: InstantonFrame, max_deriv: int):
    """Map variable names to series (series mode) or jets (jet mode).

    In jet mode each derivative variable is the shifted jet, and everything is
    lowered to the common order frame.order - max_deriv so products line up.
    """
    if frame.mode == "series":
        deriv = lambda x, k: x[k]
    else:
        target = frame.order - max_deriv
        if target < 0:
            raise ValueError(f"frame order {frame.order} too low for derivative depth {max_deriv}")
        deriv = lambda x, k: Jet(x.comps[k : k + target + 1])
    env = {}
    for name, x in zip(("w1", "w2", "w3", "F"), (*frame.w, frame.F_)):
        env[name] = deriv(x, 0)
        for k in range(1, max_deriv + 1):
            env[f"{name}d{k}"] = deriv(x, k)
    return env


def _eval_terms(rows, env):
    """Sum the table rows with a per-variable power cache."""
    cache: dict[tuple[str, int], object] = {}

    def power(var, n):
        key = (var, n)
        if key not in cache:
            if n >= 2:
                cache[key] = power(var, n - 1) * env[var]
            elif n <= -2:
                cache[key] = power(var, n + 1) * power(var, -1)
            else:
                cache[key] = env[var] ** n
        return cache[key]

    parts = []
    for coeff, mono in rows:
        cur = None
        for var, n in mono.items():
            p = power(var, n)
            cur = p if cur is None else cur * p
        # a Fraction scalar gives the same bits as complex() or mpmathify()
        parts.append(cur * coeff)
    if isinstance(parts[0], PuiseuxSeries) or not isinstance(parts[0].comps[0], complex):
        total = parts[0]
        for cur in parts[1:]:
            total = total + cur
        return total
    # float jet mode: the monomials cancel massively (sums ~1e3 x the result),
    # so an exactly rounded final summation per component buys several digits
    order = parts[0].order
    comps = tuple(
        complex(
            math.fsum(p.comps[k].real for p in parts),
            math.fsum(p.comps[k].imag for p in parts),
        )
        for k in range(order + 1)
    )
    return Jet(comps)


_TABLES = {0: A0_TERMS, 1: A2_TERMS, 2: A4_TERMS}


def _table_coefficient(frame: InstantonFrame, n: int) -> CoeffResult:
    idx = CoeffIndex(n)
    result = _eval_terms(_TABLES[n], _term_environment(frame, idx.order))
    if frame.mode == "series":
        assert result.grade == idx.grade
    return CoeffResult(idx, result)


def a0(frame: InstantonFrame) -> CoeffResult:
    """a0 = 4 F^2 w1 w2 w3."""
    return _table_coefficient(frame, 0)


def a2(frame: InstantonFrame) -> CoeffResult:
    return _table_coefficient(frame, 1)


def a4(frame: InstantonFrame) -> CoeffResult:
    return _table_coefficient(frame, 2)


_COEFF_FUNCS = {0: a0, 1: a2, 2: a4}


def coefficient(frame: InstantonFrame, index: CoeffIndex) -> CoeffResult:
    return _COEFF_FUNCS[index.n](frame)


def _unit_taking(q: Fraction, target: Fraction, n: int) -> int:
    """The least unit k mod n with k q = target (mod 1); q and target share a denominator dividing n."""
    d = q.denominator
    k = target.numerator * pow(q.numerator, -1, d) % d
    while math.gcd(k, n) != 1:
        k += d
    return k


def orbit_sum(orbit, index: CoeffIndex, trunc: int = 6) -> CoeffResult:
    """Exact sum of the coefficient series over all points of an orbit.

    The sum must come out with rational coefficients at integer exponents
    only; anything else signals a bug and raises.  The result is returned on
    the integer exponent grid.  ``orbit`` is an ``Orbit`` or a list of
    ``TwoParamPoint``; every point in the list counts once, so a partial or
    reordered list gives the plain sum over its points.  The result's
    ``trunc`` is the horizon actually known, which is at least the requested
    ``trunc`` and often beyond it.

    One frame is built per class of points, not per point.  Two exact rules
    relate the series of the points of a class:

    * a_{2n}[p,q] = a_{2n}[-p,-q]: under (p,q) -> (-p,-q) the frame maps to
      (-w1, w2, -w3, F), and every table monomial has even total degree in
      the (w1, w3) block;
    * sigma_k (zeta_N -> zeta_N^k, k a unit mod N) maps a_{2n}[p,q] to
      a_{2n}[p,kq].

    So the point (s p, q') with s = +-1 has the series sigma_k of a_{2n}[p,q]
    for k q = s q' (mod 1).  A class holds every point with the same
    {p, -p mod 1} and the same denominator of q; its first point met is the
    one whose frame is built.
    """
    points = getattr(orbit, "points", orbit)
    classes: dict[tuple, tuple[TwoParamPoint, Counter]] = {}  # key -> (first point, {k: multiplicity})
    for pt in points:
        rep, units = classes.setdefault((min(pt.p, -pt.p % 1), pt.q.denominator), (pt, Counter()))
        target = pt.q if pt.p == rep.p else -pt.q % 1
        units[_unit_taking(rep.q, target, cyclotomic_order(Characteristics(rep.p, rep.q)))] += 1
    total = None
    for rep, units in classes.values():
        series = coefficient(frame_two_param_series(rep, trunc), index).representation
        for k, mult in units.items():
            contrib = series if k == 1 else series.galois(k)
            contrib = contrib if mult == 1 else contrib * mult
            total = contrib if total is None else total + contrib
    # the rational view is sorted, so that float evaluation sums the terms in
    # one order whether the series is fresh or read back from JSON
    t = total.trunc
    if t is not None:
        t = t // total.exp_den  # floor: integer horizon
    return CoeffResult(index, PuiseuxSeries(1, total.as_q_expansion(), t, total.grade))
