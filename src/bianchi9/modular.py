"""PSL2(Z) orbits of parameter pairs and identification against modular forms.

The generators act on (p,q) in [0,1)^2 as S: (p,q) -> (-q,p) and
T: (p,q) -> (p, q+p+1/2), both mod 1.  Orbit sums of the heat-trace
coefficients are weight-2 modular functions; with poles only at the cusp or
at the elliptic points they land, after clearing denominators by a monomial
in Delta, E4, E6, in a one-dimensional space of classical forms.  All
identification arithmetic is exact: zeta values are expanded as rational
multiples of powers of pi via Bernoulli numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .instanton import TwoParamPoint, frame_two_param_jet
from .seeley import coefficient
from .series import Grade, PuiseuxSeries


OrbitPoint = TwoParamPoint  # an orbit point is an instanton parameter point


@dataclass(frozen=True)
class Orbit:
    points: tuple[TwoParamPoint, ...]  # sorted lexicographically
    n: int
    n0: int


class ExceptionalOrbitError(ValueError):
    """Raised for the two orbits excluded from valence bookkeeping."""


def act_S(pt: TwoParamPoint) -> TwoParamPoint:
    return TwoParamPoint(-pt.q, pt.p)


def act_T(pt: TwoParamPoint) -> TwoParamPoint:
    return TwoParamPoint(pt.p, pt.q + pt.p + Fraction(1, 2))


def orbit(p, q) -> Orbit:
    """Breadth-first closure of (p,q) under act_S and act_T."""
    start = TwoParamPoint(p, q)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for pt in frontier:
            for img in (act_S(pt), act_T(pt)):
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    pts = tuple(sorted(seen))
    n0 = sum(1 for pt in pts if pt.p == 0)
    return Orbit(pts, len(pts), n0)


def is_exceptional(orb: Orbit) -> bool:
    """Whether the orbit holds degenerate points: {(1/2,1/2)} or {(0,0), (1/2,0), (0,1/2)}."""
    return any(pt.is_degenerate() for pt in orb.points)


def valence_budget(orb: Orbit) -> Fraction:
    """n/12 - n0/2, the pole budget available away from the cusp.

    Also asserts the bound n >= 6 n0 that makes the budget nonnegative.
    """
    if is_exceptional(orb):
        raise ExceptionalOrbitError("valence bookkeeping excludes this orbit")
    if orb.n < 6 * orb.n0:
        raise AssertionError(f"orbit violates n >= 6 n0: n={orb.n}, n0={orb.n0}")
    return Fraction(orb.n, 12) - Fraction(orb.n0, 2)


# ---------------------------------------------------------------------------
# classical q-series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{k=0}^{n} C(n+1,k) B_k = 0
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


def zeta_over_pi_power(k: int) -> Fraction:
    """zeta(k)/pi^k as an exact rational, for even k >= 2."""
    if k < 2 or k % 2 != 0:
        raise ValueError("only even k >= 2")
    m = k // 2
    return Fraction((-1) ** (m + 1)) * bernoulli(k) * Fraction(2**k, 2 * math.factorial(k))


def eisenstein_constant(k: int) -> Fraction:
    """g_k = 2 zeta(k) / pi^k, so that G_k = g_k pi^k E_k."""
    return 2 * zeta_over_pi_power(k)


def _sigma(power: int, n: int) -> int:
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def classical_series(kind: str, trunc: int) -> PuiseuxSeries:
    """Rational q-series of a classical form, constant/leading coefficient 1.

    kinds: Delta, E4, E6, E8, E10, E14 (E8, E10, E14 via the one-dimensional
    space identities E8 = E4^2, E10 = E4 E6, E14 = E4^2 E6 — equivalently the
    sigma-sum formula, which is what is used here).  Delta = (E4^3 - E6^2)/1728.
    """
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    if kind == "Delta":
        return (classical_series("E4", trunc) ** 3 - classical_series("E6", trunc) ** 2) / 1728
    if kind.startswith("E"):
        k = int(kind[1:])
        if k < 4 or k % 2 != 0:
            raise ValueError(f"unsupported weight {k}")
        factor = Fraction(-2 * k) / bernoulli(k)
        terms = {0: Fraction(1)}
        for n in range(1, trunc):
            terms[n] = factor * _sigma(k - 1, n)
        return PuiseuxSeries(1, terms, trunc)
    raise ValueError(f"unknown classical form {kind!r}")


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentificationResult:
    multiplier: tuple[int, int, int]  # exponents of Delta, E4, E6
    target: str
    constant: Fraction
    grade: Grade
    orbit: Orbit

    def to_json(self, order: int) -> dict:
        a, b, c = self.multiplier
        return {
            "orbit": [[f"{pt.p.numerator}/{pt.p.denominator}", f"{pt.q.numerator}/{pt.q.denominator}"] for pt in self.orbit.points],
            "order": order,
            "multiplier": {"delta": a, "e4": b, "e6": c},
            "constant": f"{self.constant.numerator}/{self.constant.denominator}"
            if self.constant.denominator != 1
            else f"{self.constant.numerator}",
            "pi_exp": self.grade.pi_exp,
            "lambda_exp": self.grade.lambda_exp,
            "target": self.target,
        }


class IdentificationError(ValueError):
    """No identification found within the bounded multiplier search."""


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


def _series_match(t: PuiseuxSeries, basis: PuiseuxSeries):
    """If t = r * basis exactly on the known range, return r; else None."""
    tq = t.as_q_expansion()
    bq = basis.as_q_expansion()
    horizon = min(x for x in (t.trunc_frac(), basis.trunc_frac()) if x is not None)
    v = basis.valuation
    if v is None or v >= horizon:
        return None
    r = tq.get(v, Fraction(0)) / bq[v]
    if r == 0:
        return None
    for e in range(min(min(tq, default=0), v), math.ceil(horizon)):
        if tq.get(e, Fraction(0)) != r * bq.get(e, Fraction(0)):
            return None
    return r


def identify(result, orb: Orbit) -> IdentificationResult:
    """Match an orbit-summed coefficient series against a classical form.

    The input must be the rational integer-exponent series produced by
    orbit_sum.  Searches multipliers Delta^a E4^b E6^c with a<=2, b<=4, c<=2
    (smallest total weight first) for one that lands the product in a
    one-dimensional space, then reports the exact constant with its pi/Lambda
    grade in the absolutely-normalized (G-series) convention where possible.
    """
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
        # convert to the G-normalized named targets where they apply
        if (a, b, c) == (1, 0, 0) and weight == 14 and not cusp:
            g14 = eisenstein_constant(14)
            return IdentificationResult(
                (a, b, c),
                "G14/Delta",
                r / g14,
                grade + Grade(pi_exp=-14),
                orb,
            )
        if (a, b, c) == (0, 4, 0) and weight == 18 and cusp:
            g4, g6 = eisenstein_constant(4), eisenstein_constant(6)
            return IdentificationResult(
                (a, b, c),
                "Delta*G6/G4^4",
                r * g4**4 / g6,
                grade + Grade(pi_exp=10),
                orb,
            )
        space = f"weight {weight} {'cusp' if cusp else 'Eisenstein'} (dim 1)"
        return IdentificationResult((a, b, c), space, r, grade, orb)
    raise IdentificationError("no identification within the bounded multiplier search")


def sample_mu(samples: int, seed: int = 0) -> list[complex]:
    """Seeded sample points with Re in [0.7, 2.0], |Im| <= 0.3."""
    import random

    rng = random.Random(seed)
    return [complex(rng.uniform(0.7, 2.0), rng.uniform(-0.3, 0.3)) for _ in range(samples)]


def vv_modularity_report(orb: Orbit, index, samples: int = 5, tol: float = 1e-9, seed: int = 0) -> dict:
    """Residuals of the weight-2 transformation laws across the whole orbit.

    For each orbit point and each generator:
      T: a[p,q](i mu + 1) = a[T(p,q)](i mu)    (argument mu - i)
      S: a[p,q](i/mu)     = -mu^2 a[S(p,q)](i mu)
    evaluated by jets at seeded sample mu; both right-hand sides read the one
    value a[pt](i mu) of each orbit point.  Returns per-generator maxima.
    """
    import mpmath

    if samples < 1:
        raise ValueError("samples must be at least 1")

    def value(pt: TwoParamPoint, mu) -> complex:
        frame = frame_two_param_jet(pt, mu, tol=1e-35)
        return coefficient(frame, index).representation[0]

    worst = {"T": 0.0, "S": 0.0}
    # the identities cancel catastrophically at order 4 (monomials ~1e7 times
    # the result), so evaluate at 40 digits and let float64 sampling pick mu
    with mpmath.workdps(40):
        mus = [mpmath.mpc(m) for m in sample_mu(samples, seed)]
        for mu in mus:
            at_mu = {pt: value(pt, mu) for pt in orb.points}
            for pt in orb.points:
                lhs = value(pt, mu - 1j)
                rhs = at_mu[act_T(pt)]
                worst["T"] = max(worst["T"], float(abs(lhs - rhs) / (1 + abs(rhs))))
                lhs = value(pt, 1 / mu)
                rhs = -(mu**2) * at_mu[act_S(pt)]
                worst["S"] = max(worst["S"], float(abs(lhs - rhs) / (1 + abs(rhs))))
    return {
        "order": index.order,
        "samples": samples,
        "max_residual": max(worst.values()),
        "per_generator": worst,
        "tol": tol,
        "pass": max(worst.values()) <= tol,
    }
