"""PSL2(Z) orbits of parameter pairs and identification against modular forms.

The generators act on (p,q) in [0,1)^2 as S: (p,q) -> (-q,p) and
T: (p,q) -> (p, q+p+1/2), both mod 1.  Orbit sums of the heat-trace
coefficients are weight-2 modular functions; with poles only at the cusp or
at the elliptic points they land, after clearing denominators by a monomial
in Delta, E4, E6, in a one-dimensional space of classical forms, which the
table _DIM1 names by weight and cusp order.  All identification arithmetic
is exact: zeta values are expanded as rational multiples of powers of pi via
Bernoulli numbers.  ``orbit_values`` gives an orbit's numeric values at one mu.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import mul
from typing import NamedTuple

from .instanton import TwoParamPoint, frames_two_param_jet
from .seeley import coefficient
from .series import Grade, PuiseuxSeries


OrbitPoint = TwoParamPoint  # an orbit point is an instanton parameter point


class Orbit(NamedTuple):
    points: tuple[TwoParamPoint, ...]  # sorted lexicographically
    n: int
    n0: int
    S: tuple[TwoParamPoint, ...]  # S[i] is the image of points[i] under S
    T: tuple[TwoParamPoint, ...]  # T[i] is the image of points[i] under T


class ExceptionalOrbitError(ValueError):
    """Raised for the two orbits excluded from valence bookkeeping."""


MAX_ORBIT_POINTS = 100_000  # an orbit lies on the 1/N grid, N = lcm(2, dp, dq): at most N^2 points


def orbit(p, q) -> Orbit:
    """Closure of (p,q) on the integer pairs (a, b) = N (p, q), N = lcm(2, dp, dq), under
    S(a, b) = (-b mod N, a) and T(a, b) = (a, (a + b + N/2) mod N); refused when N^2 > MAX_ORBIT_POINTS.
    """
    start = TwoParamPoint(p, q)
    n = math.lcm(2, start.p.denominator, start.q.denominator)
    if n * n > MAX_ORBIT_POINTS:
        raise ValueError(f"orbit of ({p}, {q}) lies on the 1/{n} grid of up to {n * n} points, above MAX_ORBIT_POINTS = {MAX_ORBIT_POINTS}")
    images, todo = {}, [(int(start.p * n), int(start.q * n))]
    while todo:
        a, b = todo.pop()
        if (a, b) not in images:
            images[a, b] = ((-b) % n, a), (a, (a + b + n // 2) % n)
            todo += images[a, b]
    pairs = sorted(images)  # the lexicographic order of the points
    grid = [Fraction(i, n) for i in range(n)]
    pts = {(a, b): TwoParamPoint._make((grid[a], grid[b])) for a, b in pairs}  # reduced already
    S, T = (tuple(pts[images[ab][g]] for ab in pairs) for g in (0, 1))
    return Orbit(tuple(pts.values()), len(pairs), sum(1 for a, _ in pairs if a == 0), S, T)


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


class IdentificationResult(NamedTuple):
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
            "constant": str(self.constant),
            "pi_exp": self.grade.pi_exp,
            "lambda_exp": self.grade.lambda_exp,
            "target": self.target,
        }


class IdentificationError(ValueError):
    """No identification found within the bounded multiplier search."""


# one-dimensional spaces: (weight, cusp) -> (i, j), the space spanned by Delta^[cusp] E4^i E6^j
_DIM1 = {(4, False): (1, 0), (6, False): (0, 1), (8, False): (2, 0), (10, False): (1, 1), (14, False): (2, 1),
         (12, True): (0, 0), (16, True): (1, 0), (18, True): (0, 1), (20, True): (2, 0), (22, True): (1, 1), (26, True): (2, 1)}

# the paper's two targets, in the G-normalized convention: multiplier -> (name, factor on r, pi exponent)
_NAMED = {(1, 0, 0): ("G14/Delta", 1 / eisenstein_constant(14), -14),
          (0, 4, 0): ("Delta*G6/G4^4", eisenstein_constant(4) ** 4 / eisenstein_constant(6), 10)}


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
    one-dimensional space of _DIM1, then reports the exact constant with its
    pi/Lambda grade; the paper's two targets, looked up in _NAMED by
    multiplier, in the absolutely-normalized (G-series) convention.  E4 and
    E6 are units at the cusp, so the product has valuation v + a (v the
    series'): a candidate with a pole at the cusp, or with no space of its
    weight and cusp order, is passed over before any product.
    Delta, E4 and E6 are built once, to length trunc - v + 1.
    """
    if is_exceptional(orb):
        raise ExceptionalOrbitError("identification excludes this orbit")
    series: PuiseuxSeries = result.representation
    series.as_q_expansion()  # raises if not rational / integer-grid
    v = series.valuation  # the horizon if there are no terms
    length = series.trunc - v + 1
    delta, e4, e6 = (classical_series(kind, length) for kind in ("Delta", "E4", "E6"))
    candidates = sorted(
        ((a, b, c) for a in range(3) for b in range(5) for c in range(3)),
        key=lambda m: 12 * m[0] + 4 * m[1] + 6 * m[2],
    )
    grade = series.grade
    for a, b, c in candidates:
        weight = 2 + 12 * a + 4 * b + 6 * c
        valuation = v + a * series.exp_den  # in the series' 1/exp_den units
        cusp = valuation >= 1
        if valuation < 0 or (weight, cusp) not in _DIM1:
            continue
        i, j = _DIM1[weight, cusp]
        t = reduce(mul, [series] + [delta] * a + [e4] * b + [e6] * c)
        r = _series_match(t, reduce(mul, [delta] * cusp + [e4] * i + [e6] * j))
        if r is None:
            continue
        if (a, b, c) in _NAMED:
            target, factor, dpi = _NAMED[a, b, c]
            return IdentificationResult((a, b, c), target, r * factor, grade + Grade(pi_exp=dpi), orb)
        space = f"weight {weight} {'cusp' if cusp else 'Eisenstein'} (dim 1)"
        return IdentificationResult((a, b, c), space, r, grade, orb)
    raise IdentificationError("no identification within the bounded multiplier search")


def sample_mu(samples: int, seed: int = 0) -> list[complex]:
    """Seeded sample points with Re in [0.7, 2.0], |Im| <= 0.3."""
    import random

    rng = random.Random(seed)
    return [complex(rng.uniform(0.7, 2.0), rng.uniform(-0.3, 0.3)) for _ in range(samples)]


def orbit_values(points, index, mu, tol: float) -> dict:
    """{point: value of the coefficient at mu}, in the order of points, from one batch of frames."""
    frames = frames_two_param_jet(points, mu, tol)
    return {pt: coefficient(frames[pt], index).representation[0] for pt in points}


def vv_modularity_report(orb: Orbit, index, samples: int = 5, tol: float = 1e-9, seed: int = 0) -> dict:
    """Residuals of the weight-2 transformation laws across the whole orbit.

    For each orbit point and each generator:
      T: a[p,q](i mu + 1) = a[T(p,q)](i mu)    (argument mu - i)
      S: a[p,q](i/mu)     = -mu^2 a[S(p,q)](i mu)
    evaluated on numeric frames at seeded sample mu, with T(p,q) and S(p,q) read from
    orb.T and orb.S; both right-hand sides read the one value a[pt](i mu) of each orbit
    point.  Each sample builds the whole orbit's frames in three batches, at mu, mu - i
    and 1/mu, each walking the lattice once per characteristic p.  Returns per-generator maxima.
    """
    import mpmath

    if samples < 1:
        raise ValueError("samples must be at least 1")

    worst = {"T": 0.0, "S": 0.0}
    # the a4 rows cancel heavily (one row reaches 2e6 times the value on the
    # 8- and 24-point orbits), so evaluate at 40 digits; float64 samples pick mu
    with mpmath.workdps(40):
        mus = [mpmath.mpc(m) for m in sample_mu(samples, seed)]
        for mu in mus:
            at_mu, at_t, at_s = (orbit_values(orb.points, index, m, tol=1e-35) for m in (mu, mu - 1j, 1 / mu))
            for pt, s, t in zip(orb.points, orb.S, orb.T):
                lhs = at_t[pt]
                rhs = at_mu[t]
                worst["T"] = max(worst["T"], float(abs(lhs - rhs) / (1 + abs(rhs))))
                lhs = at_s[pt]
                rhs = -(mu**2) * at_mu[s]
                worst["S"] = max(worst["S"], float(abs(lhs - rhs) / (1 + abs(rhs))))
    return {
        "order": index.order,
        "samples": samples,
        "max_residual": max(worst.values()),
        "per_generator": worst,
        "tol": tol,
        "pass": max(worst.values()) <= tol,
    }
