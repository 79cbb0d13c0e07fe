"""Jacobi theta functions with characteristics.

theta[p,q](i mu) = sum_m exp(-pi (m+p)^2 mu + 2 pi i (m+p) q) and d_q theta[p,q],
with mu-derivatives.  The exact walk gives the pair (theta, d_q theta) of one
characteristic; the numeric walk gives the pairs of every q sharing one p.
Characteristics are taken as given, not reduced mod 1, so a unit shift of q
carries the quasi-periodicity phase e^{2 pi i p} inside the lattice sum.  Two representations:

* exact: Puiseux series in the nome Q = e^{-2 pi mu} with coefficients in a
  cyclotomic field (theta_series), the power of pi factored into the grade;
  their mu-derivatives are ``PuiseuxSeries.mu_derivative``;
* numeric: direct partial summation with a Gaussian tail bound, one lattice
  pass per p for every q it serves, each q asking for its own number of
  mu-derivatives of theta and of d_q theta (theta_values, from which the numeric
  frames are assembled): one exp per lattice row, each phase a cached root of
  unity, as in Deconinck et al., Math. Comp. 73 (2004).  A sum longer than MAX_LATTICE_TERMS
  terms (Re mu near 0) is refused with a ValueError.

Characteristics are plain (p, q) pairs of Fractions.  Both walks index lattice row m by
the integer k = m b + a for p = a/b (m + p = k/b), and with q = c/d the row's phase
e^{2 pi i k c/(b d)} by the integer k c mod b d: the exact walk reads it as zeta_N^{k c N/(b d)},
N = cyclotomic_order(p, q), the numeric walk as ``_unit_root(k c mod b d, b d)``.

One rule picks the numeric arithmetic, ``arithmetic(mu)``: a Python number
means machine floats, an mpmath number means mpmath at its working precision.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from fractions import Fraction

from .cyclotomic import Cyclotomic
from .series import Grade, PuiseuxSeries


# the three classical characteristics (p, q)
THETA2 = (Fraction(1, 2), Fraction(0))
THETA3 = (Fraction(0), Fraction(0))
THETA4 = (Fraction(0), Fraction(1, 2))

MAX_LATTICE_TERMS = 10_000  # a numeric lattice sum needing more terms is refused


def cyclotomic_order(p: Fraction, q: Fraction) -> int:
    """Smallest root-of-unity order accommodating all phases for [p,q]."""
    dp, dq = p.denominator, q.denominator
    return math.lcm(4, 2 * dp, 2 * dq, dp * dq)


def theta_series(p: Fraction, q: Fraction, trunc: int) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """Exact nome series of theta[p,q](i mu) and d_q theta[p,q](i mu), the latter of grade pi^1.

    With p = a/b and q = c/d, row k = m b + a (m + p = k/b) sits at Q^{k^2/(2 b^2)} with phase
    zeta_N^{k c N/(b d)}, N = cyclotomic_order(p, q); d_q brings 2 i k/b, a further N/4 in the
    exponent and the factor 2k/b.  The rows are the k = a mod b with k^2 < 2 b^2 trunc, in increasing order.
    """
    a, b, c, d = p.numerator, p.denominator, q.numerator, q.denominator
    order = cyclotomic_order(p, q)
    step, quarter = c * (order // (b * d)), order // 4
    exp_den = 2 * b * b
    theta: dict[int, Cyclotomic] = {}
    dq: dict[int, Cyclotomic] = {}
    zero, horizon = Cyclotomic.zero(order), trunc * exp_den
    top = math.isqrt(horizon - 1) if horizon > 0 else -1  # the largest |k| with k^2 < horizon
    for k in range(-top + (a + top) % b, top + 1, b):
        e = k * k
        theta[e] = theta.get(e, zero) + Cyclotomic.root(order, k * step)
        if k:
            # d_q brings 2 i (m+p) = 2 i k/b: the i is a quarter turn, the pi lives in the grade
            dq[e] = dq.get(e, zero) + Cyclotomic.root(order, k * step + quarter) * Fraction(2 * k, b)
    return tuple(PuiseuxSeries(exp_den, t, horizon, Grade(pi_exp=n)) for n, t in enumerate((theta, dq)))


def _eval_range(p: float, mu: complex, tol: float) -> int:
    """m_max of the lattice sum over |m| <= m_max at mu; more than MAX_LATTICE_TERMS terms is refused."""
    inner = max(0.0, (math.log(100) - math.log(tol)) / (math.pi * mu.real))
    reach = abs(p) + math.sqrt(inner)
    if not 2 * reach + 5 <= MAX_LATTICE_TERMS:  # an infinite reach fails the test too
        raise ValueError(f"theta lattice sum at mu = {mu} needs about {2 * reach + 5:.3g} terms, above {MAX_LATTICE_TERMS}")
    return math.ceil(reach) + 2


def _sum_products(xs, ys):
    return sum(map(operator.mul, xs, ys))


def arithmetic(mu):
    """(mu, pi, exp, number type, precision, dot) of the arithmetic mu selects: machine
    floats for a Python number (precision None, dot a plain sum of products), else
    mpmath at mpmath.mp.prec (dot ``mpmath.fdot``, rounded once)."""
    if isinstance(mu, (int, float, complex)):
        return complex(mu), math.pi, cmath.exp, complex, None, _sum_products
    import mpmath

    return mu, +mpmath.pi, mpmath.exp, mpmath.mpmathify, mpmath.mp.prec, mpmath.fdot


@functools.lru_cache(maxsize=4096)
def _unit_root(k: int, n: int, prec):
    """e^{2 pi i k/n} in machine floats (prec None) or in mpmath at prec bits.

    The root is computed from the turn k/n in lowest terms, taken in (-1/2, 1/2],
    so its bits depend on the angle alone: _unit_root(k, n) == _unit_root(k r, n r).
    """
    g = math.gcd(k, n)
    k, n = k // g - (n // g if 2 * k > n else 0), n // g
    if prec is None:
        return cmath.exp(1j * (2 * math.pi * k / n))
    import mpmath

    with mpmath.workprec(prec):
        return mpmath.expj(2 * mpmath.pi * k / n)


def _theta_eval_raw(p, qs, mu: complex, orders, tol: float) -> list[tuple[list, list]]:
    """Mu-derivatives of theta[p,q](i mu) and of d_q theta[p,q](i mu) for every q in qs, from one lattice pass.

    orders[i] = (n_theta, n_dq) asks for derivatives 0..n_theta-1 of theta[p,qs[i]] and
    0..n_dq-1 of d_q theta[p,qs[i]]; 0 leaves that function unsummed (an empty list).
    Lattice row m takes one exp, g = exp(gauss mu) with gauss = -pi (m+p)^2, and the
    rows g gauss^j and g gauss^j 2 pi i (m+p) by repeated multiplication.  The phase
    e^{2 pi i (m+p) q} is a root of unity of order dividing den(p) den(q), read from
    ``_unit_root`` at integer arguments, and every returned sum is one dot product of a
    row with the phase column over m, in the arithmetic ``arithmetic(mu)`` selects.
    """
    mu, pi, exp, num, prec, dot = arithmetic(mu)
    if complex(mu).real <= 0:
        raise ValueError("Re(mu) must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    p, qs = Fraction(p), [Fraction(q) for q in qs]
    m_max = _eval_range(float(abs(p)), complex(mu), tol)
    a, b = p.numerator, p.denominator
    n_theta, n_dq = (max(counts) for counts in zip(*orders))
    theta_rows = [[] for _ in range(n_theta)]
    dq_rows = [[] for _ in range(n_dq)]
    ks = [m * b + a for m in range(-m_max, m_max + 1)]  # m + p = k / b
    for k in ks:
        mp = num(k).real / b
        gauss = -pi * mp * mp
        factor = 2j * pi * mp
        row = exp(gauss * mu)
        for j in range(max(n_theta, n_dq)):
            if j:
                row *= gauss
            if j < n_theta:
                theta_rows[j].append(row)
            if j < n_dq:
                dq_rows[j].append(row * factor)
    sums = []
    for q, (q_theta, q_dq) in zip(qs, orders):
        c, n = q.numerator, b * q.denominator  # (m+p) q = k c / n turns
        phases = [_unit_root(k * c % n, n, prec) for k in ks]
        sums.append(([dot(row, phases) for row in theta_rows[:q_theta]], [dot(row, phases) for row in dq_rows[:q_dq]]))
    return sums


def theta_values(requests, mu: complex, tol: float) -> dict:
    """{(p, q): (theta, d_q theta)} for requests ((p, q), (n_theta, n_dq)), each a list of the
    first n mu-derivatives; a characteristic asked for twice gets the larger count of each
    function.  One walk per distinct p, taken as given: p + 1/2 may pass 1, and the walk's
    range reads |p|."""
    by_p: dict = {}
    for (p, q), counts in requests:
        at_p = by_p.setdefault(p, {})
        at_p[q] = tuple(map(max, at_p.get(q, (0, 0)), counts))
    return {
        (p, q): pair
        for p, at_p in by_p.items()
        for q, pair in zip(at_p, _theta_eval_raw(p, list(at_p), mu, list(at_p.values()), tol))
    }

