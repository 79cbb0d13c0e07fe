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
  pass per p for the pairs of every q it serves, each q to its own order of
  mu-derivatives (theta_values, from which the numeric frames are assembled;
  theta_jet is the pass for one q).  A sum longer than MAX_LATTICE_TERMS
  terms (Re mu near 0) is refused with a ValueError.

Characteristics are plain (p, q) pairs of Fractions.

One rule picks the numeric arithmetic, ``arithmetic(mu)``: a Python number
means machine floats, an mpmath number means mpmath at its working precision.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .cyclotomic import Cyclotomic
from .jets import Jet
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
    """Exact nome series of theta[p,q](i mu) and d_q theta[p,q](i mu), the latter of grade pi^1."""
    order = cyclotomic_order(p, q)
    dp = p.denominator
    exp_den = 2 * dp * dp
    theta: dict[int, Cyclotomic] = {}
    dq: dict[int, Cyclotomic] = {}
    zero, horizon = Cyclotomic.zero(order), trunc * exp_den
    # (m+p)^2/2 < trunc  <=>  |m+p| < sqrt(2 trunc)
    bound = math.isqrt(2 * trunc * dp * dp)  # floor(dp*sqrt(2T))
    m_lo = math.floor(-Fraction(bound + 1, dp) - p)
    m_hi = math.ceil(Fraction(bound + 1, dp) - p)
    for m in range(m_lo, m_hi + 1):
        mp = m + p  # m + p as a Fraction
        # exponent (m+p)^2/2 in units of 1/(2 dp^2) is (dp*(m+p))^2
        k = int(mp * dp)
        e = k * k
        if e >= horizon:
            continue
        turns = mp * q
        theta[e] = theta.get(e, zero) + Cyclotomic.from_turns(turns % 1, order)
        if mp:
            # d_q brings 2 i (m+p): the i is a quarter turn, the pi lives in the grade
            coeff = Cyclotomic.from_turns((turns + Fraction(1, 4)) % 1, order) * (2 * mp)
            dq[e] = dq.get(e, zero) + coeff
    return tuple(PuiseuxSeries(exp_den, t, horizon, Grade(pi_exp=n)) for n, t in enumerate((theta, dq)))


def _eval_range(p: float, mu: complex, tol: float) -> int:
    """m_max of the lattice sum over |m| <= m_max at mu; more than MAX_LATTICE_TERMS terms is refused."""
    inner = max(0.0, (math.log(100) - math.log(tol)) / (math.pi * mu.real))
    reach = abs(p) + math.sqrt(inner)
    if not 2 * reach + 5 <= MAX_LATTICE_TERMS:  # an infinite reach fails the test too
        raise ValueError(f"theta lattice sum at mu = {mu} needs about {2 * reach + 5:.3g} terms, above {MAX_LATTICE_TERMS}")
    return math.ceil(reach) + 2


def arithmetic(mu):
    """(mu, pi, exp, number type, precision) of the arithmetic mu selects: machine
    floats for a Python number (precision None), else mpmath at mpmath.mp.prec."""
    if isinstance(mu, (int, float, complex)):
        return complex(mu), math.pi, cmath.exp, complex, None
    import mpmath

    return mu, +mpmath.pi, mpmath.exp, mpmath.mpmathify, mpmath.mp.prec


def _theta_eval_raw(p, qs, mu: complex, orders, tol: float) -> list[tuple[list, list]]:
    """Mu-derivatives of theta[p,q](i mu) and of d_q theta[p,q](i mu) for every q in qs, from one lattice pass.

    Component j runs to orders[i] for qs[i].  What a lattice term shares across
    the qs (m+p, gauss = -pi (m+p)^2, gauss mu, 2 pi i (m+p) and the powers of
    gauss) is computed once; each q takes one exp of gauss mu + 2 pi i (m+p) q,
    scaled by gauss^j for order j, and d_q theta sums it times 2 pi i (m+p).
    The sum runs in the arithmetic that ``arithmetic(mu)`` selects.
    """
    mu, pi, exp, num, _ = arithmetic(mu)
    if complex(mu).real <= 0:
        raise ValueError("Re(mu) must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    m_max = _eval_range(float(abs(complex(p))), complex(mu), tol)
    p_num, q_nums = num(p), [num(q) for q in qs]
    sums = [([num(0j)] * (order + 1), [num(0j)] * (order + 1)) for order in orders]
    powers = range(max(orders) + 1)
    for m in range(-m_max, m_max + 1):
        mp = m + p_num
        gauss = -pi * mp * mp
        gauss_mu, factor = gauss * mu, 2j * pi * mp
        gauss_j = [gauss**j for j in powers]
        for q_num, (theta, dq) in zip(q_nums, sums):
            base = exp(gauss_mu + factor * q_num)
            for j in range(len(theta)):
                term = base * gauss_j[j]
                theta[j] += term
                dq[j] += term * factor
    return sums


def theta_values(orders: dict, mu: complex, tol: float) -> dict:
    """{(p, q): (theta, d_q theta)} for {(p, q): order}, each a list of mu-derivatives 0..order,
    from one walk per distinct p, taken as given: p + 1/2 may pass 1, and the walk's range reads |p|."""
    by_p: dict = {}
    for (p, q), order in orders.items():
        by_p.setdefault(p, {})[q] = order
    return {
        (p, q): pair
        for p, at_p in by_p.items()
        for q, pair in zip(at_p, _theta_eval_raw(p, list(at_p), mu, list(at_p.values()), tol))
    }


def theta_jet(p, q, mu: complex, order: int, tol: float) -> tuple[Jet, Jet]:
    """Jets of theta[p,q](i mu) and d_q theta[p,q](i mu): component j is the j-th mu-derivative."""
    return tuple(Jet(comps) for comps in _theta_eval_raw(p, (q,), mu, (order,), tol)[0])
