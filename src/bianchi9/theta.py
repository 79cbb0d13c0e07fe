"""Jacobi theta functions with characteristics.

theta[p,q](i mu) = sum_m exp(-pi (m+p)^2 mu + 2 pi i (m+p) q), together with
mu-derivatives and a single q-derivative.  Characteristics are taken as
given, not reduced mod 1, so a unit shift of q carries the quasi-periodicity
phase e^{2 pi i p} inside the lattice sum.  Two representations:

* exact: a Puiseux series in the nome Q = e^{-2 pi mu} with coefficients in a
  cyclotomic field (theta_series, mu-derivatives up to order 4), the power of
  pi factored into the grade;
* numeric: direct partial summation with a Gaussian tail bound, one lattice
  pass for the whole jet of mu-derivatives 0..order (theta_jet, from which
  both instanton frames are assembled; theta_eval reads one component).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyclotomic
from .jets import Jet
from .series import Grade, PuiseuxSeries


@dataclass(frozen=True)
class Characteristics:
    """The [p,q] pair, stored as given: theta[p, q+1] = e^{2 pi i p} theta[p, q]."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))


# the three classical characteristics
THETA2 = Characteristics(Fraction(1, 2), Fraction(0))
THETA3 = Characteristics(Fraction(0), Fraction(0))
THETA4 = Characteristics(Fraction(0), Fraction(1, 2))


@dataclass(frozen=True)
class ThetaSpec:
    """A theta function together with its derivative decoration."""

    char: Characteristics
    mu_order: int = 0
    q_deriv: bool = False

    def __post_init__(self):
        if not 0 <= self.mu_order <= 4:
            raise ValueError("mu_order must be between 0 and 4")


def cyclotomic_order(char: Characteristics) -> int:
    """Smallest root-of-unity order accommodating all phases for [p,q]."""
    dp, dq = char.p.denominator, char.q.denominator
    n = math.lcm(4, 2 * dp, 2 * dq, dp * dq)
    return n


def theta_series(spec: ThetaSpec, trunc: int) -> PuiseuxSeries:
    """Exact nome series; grade pi^(mu_order + q_deriv)."""
    p, q = spec.char.p, spec.char.q
    n = spec.mu_order
    order = cyclotomic_order(spec.char)
    dp = p.denominator
    exp_den = 2 * dp * dp
    terms: dict[int, Cyclotomic] = {}
    # (m+p)^2/2 < trunc  <=>  |m+p| < sqrt(2 trunc)
    bound = math.isqrt(2 * trunc * dp * dp)  # floor(dp*sqrt(2T))
    m_lo = math.floor(-Fraction(bound + 1, dp) - p)
    m_hi = math.ceil(Fraction(bound + 1, dp) - p)
    for m in range(m_lo, m_hi + 1):
        mp = m + p  # m + p as a Fraction
        # exponent (m+p)^2/2 in units of 1/(2 dp^2) is (dp*(m+p))^2
        k = int(mp * dp)
        e = k * k
        if e >= trunc * exp_den:
            continue
        turns = mp * q
        if spec.q_deriv:
            # 2 i (-1)^n (m+p)^{2n+1}: the i is a quarter turn, the pi^{n+1} lives in the grade
            turns += Fraction(1, 4)
            factor = 2 * Fraction((-1) ** n) * mp ** (2 * n + 1)
        else:
            factor = Fraction((-1) ** n) * mp ** (2 * n)
        coeff = Cyclotomic.from_turns(turns % 1, order) * factor
        if not coeff.is_zero():
            terms[e] = terms.get(e, Cyclotomic.zero(order)) + coeff
    grade = Grade(pi_exp=n + (1 if spec.q_deriv else 0))
    return PuiseuxSeries(exp_den, terms, trunc * exp_den, grade)


def _eval_range(p: float, mu: complex, tol: float) -> int:
    eps = 1e-2
    re = mu.real
    inner = max(0.0, -math.log(tol * eps) / (math.pi * re))
    return math.ceil(abs(p) + math.sqrt(inner)) + 2


def _theta_eval_raw(p, q, q_deriv: bool, mu: complex, order: int, tol: float) -> list:
    """Mu-derivatives 0..order of (d_q) theta[p,q](i mu) from one lattice pass.

    Each lattice term takes one exp and is scaled by (-pi (m+p)^2)^j for
    order j.  An arbitrary-precision complex ``mu`` (mpmath) switches the
    whole sum to that precision; plain complex input stays in machine floats.
    """
    if isinstance(mu, (int, float)):
        mu = complex(mu)
    high = not isinstance(mu, complex)
    if complex(mu).real <= 0:
        raise ValueError("Re(mu) must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    m_max = _eval_range(float(abs(complex(p))), complex(mu), tol)
    if high:
        import mpmath

        pi = +mpmath.pi
        exp = mpmath.exp
        p_num, q_num = mpmath.mpmathify(p), mpmath.mpmathify(q)
        acc = [mpmath.mpc(0)] * (order + 1)
    else:
        pi, exp = math.pi, cmath.exp
        p_num, q_num = complex(p), complex(q)
        acc = [0j] * (order + 1)
    for m in range(-m_max, m_max + 1):
        mp = m + p_num
        gauss = -pi * mp * mp
        base = exp(gauss * mu + 2j * pi * mp * q_num)
        for j in range(order + 1):
            term = base * gauss**j
            if q_deriv:
                term *= 2j * pi * mp
            acc[j] += term
    return acc


def theta_eval(spec: ThetaSpec, mu: complex, tol: float = 1e-12) -> complex:
    """Numeric value of d^n/dmu^n (d/dq) theta[p,q](i mu)."""
    n = spec.mu_order
    return _theta_eval_raw(spec.char.p, spec.char.q, spec.q_deriv, mu, n, tol)[n]


def theta_jet(p, q, q_deriv: bool, mu: complex, order: int, tol: float) -> Jet:
    """Jet whose component j is the j-th mu-derivative of (d_q) theta[p,q](i mu)."""
    return Jet(_theta_eval_raw(p, q, q_deriv, mu, order, tol))
