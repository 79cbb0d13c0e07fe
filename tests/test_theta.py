from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import factorial

import pytest

from bianchi9.cyclotomic import Cyclotomic
from bianchi9.theta import (
    THETA2,
    THETA3,
    THETA4,
    Characteristics,
    ThetaSpec,
    _eval_range,
    cyclotomic_order,
    theta_eval,
    theta_jet,
    theta_series,
)

F = Fraction

SAMPLE_CHARS = [
    (F(1, 3), F(1, 5)),
    (F(1, 6), F(5, 6)),
    (F(0), F(1, 3)),
    (F(1, 2), F(1, 3)),
]
SAMPLE_MUS = [1.2, 0.85, 1.6 + 0.2j]


def test_theta3_at_i():
    # theta3(i) = pi^{1/4} / Gamma(3/4)
    v = theta_eval(ThetaSpec(THETA3), 1.0)
    assert abs(v - 1.0864348112133080) < 1e-12


def test_theta2_series_exponents():
    s = theta_series(ThetaSpec(THETA2), 4)
    assert s.exp_den == 8
    assert sorted(F(e, 8) for e in s.terms) == [F(1, 8), F(9, 8), F(25, 8)]
    assert all(c == 2 for c in s.terms.values())


def test_series_matches_eval():
    for p, q in SAMPLE_CHARS:
        for n in (0, 2):
            for dq in (False, True):
                spec = ThetaSpec(Characteristics(p, q), n, dq)
                s = theta_series(spec, 8)
                v = theta_eval(spec, 1.1, 1e-15)
                assert abs(s.evaluate_mu(1.1) - v) < 1e-12 * (1 + abs(v))


def test_series_grade_counts_pi_powers():
    s = theta_series(ThetaSpec(Characteristics(F(1, 3), F(1, 5)), 3, True), 4)
    assert s.grade.pi_exp == 4


def test_cyclotomic_order_accommodates_all_phases():
    char = Characteristics(F(1, 3), F(1, 5))
    n = cyclotomic_order(char)
    assert n % 4 == 0 and n % 6 == 0 and n % 10 == 0 and n % 15 == 0


# -- one lattice pass against the per-order and phase-by-hand oracles --

# characteristics as given, with p >= 1 or q >= 1 among them
UNREDUCED_CHARS = SAMPLE_CHARS + [(F(4, 3), F(1, 5)), (F(1, 3), F(6, 5)), (F(7, 6), F(11, 6)), (F(3, 2), F(1))]


def _per_order_walk(p, q, mu_order: int, q_deriv: bool, mu, tol: float):
    """One full lattice sum for one derivative order: the numeric oracle."""
    if isinstance(mu, (int, float)):
        mu = complex(mu)
    m_max = _eval_range(float(abs(complex(p))), complex(mu), tol)
    if not isinstance(mu, complex):
        import mpmath

        pi, exp = +mpmath.pi, mpmath.exp
        p_num, q_num = mpmath.mpmathify(p), mpmath.mpmathify(q)
        acc = mpmath.mpc(0)
    else:
        pi, exp = math.pi, cmath.exp
        p_num, q_num = complex(p), complex(q)
        acc = 0j
    for m in range(-m_max, m_max + 1):
        mp = m + p_num
        term = exp(-pi * mp * mp * mu + 2j * pi * mp * q_num)
        term *= (-pi * mp * mp) ** mu_order
        if q_deriv:
            term *= 2j * pi * mp
        acc += term
    return acc


@pytest.mark.parametrize("p,q", UNREDUCED_CHARS)
def test_theta_jet_equals_per_order_walk(p, q):
    for dq in (False, True):
        for mu in (1.2, 0.85 + 0.1j):
            jet = theta_jet(p, q, dq, mu, 4, 1e-15)
            assert jet.comps == tuple(_per_order_walk(p, q, j, dq, mu, 1e-15) for j in range(5))


@pytest.mark.parametrize("p,q", UNREDUCED_CHARS)
def test_theta_jet_equals_per_order_walk_at_40_digits(p, q):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu = mpmath.mpc("1.03", "0.02")
        for dq in (False, True):
            jet = theta_jet(p, q, dq, mu, 4, 1e-35)
            assert jet.comps == tuple(_per_order_walk(p, q, j, dq, mu, 1e-35) for j in range(5))


def _theta_series_shifted(p: Fraction, q: Fraction, q_deriv: bool, trunc: int):
    """Series of (d_q) th[p,q] at the reduced characteristic, phase added by hand.

    p-shifts are exact; each unit shift in q multiplies by e^{2 pi i p}: the
    exact oracle for theta_series at unreduced characteristics.
    """
    p_red = p % 1
    q_shift = math.floor(q)
    char = Characteristics(p_red, q - q_shift)
    base = theta_series(ThetaSpec(char, 0, q_deriv), trunc)
    if q_shift:
        phase = Cyclotomic.from_turns((p_red * q_shift) % 1, cyclotomic_order(char))
        base = base.scale(phase)
    return base


def test_theta_series_carries_the_quasi_periodicity_phase():
    half = F(1, 2)
    grid = sorted({F(k, d) for d in range(1, 7) for k in range(d)})
    for p in grid:
        for q in grid:
            for dp, dq in ((0, 0), (0, half), (half, half), (half, 0)):
                for q_deriv in (False, True):
                    got = theta_series(ThetaSpec(Characteristics(p + dp, q + dq), 0, q_deriv), 3)
                    want = _theta_series_shifted(p + dp, q + dq, q_deriv, 3)
                    assert got.to_json() == want.to_json(), (p + dp, q + dq, q_deriv)


def test_mu_order_capped():
    with pytest.raises(ValueError):
        ThetaSpec(THETA3, 5)


def test_eval_domain_errors():
    with pytest.raises(ValueError):
        theta_eval(ThetaSpec(THETA3), -1.0)
    with pytest.raises(ValueError):
        theta_eval(ThetaSpec(THETA3), 1.0, tol=0.0)


def c_const(j: int, n: int) -> Cyclotomic:
    """(-i)^n n! / (2^j (n-2j)! (2j)!!), exactly in Q(i): the inversion-law constants."""
    if not 0 <= 2 * j <= n:
        raise ValueError("need 0 <= 2j <= n")
    double_fact = 2**j * factorial(j)  # (2j)!! for even arguments
    r = Fraction(factorial(n), 2**j * factorial(n - 2 * j) * double_fact)
    return Cyclotomic.root(4, (3 * n) % 4) * r  # (-i)^n = zeta_4^{3n}


def test_c_const_small_cases():
    assert c_const(0, 0) == Cyclotomic.one()
    assert c_const(0, 1) == -Cyclotomic.from_turns(F(1, 4), 4)
    assert c_const(0, 2) == Cyclotomic.from_rational(F(-1))
    # C(1|2) = (-i)^2 2!/(2 * 0! * 2) = -1/2
    assert c_const(1, 2) == Cyclotomic.from_rational(F(-1, 2))
    with pytest.raises(ValueError):
        c_const(2, 3)


# -- transformation laws ----------------------------------------------


def test_quasi_periodicity_in_q():
    for p, q in SAMPLE_CHARS:
        phase = cmath.exp(2j * cmath.pi * float(p))
        for n in range(5):
            for dq in (False, True):
                lhs = theta_eval(ThetaSpec(Characteristics(p, q + 1), n, dq), 1.2, 1e-15)
                rhs = phase * theta_eval(ThetaSpec(Characteristics(p, q), n, dq), 1.2, 1e-15)
                assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_quasi_periodicity_in_p():
    for p, q in SAMPLE_CHARS:
        for n in range(5):
            for dq in (False, True):
                lhs = theta_eval(ThetaSpec(Characteristics(p + 1, q), n, dq), 1.2, 1e-15)
                rhs = theta_eval(ThetaSpec(Characteristics(p, q), n, dq), 1.2, 1e-15)
                assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def _t_residual(p, q, mu) -> float:
    """Shift law: argument i mu + 1 equals characteristics [p, q+p+1/2]."""
    worst = 0.0
    phase = cmath.exp(-1j * cmath.pi * float(p) * (float(p) + 1))
    for n in range(5):
        for dq in (False, True):
            lhs = theta_eval(ThetaSpec(Characteristics(p, q), n, dq), mu - 1j, 1e-15)
            rhs = phase * theta_eval(ThetaSpec(Characteristics(p, q + p + F(1, 2)), n, dq), mu, 1e-15)
            worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
    return worst


def _t2_residual(p, q, mu) -> float:
    """Double shift: argument i mu + 2 equals characteristics [p, q+2p]."""
    worst = 0.0
    phase = cmath.exp(-2j * cmath.pi * float(p) ** 2)
    for n in range(5):
        for dq in (False, True):
            lhs = theta_eval(ThetaSpec(Characteristics(p, q), n, dq), mu - 2j, 1e-15)
            rhs = phase * theta_eval(ThetaSpec(Characteristics(p, q + 2 * p), n, dq), mu, 1e-15)
            worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
    return worst


def _s_residual(p, q, mu) -> float:
    """Inversion law: i/mu side expands in mu-powers against [-q, p].

    The q-derivative version lands on the derivative in the slot that holds p
    on the right-hand side, which is the q-slot of [-q, p].
    """
    worst = 0.0
    phase = cmath.exp(2j * cmath.pi * float(p) * float(q))
    for n in range(5):
        for dq in (False, True):
            lhs = theta_eval(ThetaSpec(Characteristics(p, q), n, dq), 1 / mu, 1e-15)
            rhs = 0j
            for j in range(n + 1):
                order = 2 * n + 1 if dq else 2 * n
                power = order + 0.5 - j
                rhs += (
                    complex(c_const(j, order))
                    * mu**power
                    * theta_eval(ThetaSpec(Characteristics(-q, p), n - j, dq), mu, 1e-15)
                )
            rhs *= phase
            worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
    return worst


@pytest.mark.parametrize("p,q", SAMPLE_CHARS)
def test_shift_law(p, q):
    for mu in SAMPLE_MUS:
        assert _t_residual(p, q, mu) < 1e-10


@pytest.mark.parametrize("p,q", SAMPLE_CHARS)
def test_double_shift_law(p, q):
    for mu in SAMPLE_MUS:
        assert _t2_residual(p, q, mu) < 1e-10


@pytest.mark.parametrize("p,q", SAMPLE_CHARS)
def test_inversion_law(p, q):
    for mu in (1.2, 0.85):
        assert _s_residual(p, q, mu) < 1e-10


def test_classical_theta_shift_laws():
    # theta2 picks up e^{i pi/4}; theta3 and theta4 swap
    mu = 1.3
    for n in range(5):
        t2l = theta_eval(ThetaSpec(THETA2, n, False), mu - 1j, 1e-15)
        t2r = cmath.exp(1j * cmath.pi / 4) * theta_eval(ThetaSpec(THETA2, n, False), mu, 1e-15)
        assert abs(t2l - t2r) < 1e-12
        t3l = theta_eval(ThetaSpec(THETA3, n, False), mu - 1j, 1e-15)
        t4 = theta_eval(ThetaSpec(THETA4, n, False), mu, 1e-15)
        assert abs(t3l - t4) < 1e-12
        t4l = theta_eval(ThetaSpec(THETA4, n, False), mu - 1j, 1e-15)
        t3 = theta_eval(ThetaSpec(THETA3, n, False), mu, 1e-15)
        assert abs(t4l - t3) < 1e-12


def test_classical_theta_inversion_laws():
    # theta2 and theta4 swap under inversion; theta3 is fixed
    mu = 1.15
    pairs = [(THETA2, THETA4), (THETA3, THETA3), (THETA4, THETA2)]
    for src, dst in pairs:
        for n in range(5):
            lhs = theta_eval(ThetaSpec(src, n, False), 1 / mu, 1e-15)
            rhs = sum(
                complex(c_const(j, 2 * n))
                * mu ** (2 * n + 0.5 - j)
                * theta_eval(ThetaSpec(dst, n - j, False), mu, 1e-15)
                for j in range(n + 1)
            )
            assert abs(lhs - rhs) < 1e-11 * (1 + abs(rhs))


def test_jacobi_identity():
    # theta3^4 = theta2^4 + theta4^4
    for mu in (0.9, 1.4):
        t2 = theta_eval(ThetaSpec(THETA2), mu, 1e-15)
        t3 = theta_eval(ThetaSpec(THETA3), mu, 1e-15)
        t4 = theta_eval(ThetaSpec(THETA4), mu, 1e-15)
        assert abs(t3**4 - t2**4 - t4**4) < 1e-12


# -- orders of vanishing at the cusp ----------------------------------


def _dist_to_int(p: Fraction) -> Fraction:
    r = p % 1
    return min(r, 1 - r)


def expected_theta_valuation(p: Fraction) -> Fraction:
    return _dist_to_int(p) ** 2 / 2


def expected_dq_theta_valuation(p: Fraction, q: Fraction) -> Fraction | None:
    p, q = p % 1, q % 1
    if (p, q) in {(F(0), F(0)), (F(0), F(1, 2)), (F(1, 2), F(0))}:
        return None  # the series vanishes identically
    if p == 0:
        return F(1, 2)
    return _dist_to_int(p) ** 2 / 2


@pytest.mark.parametrize("p,q", SAMPLE_CHARS + [(F(1, 2), F(0)), (F(0), F(1, 2))])
def test_valuations_match_closed_form(p, q):
    s = theta_series(ThetaSpec(Characteristics(p, q)), 6)
    assert F(s.valuation, s.exp_den) == expected_theta_valuation(p)
    d = theta_series(ThetaSpec(Characteristics(p, q), 0, True), 6)
    want = expected_dq_theta_valuation(p, q)
    if want is None:
        assert d.is_zero()
    else:
        assert F(d.valuation, d.exp_den) == want


def test_classical_valuations():
    for char, want in ((THETA2, F(1, 8)), (THETA3, 0), (THETA4, 0)):
        s = theta_series(ThetaSpec(char), 6)
        assert F(s.valuation, s.exp_den) == want


def test_high_precision_eval_path():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        v = theta_eval(ThetaSpec(Characteristics(F(1, 3), F(1, 5)), 1, True), mpmath.mpc("1.2"), 1e-25)
        w = theta_eval(ThetaSpec(Characteristics(F(1, 3), F(1, 5)), 1, True), 1.2, 1e-15)
        assert abs(complex(v) - w) < 1e-12
