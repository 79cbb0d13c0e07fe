from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi9.cyclotomic import Cyclotomic
from bianchi9.instanton import TwoParamPoint
from bianchi9.modular import sample_mu
from bianchi9.series import Grade, PuiseuxSeries
from bianchi9.theta import (
    MAX_LATTICE_TERMS,
    THETA2,
    THETA3,
    THETA4,
    _eval_range,
    _theta_eval_raw,
    _unit_root,
    cyclotomic_order,
    theta_series,
    theta_values,
)

from seeley_oracle import theta_jet

F = Fraction

SAMPLE_CHARS = [
    (F(1, 3), F(1, 5)),
    (F(1, 6), F(5, 6)),
    (F(0), F(1, 3)),
    (F(1, 2), F(1, 3)),
]
SAMPLE_MUS = [1.2, 0.85, 1.6 + 0.2j]


def _value(p, q, n: int, dq: bool, mu, tol: float = 1e-12):
    """d^n/dmu^n (d_q) theta[p,q](i mu): component n of one lattice pass."""
    return theta_jet(p, q, mu, n, tol)[dq][n]


def _series(p, q, n: int, dq: bool, trunc: int):
    """The exact series of d^n/dmu^n (d_q) theta[p,q](i mu)."""
    s = theta_series(p, q, trunc)[dq]
    for _ in range(n):
        s = s.mu_derivative()
    return s


def test_theta3_at_i():
    # theta3(i) = pi^{1/4} / Gamma(3/4)
    v = _value(*THETA3, 0, False, 1.0)
    assert abs(v - 1.0864348112133080) < 1e-12


def test_theta2_series_exponents():
    s = theta_series(*THETA2, 4)[0]
    assert s.exp_den == 8
    assert sorted(F(e, 8) for e in s.terms) == [F(1, 8), F(9, 8), F(25, 8)]
    assert all(c == 2 for c in s.terms.values())


def test_series_matches_eval():
    for p, q in SAMPLE_CHARS:
        for n in (0, 2):
            for dq in (False, True):
                s = _series(p, q, n, dq, 8)
                # |Im mu| > 1/2 puts fractional nome powers off the principal branch
                for mu in (1.1, 1.1 + 0.55j, 1.1 - 0.7j):
                    v = _value(p, q, n, dq, mu, 1e-15)
                    assert abs(s.evaluate_mu(mu) - v) < 1e-12 * (1 + abs(v))


def test_series_grade_counts_pi_powers():
    s = _series(F(1, 3), F(1, 5), 3, True, 4)
    assert s.grade.pi_exp == 4


def test_cyclotomic_order_accommodates_all_phases():
    n = cyclotomic_order(F(1, 3), F(1, 5))
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


# the float and 40-digit grids of the per-order oracle: (mu, tol, bound relative to 1 + |ref|)
FLOAT_GRID = [(1.2, 1e-15), (0.85 + 0.1j, 1e-15)]
FLOAT_BOUND, MP40_BOUND = 1e-14, 1e-38


@functools.lru_cache(maxsize=None)
def _reference(p, q, mu, dq: bool) -> tuple:
    """Mu-derivatives 0..4 of (d_q) theta[p,q](i mu) as complex pairs of 90-digit sums at tol 1e-85:
    the per-order oracle, far beyond either arithmetic under test.  mu keeps its binary value."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(90):
        return tuple(_per_order_walk(p, q, j, dq, mpmath.mpc(mu), 1e-85) for j in range(5))


def _worst_error(values, ref) -> float:
    """Largest |value - ref| / (1 + |ref|), taken at 90 digits."""
    import mpmath

    with mpmath.workdps(90):
        return max(float(abs(v - r) / (1 + abs(r))) for v, r in zip(values, ref))


@pytest.mark.parametrize("p,q", UNREDUCED_CHARS)
def test_theta_jet_equals_per_order_walk(p, q):
    """In float64 the walk and the per-order oracle (one exp per term) both meet the 90-digit sum.

    The oracle gets 10x the bound only where the reference vanishes identically, so that its
    value is all cancellation: at the 4th derivative of d_q theta[3/2, 1], mu = 0.85 + 0.1i,
    it is off by 4.1e-14 (the walk by 4.3e-15)."""
    for mu, tol in FLOAT_GRID:
        jets = theta_jet(p, q, mu, 4, tol)
        for dq, jet in zip((False, True), jets):
            ref = _reference(p, q, mu, dq)
            assert _worst_error(jet.comps, ref) <= FLOAT_BOUND, (mu, dq)
            oracle = [_per_order_walk(p, q, j, dq, mu, tol) for j in range(5)]
            vanishes = all(abs(r) < 1e-80 for r in ref)
            assert _worst_error(oracle, ref) <= (10 if vanishes else 1) * FLOAT_BOUND, (mu, dq)


@pytest.mark.parametrize("p,q", UNREDUCED_CHARS)
def test_theta_jet_equals_per_order_walk_at_40_digits(p, q):
    """At 40 digits the walk and the per-order oracle both meet the 90-digit sum."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu = mpmath.mpc("1.03", "0.02")
        jets = theta_jet(p, q, mu, 4, 1e-35)
        oracles = [[_per_order_walk(p, q, j, dq, mu, 1e-35) for j in range(5)] for dq in (False, True)]
    for dq, jet, oracle in zip((False, True), jets, oracles):
        ref = _reference(p, q, mu, dq)
        assert _worst_error(jet.comps, ref) <= MP40_BOUND, dq
        assert _worst_error(oracle, ref) <= MP40_BOUND, dq


@pytest.mark.parametrize("p", [F(1, 3), F(4, 3), F(0), F(1, 2)])
def test_multi_q_walk_equals_one_q_walks(p):
    """One walk serving several q, each asking for its own counts of theta and d_q theta
    derivatives, gives each q's one-q theta_jet bits."""
    qs = [F(1, 5), F(6, 5), F(1, 2), F(0), F(11, 6)]
    orders = [(3, 3), (1, 0), (5, 5), (2, 2), (0, 1)]

    def one_q(q, counts, mu, tol):
        jets = theta_jet(p, q, mu, max(counts) - 1, tol)
        return tuple(list(jet.comps[:n]) for jet, n in zip(jets, counts))

    for mu, tol in ((1.2, 1e-15), (complex(0.85, 0.1), 1e-15)):
        walked = _theta_eval_raw(p, qs, mu, orders, tol)
        for q, counts, pair in zip(qs, orders, walked):
            assert tuple(pair) == one_q(q, counts, mu, tol)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu = mpmath.mpc("1.03", "0.02")
        walked = _theta_eval_raw(p, qs, mu, orders, 1e-35)
        for q, counts, pair in zip(qs, orders, walked):
            assert tuple(pair) == one_q(q, counts, mu, 1e-35)


@pytest.mark.parametrize("dps", [15, 40])
def test_unit_root_depends_on_the_angle_alone(dps):
    """Root k of order n is root k r of order n r, bit for bit, and e^{2 pi i k/n} to the precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        prec = None if dps == 15 else mpmath.mp.prec
        for n in (1, 2, 3, 4, 5, 6, 7, 10, 12, 18, 36):
            for k in range(n):
                root = _unit_root(k, n, prec)
                assert all(_unit_root(k * r, n * r, prec) == root for r in (2, 3, 5, 12)), (k, n)
                with mpmath.workdps(dps + 20):
                    assert abs(root - mpmath.expjpi(mpmath.mpf(2 * k) / n)) < 10 ** (2 - dps)


def test_a_function_left_unsummed_changes_no_other():
    """(0, 1) sums d_q theta alone: theta comes back empty and d_q theta has the bits of a
    (1, 1) walk; (1, 0) likewise for theta.  theta_values merges counts per function by max."""
    mpmath = pytest.importorskip("mpmath")
    for p, q in UNREDUCED_CHARS:
        for mu, tol, dps in ((1.2, 1e-15, 15), (0.85 + 0.1j, 1e-15, 15), ("1.03", 1e-35, 40)):
            with mpmath.workdps(dps):
                mu = mpmath.mpc(mu, "0.02") if isinstance(mu, str) else mu
                ((th, dq),) = _theta_eval_raw(p, (q,), mu, ((1, 1),), tol)
                assert _theta_eval_raw(p, (q,), mu, ((0, 1),), tol) == [([], [dq[0]])]
                assert _theta_eval_raw(p, (q,), mu, ((1, 0),), tol) == [([th[0]], [])]
                merged = theta_values([((p, q), (0, 1)), ((p, q), (1, 0))], mu, tol)
                assert merged == {(p, q): ([th[0]], [dq[0]])}


_NON_DEGENERATE = st.tuples(
    st.builds(F, st.integers(0, 23), st.integers(1, 12)), st.builds(F, st.integers(0, 23), st.integers(1, 12))
).filter(lambda pq: not TwoParamPoint(*pq).is_degenerate())


@given(_NON_DEGENERATE, st.integers(0, 2), st.booleans(), st.floats(0.9, 1.6), st.floats(-0.4, 0.4))
@settings(max_examples=60, deadline=None)
def test_float_40_digit_and_exact_backends_agree(pq, n, dq, mu_re, mu_im):
    """The float walk, the 40-digit walk and the exact series at trunc 8 agree within
    test_series_matches_eval's bound."""
    mpmath = pytest.importorskip("mpmath")
    p, q = pq
    mu = complex(mu_re, mu_im)
    v = _value(p, q, n, dq, mu, 1e-15)
    with mpmath.workdps(40):
        v40 = complex(_value(p, q, n, dq, mpmath.mpc(mu), 1e-35))
    exact = _series(p, q, n, dq, 8).evaluate_mu(mu)
    for w in (v40, exact):
        assert abs(w - v) < 1e-12 * (1 + abs(v))


def _theta_series_shifted(p: Fraction, q: Fraction, trunc: int):
    """Series of th[p,q] and d_q th[p,q] at the reduced characteristic, phase added by hand.

    p-shifts are exact; each unit shift in q multiplies by e^{2 pi i p}: the
    exact oracle for theta_series at unreduced characteristics.
    """
    p_red = p % 1
    q_shift = math.floor(q)
    pair = theta_series(p_red, q - q_shift, trunc)
    if q_shift:
        phase = Cyclotomic.from_turns((p_red * q_shift) % 1, cyclotomic_order(p_red, q - q_shift))
        pair = tuple(s.scale(phase) for s in pair)
    return pair


def test_theta_series_carries_the_quasi_periodicity_phase():
    half = F(1, 2)
    grid = sorted({F(k, d) for d in range(1, 7) for k in range(d)})
    for p in grid:
        for q in grid:
            for dp, dq in ((0, 0), (0, half), (half, half), (half, 0)):
                got = theta_series(p + dp, q + dq, 3)
                want = _theta_series_shifted(p + dp, q + dq, 3)
                for q_deriv in (0, 1):
                    assert got[q_deriv].to_json() == want[q_deriv].to_json(), (p + dp, q + dq, q_deriv)


# -- the derivative rule: mu-derivatives of the series against the in-sum factor --


def _in_sum_series(p: Fraction, q: Fraction, n: int, q_deriv: bool, trunc: int) -> PuiseuxSeries:
    """Series of d^n/dmu^n (d_q) theta[p,q](i mu) with the factor (-1)^n (m+p)^{2n}
    of the n-th derivative applied to each lattice term: the exact oracle for
    n applications of ``PuiseuxSeries.mu_derivative``.  At n = 0 it is one
    lattice walk per function, theta or d_q theta as q_deriv picks: the exact
    oracle for each half of theta_series."""
    order = cyclotomic_order(p, q)
    dp = p.denominator
    exp_den = 2 * dp * dp
    terms: dict[int, Cyclotomic] = {}
    bound = math.isqrt(2 * trunc * dp * dp)
    for m in range(math.floor(-F(bound + 1, dp) - p), math.ceil(F(bound + 1, dp) - p) + 1):
        mp = m + p
        e = int(mp * dp) ** 2
        if e >= trunc * exp_den:
            continue
        turns = mp * q
        factor = F((-1) ** n) * mp ** (2 * n)
        if q_deriv:
            turns += F(1, 4)
            factor *= 2 * mp
        coeff = Cyclotomic.from_turns(turns % 1, order) * factor
        if not coeff.is_zero():
            terms[e] = terms.get(e, Cyclotomic.zero(order)) + coeff
    return PuiseuxSeries(exp_den, terms, trunc * exp_den, Grade(pi_exp=n + (1 if q_deriv else 0)))


def test_mu_derivative_is_the_in_sum_factor():
    values = sorted({F(a, b) for b in range(1, 7) for a in range(2 * b)})
    for p in values:
        for q in values:
            for q_deriv, s in zip((False, True), theta_series(p, q, 3)):
                for n in range(5):
                    assert s.to_json() == _in_sum_series(p, q, n, q_deriv, 3).to_json(), (p, q, n, q_deriv)
                    s = s.mu_derivative()


def test_theta_series_halves_match_one_walk_each():
    """Both halves of the one walk equal a walk per function (the in-sum oracle at n = 0)."""
    values = sorted({F(a, b) for b in range(1, 7) for a in range(2 * b)})
    for p in values:
        for q in values:
            for qq in (q, q + F(1, 2)):
                theta, dq = theta_series(p, qq, 4)
                assert theta.to_json() == _in_sum_series(p, qq, 0, False, 4).to_json(), (p, qq)
                assert dq.to_json() == _in_sum_series(p, qq, 0, True, 4).to_json(), (p, qq)


_CHARACTERISTIC = st.builds(F, st.integers(0, 23), st.integers(1, 12))


@given(
    _CHARACTERISTIC,
    _CHARACTERISTIC,
    st.integers(0, 4),
    st.booleans(),
    st.floats(1.0, 1.5),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_series_derivative_matches_lattice_jet(p, q, n, dq, mu_re, mu_im):
    """Evaluated, the n-th mu_derivative of the series is component n of the
    lattice jet, within test_series_matches_eval's bound."""
    mu = complex(mu_re, mu_im)
    v = _value(p, q, n, dq, mu, 1e-15)
    assert abs(_series(p, q, n, dq, 8).evaluate_mu(mu) - v) < 1e-12 * (1 + abs(v))


def test_lattice_sum_length_is_bounded():
    """Near Re mu = 0 the sum is refused, naming mu and the term count, while
    every mu of the transformation reports (and its S and T images) sums a
    few dozen terms at 40-digit tolerance."""
    for mu in (1e-300, 5e-324):
        with pytest.raises(ValueError, match=rf"mu = \({mu!r}\+0j\) needs about \S+ terms"):
            theta_values([(THETA3, (1, 0))], mu, 1e-10)
    for seed in range(10):
        for mu in sample_mu(10, seed):
            for image in (mu, 1 / mu, mu - 1j):
                assert 2 * _eval_range(1, image, 1e-35) + 1 < MAX_LATTICE_TERMS / 100


def test_eval_domain_errors():
    with pytest.raises(ValueError):
        _value(*THETA3, 0, False, -1.0)
    with pytest.raises(ValueError):
        _value(*THETA3, 0, False, 1.0, tol=0.0)


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
                lhs = _value(p, q + 1, n, dq, 1.2, 1e-15)
                rhs = phase * _value(p, q, n, dq, 1.2, 1e-15)
                assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_quasi_periodicity_in_p():
    for p, q in SAMPLE_CHARS:
        for n in range(5):
            for dq in (False, True):
                lhs = _value(p + 1, q, n, dq, 1.2, 1e-15)
                rhs = _value(p, q, n, dq, 1.2, 1e-15)
                assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def _t_residual(p, q, mu) -> float:
    """Shift law: argument i mu + 1 equals characteristics [p, q+p+1/2]."""
    worst = 0.0
    phase = cmath.exp(-1j * cmath.pi * float(p) * (float(p) + 1))
    for n in range(5):
        for dq in (False, True):
            lhs = _value(p, q, n, dq, mu - 1j, 1e-15)
            rhs = phase * _value(p, q + p + F(1, 2), n, dq, mu, 1e-15)
            worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
    return worst


def _t2_residual(p, q, mu) -> float:
    """Double shift: argument i mu + 2 equals characteristics [p, q+2p]."""
    worst = 0.0
    phase = cmath.exp(-2j * cmath.pi * float(p) ** 2)
    for n in range(5):
        for dq in (False, True):
            lhs = _value(p, q, n, dq, mu - 2j, 1e-15)
            rhs = phase * _value(p, q + 2 * p, n, dq, mu, 1e-15)
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
            lhs = _value(p, q, n, dq, 1 / mu, 1e-15)
            rhs = 0j
            for j in range(n + 1):
                order = 2 * n + 1 if dq else 2 * n
                power = order + 0.5 - j
                rhs += (
                    complex(c_const(j, order))
                    * mu**power
                    * _value(-q, p, n - j, dq, mu, 1e-15)
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
        t2l = _value(*THETA2, n, False, mu - 1j, 1e-15)
        t2r = cmath.exp(1j * cmath.pi / 4) * _value(*THETA2, n, False, mu, 1e-15)
        assert abs(t2l - t2r) < 1e-12
        t3l = _value(*THETA3, n, False, mu - 1j, 1e-15)
        t4 = _value(*THETA4, n, False, mu, 1e-15)
        assert abs(t3l - t4) < 1e-12
        t4l = _value(*THETA4, n, False, mu - 1j, 1e-15)
        t3 = _value(*THETA3, n, False, mu, 1e-15)
        assert abs(t4l - t3) < 1e-12


def test_classical_theta_inversion_laws():
    # theta2 and theta4 swap under inversion; theta3 is fixed
    mu = 1.15
    pairs = [(THETA2, THETA4), (THETA3, THETA3), (THETA4, THETA2)]
    for src, dst in pairs:
        for n in range(5):
            lhs = _value(*src, n, False, 1 / mu, 1e-15)
            rhs = sum(
                complex(c_const(j, 2 * n))
                * mu ** (2 * n + 0.5 - j)
                * _value(*dst, n - j, False, mu, 1e-15)
                for j in range(n + 1)
            )
            assert abs(lhs - rhs) < 1e-11 * (1 + abs(rhs))


def test_jacobi_identity():
    # theta3^4 = theta2^4 + theta4^4
    for mu in (0.9, 1.4):
        t2 = _value(*THETA2, 0, False, mu, 1e-15)
        t3 = _value(*THETA3, 0, False, mu, 1e-15)
        t4 = _value(*THETA4, 0, False, mu, 1e-15)
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
    s, d = theta_series(p, q, 6)
    assert F(s.valuation, s.exp_den) == expected_theta_valuation(p)
    want = expected_dq_theta_valuation(p, q)
    if want is None:
        assert d.is_zero()
    else:
        assert F(d.valuation, d.exp_den) == want


def test_classical_valuations():
    for char, want in ((THETA2, F(1, 8)), (THETA3, 0), (THETA4, 0)):
        s = theta_series(*char, 6)[0]
        assert F(s.valuation, s.exp_den) == want


def test_high_precision_eval_path():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        v = _value(F(1, 3), F(1, 5), 1, True, mpmath.mpc("1.2"), 1e-25)
        w = _value(F(1, 3), F(1, 5), 1, True, 1.2, 1e-15)
        assert abs(complex(v) - w) < 1e-12
