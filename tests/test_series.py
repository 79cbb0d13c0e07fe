from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi9.cyclotomic import Cyclotomic, euler_phi
from bianchi9.series import Grade, PuiseuxSeries, _mul_setup, series_invert, series_mul

F = Fraction


def _geometric(trunc: int, exp_den: int = 1) -> PuiseuxSeries:
    return PuiseuxSeries(exp_den, {e: F(1) for e in range(trunc)}, trunc)


def test_constant_and_monomial():
    c = PuiseuxSeries.constant(F(3, 2))
    m = PuiseuxSeries(8, {1: F(5)}, None)
    prod = c * m
    assert prod.exp_den == 8 and prod.terms == {1: F(15, 2)}
    assert F(prod.valuation, prod.exp_den) == F(1, 8)


def test_grade_bookkeeping():
    a = PuiseuxSeries.constant(1, Grade(2, -1))
    b = PuiseuxSeries.constant(1, Grade(-3, 1))
    assert (a * b).grade == Grade(-1, 0)
    with pytest.raises(ValueError):
        a + b


def test_truncation_propagates_through_products():
    a = _geometric(5)
    b = _geometric(3)
    prod = a * b
    assert prod.trunc == 3  # limited by the shorter factor (valuations 0)
    assert prod.as_q_expansion() == {0: F(1), 1: F(2), 2: F(3)}


def test_inversion_of_geometric_series():
    a = _geometric(8)
    inv = a.invert()
    # 1/(1+q+q^2+...) = 1 - q
    assert inv.trunc == 8 and inv.as_q_expansion() == {0: F(1), 1: F(-1)}
    one = a * inv
    assert one.trunc == 8 and one.as_q_expansion() == {0: F(1)}


def test_inversion_shifts_valuation():
    a = PuiseuxSeries(2, {-1: F(2), 1: F(3)}, 6)
    prod = a * a.invert()
    assert prod.as_q_expansion()[0] == F(1)
    assert prod.valuation == 0


def test_mu_derivative_brings_down_minus_two_pi_e():
    a = PuiseuxSeries(2, {1: F(1), 4: F(5)}, 10)
    d = a.mu_derivative()
    assert d.grade == Grade(pi_exp=1)
    # Q^(1/2) picks up -2 * (1/2), Q^2 picks up -2 * 2
    assert d.exp_den == 2 and d.terms == {1: F(-1), 4: F(-20)}


def test_compact_and_rescale_round_trip():
    a = PuiseuxSeries(8, {0: F(1), 4: F(2)}, 16)
    c = PuiseuxSeries(2, {0: F(1), 1: F(2)}, 4)
    b = c.rescale(8)
    assert (b.exp_den, b.terms, b.trunc) == (a.exp_den, a.terms, a.trunc)


def test_evaluate_matches_horner_by_hand():
    a = PuiseuxSeries(2, {1: F(1), 2: F(-3)}, None, Grade(pi_exp=1))
    mu = 0.3 + 0.1j
    q = cmath.exp(-2 * cmath.pi * mu)
    want = (q**0.5 - 3 * q) * cmath.pi
    assert abs(a.evaluate_mu(mu) - want) < 1e-14


def test_json_round_trip():
    a = PuiseuxSeries(
        8,
        {1: Cyclotomic.root(12, 1), 9: F(-5, 3)},
        24,
        Grade(1, -2),
    )
    assert PuiseuxSeries.from_json(a.to_json()) == a


def _naive_mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Reference product: direct convolution over all term pairs."""
    a, b, grade, t, _ = _mul_setup(a, b)
    terms: dict[int, Cyclotomic] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = ea + eb
            if t is None or e < t:
                prod = ca * cb
                terms[e] = terms.get(e, Cyclotomic.zero(prod.order)) + prod
    return PuiseuxSeries(a.exp_den, terms, t, grade)


@st.composite
def _series(draw, wide=False):
    """A random series; ``wide`` draws larger fields, numerators and denominators, and more terms
    in a narrow exponent window, so that many pairs of terms meet at one exponent."""
    order = draw(st.sampled_from((1, 4, 12, 36, 60) if wide else (1, 4, 12)))
    exp_den = draw(st.sampled_from((1, 2, 8, 72) if wide else (1, 2, 8)))
    phi = euler_phi(order)
    n_terms = draw(st.integers(0, 12 if wide else 5))
    big, max_den, exps = (10**30, 10**8, (-3, 8)) if wide else (20, 6, (-6, 14))
    terms = {}
    for _ in range(n_terms):
        e = draw(st.integers(*exps))
        cs = draw(st.lists(st.integers(-big, big), min_size=phi, max_size=phi))
        den = draw(st.integers(1, max_den))
        terms[e] = Cyclotomic(order, [F(c, den) for c in cs])
    trunc = draw(st.one_of(st.none(), st.integers(15, 25)))
    return PuiseuxSeries(exp_den, terms, trunc)


def _assert_is_the_naive_product(a: PuiseuxSeries, b: PuiseuxSeries) -> None:
    prod = series_mul(a, b)
    assert prod.to_json() == _naive_mul(a, b).to_json()  # orders and horizon included
    assert list(prod.terms) == sorted(prod.terms)


@given(_series(wide=True), _series(wide=True))
@settings(max_examples=60, deadline=None)
def test_kernels_agree(a, b):
    _assert_is_the_naive_product(a, b)


@pytest.mark.parametrize("sign", (1, -1))
def test_product_digit_at_the_packing_bound(sign):
    """Digits all +-M on exponents 0..n-1: at exponent n-1 the middle digit is phi n M^2, the packing bound."""
    n, order, m = 7, 12, 10**9 + 7
    c = Cyclotomic(order, [sign * m] * euler_phi(order))
    a = PuiseuxSeries(1, {e: c for e in range(n)}, None)
    _assert_is_the_naive_product(a, a)


def test_product_terms_in_increasing_exponent():
    x = Cyclotomic(12, [1, 2, 0, -1])
    prod = series_mul(PuiseuxSeries(1, {0: x, 1: x}, None), PuiseuxSeries(1, {10: x, 0: x}, None))
    assert list(prod.terms) == [0, 1, 10, 11]


def _known_terms(s: PuiseuxSeries, horizon: Fraction) -> dict:
    return {F(e, s.exp_den): c for e, c in s.terms.items() if F(e, s.exp_den) < horizon}


def _assert_agree(lhs: PuiseuxSeries, rhs: PuiseuxSeries) -> None:
    """Equal coefficients on the intersection of the known ranges."""
    horizon = min(x for x in (lhs.trunc_frac(), rhs.trunc_frac(), F(10**6)) if x is not None)
    assert _known_terms(lhs, horizon) == _known_terms(rhs, horizon)
    assert lhs.grade == rhs.grade


@given(_series(), _series(), _series())
@settings(max_examples=30, deadline=None)
def test_ring_laws(a, b, c):
    assert a * b == b * a
    _assert_agree(a * (b + c), a * b + a * c)


@given(_series(), _series())
@settings(max_examples=30, deadline=None)
def test_mu_derivative_leibniz(a, b):
    lhs = (a * b).mu_derivative()
    rhs = a.mu_derivative() * b + a * b.mu_derivative()
    _assert_agree(lhs, rhs)


@given(_series(), st.fractions(max_denominator=12))
@settings(max_examples=40, deadline=None)
def test_scale_by_rational_is_the_field_product(a, r):
    """A rational scalar takes the scalar branch; the value is that of the full field product."""
    assert a.scale(r, dpi=1) == a.scale(Cyclotomic.from_rational(r), dpi=1)
    assert a * r == a * Cyclotomic.from_rational(r)


def test_as_q_expansion_names_the_first_bad_term():
    half = PuiseuxSeries(2, {1: F(1), 2: Cyclotomic.root(4, 1), 4: F(3)}, 8)
    with pytest.raises(ValueError, match="non-integer exponent 1/2"):
        half.as_q_expansion()
    with pytest.raises(ValueError, match="non-rational coefficient at exponent 2/2"):
        PuiseuxSeries(2, half.terms | {1: F(0)}, 8).as_q_expansion()
    assert list(PuiseuxSeries(1, {3: F(1), -1: F(2), 0: F(5)}, 4).as_q_expansion()) == [-1, 0, 3]


def _recurrence_invert(a: PuiseuxSeries) -> PuiseuxSeries:
    """Reference inverse of a series with terms and a horizon: the O(n^2)
    recurrence inv[k] = -inv[0] * sum_j f[j] inv[k-j] on the exponent grid."""
    v = a.valuation
    lead_inv = a.terms[v].inverse()
    if len(a.terms) == 1:
        return PuiseuxSeries(a.exp_den, {-v: lead_inv}, a.trunc - 2 * v, -a.grade)
    g = 0
    for e in a.terms:
        g = math.gcd(g, e - v)
    kmax = (a.trunc - v + g - 1) // g
    f = [Cyclotomic.zero() for _ in range(kmax)]
    for e, c in a.terms.items():
        f[(e - v) // g] = c
    inv = [lead_inv]
    for k in range(1, kmax):
        s = Cyclotomic.zero()
        for j in range(1, k + 1):
            if not f[j].is_zero():
                s = s + f[j] * inv[k - j]
        inv.append(-lead_inv * s)
    terms = {-v + k * g: c for k, c in enumerate(inv)}
    return PuiseuxSeries(a.exp_den, terms, a.trunc - 2 * v, -a.grade)


@given(_series().filter(lambda s: s.terms and s.trunc is not None))
@settings(max_examples=60, deadline=None)
def test_newton_inverse_matches_recurrence(a):
    inv = series_invert(a)
    ref = _recurrence_invert(a)
    assert inv.to_json() == ref.to_json()  # same exponents, horizon, grade and orders
    one = a * inv
    assert one.trunc == a.trunc - a.valuation
    assert one.terms == {0: Cyclotomic.one()}


def test_invert_guards():
    with pytest.raises(ZeroDivisionError):
        series_invert(PuiseuxSeries(1, {}, 4))
    mono = series_invert(PuiseuxSeries(2, {3: F(4)}, 9, Grade(1, 2)))
    assert mono == PuiseuxSeries(2, {-3: F(1, 4)}, 3, Grade(-1, -2))
    with pytest.raises(ValueError):
        series_invert(PuiseuxSeries(1, {0: F(1), 1: F(1)}, None))
