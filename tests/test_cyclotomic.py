from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi9.cyclotomic import Cyclotomic, _mod_phi, cyclotomic_poly, euler_phi
from bianchi9.series import PuiseuxSeries

F = Fraction


def test_roots_of_unity_basics():
    i = Cyclotomic.root(4, 1)
    assert i * i == F(-1) and Cyclotomic.root(4, 2) == F(-1)
    z8 = Cyclotomic.root(8, 1)
    acc = Cyclotomic.one(8)
    for _ in range(8):
        acc = acc * z8
    assert acc == Cyclotomic.one(8)


def test_cyclotomic_poly_small_cases():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_primitive_root_sums_vanish():
    # sum of all n-th roots of unity is zero for n > 1
    for n in (3, 5, 8, 12):
        acc = Cyclotomic.zero(n)
        for k in range(n):
            acc = acc + Cyclotomic.root(n, k)
        assert acc.is_zero()


def test_equal_across_orders_and_unhashable():
    """i at order 4 is zeta_8^2 at order 8; with no hash, no dict or set can split equal keys."""
    i4, i8 = Cyclotomic.root(4, 1), Cyclotomic.root(8, 2)
    assert i4 == i8 and Cyclotomic.from_rational(F(2), 4) == Cyclotomic.from_rational(F(2), 12)
    with pytest.raises(TypeError):
        hash(i4)
    with pytest.raises(TypeError):
        {i4, i8}


def _assert_canonical(x: Cyclotomic) -> None:
    """phi(N) integer numerators over a positive denominator in lowest terms; zero over 1."""
    assert len(x.nums) == euler_phi(x.order) and all(type(n) is int for n in x.nums)
    assert type(x.den) is int and x.den > 0 and math.gcd(x.den, *x.nums) == 1
    assert not x.is_zero() or x.den == 1


def test_integer_form_is_in_lowest_terms():
    x = Cyclotomic.from_int_coeffs(12, [0, 6, 0, 10, 0, 0], 4)
    assert (x.nums, x.den) == ((0, 3, 0, 5), 2)
    assert Cyclotomic(12, [F(2, 4), F(0), F(-1, 6)]).den == 6
    for zero in (x * 0, x * F(0), x - x, Cyclotomic.zero(60), Cyclotomic(3, [F(0, 7)]), Cyclotomic.from_int_coeffs(4, [0, 0], 9)):
        _assert_canonical(zero)
        assert zero.is_zero() and zero.den == 1
    for y in (x, x * F(-4, 3), -x, x / F(-2, 5), x * x, x.inverse(), x.embed(36)):
        _assert_canonical(y)


def test_embed_round_trip():
    z3 = Cyclotomic.root(3, 1)
    assert z3.embed(12) == Cyclotomic.root(12, 4)
    x = Cyclotomic(3, [F(2), F(-1, 3)])
    assert abs(complex(x.embed(12)) - complex(x)) < 1e-12


def _conjugate(x: Cyclotomic) -> Cyclotomic:
    """Complex conjugation: zeta -> zeta^{-1}."""
    acc = Cyclotomic.zero(x.order)
    for j, c in enumerate(x.coeffs):
        acc = acc + Cyclotomic.root(x.order, -j) * c
    return acc


def test_conjugate_gives_modulus_squared():
    x = Cyclotomic(12, [F(1), F(2), F(0), F(-1, 2)])
    norm = x * _conjugate(x)
    assert abs(complex(norm) - abs(complex(x)) ** 2) < 1e-12


def test_rational_detection():
    x = Cyclotomic.from_rational(F(7, 3), 8)
    assert x.is_rational()
    assert x.as_rational() == F(7, 3)
    with pytest.raises(ValueError):
        Cyclotomic.root(8, 1).as_rational()


def test_numeric_embedding():
    z = Cyclotomic.root(8, 1)
    assert abs(complex(z) - cmath.exp(2j * cmath.pi / 8)) < 1e-12


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(4).inverse()


@st.composite
def _elements(draw, orders=(1, 3, 4, 8, 12)):
    order = draw(st.sampled_from(orders))
    phi = euler_phi(order)
    nums = draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    dens = draw(st.lists(st.integers(1, 7), min_size=phi, max_size=phi))
    return Cyclotomic(order, [F(n, d) for n, d in zip(nums, dens)])


@given(_elements(), _elements())
@settings(max_examples=60, deadline=None)
def test_arithmetic_matches_numeric_embedding(a, b):
    for op in (operator.add, operator.sub, operator.mul):
        got = complex(op(a, b))
        want = op(complex(a), complex(b))
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


@st.composite
def _int_coeff_lists(draw):
    """(n, ints, den) with more coefficients than phi(n), as products leave them."""
    order = draw(st.sampled_from((1, 3, 4, 8, 12)))
    phi = euler_phi(order)
    ints = draw(st.lists(st.integers(-50, 50), min_size=phi + 1, max_size=2 * phi + 3))
    return order, ints, draw(st.integers(1, 9))


@given(_int_coeff_lists())
@settings(max_examples=60, deadline=None)
def test_from_int_coeffs_matches_fraction_constructor(args):
    order, ints, den = args
    got = Cyclotomic.from_int_coeffs(order, ints, den)
    want = Cyclotomic(order, [F(c, den) for c in ints])
    assert got.order == want.order and got.coeffs == want.coeffs


@given(_elements())
@settings(max_examples=40, deadline=None)
def test_inverse_is_two_sided(a):
    if a.is_zero():
        return
    assert a * a.inverse() == Cyclotomic.one(a.order)
    assert a.inverse() * a == Cyclotomic.one(a.order)


# -- oracles: a row reduction and an extended Euclid inverse, independent
# references for the one division modulo Phi_N and the inverse by the norm --

# orders the pipeline reaches: 36 at points with denominator 6, 60 at (1/3, 1/5)
PIPELINE_ORDERS = (1, 3, 4, 8, 12, 36, 60)


def _row_reduce(n: int, coeffs: list, zero) -> list:
    """Reduce with one precomputed row per power: row t is zeta^(phi+t) in the power basis."""
    phi = euler_phi(n)
    rows = [[-c for c in cyclotomic_poly(n)[:phi]]]  # zeta^phi = -(low part of Phi_N)
    while len(rows) < len(coeffs) - phi:
        top = rows[-1][-1]
        rows.append([0] + rows[-1][:-1])
        if top:
            for j in range(phi):
                rows[-1][j] += top * rows[0][j]
    out = list(coeffs[:phi])
    for t in range(len(coeffs) - 1, phi - 1, -1):
        if coeffs[t]:
            for j in range(phi):
                out[j] += coeffs[t] * rows[t - phi][j]
    return out + [zero] * (phi - len(out))


def _euclid_inverse(x: Cyclotomic) -> Cyclotomic:
    """The inverse by the extended Euclidean algorithm over Q[z], modulo Phi_N."""

    def deg(p):
        return max((j for j, c in enumerate(p) if c), default=-1)

    r0, r1 = [F(c) for c in cyclotomic_poly(x.order)], list(x.coeffs)
    s0, s1 = [F(0)], [F(1)]
    while deg(r1) > 0:
        dq = deg(r0) - deg(r1)
        if dq < 0:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        lead = r0[deg(r0)] / r1[deg(r1)]
        for j in range(deg(r1) + 1):
            r0[j + dq] -= lead * r1[j]
        s0 += [F(0)] * (len(s1) + dq - len(s0))
        for j in range(len(s1)):
            s0[j + dq] -= lead * s1[j]
        if deg(r0) < deg(r1):
            r0, r1, s0, s1 = r1, r0, s1, s0
    return Cyclotomic(x.order, [c / r1[0] for c in s1])


@st.composite
def _long_int_lists(draw):
    """(n, ints) at a pipeline order, up to 3 phi(n) + 5 long, with many zeros."""
    order = draw(st.sampled_from(PIPELINE_ORDERS))
    phi = euler_phi(order)
    digit = st.one_of(st.just(0), st.integers(-50, 50))
    return order, draw(st.lists(digit, max_size=3 * phi + 5))


@given(_long_int_lists())
@settings(max_examples=150, deadline=None)
def test_reduce_matches_row_oracle(args):
    order, ints = args
    assert _mod_phi(ints, order) == _row_reduce(order, ints, 0)
    fracs = [F(c, 7) for c in ints]
    assert _mod_phi(fracs, order) == _row_reduce(order, fracs, F(0))


@st.composite
def _sparse_elements(draw):
    """Nonzero elements at a pipeline order; most coefficients are zero, as in the series."""
    order = draw(st.sampled_from(PIPELINE_ORDERS))
    phi = euler_phi(order)
    coeff = st.one_of(st.just(F(0)), st.just(F(0)), st.builds(F, st.integers(-9, 9), st.integers(1, 7)))
    coeffs = draw(st.lists(coeff, min_size=phi, max_size=phi).filter(any))
    return Cyclotomic(order, coeffs)


@given(_sparse_elements())
@settings(max_examples=60, deadline=None)
def test_inverse_matches_euclid_oracle(a):
    got, want = a.inverse(), _euclid_inverse(a)
    assert (got.order, got.coeffs) == (want.order, want.coeffs)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polys_factor_x_n_minus_1():
    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n
        assert len(cyclotomic_poly(n)) - 1 == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1), n


def _exact_quotient(a, b) -> list:
    """a / b by long division, for a monic b that divides a."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + len(b) - 1]
        if c:
            for j, m in enumerate(b):
                a[k + j] -= c * m
    assert not any(a)
    return q


@lru_cache(maxsize=None)
def _division_cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_N as x^n - 1 divided by Phi_d for each proper divisor d, each Phi_d built the same way."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_quotient(poly, _division_cyclotomic_poly(d))
    return tuple(poly)


def test_product_formula_matches_division_oracle():
    """Phi_N from the Moebius product equals the division tower for N <= 300 and at
    1994 and 3988, whose large prime factor 997 makes Phi_N = Phi_997(-x) and Phi_997(-x^2)."""
    for n in [*range(1, 301), 1994, 3988]:
        assert cyclotomic_poly(n) == _division_cyclotomic_poly(n), n


# -- oracle: the Fraction-tuple arithmetic the integer form replaced, each
# result reduced by the row oracle; the integer form must agree with it
# coefficient for coefficient --


def _ref_reduce(order: int, coeffs) -> tuple:
    return tuple(_row_reduce(order, [F(c) for c in coeffs], F(0)))


def _ref_power_map(order: int, coeffs: tuple, k: int, target: int) -> tuple:
    """zeta_order^j -> zeta_target^(j k) on Fraction coefficients."""
    out = [F(0)] * target
    for j, c in enumerate(coeffs):
        out[j * k % target] += c
    return _ref_reduce(target, out)


def _ref_common(a: tuple, b: tuple) -> tuple:
    m = math.lcm(a[0], b[0])
    return m, _ref_power_map(*a, m // a[0], m), _ref_power_map(*b, m // b[0], m)


def _ref_add(a: tuple, b: tuple) -> tuple:
    m, x, y = _ref_common(a, b)
    return m, tuple(u + v for u, v in zip(x, y))


def _ref_mul(a: tuple, b: tuple) -> tuple:
    m, x, y = _ref_common(a, b)
    prod = [F(0)] * (len(x) + len(y) - 1)
    for j, u in enumerate(x):
        for k, v in enumerate(y):
            prod[j + k] += u * v
    return m, _ref_reduce(m, prod)


@st.composite
def _fraction_lists(draw):
    """(order, Fraction coefficients of any length up to 2 phi + 2) at a pipeline order, many zeros."""
    order = draw(st.sampled_from(PIPELINE_ORDERS))
    phi = euler_phi(order)
    coeff = st.one_of(st.just(F(0)), st.builds(F, st.integers(-30, 30), st.integers(1, 12)))
    return order, draw(st.lists(coeff, max_size=2 * phi + 2))


@given(
    _fraction_lists(),
    _fraction_lists(),
    st.fractions(min_value=-20, max_value=20, max_denominator=15),
    st.integers(1, 200),
    st.sampled_from((1, 2, 3, 5)),
    st.lists(st.integers(-99, 99), max_size=40),
    st.integers(1, 60),
)
@settings(max_examples=60, deadline=None)
def test_integer_form_matches_fraction_oracle(fa, fb, r, k, t, ints, den):
    a, b = Cyclotomic(*fa), Cyclotomic(*fb)
    ra, rb = (fa[0], _ref_reduce(*fa)), (fb[0], _ref_reduce(*fb))
    neg_rb = (rb[0], tuple(-c for c in rb[1]))
    checks = [
        (a, ra),
        (a + b, _ref_add(ra, rb)),
        (a - b, _ref_add(ra, neg_rb)),
        (a * b, _ref_mul(ra, rb)),
        (a * r, (ra[0], tuple(c * r for c in ra[1]))),
        (a.embed(t * a.order), (t * a.order, _ref_power_map(*ra, t, t * a.order))),
        (Cyclotomic.from_int_coeffs(a.order, ints, den), (a.order, _ref_reduce(a.order, [F(n, den) for n in ints]))),
    ]
    unit = next(j for j in range(k, k + a.order + 1) if math.gcd(j, a.order) == 1)
    checks.append((a._power_map(unit, a.order), (a.order, _ref_power_map(*ra, unit, a.order))))
    for got, (order, coeffs) in checks:
        _assert_canonical(got)
        assert (got.order, got.coeffs) == (order, coeffs)
    series = PuiseuxSeries(6, {e: c for e, (c, _) in enumerate(checks)}, len(checks) + 1)
    back = PuiseuxSeries.from_json(series.to_json())
    assert back.to_json() == series.to_json() and sorted(back.terms) == sorted(series.terms)
    for e, c in back.terms.items():
        _assert_canonical(c)
        assert (c.order, c.coeffs) == (series.terms[e].order, series.terms[e].coeffs)
