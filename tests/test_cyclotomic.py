from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi9.cyclotomic import Cyclotomic, _reduce, cyclotomic_poly, euler_phi

F = Fraction


def test_roots_of_unity_basics():
    i = Cyclotomic.i()
    assert i * i == F(-1)
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


def test_from_turns():
    assert Cyclotomic.from_turns(F(1, 4), 12) == Cyclotomic.i(12)
    assert Cyclotomic.from_turns(F(1, 2), 4) == F(-1)
    with pytest.raises(ValueError):
        Cyclotomic.from_turns(F(1, 5), 12)


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
    z = Cyclotomic.from_turns(F(1, 8), 8)
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
    assert _reduce(order, ints, 0) == _row_reduce(order, ints, 0)
    fracs = [F(c, 7) for c in ints]
    assert _reduce(order, fracs) == _row_reduce(order, fracs, F(0))


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
