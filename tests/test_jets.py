from __future__ import annotations

import cmath
import math

import pytest
from seeley_oracle import coordinate_jet, jet_log_derivative

from bianchi9.jets import Jet


def _exp_jet(mu: complex, order: int = 4) -> Jet:
    v = cmath.exp(mu)
    return Jet([v] * (order + 1))


def _sin_jet(mu: complex, order: int = 4) -> Jet:
    cycle = [cmath.sin(mu), cmath.cos(mu), -cmath.sin(mu), -cmath.cos(mu)]
    return Jet([cycle[k % 4] for k in range(order + 1)])


def test_product_rule_against_closed_form():
    mu = 0.8 + 0.1j
    prod = _exp_jet(mu) * _sin_jet(mu)
    # d^n (e^mu sin mu) = 2^{n/2} e^mu sin(mu + n pi/4)
    for n in range(5):
        want = 2 ** (n / 2) * cmath.exp(mu) * cmath.sin(mu + n * cmath.pi / 4)
        assert abs(prod[n] - want) < 1e-12 * abs(want)


def test_quotient_undoes_product():
    mu = 1.3
    a, b = _exp_jet(mu), _sin_jet(mu)
    c = (a * b) / b
    assert max(abs(x - y) for x, y in zip(c.comps, a.comps)) < 1e-12


def test_central_difference_cross_check():
    h = 1e-6

    def f(mu):
        return cmath.exp(mu) * cmath.sin(mu) / (2 + cmath.cos(mu))

    mu = 1.1
    jet = _exp_jet(mu) * _sin_jet(mu) / (2 + _cos_jet(mu))
    fd = (f(mu + h) - f(mu - h)) / (2 * h)
    assert abs(jet[1] - fd) < 1e-8 * abs(fd)


def _cos_jet(mu: complex, order: int = 4) -> Jet:
    cycle = [cmath.cos(mu), -cmath.sin(mu), -cmath.cos(mu), cmath.sin(mu)]
    return Jet([cycle[k % 4] for k in range(order + 1)])


def test_power_and_sqrt_invert():
    mu = 0.7 + 0.2j
    a = _exp_jet(mu) + 2
    sq = a**2
    # a^2 = e^(2 mu) + 4 e^mu + 4, so its n-th derivative is 2^n e^(2 mu) + 4 e^mu for n >= 1
    e = cmath.exp(mu)
    want = [e * e + 4 * e + 4] + [2**n * e * e + 4 * e for n in range(1, 5)]
    assert max(abs(x - y) for x, y in zip(sq.comps, want)) < 1e-12


def test_variable_and_constant():
    v = coordinate_jet(2.5, 4)
    assert v.comps == (2.5 + 0j, 1 + 0j, 0j, 0j, 0j)
    c = Jet.constant(3j, 2)
    assert c.comps == (3j, 0j, 0j)


def test_division_by_near_zero_value_raises():
    with pytest.raises(ZeroDivisionError):
        Jet([0.0, 1.0, 0.0]) / Jet([1e-18, 1.0, 0.0])


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        Jet([1.0, 0.0]) + Jet([1.0, 0.0, 0.0])


def test_log_derivative_of_constant_one():
    assert jet_log_derivative(Jet([1.0, 1.0, 1.0, 1.0, 1.0])).comps == (
        1 + 0j,
        0j,
        0j,
        0j,
    )


def test_log_derivative_of_mu():
    # (log mu)' = 1/mu: derivatives at mu=2 are 1/2, -1/4, 2/8, -6/16
    got = jet_log_derivative(Jet([2.0, 1.0, 0.0, 0.0, 0.0]))
    want = (0.5, -0.25, 0.25, -0.375)
    assert max(abs(g - w) for g, w in zip(got.comps, want)) < 1e-14


def test_rpow_chain():
    mu = 1.4
    a = _sin_jet(mu) + 3
    third = a**-3
    direct = 1 / (a * a * a)
    assert max(abs(x - y) for x, y in zip(third.comps, direct.comps)) < 1e-13


def test_leibniz_binomial_weights_explicitly():
    # product of two generic jets checked against an independent Leibniz sum
    a = Jet([1.0, 2.0, -3.0, 0.5, 7.0])
    b = Jet([-2.0, 0.25, 4.0, 1.0, -1.0])
    prod = a * b
    for n in range(5):
        want = sum(math.comb(n, k) * a[k] * b[n - k] for k in range(n + 1))
        assert prod[n] == want
