from __future__ import annotations

import cmath
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from seeley_oracle import jet_frame_one_param, jet_frame_two_param

from bianchi9.dirac import (
    GAMMA0,
    GAMMA0123,
    GAMMA123,
    GAMMAS,
    IDENT,
    SField,
    Symbol1,
    _frame_fields,
    _sigma_D,
    _sigma_Dtilde,
    compose_square,
    dtilde_sq_crosscheck,
)
from bianchi9.instanton import (
    InstantonFrame,
    OneParamPoint,
    TwoParamPoint,
    frame_one_param_jet,
    frame_two_param_jet,
)
from bianchi9.modular import orbit

F = Fraction


def metric_matrix(x, frame: InstantonFrame) -> np.ndarray:
    """Oracle: the rescaled metric tensor F g at x in coordinates (mu, eta, phi, psi)."""
    _, eta, _, psi = (complex(c) for c in x)
    w1, w2, w3 = (complex(frame.w[j]) for j in range(3))
    se, ce, sp, cp = np.sin(eta), np.cos(eta), np.sin(psi), np.cos(psi)
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0] = w1 * w2 * w3
    g[1, 1] = w2 * w3 * sp**2 / w1 + w1 * w3 * cp**2 / w2
    g[2, 2] = w2 * w3 * se**2 * cp**2 / w1 + w1 * (w3 * se**2 * sp**2 / w2 + w2 * ce**2 / w3)
    g[3, 3] = w1 * w2 / w3
    g[2, 3] = g[3, 2] = w1 * w2 * ce / w3
    g[1, 2] = g[2, 1] = (w1**2 - w2**2) * w3 * se * sp * cp / (w1 * w2)
    return complex(frame.F_[0]) * g


@pytest.fixture(scope="module")
def frame():
    return frame_two_param_jet(TwoParamPoint(F(1, 6), F(5, 6)), 1.05, 1e-14)


def _random_x(rng):
    return (1.05, 0.4 + 2.2 * rng.random(), 6.28 * rng.random(), 6.28 * rng.random())


def test_gamma_algebra_exact():
    for a in range(4):
        for b in range(4):
            anti = GAMMAS[a] @ GAMMAS[b] + GAMMAS[b] @ GAMMAS[a]
            want = -2 * IDENT if a == b else np.zeros((4, 4))
            assert np.array_equal(anti, want)
    assert np.array_equal(GAMMA0 @ GAMMA123, GAMMA0123)
    assert np.array_equal(GAMMA0123 @ GAMMA0123, IDENT)


def test_sfield_arithmetic():
    x = SField(2.0, (1.0, 0, 0, 0))
    y = SField(3.0, (0, 1.0, 0, 0))
    assert (x * y).grad == (3.0, 2.0, 0, 0)
    assert (x / y).grad[0] == pytest.approx(1 / 3)
    assert (x.sqrt() * x.sqrt()).value == pytest.approx(2.0)


def test_symbol_leading_part(frame):
    x = (1.05, 1.1, 0.3, 2.0)
    sym = _sigma_D(x, frame)[0]
    W = np.prod([complex(frame.w[j]) for j in range(3)])
    got = sym.a[0].value
    assert np.abs(got - GAMMA0 / cmath.sqrt(W)).max() < 1e-12


def test_symbol_constant_part_traceless(frame):
    sym = _sigma_D((1.05, 1.1, 0.3, 2.0), frame)[0]
    assert abs(np.trace(sym.b.value)) < 1e-12


FLAT_F = (1 + 0j, 0j, 0j)  # the tower of F = 1


def test_unit_frame_constant_part():
    """w_j = 1 with A_j = 1/2, where Tod-Halphen gives w' = 0."""
    fr = InstantonFrame("jet", (1 + 0j,) * 3, FLAT_F, (0.5 + 0j,) * 3, 0.0)
    sym = _sigma_D((1.0, 1.2, 0.5, 1.7), fr)[0]
    assert np.abs(sym.b.value + 0.75 * GAMMA123).max() < 1e-14


def test_coordinate_singularity_rejected(frame):
    with pytest.raises(ValueError):
        _sigma_D((1.05, 0.0, 0.3, 2.0), frame)


def test_series_frame_rejected():
    from bianchi9.instanton import frame_two_param_series

    fr = frame_two_param_series(TwoParamPoint(F(1, 6), F(5, 6)), 4)
    with pytest.raises(ValueError):
        _sigma_D((1.0, 1.2, 0.5, 1.7), fr)


def test_principal_symbol_is_inverse_metric(frame):
    rng = random.Random(7)
    sq = None
    for _ in range(20):
        x = _random_x(rng)
        sq = compose_square(_sigma_Dtilde(x, frame)[0])
        ginv = np.linalg.inv(metric_matrix(x, frame))
        xi = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)])
        want = xi @ ginv @ xi
        got = sum(np.trace(sq.p2[j, k]) / 4 * xi[j] * xi[k] for j in range(4) for k in range(4))
        assert abs(got - want) < 1e-12 * (1 + abs(want))
        # and the xi-quadratic block is that scalar times the identity
        acc = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            for k in range(4):
                acc += sq.p2[j, k] * xi[j] * xi[k]
        assert np.abs(acc - want * IDENT).max() < 1e-12 * (1 + abs(want))


def test_p2_mu_component(frame):
    x = (1.05, 1.1, 0.3, 2.0)
    sq = compose_square(_sigma_Dtilde(x, frame)[0])
    W = np.prod([complex(frame.w[j]) for j in range(3)])
    Fv = complex(frame.F_[0])
    assert np.abs(sq.p2[0, 0] - IDENT / (Fv * W)).max() < 1e-12


def test_conformal_factor_one_degenerates(frame):
    fr1 = frame._replace(F_=FLAT_F)
    base = _sigma_D((1.05, 1.1, 0.3, 2.0), fr1)[0]
    tilde = _sigma_Dtilde((1.05, 1.1, 0.3, 2.0), fr1)[0]
    for k in range(4):
        assert np.abs(tilde.a[k].value - base.a[k].value).max() == 0
    assert np.abs(tilde.b.value - base.b.value).max() == 0


def test_conformal_scaling_of_p2(frame):
    x = (1.05, 1.3, 0.9, 0.4)
    scaled = frame._replace(F_=tuple(4 * f for f in frame.F_))
    p2_base = compose_square(_sigma_Dtilde(x, frame)[0]).p2
    p2_scaled = compose_square(_sigma_Dtilde(x, scaled)[0]).p2
    assert np.abs(p2_scaled - p2_base / 4).max() < 1e-12 * np.abs(p2_base).max()


def test_composition_of_constant_symbols():
    # with constant coefficients the square has no first-order correction
    # beyond the anticommutator term
    a = [SField(1.0) * g for g in GAMMAS]
    b = SField(0.5) * GAMMA123
    sq = compose_square(Symbol1(a, b))
    for j in range(4):
        for k in range(4):
            want = -(GAMMAS[j] @ GAMMAS[k])
            assert np.abs(sq.p2[j, k] - want).max() < 1e-14
    assert np.abs(sq.p0 - 0.25 * (GAMMA123 @ GAMMA123)).max() < 1e-14


def test_squared_operator_crosscheck(frame):
    report = dtilde_sq_crosscheck((1.05, 1.2, 0.7, 2.1), frame, tol=1e-10)
    assert report["pass"] and report["max_residual"] <= 1e-10


def test_crosscheck_other_parameters():
    for p, q, mu in ((F(0), F(1, 3), 1.2), (F(1, 3), F(1, 5), 0.9)):
        fr = frame_two_param_jet(TwoParamPoint(p, q), mu, 1e-14)
        report = dtilde_sq_crosscheck((mu, 0.9, 1.3, 0.4), fr, tol=1e-10)
        assert report["pass"]


_SWEEP_POINTS = orbit(F(1, 6), F(5, 6)).points + orbit(F(0), F(1, 3)).points
_SWEEP_MU = (1.0, 1.05, 1.1, 1.05 + 0.001j, 1.05 + 0.05j, 0.9 - 0.2j)


@pytest.mark.parametrize("mu", _SWEEP_MU, ids=str)
@pytest.mark.parametrize("pt", _SWEEP_POINTS, ids=lambda pt: f"{pt.p},{pt.q}")
def test_crosscheck_sweeps_both_orbits(pt, mu):
    """Every orbit point passes at every mu, complex ones and p = 0 included,
    and so do those where F is real and negative (real mu, q in {0, 1/2}, p not
    in {0, 1/2}): the check takes one root of F and uses it throughout."""
    fr = frame_two_param_jet(pt, mu, 1e-14)
    report = dtilde_sq_crosscheck((mu, 0.9, 1.3, 0.4), fr, tol=1e-10)
    assert report["pass"], report


def test_crosscheck_refuses_zero_F(frame):
    """sqrt(F) = 0 has no inverse: a ZeroDivisionError, which the CLI turns into exit 3."""
    fr = frame._replace(F_=(0j,) + frame.F_[1:])
    with pytest.raises(ZeroDivisionError):
        dtilde_sq_crosscheck((1.05, 1.2, 0.7, 2.1), fr)


def test_frame_fields_derive_w_derivatives_from_values():
    """w' (Tod-Halphen) and w'' (with Halphen) from a frame's values are the
    oracle frame's jet components: to 1e-13 in float64 and 1e-37 at 40 digits,
    relative to max(|x|, 1), on both orbits and the one-parameter family."""
    cases = [(frame_two_param_jet, jet_frame_two_param, pt) for pt in _SWEEP_POINTS]
    cases += [(frame_one_param_jet, jet_frame_one_param, OneParamPoint(q0, C=2.0)) for q0 in (F(1, 3), 0.5 + 0.2j)]
    with mpmath.workdps(40):
        for mu, tol, bound in ((1.05, 1e-14, 1e-13), (0.9 - 0.2j, 1e-14, 1e-13), (mpmath.mpc(1.05, 0.05), 1e-35, 1e-37)):
            for make, deep, pt in cases:
                w, dw, _, _ = _frame_fields(make(pt, mu, tol))
                jets = deep(pt, mu, tol, order=2).w
                for j in range(3):
                    for got, want in ((w[j].grad[0], jets[j][1]), (dw[j].value, jets[j][1]), (dw[j].grad[0], jets[j][2])):
                        assert abs(got - want) <= bound * max(abs(want), 1)
