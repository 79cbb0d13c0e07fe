from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
from seeley_oracle import jet_frame_one_param, jet_frame_two_param

from bianchi9 import modular, theta
from bianchi9.instanton import (
    DEPTH,
    OneParamPoint,
    TwoParamPoint,
    _theta_constant_values,
    frame_one_param_jet,
    frame_two_param_jet,
    frame_two_param_series,
)
from bianchi9.series import Grade

F = Fraction

SAMPLE_POINTS = [
    (F(1, 6), F(5, 6)),
    (F(0), F(1, 3)),
    (F(1, 3), F(1, 5)),
    (F(1, 2), F(1, 3)),
]

# derivative cascade of mu^2 v(1/mu): row n lists (mu power, weight, order of v)
INVERSION_CASCADE = {
    0: ((2, 1, 0),),
    1: ((4, 1, 1), (3, 2, 0)),
    2: ((6, 1, 2), (5, 6, 1), (4, 6, 0)),
    3: ((8, 1, 3), (7, 12, 2), (6, 36, 1), (5, 24, 0)),
    4: ((10, 1, 4), (9, 20, 3), (8, 120, 2), (7, 240, 1), (6, 120, 0)),
}


def _cascade(target, n: int, sign0: int, mu: complex) -> complex:
    s = sign0 * (-1) ** n
    return sum(s * c * mu**pw * target[d] for pw, c, d in INVERSION_CASCADE[n])


def test_degenerate_points_rejected():
    """theta[p, q] or the q-derivative it is divided by vanishes identically."""
    for p, q in ((0, 0), (0, F(1, 2)), (F(1, 2), 0), (F(1, 2), F(1, 2))):
        with pytest.raises(ValueError, match="degenerate parameter point"):
            frame_two_param_jet(TwoParamPoint(p, q), 1.0)
        with pytest.raises(ValueError, match="degenerate parameter point"):
            frame_two_param_series(TwoParamPoint(p, q), 4)


def test_one_param_domain():
    with pytest.raises(ValueError):
        OneParamPoint(0)
    with pytest.raises(ValueError):
        OneParamPoint(F(1, 3), C=-1.0)
    with pytest.raises(ValueError):
        frame_one_param_jet(OneParamPoint(F(1, 3)), -2.0)
    with pytest.raises(ValueError):
        frame_one_param_jet(OneParamPoint(-1.5), 1.5)  # mu = -q0 pole


def test_series_grades():
    fr = frame_two_param_series(TwoParamPoint(F(1, 6), F(5, 6)), 4)
    assert fr.mode == "series"
    for j in (1, 2, 3):
        assert fr.w[j - 1].grade == Grade(1, 0)
        assert fr.w[j - 1].mu_derivative().grade == Grade(2, 0)
    assert fr.F_[0].grade == Grade(-3, -1)


@pytest.mark.parametrize("p,q", SAMPLE_POINTS)
def test_series_and_jet_agree(p, q):
    mu = 1.3
    trunc = 12
    fr_s = frame_two_param_series(TwoParamPoint(p, q), trunc)
    fr_j = jet_frame_two_param(TwoParamPoint(p, q), mu, 1e-15, order=4)
    for j in (1, 2, 3):
        x = fr_s.w[j - 1]
        for k in range(5):
            want = fr_j.w[j - 1][k]
            assert abs(x.evaluate_mu(mu) - want) < 1e-7 * (1 + abs(want))
            x = x.mu_derivative()
        a = fr_s.A[j - 1]
        for k in range(5):
            want = fr_j.A[j - 1][k]
            assert abs(a.evaluate_mu(mu) - want) < 1e-7 * (1 + abs(want))
            a = a.mu_derivative()
    x = fr_s.F_[0]
    for k in range(5):
        if k < len(fr_s.F_):
            assert fr_s.F_[k] == x
        want = fr_j.F_[k]
        assert abs(x.evaluate_mu(mu) - want) < 1e-6 * (1 + abs(want))
        x = x.mu_derivative()


@pytest.mark.parametrize("p,q", SAMPLE_POINTS)
def test_two_param_shift_law(p, q):
    """Frame at argument i mu + 1 equals the frame at [p, q+p+1/2], with w2
    and w3 exchanged.

    Reducing the shifted characteristic q+p+1/2 into [0,1) multiplies the
    half-integer-shifted theta quotients in w2 and w3 by -1 when a unit is
    dropped; the law is tested with that reduction sign made explicit.
    """
    mu = 1.17
    fr = jet_frame_two_param(TwoParamPoint(p, q), complex(mu, -1), 1e-16, order=4)
    fr_t = jet_frame_two_param(TwoParamPoint(p, (q + p + F(1, 2)) % 1), mu, 1e-16, order=4)
    tsign = (-1) ** math.floor(p + q + F(1, 2))
    scale = max(abs(fr_t.w[j][n]) for j in range(3) for n in range(5))
    for n in range(5):
        assert abs(fr.w[0][n] - fr_t.w[0][n]) < 1e-11 * scale
        assert abs(fr.w[1][n] - tsign * fr_t.w[2][n]) < 1e-11 * scale
        assert abs(fr.w[2][n] - tsign * fr_t.w[1][n]) < 1e-11 * scale
        assert abs(fr.F_[n] - fr_t.F_[n]) < 1e-11 * (1 + abs(fr_t.F_[n]))


@pytest.mark.parametrize("p,q", SAMPLE_POINTS)
def test_two_param_inversion_law(p, q):
    """Frame at argument i/mu against the frame at [-q, p].

    w1(i/mu) expands through w3, w2 through w2, w3 through -w1, each with the
    alternating-sign derivative cascade of mu^2 v(1/mu).  Reducing -q into
    [0,1) flips the sign of the e^{i pi p} prefactor inside w1 and w2 of the
    reduced frame whenever q is nonzero, hence the extra sign below.
    """
    mu = 1.17
    fr = jet_frame_two_param(TwoParamPoint(p, q), 1 / mu, 1e-16, order=4)
    fr_s = jet_frame_two_param(TwoParamPoint((-q) % 1, p), mu, 1e-16, order=4)
    ssign = -1 if q % 1 != 0 else 1
    scale = max(abs(fr_s.w[j][n]) for j in range(3) for n in range(5))
    for n in range(5):
        assert abs(fr.w[0][n] - _cascade(fr_s.w[2], n, 1, mu)) < 1e-10 * scale
        assert abs(fr.w[1][n] - _cascade(fr_s.w[1], n, ssign, mu)) < 1e-10 * scale
        assert abs(fr.w[2][n] - _cascade(fr_s.w[0], n, -ssign, mu)) < 1e-10 * scale
    # F: value -mu^-2 F, then F' - 2 F/mu, -mu^2 F'' + 2 mu F' - 2 F,
    # mu^4 F''', and -mu^6 F'''' - 4 mu^5 F'''
    Fi, Fs = fr.F_, fr_s.F_
    want = (
        -Fs[0] / mu**2,
        Fs[1] - 2 * Fs[0] / mu,
        -(mu**2) * Fs[2] + 2 * mu * Fs[1] - 2 * Fs[0],
        mu**4 * Fs[3],
        -(mu**6) * Fs[4] - 4 * mu**5 * Fs[3],
    )
    fscale = max(1.0, *(abs(w) for w in want))
    for n in range(5):
        assert abs(Fi[n] - want[n]) < 1e-10 * fscale


def test_one_param_frame_components():
    q0, mu = F(1, 3), 1.4
    fr = jet_frame_one_param(OneParamPoint(q0, C=2.0), mu, order=4)
    # F = C (mu + q0)^2 exactly
    base = mu + float(q0)
    assert abs(fr.F_[0] - 2 * base**2) < 1e-14
    assert abs(fr.F_[1] - 4 * base) < 1e-14
    assert abs(fr.F_[2] - 4) < 1e-14
    assert fr.F_[3] == 0 and fr.F_[4] == 0
    # w_j = 1/(mu+q0) + 2 (log theta_{j+1})'
    h = 1e-6
    for j in range(3):
        lo = frame_one_param_jet(OneParamPoint(q0), mu - h).w[j]
        hi = frame_one_param_jet(OneParamPoint(q0), mu + h).w[j]
        assert abs((hi - lo) / (2 * h) - fr.w[j][1]) < 1e-7


def test_one_param_shift_law():
    q0, mu = 0.7, 1.17
    fr = jet_frame_one_param(OneParamPoint(q0), complex(mu, -1), 1e-16, order=4)
    fr_t = jet_frame_one_param(OneParamPoint(complex(q0, -1)), mu, 1e-16, order=4)
    for n in range(5):
        assert abs(fr.w[0][n] - fr_t.w[0][n]) < 1e-11
        assert abs(fr.w[1][n] - fr_t.w[2][n]) < 1e-11
        assert abs(fr.w[2][n] - fr_t.w[1][n]) < 1e-11
    for n in range(3):
        assert abs(fr.F_[n] - fr_t.F_[n]) < 1e-11


def test_one_param_inversion_law():
    q0, mu = 0.7, 1.17
    fr = jet_frame_one_param(OneParamPoint(q0), 1 / mu, 1e-16, order=4)
    fr_s = jet_frame_one_param(OneParamPoint(1 / q0), mu, 1e-16, order=4)
    # w1(i/mu) = -mu^2 w3[1/q0], w2 -> -w2, w3 -> -w1, with the cascade
    for n in range(5):
        assert abs(fr.w[0][n] - _cascade(fr_s.w[2], n, -1, mu)) < 1e-9
        assert abs(fr.w[1][n] - _cascade(fr_s.w[1], n, -1, mu)) < 1e-9
        assert abs(fr.w[2][n] - _cascade(fr_s.w[0], n, -1, mu)) < 1e-9
    # F[q0](i/mu) = q0^2 mu^-2 F[1/q0](i mu); F' picks up q0/mu
    assert abs(fr.F_[0] - q0**2 / mu**2 * fr_s.F_[0]) < 1e-12
    assert abs(fr.F_[1] - q0 / mu * fr_s.F_[1]) < 1e-12
    assert fr.F_[3] == 0 and fr.F_[4] == 0


def test_jet_frames_at_one_mu_sum_the_theta_constants_once(monkeypatch):
    """8 frames at one mu: four lattice sums each, plus one for each of th2, th3, th4."""
    calls = []
    raw = theta._theta_eval_raw

    def counting(*args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(theta, "_theta_eval_raw", counting)
    _theta_constant_values.cache_clear()
    points = modular.orbit(F(1, 6), F(5, 6)).points
    assert len(points) == 8
    for pt in points:
        frame_two_param_jet(pt, 1.07, 1e-14)
    assert len(calls) == 8 * 4 + 3


def test_theta_constant_cache_keys_on_type_and_precision():
    """complex(1.1) and mpc(1.1) are equal and hash alike; 40 and 50 digits too."""
    pt = TwoParamPoint(F(1, 6), F(5, 6))
    builds = [(complex(1.1), 15), (mpmath.mpc(1.1), 40), (mpmath.mpc(1.1), 50)]
    warm = []
    for mu, dps in builds:
        with mpmath.workdps(dps):
            warm.append(frame_two_param_jet(pt, mu, 1e-35).A)
    for (mu, dps), A in zip(builds, warm):
        _theta_constant_values.cache_clear()
        with mpmath.workdps(dps):
            assert A == frame_two_param_jet(pt, mu, 1e-35).A
    assert warm[1] != warm[2]


@pytest.mark.parametrize("mu", [1.2, complex(0.9, 0.3), mpmath.mpc(1.03, 0.02)])
def test_both_families_carry_the_same_A(mu):
    _theta_constant_values.cache_clear()
    with mpmath.workdps(40):
        two = frame_two_param_jet(TwoParamPoint(F(1, 3), F(1, 5)), mu, 1e-30)
        _theta_constant_values.cache_clear()
        one = frame_one_param_jet(OneParamPoint(F(1, 3)), mu, 1e-30)
    assert all(isinstance(a, (complex, mpmath.mpc)) for a in two.A)
    assert one.A == two.A


@pytest.mark.parametrize("dps", [15, 40])
def test_frames_are_the_jet_frames_cut_to_values(dps):
    """w and A are component 0 of the oracle's jets, and the F tower is F's
    components 0..DEPTH, bit for bit, in both families."""
    with mpmath.workdps(dps):
        if dps == 15:
            mus, tol = (1.1, complex(1.05, 0.2)), 1e-14
        else:
            mus, tol = (mpmath.mpc(1.03, 0.02), mpmath.mpc(1.2)), 1e-35
        for mu in mus:
            pairs = [
                (frame_two_param_jet(TwoParamPoint(p, q), mu, tol), jet_frame_two_param(TwoParamPoint(p, q), mu, tol))
                for p, q in SAMPLE_POINTS
            ]
            for q0 in (F(1, 3), complex(0.5, 0.2)):
                pt = OneParamPoint(q0, C=2.0)
                pairs.append((frame_one_param_jet(pt, mu, tol), jet_frame_one_param(pt, mu, tol)))
            for fr, deep in pairs:
                assert list(fr.w) == [x[0] for x in deep.w]
                assert list(fr.A) == [a[0] for a in deep.A]
                assert list(fr.F_) == list(deep.F_.comps[: DEPTH + 1])
                assert fr.k == deep.k
