"""Acceptance checklist: one test (and one printed pass/fail line) per criterion.

Three published figures are errata.  Each is asserted at the value that the
published data themselves force, and the report line records the published
figure beside the corrected one:

* criterion 2: the Q^-1 coefficient of the order-4 sum over the 24-point
  orbit is printed as -4/15.  The sum lies in the one-dimensional space of
  G14/Delta, and both the published constant -405405 (times g14) and the
  published Q^1 coefficient 87504/5 (over the q^1 coefficient of E14/Delta)
  give -4/45, which reproduces the published Q^1..Q^3 coefficients.
* criterion 5: the closed form |p - 1/2| for the cusp valuation of the
  order-0 coefficient holds only for p not in {0, 1/2}.  At p = 1/2 two of
  the dq-thetas have first characteristic 0, whose valuation is 1/2 rather
  than the generic 0, so the valuation is 1.
* criterion 7: a 1e-6 cross-validation bound for the 8-point orbit at
  truncation 6 and mu = 1.05 cannot be met by a correct series: the orbit
  sums are multiples of Delta*G6/G4^4, which converges only for
  |Q| < e^(-pi sqrt 3).  The bound is asserted for the series completed past
  its horizon by the identified form, and for a truncation derived from
  that radius.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bianchi9 import modular
from bianchi9.instanton import (
    OneParamPoint,
    TwoParamPoint,
    frame_one_param_jet,
    frame_two_param_jet,
    frame_two_param_series,
)
from bianchi9.modular import classical_series, identify, sample_mu, valence_budget, vv_modularity_report
from bianchi9.seeley import CoeffIndex, a0, a2, a4, coefficient, orbit_sum
from bianchi9.series import Grade, PuiseuxSeries
from bianchi9.theta import THETA2, THETA3, THETA4, theta_series

from seeley_oracle import theta_jet
from test_theta import (
    _s_residual,
    _t2_residual,
    _t_residual,
    expected_dq_theta_valuation,
    expected_theta_valuation,
)

F = Fraction


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


ORBIT_24 = {
    (F(1, 2), F(2, 3)), (F(1, 2), F(1, 3)), (F(5, 6), F(2, 3)), (F(5, 6), F(1, 3)),
    (F(5, 6), F(0)), (F(1, 6), F(2, 3)), (F(1, 6), F(1, 3)), (F(1, 6), F(0)),
    (F(2, 3), F(5, 6)), (F(2, 3), F(2, 3)), (F(2, 3), F(1, 2)), (F(2, 3), F(1, 3)),
    (F(2, 3), F(1, 6)), (F(2, 3), F(0)), (F(1, 3), F(5, 6)), (F(1, 3), F(2, 3)),
    (F(1, 3), F(1, 2)), (F(1, 3), F(1, 3)), (F(1, 3), F(1, 6)), (F(1, 3), F(0)),
    (F(0), F(1, 6)), (F(0), F(2, 3)), (F(0), F(5, 6)), (F(0), F(1, 3)),
}

ORBIT_8 = {
    (F(1, 2), F(1, 6)), (F(5, 6), F(1, 2)), (F(5, 6), F(5, 6)), (F(5, 6), F(1, 6)),
    (F(1, 2), F(5, 6)), (F(1, 6), F(5, 6)), (F(1, 6), F(1, 2)), (F(1, 6), F(1, 6)),
}

# published Q-expansion coefficients (the order-2 sums are minus the order-0 ones)
A0_THIRD = {-1: F(-4, 3), 1: F(262512), 2: F(171950080, 3), 3: F(3457199880)}
A4_THIRD = {1: F(87504, 5), 2: F(34390016, 9), 3: F(230479992)}
A0_SIXTH = {1: F(-294912), 2: F(438829056), 3: F(-315542863872)}
A4_SIXTH = {1: F(-270336, 5), 2: F(402259968, 5), 3: F(-289247625216, 5)}

# published identification constants, with their pi/Lambda grades and targets
IDENTIFICATIONS = {
    ("third", 0): (F(-6081075), Grade(-17, -2), "G14/Delta"),
    ("third", 2): (F(6081075), Grade(-15, -1), "G14/Delta"),
    ("third", 4): (F(-405405), Grade(-13, 0), "G14/Delta"),
    ("sixth", 0): (F(-114688, 3375), Grade(7, -2), "Delta*G6/G4^4"),
    ("sixth", 2): (F(114688, 3375), Grade(9, -1), "Delta*G6/G4^4"),
    ("sixth", 4): (F(-315392, 50625), Grade(11, 0), "Delta*G6/G4^4"),
}


def _g(k: int, bernoulli_k: Fraction) -> Fraction:
    """g_k = 2 zeta(k) / pi^k from the Bernoulli number B_k, for even k.

    zeta(k) = (-1)^(k/2 + 1) B_k (2 pi)^k / (2 k!).
    """
    return (-1) ** (k // 2 + 1) * bernoulli_k * F(2**k, math.factorial(k))


G4, G6, G14 = _g(4, F(-1, 30)), _g(6, F(1, 42)), _g(14, F(7, 6))


def test_criterion_1_orbit_reproduction():
    t0 = time.perf_counter()
    third = modular.orbit(F(0), F(1, 3))
    sixth = modular.orbit(F(1, 6), F(5, 6))
    elapsed = time.perf_counter() - t0
    ok = (
        {(pt.p, pt.q) for pt in third.points} == ORBIT_24
        and {(pt.p, pt.q) for pt in sixth.points} == ORBIT_8
        and elapsed < 1.0
    )
    _report(1, ok, f"orbit point sets exact (24 and 8 points), {elapsed:.3f}s")


def test_criterion_2_exact_q_expansions(orbit_sums):
    checks = []

    def series(name, order):
        res, elapsed = orbit_sums[name, order]
        checks.append(elapsed < 60.0)
        return res.representation

    s = series("third", 0)
    q = s.as_q_expansion()
    checks.append(all(q[e] == c for e, c in A0_THIRD.items()))
    checks.append(s.grade == Grade(-3, -2))
    s = series("third", 2)
    q = s.as_q_expansion()
    checks.append(all(q[e] == -c for e, c in A0_THIRD.items()))
    checks.append(s.grade == Grade(-1, -1))
    s = series("third", 4)
    q = s.as_q_expansion()
    checks.append(all(q[e] == c for e, c in A4_THIRD.items()))
    checks.append(s.grade == Grade(1, 0))
    s = series("sixth", 0)
    q = s.as_q_expansion()
    checks.append(all(q[e] == c for e, c in A0_SIXTH.items()))
    s = series("sixth", 2)
    q = s.as_q_expansion()
    checks.append(all(q[e] == -c for e, c in A0_SIXTH.items()))
    s = series("sixth", 4)
    q = s.as_q_expansion()
    checks.append(all(q[e] == c for e, c in A4_SIXTH.items()))
    _report(2, all(checks), "exact rational Q-expansions and grades, < 60 s each")


def test_criterion_2_a4_leading_coefficient_as_published(orbit_sums):
    res, _ = orbit_sums["third", 4]
    got = res.representation.as_q_expansion()[-1]
    # The sum lies in the one-dimensional space of G14/Delta = g14 pi^14 E14/Delta,
    # so any one nonzero coefficient fixes all the others.
    e14_over_delta = (classical_series("E14", 6) / classical_series("Delta", 6)).as_q_expansion()
    from_constant = IDENTIFICATIONS["third", 4][0] * G14
    from_q1 = A4_THIRD[1] / e14_over_delta[1]
    ok = (
        from_q1 == from_constant
        and all(from_constant * e14_over_delta[e] == c for e, c in A4_THIRD.items())
        and got == from_constant
    )
    _report(
        2,
        ok,
        f"Q^-1 coefficient of the order-4 sum {got}, forced value {from_constant}. "
        "Erratum: published as -4/15. The published constant -405405 times "
        f"g14 = {G14} gives {from_constant}; the published Q^1 coefficient "
        f"87504/5 over the q^1 coefficient {e14_over_delta[1]} of E14/Delta gives "
        f"{from_q1}; {from_constant} * E14/Delta reproduces the published Q^1..Q^3 "
        "coefficients, where -4/15 gives three times each.",
    )


def test_criterion_3_identification_constants(orbit_third, orbit_sixth, orbit_sums):
    orbs = {"third": orbit_third, "sixth": orbit_sixth}
    ok = True
    for (name, order), (const, grade, target) in IDENTIFICATIONS.items():
        ident = identify(orbit_sums[name, order][0], orbs[name])
        ok = ok and ident.constant == const and ident.grade == grade and ident.target == target
    _report(3, ok, "all six identification constants exact")


def test_criterion_4_valence_bookkeeping(orbit_third, orbit_sixth):
    ok = (
        valence_budget(orbit_third) == 0
        and (orbit_third.n, orbit_third.n0) == (24, 4)
        and valence_budget(orbit_sixth) == F(2, 3)
        and (orbit_sixth.n, orbit_sixth.n0) == (8, 0)
    )
    # n >= 6 n0 for every orbit seeded from denominators <= 12
    grid = sorted({F(a, b) for b in range(1, 13) for a in range(b)})
    seen: set = set()
    n_orbits = 0
    for p in grid:
        for q in grid:
            if (p, q) in seen:
                continue
            orb = modular.orbit(p, q)
            seen.update((pt.p, pt.q) for pt in orb.points)
            if modular.is_exceptional(orb):
                continue
            n_orbits += 1
            if orb.n < 6 * orb.n0:
                ok = False
    _report(4, ok, f"budgets 0 and 2/3; n >= 6 n0 across {n_orbits} orbits from denominators <= 12")


def _a0_valuation_from_theta_table(p: Fraction, q: Fraction) -> Fraction:
    """Order of vanishing of the order-0 coefficient at the cusp.

    Assembled from the theta-level valuation table; the commonly quoted
    closed form |p - 1/2| agrees with this for p not in {0, 1/2}.  At p = 1/2
    the dq-theta valuation at first characteristic 0 is 1/2 rather than the
    generic 0; at p = 0 the valuation is -1.
    """
    if p == 0:
        return F(-1)
    terms = F(1, 4)  # two factors of the 1/8-valuation classical theta
    terms += expected_theta_valuation(p)
    for dp, dq in ((F(1, 2), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1, 2))):
        terms += expected_dq_theta_valuation(p + dp, q + dq)
    return terms - 4 * expected_dq_theta_valuation(p, q)


def test_criterion_5_orders_at_infinity(orbit_third, orbit_sixth):
    ok = True
    for char, want in ((THETA2, F(1, 8)), (THETA3, 0), (THETA4, 0)):
        s = theta_series(*char, 4)[0]
        ok = ok and F(s.valuation, s.exp_den) == want
    points = list(orbit_third.points) + list(orbit_sixth.points)
    for pt in points:
        s, d = theta_series(pt.p, pt.q, 4)
        ok = ok and F(s.valuation, s.exp_den) == expected_theta_valuation(pt.p)
        want = expected_dq_theta_valuation(pt.p, pt.q)
        ok = ok and (d.is_zero() if want is None else F(d.valuation, d.exp_den) == want)
        if not TwoParamPoint(pt.p, pt.q).is_degenerate():
            s = a0(frame_two_param_series(TwoParamPoint(pt.p, pt.q), 2)).representation
            v = F(s.valuation, s.exp_den)
            want_a0 = _a0_valuation_from_theta_table(pt.p, pt.q)
            if pt.p not in (0, F(1, 2)):  # the closed form's range
                assert want_a0 == abs(pt.p - F(1, 2))
            ok = ok and v == want_a0
    _report(5, ok, f"valuations exact at all {len(points)} orbit points")


def test_criterion_5_closed_form_at_p_half(orbit_third, orbit_sixth):
    halves = [pt for orb in (orbit_third, orbit_sixth) for pt in orb.points if pt.p == F(1, 2)]
    ok = len(halves) == 4  # two points in each orbit
    got = {}
    for pt in halves:
        # The closed form assumes the generic dq-theta valuation, which is the
        # theta valuation of the first characteristic.  The (p+1/2, q) and
        # (p+1/2, q+1/2) factors have first characteristic 0 here, where the
        # table gives 1/2 instead.
        half = F(1, 2)
        corrections = sum(
            expected_dq_theta_valuation(pt.p + half, pt.q + dq) - expected_theta_valuation(pt.p + half)
            for dq in (F(0), half)
        )
        want = abs(pt.p - half) + corrections
        s = a0(frame_two_param_series(TwoParamPoint(pt.p, pt.q), 2)).representation
        v = F(s.valuation, s.exp_den)
        got[f"({pt.p}, {pt.q})"] = str(v)
        ok = ok and want == 1 and v == want
    _report(
        5,
        ok,
        f"a0 cusp valuation at the p = 1/2 points {got}, table value 1. "
        "Erratum: the quoted closed form |p - 1/2| gives 0 there; it holds only "
        "for p not in {0, 1/2}. The table gives |p - 1/2| + 2 * (1/2 - 0) = 1, "
        "since the dq-theta valuation at first characteristic 0 is 1/2, not "
        "the generic (distance of p + 1/2 to Z)^2 / 2 = 0.",
    )


def test_criterion_6_transformation_residuals(orbit_third, orbit_sixth):
    worst = 0.0
    for orb in (orbit_third, orbit_sixth):
        for n in (0, 1, 2):
            rep = vv_modularity_report(orb, CoeffIndex(n), samples=5, tol=1e-9)
            worst = max(worst, rep["max_residual"])
    theta_worst = 0.0
    for p, q in ((F(1, 3), F(1, 5)), (F(1, 6), F(5, 6)), (F(0), F(1, 3)), (F(1, 2), F(1, 3))):
        for mu in (1.2, 0.85):
            theta_worst = max(
                theta_worst,
                _t_residual(p, q, mu),
                _t2_residual(p, q, mu),
                _s_residual(p, q, mu),
            )
    ok = worst <= 1e-9 and theta_worst <= 1e-10
    _report(
        6,
        ok,
        f"coefficient transforms max residual {worst:.2e} (<= 1e-9); "
        f"theta-level laws max residual {theta_worst:.2e} (<= 1e-10)",
    )


def _direct_sum(orb, order, mu):
    """Orbit sum of the order-n coefficient from the numeric jets."""
    index = CoeffIndex(order // 2)
    direct = 0j
    for pt in orb.points:
        fr = frame_two_param_jet(TwoParamPoint(pt.p, pt.q), mu, 1e-14)
        direct += complex(coefficient(fr, index).representation.comps[0])
    return direct


def _residual(series, direct, mu):
    return abs(series.evaluate_mu(mu) - direct) / max(abs(direct), 1.0)


def _crossval_residuals(orb, sums_key, orbit_sums, mu=1.05):
    out = {}
    for order in (0, 2, 4):
        series = orbit_sums[sums_key, order][0].representation
        out[order] = _residual(series, _direct_sum(orb, order, mu), mu)
    return out


def test_criterion_7_cross_validation_24_point_orbit(orbit_third, orbit_sums):
    res = _crossval_residuals(orbit_third, "third", orbit_sums)
    worst = max(res.values())
    _report(7, worst < 1e-6, f"24-point orbit residuals at mu=1.05: {res} (< 1e-6)")


# The 8-point sums are multiples of Delta*G6/G4^4.  The simple zero of G4 at
# rho gives it a fourth-order pole at Q = -e^(-pi sqrt 3), its nearest
# singularity, so its coefficients grow like n^3 e^(pi sqrt 3 n).
RADIUS_8 = math.exp(-math.pi * math.sqrt(3))


def _tail_horizon(series, mu, scale, target):
    """Smallest horizon H whose omitted tail at real mu is below target * scale.

    K bounds |a_n| R^n / n^3 over the known coefficients of the series, and the
    tail from Q^H on is estimated as K pi^g sum_{n >= H} n^3 (|Q| / R)^n.
    """
    ratio = math.exp(-2 * math.pi * mu) / RADIUS_8
    k = max(abs(float(c)) * RADIUS_8**n / n**3 for n, c in series.as_q_expansion().items())
    k *= math.pi**series.grade.pi_exp

    def tail(h):
        return k * sum(n**3 * ratio**n for n in range(h, h + 500))

    h = series.trunc
    while tail(h) >= target * scale:
        h += 1
    return h


def test_criterion_7_cross_validation_8_point_orbit(orbit_sixth, orbit_sums):
    mu, bound = 1.05, 1e-6
    trunc6, completed = {}, {}
    on_horizon = True
    exact = {order: orbit_sums["sixth", order][0].representation for order in (0, 2, 4)}
    direct = {order: _direct_sum(orbit_sixth, order, mu) for order in exact}
    # (a) complete each trunc-6 sum past its horizon with r * Delta*E6/E4^4,
    # r from the published constant: Delta*G6/G4^4 = (g6 / g4^4) pi^-10 Delta*E6/E4^4.
    # The completion runs until its tail is below the jets' own 1e-14 error.
    m = max(_tail_horizon(s, mu, max(abs(direct[o]), 1.0), bound * 1e-7) for o, s in exact.items())
    form = (classical_series("Delta", m) * classical_series("E6", m) / classical_series("E4", m) ** 4).as_q_expansion()
    for order, series in exact.items():
        r = IDENTIFICATIONS["sixth", order][0] * G6 / G4**4
        known = series.as_q_expansion()
        on_horizon = on_horizon and known == {n: r * c for n, c in form.items() if n < series.trunc}
        tail = {n: r * c for n, c in form.items() if n >= series.trunc}
        full = PuiseuxSeries(1, {**known, **tail}, m, series.grade)
        trunc6[order] = _residual(series, direct[order], mu)
        completed[order] = _residual(full, direct[order], mu)
    # (b) independent of the identification: the order-0 exact sum, truncated
    # where the radius puts its tail a decade below the bound
    shift = exact[0].trunc - 6  # the fixture sums at orbit_sum's truncation 6
    h = _tail_horizon(exact[0], mu, max(abs(direct[0]), 1.0), bound / 10)
    deep_series = orbit_sum(orbit_sixth, CoeffIndex(0), h - shift).representation
    deep = _residual(deep_series, direct[0], mu)
    ok = on_horizon and deep_series.trunc >= h and max(completed.values()) < bound and deep < bound
    _report(
        7,
        ok,
        f"8-point orbit at mu={mu}: exact sums completed to horizon Q^{m} by r*Delta*E6/E4^4 "
        f"{completed}, order 0 at truncation {h - shift} {deep:.2e} (< {bound}). "
        f"Erratum: a {bound} bound at truncation 6 cannot be met ({trunc6}): "
        f"the series converges only for |Q| < e^(-pi sqrt 3) ~ {RADIUS_8:.2e}, "
        f"so at mu={mu} each term shrinks only by about "
        f"{math.exp(-2 * math.pi * mu) / RADIUS_8:.2f}.",
    )


def test_criterion_8_dirac_structure():
    import random

    from bianchi9.dirac import GAMMAS, IDENT, _sigma_Dtilde, compose_square, dtilde_sq_crosscheck
    from test_dirac import metric_matrix  # the inverse-metric oracle lives with the Dirac tests

    ok = all(
        np.array_equal(
            GAMMAS[a] @ GAMMAS[b] + GAMMAS[b] @ GAMMAS[a],
            -2 * IDENT if a == b else np.zeros((4, 4)),
        )
        for a in range(4)
        for b in range(4)
    )
    frame = frame_two_param_jet(TwoParamPoint(F(1, 6), F(5, 6)), 1.05, 1e-14)
    rng = random.Random(0)
    worst_p2 = 0.0
    for _ in range(20):
        x = (1.05, 0.4 + 2.2 * rng.random(), 6.28 * rng.random(), 6.28 * rng.random())
        sq = compose_square(_sigma_Dtilde(x, frame)[0])
        ginv = np.linalg.inv(metric_matrix(x, frame))
        xi = np.array([rng.gauss(0, 1) for _ in range(4)])
        want = xi @ ginv @ xi
        acc = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            for k in range(4):
                acc += sq.p2[j, k] * xi[j] * xi[k]
        worst_p2 = max(worst_p2, float(np.abs(acc - want * IDENT).max() / (1 + abs(want))))
    cross = dtilde_sq_crosscheck((1.05, 1.2, 0.7, 2.1), frame, tol=1e-10)
    ok = ok and worst_p2 <= 1e-12 and cross["pass"]
    _report(
        8,
        ok,
        f"gamma relations exact; p2 vs inverse metric {worst_p2:.2e} (<= 1e-12); "
        f"squared-symbol crosscheck {cross['max_residual']:.2e} (<= 1e-10)",
    )


def test_criterion_9_first_derivatives_vs_finite_differences():
    """The derivatives a frame carries or implies, against central differences
    of values: the tower's F' and F'', A_j against 2 log theta_{j+1}, and the
    Tod-Halphen w'.  A coefficient is a value and carries no derivative."""
    h = 1e-5
    worst = 0.0
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def check(make_frame, mu):
        nonlocal worst
        lo, mid, hi = (make_frame(m) for m in (mu - h, mu, mu + h))
        w, A = mid.w, mid.A
        pairs = [(lo.F_[n], hi.F_[n], mid.F_[n + 1]) for n in (0, 1)]
        pairs += [(lo.w[i], hi.w[i], -w[j] * w[k] + w[i] * (A[j] + A[k])) for i, j, k in cyclic]
        for char, a in zip((THETA2, THETA3, THETA4), A):
            theta_lo, theta_hi = (theta_jet(*char, m, 0, 1e-15)[0][0] for m in (mu - h, mu + h))
            pairs.append((0, 2 * cmath.log(theta_hi / theta_lo), a))  # 2 log theta, as a difference
        for f_lo, f_hi, want in pairs:
            fd = (complex(f_hi) - complex(f_lo)) / (2 * h)
            worst = max(worst, abs(complex(want) - fd) / max(abs(fd), 1.0))

    for mu in sample_mu(5, seed=0):
        check(lambda m: frame_two_param_jet(TwoParamPoint(F(1, 6), F(5, 6)), m, 1e-15), mu)
        check(lambda m: frame_one_param_jet(OneParamPoint(F(1, 3)), m, 1e-15), mu)
    _report(9, worst <= 1e-6, f"F tower, A_j and Tod-Halphen w' vs central differences, max {worst:.2e}")
