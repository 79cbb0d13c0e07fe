from __future__ import annotations

from fractions import Fraction

import pytest

from bianchi9.instanton import InstantonFrame, TwoParamPoint, frame_two_param_jet, frame_two_param_series
from bianchi9.jets import Jet
from bianchi9.seeley import CoeffIndex, a0, a2, a4, coefficient, orbit_sum
from bianchi9.seeley_terms import (
    A2_CHECKSUM,
    A2_TERMS,
    A4_CHECKSUM,
    A4_TERMS,
    parse_terms,
    render_terms,
    table_checksum,
)
from bianchi9.series import Grade

F = Fraction


def _constant_frame(w1, w2, w3, f=1.0, order=4) -> InstantonFrame:
    ws = tuple(Jet.constant(w, order) for w in (w1, w2, w3))
    return InstantonFrame("jet", ws, Jet.constant(f, order))


def test_coeff_index_validation():
    with pytest.raises(ValueError):
        CoeffIndex(3)
    assert CoeffIndex(2).order == 4
    assert CoeffIndex(0).grade == Grade(-3, -2)
    assert CoeffIndex(1).grade == Grade(-1, -1)
    assert CoeffIndex(2).grade == Grade(1, 0)


def test_term_tables_are_frozen():
    assert len(A2_TERMS) == 17
    assert len(A4_TERMS) == 201
    assert table_checksum(A2_TERMS) == A2_CHECKSUM
    assert table_checksum(A4_TERMS) == A4_CHECKSUM
    assert A2_CHECKSUM == "8255a69302b8f867bc6458c84d81b5db487780f14b00e11f81a6ed65c2a8d016"
    assert A4_CHECKSUM == "37cd33440b372448f9d6eea41d6dec2b269f3bf2d439fb804f976d5f0a0ec5bc"


def test_render_parse_round_trip():
    assert parse_terms(render_terms(A2_TERMS)) == A2_TERMS
    assert parse_terms(render_terms(A4_TERMS)) == A4_TERMS


def test_a0_constant_frame():
    fr = _constant_frame(2.0, 3.0, 5.0)
    assert abs(a0(fr).representation[0] - 4 * 30) < 1e-12


def test_a2_isotropic_constant_frame():
    # with w1 = w2 = w3 = w and F = 1 the table collapses to -w^2/2
    for w in (1.0, 2.5):
        fr = _constant_frame(w, w, w)
        assert abs(a2(fr).representation[0] + w * w / 2) < 1e-12


def test_tables_symmetric_under_w_permutations():
    fr = frame_two_param_jet(TwoParamPoint(F(1, 6), F(5, 6)), 1.2, 1e-15)
    perms = [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0)]
    for idx in (a2, a4):
        base = idx(fr).representation[0]
        for perm in perms:
            swapped = InstantonFrame("jet", tuple(fr.w[j] for j in perm), fr.F_)
            assert abs(idx(swapped).representation[0] - base) < 1e-9 * (1 + abs(base))


def test_series_and_jet_coefficients_agree():
    pt = TwoParamPoint(F(0), F(1, 3))
    mu = 1.2
    fr_s = frame_two_param_series(pt, 10)
    fr_j = frame_two_param_jet(pt, mu, 1e-15)
    for idx in (a0, a2, a4):
        want = idx(fr_j).representation[0]
        got = idx(fr_s).representation.evaluate_mu(mu)
        assert abs(got - want) < 1e-6 * (1 + abs(want))


def test_series_coefficients_carry_expected_grades():
    fr = frame_two_param_series(TwoParamPoint(F(1, 6), F(5, 6)), 4)
    assert a0(fr).representation.grade == Grade(-3, -2)
    assert a2(fr).representation.grade == Grade(-1, -1)
    assert a4(fr).representation.grade == Grade(1, 0)


def test_jet_frame_too_shallow_raises():
    fr = frame_two_param_jet(TwoParamPoint(F(1, 6), F(5, 6)), 1.2, order=2)
    with pytest.raises(ValueError):
        a4(fr)


def test_orbit_sum_matches_pointwise_sum(orbit_sixth):
    """The conjugate-pair shortcut equals the plain sum over every point."""
    trunc = 3
    idx = CoeffIndex(0)
    direct = None
    for pt in orbit_sixth.points:
        fr = frame_two_param_series(TwoParamPoint(pt.p, pt.q), trunc)
        contrib = coefficient(fr, idx).representation
        direct = contrib if direct is None else direct + contrib
    summed = orbit_sum(orbit_sixth, idx, trunc).representation
    for e, c in summed.terms.items():
        assert direct.coefficient(F(e, summed.exp_den)) == c
    assert summed.as_q_expansion()  # integer grid, rational coefficients


@pytest.mark.parametrize("n", (0, 1))
def test_orbit_sum_horizon_and_prefix(orbit_third, orbit_sixth, n):
    """The horizon reached is at least the one requested, and a deeper sum
    extends a shallower one without changing its known terms."""
    for orb in (orbit_third, orbit_sixth):
        prev = None
        for trunc in (2, 3, 4):
            s = orbit_sum(orb, CoeffIndex(n), trunc).representation
            assert s.trunc >= trunc
            if prev is not None:
                assert s.trunc >= prev.trunc and s.grade == prev.grade
                assert {e: c for e, c in s.terms.items() if e < prev.trunc} == prev.terms
            prev = s


def test_orbit_sum_result_shape(orbit_sums):
    res, _ = orbit_sums["third", 0]
    s = res.representation
    assert s.exp_den == 1
    assert s.grade == Grade(-3, -2)
    assert s.trunc is not None and s.trunc >= 4
    assert all(isinstance(c.as_rational(), F) for c in s.terms.values())


def test_to_json_round_trip_series(orbit_sums):
    from bianchi9.series import PuiseuxSeries

    res, _ = orbit_sums["sixth", 4]
    doc = res.to_json()
    assert doc["order"] == 4
    back = PuiseuxSeries.from_json(doc["series"])
    assert back == res.representation
