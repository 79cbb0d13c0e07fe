from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bianchi9 import seeley
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
from bianchi9.theta import Characteristics, cyclotomic_order

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


def _pointwise(points, n, trunc, cache):
    """The plain sum of the coefficient series over the points, on the integer grid."""
    total = None
    for pt in points:
        if pt not in cache:
            cache[pt] = coefficient(frame_two_param_series(pt, trunc), CoeffIndex(n)).representation
        total = cache[pt] if total is None else total + cache[pt]
    horizon = total.trunc // total.exp_den
    return {e: c for e, c in total.as_q_expansion().items() if e < horizon}, horizon, total.grade


def _lists(points):
    """Lists whose sums are rational: the orbit shuffled, the first point met
    of each pair (p, q), (-p, -q) (half the orbit sum), and the orbit with its
    p = 1/2 points repeated."""
    shuffled = random.Random(1).sample(points, len(points))
    first_of_pair = {}
    for pt in shuffled:
        first_of_pair.setdefault(min(pt, TwoParamPoint(-pt.p, -pt.q)), pt)
    return shuffled, list(first_of_pair.values()), shuffled + [pt for pt in points if pt.p == F(1, 2)]


def test_orbit_sum_matches_pointwise_sum(orbit_sixth, orbit_third):
    """One frame per Galois class gives the plain sum over every point of the list."""
    cases = ((orbit_sixth, 0, 3), (orbit_sixth, 1, 3), (orbit_sixth, 2, 1), (orbit_third, 0, 3), (orbit_third, 1, 3))
    for orb, n, trunc in cases:
        cache = {}
        lists = _lists(list(orb.points))
        for points in lists[:1] if n == 2 else lists:  # a4 costs about a second per point even at trunc 1
            summed = orbit_sum(points, CoeffIndex(n), trunc).representation
            assert (summed.as_q_expansion(), summed.trunc, summed.grade) == _pointwise(points, n, trunc, cache)


@pytest.mark.parametrize(("name", "frames"), [("sixth", 3), ("third", 9)])
def test_orbit_sum_builds_one_frame_per_class(monkeypatch, orbit_sixth, orbit_third, name, frames):
    points = list({"sixth": orbit_sixth, "third": orbit_third}[name].points)
    built = []

    def counting(pt, trunc):
        built.append(pt)
        return frame_two_param_series(pt, trunc)

    monkeypatch.setattr(seeley, "frame_two_param_series", counting)
    rng = random.Random(2)
    for order in (points, points[::-1], rng.sample(points, len(points))):
        built.clear()
        orbit_sum(order, CoeffIndex(0), 1)
        assert len(built) == frames and built[0] == order[0]


_SMALL_POINTS = st.tuples(st.integers(1, 6), st.integers(0, 5), st.integers(1, 6), st.integers(0, 5))


@settings(max_examples=12, deadline=None)
@given(_SMALL_POINTS, st.integers(0, 10**6), st.sampled_from((0, 1)), st.integers(0, 2))
def test_galois_image_is_the_series_at_k_q(pq, pick, n, trunc):
    """sigma_k maps a_2n[p, q] to a_2n[p, k q] for every unit k mod N."""
    dp, a, dq, b = pq
    pt = TwoParamPoint(F(a % dp, dp), F(b % dq, dq))
    assume(not pt.is_degenerate())
    big_n = cyclotomic_order(Characteristics(pt.p, pt.q))
    units = [k for k in range(1, big_n) if math.gcd(k, big_n) == 1]
    k = units[pick % len(units)]
    image = coefficient(frame_two_param_series(pt, trunc), CoeffIndex(n)).representation.galois(k)
    at_kq = coefficient(frame_two_param_series(TwoParamPoint(pt.p, k * pt.q), trunc), CoeffIndex(n))
    assert image.to_json() == at_kq.representation.to_json()


def test_galois_image_of_a4():
    """sigma_5 of a4 at (1/6, 1/6), where N = 36, is a4 at (1/6, 5/6)."""
    image = a4(frame_two_param_series(TwoParamPoint(F(1, 6), F(1, 6)), 1)).representation.galois(5)
    assert image.to_json() == a4(frame_two_param_series(TwoParamPoint(F(1, 6), F(5, 6)), 1)).representation.to_json()


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
