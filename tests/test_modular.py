from __future__ import annotations

from fractions import Fraction

import pytest

from bianchi9 import modular
from bianchi9.instanton import DEGENERATE
from bianchi9.modular import (
    ExceptionalOrbitError,
    OrbitPoint,
    act_S,
    act_T,
    bernoulli,
    classical_series,
    eisenstein_constant,
    identify,
    sample_mu,
    valence_budget,
    zeta_over_pi_power,
)
from bianchi9.seeley import CoeffIndex
from bianchi9.series import Grade

F = Fraction


def test_generator_relations():
    pts = [OrbitPoint(F(1, 6), F(5, 6)), OrbitPoint(F(0), F(1, 3)), OrbitPoint(F(2, 7), F(3, 7))]
    for pt in pts:
        x = pt
        for _ in range(4):
            x = act_S(x)
        assert x == pt  # S has order 2 in PSL2(Z), 4 on characteristics


def test_orbit_sizes_and_fixed_points(orbit_third, orbit_sixth):
    assert orbit_third.n == 24 and orbit_third.n0 == 4
    assert orbit_sixth.n == 8 and orbit_sixth.n0 == 0


def test_orbit_closure(orbit_third, orbit_sixth):
    for orb in (orbit_third, orbit_sixth):
        pts = set(orb.points)
        for pt in pts:
            assert act_S(pt) in pts
            assert act_T(pt) in pts


def test_eight_point_orbit_exactly():
    got = {(pt.p, pt.q) for pt in modular.orbit(F(1, 6), F(5, 6)).points}
    want = {
        (F(1, 6), F(1, 6)),
        (F(1, 6), F(1, 2)),
        (F(1, 6), F(5, 6)),
        (F(1, 2), F(1, 6)),
        (F(1, 2), F(5, 6)),
        (F(5, 6), F(1, 6)),
        (F(5, 6), F(1, 2)),
        (F(5, 6), F(5, 6)),
    }
    assert got == want


def test_valence_budgets(orbit_third, orbit_sixth):
    assert valence_budget(orbit_third) == 0
    assert valence_budget(orbit_sixth) == F(2, 3)


def test_exceptional_orbits_refused():
    for p, q in ((F(1, 2), F(1, 2)), (F(0), F(0))):
        with pytest.raises(ExceptionalOrbitError):
            valence_budget(modular.orbit(p, q))


def test_exceptional_orbits_are_the_orbits_of_the_degenerate_points():
    orbits = {modular.orbit(p, q).points for p, q in DEGENERATE}
    assert {frozenset((pt.p, pt.q) for pt in pts) for pts in orbits} == {
        frozenset({(F(1, 2), F(1, 2))}),
        frozenset({(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2))}),
    }
    assert all(modular.is_exceptional(modular.orbit(p, q)) for p, q in DEGENERATE)
    for p, q in ((F(1, 6), F(5, 6)), (F(0), F(1, 3)), (F(1, 2), F(1, 6)), (F(1, 3), F(1, 5))):
        assert not modular.is_exceptional(modular.orbit(p, q))


def test_bernoulli_values():
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)
    assert bernoulli(7) == 0


def test_zeta_constants():
    assert zeta_over_pi_power(2) == F(1, 6)  # zeta(2) = pi^2/6
    assert eisenstein_constant(4) == F(1, 45)
    assert eisenstein_constant(6) == F(2, 945)
    assert eisenstein_constant(14) == F(4, 18243225)


def test_classical_series_goldens():
    d = classical_series("Delta", 5).as_q_expansion()
    assert d == {1: 1, 2: -24, 3: 252, 4: -1472}
    e4 = classical_series("E4", 3).as_q_expansion()
    assert e4 == {0: 1, 1: 240, 2: 2160}
    e6 = classical_series("E6", 3).as_q_expansion()
    assert e6 == {0: 1, 1: -504, 2: -16632}
    with pytest.raises(ValueError):
        classical_series("E5", 3)


def _delta_product(trunc: int) -> dict:
    """Reference Delta: q * prod (1 - q^n)^24, expanded one factor at a time."""
    poly = {0: F(1)}
    for n in range(1, trunc):
        for _ in range(24):
            nxt = dict(poly)
            for e, c in poly.items():
                if e + n < trunc:
                    nxt[e + n] = nxt.get(e + n, F(0)) - c
            poly = nxt
    return {e + 1: c for e, c in poly.items() if e + 1 < trunc and c}


def test_delta_matches_product_expansion():
    for trunc in range(1, 31):
        d = classical_series("Delta", trunc)
        assert d.trunc == trunc
        assert d.as_q_expansion() == _delta_product(trunc)


def test_weight_identities_from_dimension_one():
    # E4^2 = E8 and E4 E6 = E10 as sigma-sum series
    t = 8
    e4 = classical_series("E4", t)
    e6 = classical_series("E6", t)
    assert (e4 * e4).as_q_expansion() == classical_series("E8", t).as_q_expansion()
    assert (e4 * e6).as_q_expansion() == classical_series("E10", t).as_q_expansion()


def test_identifications(orbit_third, orbit_sixth, orbit_sums):
    expect = {
        ("third", 0): ("G14/Delta", F(-6081075), Grade(-17, -2)),
        ("third", 2): ("G14/Delta", F(6081075), Grade(-15, -1)),
        ("third", 4): ("G14/Delta", F(-405405), Grade(-13, 0)),
        ("sixth", 0): ("Delta*G6/G4^4", F(-114688, 3375), Grade(7, -2)),
        ("sixth", 2): ("Delta*G6/G4^4", F(114688, 3375), Grade(9, -1)),
        ("sixth", 4): ("Delta*G6/G4^4", F(-315392, 50625), Grade(11, 0)),
    }
    orbs = {"third": orbit_third, "sixth": orbit_sixth}
    for (name, order), (target, const, grade) in expect.items():
        res, _ = orbit_sums[name, order]
        ident = identify(res, orbs[name])
        assert ident.target == target
        assert ident.constant == const
        assert ident.grade == grade


def test_identify_json_shape(orbit_sixth, orbit_sums):
    res, _ = orbit_sums["sixth", 0]
    doc = identify(res, orbit_sixth).to_json(0)
    assert doc["multiplier"] == {"delta": 0, "e4": 4, "e6": 0}
    assert doc["constant"] == "-114688/3375"
    assert len(doc["orbit"]) == 8


def test_sample_mu_deterministic_and_in_range():
    a = sample_mu(5, seed=3)
    b = sample_mu(5, seed=3)
    assert a == b
    assert a != sample_mu(5, seed=4)
    for mu in a:
        assert 0.7 <= mu.real <= 2.0
        assert abs(mu.imag) <= 0.3


@pytest.mark.parametrize("samples", (0, -3))
def test_report_refuses_empty_sample(orbit_sixth, samples):
    with pytest.raises(ValueError):
        modular.vv_modularity_report(orbit_sixth, CoeffIndex(0), samples=samples)
