from __future__ import annotations

from fractions import Fraction

import pytest

from bianchi9 import modular
from bianchi9.instanton import DEGENERATE
from bianchi9.modular import (
    ExceptionalOrbitError,
    IdentificationError,
    OrbitPoint,
    _series_match,
    bernoulli,
    classical_series,
    eisenstein_constant,
    identify,
    sample_mu,
    valence_budget,
    zeta_over_pi_power,
)
from bianchi9.seeley import CoeffIndex, CoeffResult, orbit_sum
from bianchi9.series import Grade, PuiseuxSeries
from identify_oracle import identify_search
from orbit_oracle import act_S, act_T, closure

F = Fraction


def test_generator_relations():
    """On the stored images S^2 is (p, q) -> (-p, -q) and S^4 the identity: S has order 2
    in PSL2(Z), 4 on characteristics."""
    for p, q in ((F(1, 6), F(5, 6)), (F(0), F(1, 3)), (F(2, 7), F(3, 7))):
        orb = modular.orbit(p, q)
        s = dict(zip(orb.points, orb.S))
        for pt in orb.points:
            assert s[s[pt]] == OrbitPoint(-pt.p, -pt.q)
            assert s[s[s[s[pt]]]] == pt


_SMALL = sorted({F(a, d) for d in range(1, 7) for a in range(d)})


def test_orbit_is_the_closure_under_the_paper_generators():
    """For every seed with denominators <= 6: the Fraction closure under act_S and act_T,
    sorted, with its n and n0, and each point's images under act_S and act_T."""
    want = {}  # (p, q) -> (points, n, n0, S, T) of its orbit, from the oracle
    for p in _SMALL:
        for q in _SMALL:
            if (p, q) not in want:
                pts = tuple(sorted(closure(p, q)))
                fields = (pts, len(pts), sum(1 for pt in pts if pt.p == 0), tuple(map(act_S, pts)), tuple(map(act_T, pts)))
                want.update(dict.fromkeys(((pt.p, pt.q) for pt in pts), fields))
            orb = modular.orbit(p, q)
            assert (orb.points, orb.n, orb.n0, orb.S, orb.T) == want[p, q]
            assert {type(pt) for pt in orb.points + orb.S + orb.T} == {OrbitPoint}  # a plain pair compares equal too


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


def test_orbit_size_cap(monkeypatch):
    """The cap reads N^2, N = lcm(2, dp, dq), before any point is enumerated."""
    monkeypatch.setattr(modular, "MAX_ORBIT_POINTS", 36)
    assert modular.orbit(F(1, 6), F(5, 6)).n == 8  # N = 6, N^2 = 36
    with pytest.raises(ValueError, match=r"1/8 grid of up to 64 points, above MAX_ORBIT_POINTS = 36"):
        modular.orbit(F(1, 8), F(0))
    with pytest.raises(ValueError, match="MAX_ORBIT_POINTS"):
        modular.orbit(F(0), F(1, 7))  # N = 14: the factor 2 counts


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


def test_series_match_reads_every_coefficient_below_the_horizon():
    """A series that agrees with E4 at the valuation but not at q^3 is no multiple of it."""
    e4 = classical_series("E4", 6)
    terms = e4.as_q_expansion()
    terms[3] += 1
    assert _series_match(e4 * 5, e4) == 5
    assert _series_match(PuiseuxSeries(1, terms, 6), e4) is None


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


def _outcome(find, res, orb, order):
    """The identification's JSON, or the type of the exception it raises."""
    try:
        return find(res, orb).to_json(order)
    except Exception as exc:
        return type(exc)


def test_identify_matches_the_search_oracle_on_orbit_sums(orbit_sums, quarter_sums, orbit_third, orbit_sixth, orbit_quarter):
    """The 24-, 8- and 12-point sums at orders 0/2/4 and the 72-point order-0 sum at trunc 3,
    which no multiplier of the search identifies."""
    named = (("third", orbit_third), ("sixth", orbit_sixth))
    cases = [(orbit_sums[name, order][0], orb, order) for name, orb in named for order in (0, 2, 4)]
    cases += [(quarter_sums[order], orbit_quarter, order) for order in (0, 2, 4)]
    orb72 = modular.orbit(F(0), F(1, 5))
    assert orb72.n == 72
    cases.append((orbit_sum(orb72, CoeffIndex(0), 3), orb72, 0))
    for res, orb, order in cases:
        assert _outcome(identify, res, orb, order) == _outcome(identify_search, res, orb, order)
    assert _outcome(identify, *cases[-1]) is IdentificationError


def _synthetic(name: str) -> PuiseuxSeries:
    e4, e6, delta = (classical_series(kind, 8) for kind in ("E4", "E6", "Delta"))
    if name == "no terms":
        return PuiseuxSeries(1, {}, 5)
    if name == "Delta/(E4 E6)":
        return delta * (e4 * e6).invert()
    if name == "E4^2 E6/Delta on the 1/2 grid":  # a pole at the cusp, in half units
        return (e4**2 * e6 * delta.invert()).rescale(2)
    return e4**2 * e6.invert()


@pytest.mark.parametrize("name", ["E4^2/E6", "E4^2 E6/Delta on the 1/2 grid", "Delta/(E4 E6)", "no terms"])
def test_identify_matches_the_search_oracle_on_synthetic_series(orbit_sixth, name):
    res = CoeffResult(CoeffIndex(0), _synthetic(name))
    got = _outcome(identify, res, orbit_sixth, 0)
    assert got == _outcome(identify_search, res, orbit_sixth, 0)
    if name == "E4^2 E6/Delta on the 1/2 grid":
        assert (got["target"], got["multiplier"]) == ("G14/Delta", {"delta": 1, "e4": 0, "e6": 0})
    if name == "E4^2/E6":
        assert (got["target"], got["multiplier"], got["constant"]) == ("weight 8 Eisenstein (dim 1)", {"delta": 0, "e4": 0, "e6": 1}, "1")
    if name == "Delta/(E4 E6)":
        assert (got["target"], got["multiplier"], got["constant"]) == ("weight 12 cusp (dim 1)", {"delta": 0, "e4": 1, "e6": 1}, "1")
    if name == "no terms":
        assert got is IdentificationError


def test_identify_builds_each_classical_form_once(monkeypatch, orbit_sums, orbit_third):
    """identify's own calls, not those Delta makes to build itself from E4 and E6."""
    calls, depth = [], [0]
    build = modular.classical_series

    def counted(kind, trunc):
        if not depth[0]:
            calls.append(kind)
        depth[0] += 1
        try:
            return build(kind, trunc)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(modular, "classical_series", counted)
    identify(orbit_sums["third", 0][0], orbit_third)
    assert sorted(calls) == ["Delta", "E4", "E6"]


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
