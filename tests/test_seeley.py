from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from orbit_oracle import act_T
from seeley_oracle import (
    A2_ORACLE_TERMS,
    JetFrame,
    eval_rows,
    jet_frame_one_param,
    jet_frame_two_param,
    oracle_environment,
    render_terms,
    table_checksum,
    value_frame,
)

from bianchi9 import seeley, series
from bianchi9.cyclotomic import Cyclotomic
from bianchi9.instanton import (
    OneParamPoint,
    TwoParamPoint,
    frame_one_param_jet,
    frame_two_param_jet,
    frame_two_param_series,
)
from bianchi9.jets import Jet
from bianchi9.modular import bernoulli, identify
from bianchi9.seeley import CoeffIndex, a0, a2, a4, coefficient, orbit_sum
from bianchi9.seeley_terms import (
    A0_CHECKSUM,
    A0_TERMS,
    A0_TEXT,
    A2_CHECKSUM,
    A2_TERMS,
    A2_TEXT,
    A4_CHECKSUM,
    A4_TERMS,
    A4_TEXT,
    VARIABLES,
    parse_terms,
)
from bianchi9.series import Grade
from bianchi9.theta import cyclotomic_order

F = Fraction


def _constant_frame(w1, w2, w3, f=1.0, order=4) -> JetFrame:
    ws = tuple(Jet.constant(w, order) for w in (w1, w2, w3))
    return JetFrame(ws, Jet.constant(f, order), (Jet.constant(0.0, order),) * 3, 0.0)


def test_coeff_index_validation():
    with pytest.raises(ValueError):
        CoeffIndex(3)
    assert CoeffIndex(2).order == 4
    assert CoeffIndex(0).grade == Grade(-3, -2)
    assert CoeffIndex(1).grade == Grade(-1, -1)
    assert CoeffIndex(2).grade == Grade(1, 0)


def test_term_tables_are_frozen():
    assert len(A0_TERMS) == 1
    assert len(A2_TERMS) == 2
    assert len(A4_TERMS) == 64
    assert not any("Fd1" in mono or "Fd2" in mono for _, mono in A4_TERMS)
    assert table_checksum(A0_TERMS) == A0_CHECKSUM
    assert table_checksum(A2_TERMS) == A2_CHECKSUM
    assert table_checksum(A4_TERMS) == A4_CHECKSUM
    assert A0_CHECKSUM == "04c0ed0acafcd993ff85f2100804d175f5a6ff4690c3d3238d9102574224f0f0"
    assert A2_CHECKSUM == "2e6944afbf974b66fe0496810bcd6729001ff5d28f1fcde0d8396a10a4b33dd7"
    assert A4_CHECKSUM == "a098ff572e670cf45b40c9b5e268338ff4971e3591bac2b2235f9d94413b2aca"


def test_render_parse_round_trip():
    for rows in (A0_TERMS, A2_TERMS, A4_TERMS):
        assert parse_terms(render_terms(rows)) == rows


def test_parse_terms_names_an_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable 'x1'"):
        parse_terms("+1 w1 x1^2 F")


def test_tables_are_canonical():
    """Each text is its canonical render: every row lists its variables in
    VARIABLES order, and the rows are sorted by their exponents read in that order."""
    for text in (A0_TEXT, A2_TEXT, A4_TEXT):
        rows = sorted(parse_terms(text), key=lambda row: [row[1].get(v, 0) for v in VARIABLES])
        canonical = [(c, {v: mono[v] for v in VARIABLES if v in mono}) for c, mono in rows]
        assert render_terms(canonical) == text.lstrip("\n")


def test_a0_constant_frame():
    fr = _constant_frame(2.0, 3.0, 5.0)
    assert abs(a0(value_frame(fr)).representation[0] - 4 * 30) < 1e-12


def _a2_oracle(fr):
    return eval_rows(A2_ORACLE_TERMS, oracle_environment(fr))[0]


def test_a2_isotropic_constant_frame():
    # with w1 = w2 = w3 = w and F = 1 the 17-row table collapses to -w^2/2;
    # a constant frame is not Einstein, so the library's two rows read 0 here
    for w in (1.0, 2.5):
        fr = _constant_frame(w, w, w)
        assert abs(_a2_oracle(fr) + w * w / 2) < 1e-12


def test_tables_symmetric_under_w_permutations():
    """Permuting w permutes A with it: Tod-Halphen and Halphen are symmetric under that.

    The a2 case evaluates the 17-row oracle, which reads w and its derivatives."""
    fr = jet_frame_two_param(TwoParamPoint(F(1, 6), F(5, 6)), 1.2, 1e-15, order=4)
    perms = [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0)]
    for value in (_a2_oracle, lambda f: a4(value_frame(f)).representation[0]):
        base = value(fr)
        for perm in perms:
            swapped = JetFrame(tuple(fr.w[j] for j in perm), fr.F_, tuple(fr.A[j] for j in perm), fr.k)
            assert abs(value(swapped) - base) < 1e-9 * (1 + abs(base))


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


@pytest.mark.parametrize("n", [0, 1, 2])
def test_default_depth_frame_gives_the_values_of_a_deeper_frame(n):
    """A coefficient's value reads values and F's tower only, so the library's
    frame gives it bit for bit as an order-4 jet frame cut to that shape does,
    as an order-0 jet."""
    idx = CoeffIndex(n)
    pt, one = TwoParamPoint(F(1, 6), F(5, 6)), OneParamPoint(complex(0.5, 0.2), C=2.0)
    with mpmath.workdps(40):
        cases = [
            (frame_two_param_jet, jet_frame_two_param, pt, 1.1, 1e-14),
            (frame_two_param_jet, jet_frame_two_param, pt, complex(1.05, 0.2), 1e-14),
            (frame_two_param_jet, jet_frame_two_param, pt, mpmath.mpc(1.03, 0.02), 1e-35),
            (frame_one_param_jet, jet_frame_one_param, one, complex(0.9, 0.3), 1e-15),
        ]
        for make, deep, point, mu, tol in cases:
            value = coefficient(make(point, mu, tol), idx).representation
            assert value.order == 0
            assert value[0] == coefficient(value_frame(deep(point, mu, tol, order=4)), idx).representation[0]


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
        # a4 is the costly order (0.03-0.15 s a point at trunc 1 on a 2-core VM): one list
        for points in lists[:1] if n == 2 else lists:
            summed = orbit_sum(points, CoeffIndex(n), trunc).representation
            assert (summed.as_q_expansion(), summed.trunc, summed.grade) == _pointwise(points, n, trunc, cache)


def _classes(points) -> list[set]:
    """The classes of the points joined by T^{+-1}, (p, q) -> (-p, -q) and
    sigma_k (k a unit mod N), each edge counted when both ends are points."""
    pts, classes = set(points), []
    while pts:
        todo = [pts.pop()]
        cls = set(todo)
        while todo:
            pt = todo.pop()
            n = cyclotomic_order(pt.p, pt.q)
            images = [act_T(pt), TwoParamPoint(pt.p, pt.q - pt.p - F(1, 2)), TwoParamPoint(-pt.p, -pt.q)]
            images += [TwoParamPoint(pt.p, k * pt.q) for k in range(1, n) if math.gcd(k, n) == 1]
            for img in pts.intersection(images):
                pts.remove(img)
                cls.add(img)
                todo.append(img)
        classes.append(cls)
    return classes


@pytest.mark.parametrize(("name", "frames"), [("sixth", 2), ("third", 4), ("quarter", 3)])
def test_orbit_sum_builds_one_frame_per_class(monkeypatch, orbit_sixth, orbit_third, orbit_quarter, name, frames):
    """One frame per class under T, sigma_k and -1, the member of least
    cyclotomic order N, whatever the order of the list."""
    points = list({"sixth": orbit_sixth, "third": orbit_third, "quarter": orbit_quarter}[name].points)
    classes = _classes(points)
    least_n = {pt: min(cyclotomic_order(x.p, x.q) for x in cls) for cls in classes for pt in cls}
    built = []

    def counting(pt, trunc):
        built.append(pt)
        return frame_two_param_series(pt, trunc)

    monkeypatch.setattr(seeley, "frame_two_param_series", counting)
    rng = random.Random(2)
    sets = []
    for order in (points, points[::-1], rng.sample(points, len(points))):
        built.clear()
        orbit_sum(order, CoeffIndex(0), 1)
        assert len(built) == len(classes) == frames
        assert all(cyclotomic_order(pt.p, pt.q) == least_n[pt] for pt in built)
        sets.append(set(built))
    assert sets[0] == sets[1] == sets[2]


@pytest.fixture(scope="module")
def twist_series(orbit_sixth, orbit_third, orbit_quarter):
    """[{point: a_0 or a_4 series at trunc 3}] over the 8-, 24- and 12-point orbits."""
    out = []
    for orb in (orbit_sixth, orbit_third, orbit_quarter):
        frames = {pt: frame_two_param_series(pt, 3) for pt in orb.points}
        for n in (0, 2):
            out.append({pt: coefficient(fr, CoeffIndex(n)).representation for pt, fr in frames.items()})
    return out


def test_t_twist_is_the_series_at_t_image(twist_series):
    """a_2n[T(p,q)](mu) = a_2n[p,q](mu - i): the term at Q^r gains e^{+2 pi i r},
    exactly, horizon included; e^{-2 pi i r} misses somewhere on each orbit."""
    for at in twist_series:
        assert all(s.shift_mu(1) == at[act_T(pt)] for pt, s in at.items())
        assert any(s.shift_mu(-1) != at[act_T(pt)] for pt, s in at.items())


def test_shift_mu_is_the_product_with_the_root_of_unity(twist_series):
    """Each term of shift_mu(n), n = 1, -1, 2, -3, is c * e^{2 pi i n r} as a full Cyclotomic product, in the same field."""
    for at in twist_series:
        for s in at.values():
            for n in (1, -1, 2, -3):
                shifted = s.shift_mu(n)
                assert shifted.terms.keys() == s.terms.keys()
                for e, c in s.terms.items():
                    r = F(n * e, s.exp_den)
                    order = math.lcm(c.order, r.denominator)
                    want = c * Cyclotomic.root(order, int(r * order))
                    got = shifted.terms[e]
                    assert got == want and (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


def _sphere_c(n: int) -> F:
    """c_n of the round S^4, a_2n = c_n k^n a_0, from its Dirac spectrum (+-m, m >= 2,
    multiplicity (2/3)(m^3 - m)): 2 (-1)^n (zeta(1-2n) - zeta(3-2n)) / ((n-2)! 4^n), n >= 2."""
    zeta = lambda s: -bernoulli(1 - s) / (1 - s)  # noqa: E731  zeta at a negative odd integer
    return 2 * (-1) ** n * (zeta(1 - 2 * n) - zeta(3 - 2 * n)) / (math.factorial(n - 2) * 4**n)


# homogeneous orbits: the 8-point one is locally the round S^4, the 12-point
# one of (0, 1/4) the Fubini-Study CP^2; c_1 = -1/4 on both
_HOMOGENEOUS_C2 = {"sixth": _sphere_c(2), "quarter": F(1, 240)}


def test_sphere_heat_coefficients():
    assert [_sphere_c(n) for n in (2, 3, 4, 5)] == [F(11, 960), F(31, 80640), F(41, 1290240), F(31, 8110080)]


@pytest.mark.parametrize(
    ("name", "trunc"),
    [pytest.param(name, trunc, id=name if trunc == 6 else f"{name}-trunc{trunc}") for trunc in (6, 12) for name in sorted(_HOMOGENEOUS_C2)],
)
def test_homogeneous_orbit_coefficients_are_constant_multiples(orbit_sixth, orbit_quarter, name, trunc):
    """On S^4 and CP^2 every local invariant is constant: a2 = -(k/4) a0 and
    a4 = c2 k^2 a0 at every point, with multiples taken from the geometry,
    not from the term tables."""
    c2 = _HOMOGENEOUS_C2[name]
    for pt in {"sixth": orbit_sixth, "quarter": orbit_quarter}[name].points:
        fr = frame_two_param_series(pt, trunc)
        x0, x2, x4 = (coefficient(fr, CoeffIndex(n)).representation for n in range(3))
        for rest in (x2 + fr.k * x0 * F(1, 4), x4 - fr.k * fr.k * x0 * c2):
            assert rest.is_zero() and rest.trunc_frac() >= trunc


def test_homogeneous_orbit_identify_constants(orbit_sums, quarter_sums, orbit_sixth, orbit_quarter):
    """The order-2 and order-4 constants are c_n 4^n times the order-0 constant."""
    quarter = {n: quarter_sums[2 * n] for n in range(3)}
    cases = (
        ("sixth", orbit_sixth, {n: orbit_sums["sixth", 2 * n][0] for n in range(3)}, "Delta*G6/G4^4", F(-114688, 3375)),
        ("quarter", orbit_quarter, quarter, "G14/Delta", F(-18243225, 8)),
    )
    for name, orb, sums, target, c0 in cases:
        idents = [identify(sums[n], orb) for n in range(3)]
        assert [i.target for i in idents] == [target] * 3
        assert [i.constant for i in idents] == [c0, -c0, 16 * _HOMOGENEOUS_C2[name] * c0]


_SMALL_POINTS = st.tuples(st.integers(1, 6), st.integers(0, 5), st.integers(1, 6), st.integers(0, 5))
_ROWS = {0: A0_TERMS, 1: A2_TERMS, 2: A4_TERMS}


def _small_point(pq) -> TwoParamPoint:
    dp, a, dq, b = pq
    pt = TwoParamPoint(F(a % dp, dp), F(b % dq, dq))
    assume(not pt.is_degenerate())
    return pt


@settings(max_examples=8, deadline=None)
@given(_SMALL_POINTS, st.integers(0, 3))
def test_program_is_the_rows_on_series(pq, trunc):
    """Each compiled table gives the series of its rows summed one at a time, horizon included."""
    fr = frame_two_param_series(_small_point(pq), trunc)
    env = seeley._term_environment(fr)
    for n, rows in _ROWS.items():
        assert coefficient(fr, CoeffIndex(n)).representation.to_json() == eval_rows(rows, env).to_json()


@settings(max_examples=10, deadline=None)
@given(_SMALL_POINTS, st.floats(0.9, 1.3), st.floats(-0.2, 0.2))
def test_program_is_the_rows_on_jets(pq, re, im):
    """The values agree to 1e-13 in float64 and to 1e-37 at 40 digits, relative to max(|value|, 1)."""
    pt, mu = _small_point(pq), complex(re, im)
    with mpmath.workdps(40):
        frames = (frame_two_param_jet(pt, mu, 1e-14), 1e-13), (frame_two_param_jet(pt, mpmath.mpc(mu), 1e-35), 1e-37)
        for fr, tol in frames:
            env = seeley._term_environment(fr)
            for n, rows in _ROWS.items():
                x, y = coefficient(fr, CoeffIndex(n)).representation[0], eval_rows(rows, env)
                assert abs(x - y) <= tol * max(abs(x), abs(y), 1)


def test_a4_shares_its_monomials(monkeypatch):
    """a4 at (1/6, 5/6), trunc 6, in at most 115 series products; its 64 rows one at a time take 244."""
    fr = frame_two_param_series(TwoParamPoint(F(1, 6), F(5, 6)), 6)
    calls = []
    mul = series.series_mul

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(series, "series_mul", counting)
    a4(fr)
    assert 0 < len(calls) <= 115


@settings(max_examples=12, deadline=None)
@given(_SMALL_POINTS, st.integers(0, 10**6), st.sampled_from((0, 1)), st.integers(0, 2))
def test_galois_image_is_the_series_at_k_q(pq, pick, n, trunc):
    """sigma_k maps a_2n[p, q] to a_2n[p, k q] for every unit k mod N."""
    pt = _small_point(pq)
    big_n = cyclotomic_order(pt.p, pt.q)
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
