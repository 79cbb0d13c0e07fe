"""Heat-trace coefficients a0, a2, a4 of the conformally rescaled Dirac square.

Each term table of :mod:`bianchi9.seeley_terms` is compiled once, on first
use, into a straight-line program: rows grouped by their A monomial (10 in a4,
against 28 w monomials), then by their (F, F', F'', k) monomial, leave
polynomials in w, so a group costs one product, and every monomial is built
once from shared power and prefix chains with one inverse per variable.  It
runs on the variables of a frame as they are: exact nome series (grade
pi^{2n-3} Lambda^{n-2}), or float and mpmath values at mu (Lambda set to 1),
whose result is handed out as an order-0 Jet.

Orbit sums collapse the cyclotomic phases: summed over a full PSL2(Z) orbit
of parameter points the series has rational coefficients at integer powers of
Q only; ``orbit_sum`` verifies this exactly and down-converts.  It builds one
frame per class of the list's points joined by three exact rules: T, which
multiplies the term at Q^r by e^{2 pi i r}; (p,q) -> (-p,-q), which leaves
the series as it is; and sigma_k, the Galois image.  The frame is that of the
member with the least cyclotomic order, and every other member is reached
from it by a walk that lands only on points of the list.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from typing import NamedTuple

from .instanton import InstantonFrame, TwoParamPoint, frame_two_param_series
from .jets import Jet
from .series import Grade, PuiseuxSeries
from .seeley_terms import A0_TERMS, A2_TERMS, A4_TERMS, VARIABLES
from .theta import cyclotomic_order


class CoeffIndex(namedtuple("CoeffIndex", "n")):
    """Which coefficient: n in {0,1,2} meaning a0, a2, a4."""

    __slots__ = ()

    def __new__(cls, n):
        if n not in (0, 1, 2):
            raise ValueError("only a0, a2, a4 have closed forms; n must be 0, 1 or 2")
        return super().__new__(cls, n)

    @property
    def order(self) -> int:
        return 2 * self.n

    @property
    def grade(self) -> Grade:
        return Grade(2 * self.n - 3, self.n - 2)


class CoeffResult(NamedTuple):
    index: CoeffIndex
    representation: object  # PuiseuxSeries, or an order-0 Jet holding a numeric frame's value

    def to_json(self) -> dict:
        return {"order": self.index.order, "series": self.representation.to_json()}


def _term_environment(frame: InstantonFrame):
    """Map the variable names of the term tables to the frame's series or values."""
    return dict(zip(VARIABLES, (*frame.w, *frame.F_, *frame.A, frame.k), strict=True))


def _compile(rows) -> tuple:
    """The table as straight-line (step, registers freed after it) pairs.  Register
    j < len(VARIABLES) holds VARIABLES[j] and each step appends one: an int step
    inverts that register, a tuple step sums its terms c x_a x_b (None: no factor)."""
    tree: dict = {}
    levels = (("A1", "A2", "A3"), ("F", "Fd1", "Fd2", "k"), ("w1", "w2", "w3"))
    for c, mono in rows:
        a, f, w = (tuple((v, mono[v]) for v in level if v in mono) for level in levels)
        tree.setdefault(a, {}).setdefault(f, {})[w] = c
    steps: dict = {}  # step -> its register
    emit = lambda step: steps.setdefault(step, len(VARIABLES) + len(steps))  # noqa: E731
    mul = lambda a, b: a if b is None else emit(((1, a, b),))  # noqa: E731
    monomial = lambda key: mul(power(*key[-1]), monomial(key[:-1])) if key else None  # noqa: E731

    def power(v, e):
        base = VARIABLES.index(v) if e > 0 else emit(VARIABLES.index(v))
        return base if e in (1, -1) else mul(power(v, e - e // abs(e)), base)

    def terms(node):
        out = []
        for key, sub in sorted(node.items()):
            inner = terms(sub) if isinstance(sub, dict) else [(sub, None, None)]
            if (mono := monomial(key)) is not None:
                ((c, a, b),) = inner if len(inner) == 1 else [(1, emit(tuple(inner)), None)]
                inner = [(c, mono, mul(a, b))]
            out += inner
        return out

    emit(tuple(terms(tree)))
    last = {}
    for n, step in enumerate(steps):
        for r in [step] if isinstance(step, int) else [x for _, *ab in step for x in ab if x is not None]:
            last[r] = n
    return tuple((step, tuple(r for r in last if last[r] == n)) for n, step in enumerate(steps))


def _eval_terms(program, env):
    """Run a compiled table on series or values: the value is the last register."""
    regs = [env[v] for v in VARIABLES]
    for step, frees in program:
        if isinstance(step, int):
            regs.append(regs[step] ** -1)
        else:
            parts = ((1, c) if a is None else (c, regs[a] if b is None else regs[a] * regs[b]) for c, a, b in step)
            parts = (t if c == 1 else t * c for c, t in parts)
            regs.append(sum(parts, next(parts)))  # in step order, each term dropped once added
        for r in frees:
            regs[r] = None
    return regs[-1]


_TABLES: dict = {}  # n -> compiled table of a_{2n}, built on first use: a CLI run evaluating none compiles none


def _table_coefficient(frame: InstantonFrame, n: int) -> CoeffResult:
    idx = CoeffIndex(n)
    program = _TABLES.get(n) or _TABLES.setdefault(n, _compile((A0_TERMS, A2_TERMS, A4_TERMS)[n]))
    result = _eval_terms(program, _term_environment(frame))
    if frame.mode == "series":
        assert result.grade == idx.grade
        return CoeffResult(idx, result)
    return CoeffResult(idx, Jet((result,)))


def a0(frame: InstantonFrame) -> CoeffResult:
    """a0 = 4 w1 w2 w3 F^2."""
    return _table_coefficient(frame, 0)


def a2(frame: InstantonFrame) -> CoeffResult:
    return _table_coefficient(frame, 1)


def a4(frame: InstantonFrame) -> CoeffResult:
    return _table_coefficient(frame, 2)


_COEFF_FUNCS = {0: a0, 1: a2, 2: a4}


def coefficient(frame: InstantonFrame, index: CoeffIndex) -> CoeffResult:
    return _COEFF_FUNCS[index.n](frame)


def _edges(pt: TwoParamPoint, series: PuiseuxSeries):
    """(image, thunk giving its series) along each edge at pt: T^{+-1}, -1 and sigma_k."""
    p, q = pt.p, pt.q
    yield TwoParamPoint(-p, -q), lambda: series
    for n in (1, -1):
        yield TwoParamPoint(p, q + n * (p + Fraction(1, 2))), lambda n=n: series.shift_mu(n)
    # a unit k mod every coefficient order and N, for each unit residue r mod the denominator of q
    m = math.lcm(cyclotomic_order(p, q), *(c.order for c in series.terms.values()))
    for r in range(2, q.denominator):
        k = next((k for k in range(r, m, q.denominator) if math.gcd(k, m) == 1), None)
        if k is not None:
            yield TwoParamPoint(p, r * q), lambda k=k: series.galois(k)


def orbit_sum(orbit, index: CoeffIndex, trunc: int = 6) -> CoeffResult:
    """Exact sum of the coefficient series over all points of an orbit.

    The sum must come out with rational coefficients at integer exponents
    only; anything else signals a bug and raises.  The result is returned on
    the integer exponent grid.  ``orbit`` is an ``Orbit`` or a list of
    ``TwoParamPoint``; every point in the list counts once, so a partial or
    reordered list gives the plain sum over its points.  The result's
    ``trunc`` is the horizon actually known, which is at least the requested
    ``trunc`` and often beyond it.

    One frame is built per class of points, not per point.  Three exact rules
    relate the series of points, and join two points of the list into one
    class when both are in the list:

    * T: a_{2n}[p, q + p + 1/2](mu) = a_{2n}[p,q](mu - i), so the term at
      Q^r of the series at T(p,q) is e^{+2 pi i r} times that at (p,q), and
      e^{-2 pi i r} times it at T^-1(p,q) = (p, q - p - 1/2);
    * -1: a_{2n}[p,q] = a_{2n}[-p,-q]: under (p,q) -> (-p,-q) the frame maps
      to (-w1, w2, -w3, F), and every table monomial has even total degree
      in the (w1, w3) block;
    * sigma_k (zeta_N -> zeta_N^k, k a unit mod N) maps a_{2n}[p,q] to
      a_{2n}[p,kq].

    The frame built is that of the class member with the least cyclotomic
    order N, the least such point on a tie, so the choice does not depend on
    the list's order.  Every other member's series comes from a walk outward
    from it along these edges, and a walk step lands only on a point of the
    list.
    """
    mult = Counter(getattr(orbit, "points", orbit))
    total, done = None, set()
    for rep in sorted(mult, key=lambda pt: (cyclotomic_order(pt.p, pt.q), pt)):
        if rep in done:
            continue
        done.add(rep)
        walk = [(rep, coefficient(frame_two_param_series(rep, trunc), index).representation)]
        for pt, series in walk:  # breadth first: the loop reaches what it appends
            contrib = series if mult[pt] == 1 else series * mult[pt]
            total = contrib if total is None else total + contrib
            for img, image_series in _edges(pt, series):
                if img in mult and img not in done:
                    done.add(img)
                    walk.append((img, image_series()))
    # the rational view is sorted, so that float evaluation sums the terms in
    # one order whether the series is fresh or read back from JSON
    t = total.trunc
    if t is not None:
        t = t // total.exp_den  # floor: integer horizon
    return CoeffResult(index, PuiseuxSeries(1, total.as_q_expansion(), t, total.grade))
