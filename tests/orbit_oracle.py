"""The paper's PSL2(Z) generators on parameter pairs, kept as the tests' oracle for ``modular.orbit``.

``act_S`` and ``act_T`` act on ``TwoParamPoint`` in ``Fraction`` arithmetic, as
S: (p, q) -> (-q, p) and T: (p, q) -> (p, q + p + 1/2), both mod 1.
``closure`` is their breadth-first closure from one point.  The library closes
over integer pairs on the 1/N grid and records each point's images; the tests
hold it to these definitions.
"""

from __future__ import annotations

from fractions import Fraction

from bianchi9.instanton import TwoParamPoint


def act_S(pt: TwoParamPoint) -> TwoParamPoint:
    return TwoParamPoint(-pt.q, pt.p)


def act_T(pt: TwoParamPoint) -> TwoParamPoint:
    return TwoParamPoint(pt.p, pt.q + pt.p + Fraction(1, 2))


def closure(p, q) -> set[TwoParamPoint]:
    """Every point reached from (p, q) by act_S and act_T."""
    start = TwoParamPoint(p, q)
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for pt in frontier:
            for img in (act_S(pt), act_T(pt)):
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen
