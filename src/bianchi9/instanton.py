"""Metric functions w1, w2, w3, F of the Bianchi IX instanton families.

Two-parametric family (theta-quotient parametrization):

    w1[p,q] = -(i/2) th3 th4 d_q th[p, q+1/2] / (e^{i pi p} th[p,q])
    w2[p,q] = +(i/2) th2 th4 d_q th[p+1/2, q+1/2] / (e^{i pi p} th[p,q])
    w3[p,q] = -(1/2) th2 th3 d_q th[p+1/2, q] / th[p,q]
    F[p,q]  = (2/(pi Lambda)) (th[p,q] / d_q th[p,q])^2

available as exact nome series or as numeric values at mu.  An exact frame walks
each of its four characteristics once; numeric frames at one mu are built in a
batch that walks the lattice once per distinct p, for every q the batch reads
there.  One-parametric family:

    w_j[q0] = 1/(mu+q0) + A_j,   F[q0] = C (mu+q0)^2

numeric only (1/(mu+q0) is not a nome series).  Every frame also carries

    A_j = 2 d/dmu log th_{j+1}(i mu)   (th_2, th_3, th_4)

and k = 4 pi^2 Lambda: the frames are self-dual Einstein, so the w_j obey
the Tod-Halphen system in the A_j and F obeys an Einstein ODE with constant
k (see :mod:`bianchi9.seeley_terms`).  The one-parametric F satisfies that
ODE with k = 0.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import Cyclotomic
from .jets import Jet
from .series import Grade, PuiseuxSeries
from .theta import THETA2, THETA3, THETA4, arithmetic, cyclotomic_order, theta_series, theta_values

DEPTH = 2  # mu-derivatives of F in every frame, the only derivatives a frame carries: a2 and check dirac read F''

DEGENERATE = {
    (Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2)),  # theta[1/2, 1/2] = theta_1 vanishes identically
}


class TwoParamPoint(namedtuple("TwoParamPoint", "p q")):
    """A parameter pair (p, q) of Fractions, reduced mod 1; ordered lexicographically.
    ``TwoParamPoint._make((p, q))`` skips the reduction, for Fractions already in [0, 1)."""

    __slots__ = ()

    def __new__(cls, p, q):
        return super().__new__(cls, Fraction(p) % 1, Fraction(q) % 1)

    def is_degenerate(self) -> bool:
        return self in DEGENERATE


class OneParamPoint(namedtuple("OneParamPoint", "q0 C")):
    """q0 rational or complex, nonzero; C positive."""

    __slots__ = ()

    def __new__(cls, q0, C=1.0):
        if complex(q0) == 0:
            raise ValueError("q0 must be nonzero")
        if float(C) <= 0:
            raise ValueError("C must be positive")
        return super().__new__(cls, q0, C)


class InstantonFrame(NamedTuple):
    """w_j, the A_j, F with its mu-derivatives to DEPTH, and k = 4 pi^2 Lambda.

    Both modes have one shape: w and A are 3-tuples, F_ is the tower
    (F, F', ..., F^(DEPTH)), and no table reads a derivative of w or A.
    mode "series": every entry is a PuiseuxSeries, k the constant series 4 of
    grade pi^2 Lambda.  mode "jet": every entry is the value at mu, a number
    in the arithmetic that ``theta.arithmetic`` picks (Lambda set to 1).
    """

    mode: str
    w: tuple
    F_: tuple
    A: tuple
    k: object


@functools.lru_cache(maxsize=8)
def _theta_constants(work: int) -> tuple:
    """(th2, th3, th4) and (A1, A2, A3), A_j = 2 th_{j+1}' / th_{j+1}, to nome horizon work."""
    thetas = tuple(theta_series(*char, work)[0] for char in (THETA2, THETA3, THETA4))
    return thetas, tuple((th.mu_derivative() * th.invert()).scale(2) for th in thetas)


@functools.lru_cache(maxsize=8, typed=True)
def _theta_constant_values(mu, tol: float, prec) -> tuple:
    """(th2, th3, th4) and (A1, A2, A3) as values at mu, from walks for theta and its first
    mu-derivative alone: one for th2 and one for th3 and th4 together (both have p = 0).  The key
    is typed and holds the ``arithmetic`` precision: an mpmath mu equals, and hashes like, its complex."""
    sums = theta_values([(char, (2, 0)) for char in (THETA2, THETA3, THETA4)], mu, tol)
    thetas = tuple(sums[char][0] for char in (THETA2, THETA3, THETA4))
    return tuple(th[0] for th in thetas), tuple(2 * (th[1] / th[0]) for th in thetas)


def frame_two_param_series(pt: TwoParamPoint, trunc: int) -> InstantonFrame:
    """Exact series frame, F to mu-derivative order DEPTH; w_j and A_j carry grade pi^1, F carries pi^-3 Lambda^-1."""
    if pt.is_degenerate():
        raise ValueError(f"degenerate parameter point ({pt.p}, {pt.q})")
    p, q = pt.p, pt.q
    half = Fraction(1, 2)
    # generous working truncation: inversion of th[p,q] keeps relative precision
    work = trunc + 2

    (th2, th3, th4), A = _theta_constants(work)
    tpq, dtpq = theta_series(p, q, work)
    inv_tpq = tpq.invert()
    n = cyclotomic_order(p, q)
    # i / (2 e^{i pi p}) with p = a/b is zeta_n^{n/4 - a n/(2b)} / 2
    phase = Cyclotomic.root(n, n // 4 - p.numerator * (n // (2 * p.denominator))) / 2
    # q + 1/2 may pass 1; theta_series then carries the phase e^{2 pi i p} itself
    w1 = (th3 * th4 * theta_series(p, q + half, work)[1] * inv_tpq).scale(-phase)
    w2 = (th2 * th4 * theta_series(p + half, q + half, work)[1] * inv_tpq).scale(phase)
    w3 = (th2 * th3 * theta_series(p + half, q, work)[1] * inv_tpq).scale(Fraction(-1, 2))
    F = (tpq * dtpq.invert()) ** 2
    F = F.scale(2, dpi=-1, dlam=-1)
    for w in (w1, w2, w3):
        assert w.grade == Grade(1, 0)
    assert F.grade == Grade(-3, -1)
    tower = [F]
    for _ in range(DEPTH):
        tower.append(tower[-1].mu_derivative())
    return InstantonFrame("series", (w1, w2, w3), tuple(tower), A, PuiseuxSeries.constant(4, Grade(2, 1)))


def frames_two_param_jet(points, mu: complex, tol: float = 1e-12) -> dict:
    """{point: numeric frame at mu} (Lambda set to 1): w_j from values of theta, A_j from the
    theta constants to first order, F's tower from th[p,q] and d_q th[p,q] to order DEPTH.

    Every point reads th[p,q] and d_q th[p,q] to order DEPTH and the value of d_q th at
    [p, q+1/2], [p+1/2, q+1/2] and [p+1/2, q]; the batch walks the lattice once per distinct
    p among them, and a characteristic two points read is walked once, for what either
    reads.  A degenerate point fails before any walk.
    """
    half = Fraction(1, 2)
    requests = []
    for pt in points:
        if pt.is_degenerate():
            raise ValueError(f"degenerate parameter point ({pt.p}, {pt.q})")
        p, q = pt.p, pt.q
        requests.append(((p, q), (DEPTH + 1, DEPTH + 1)))
        requests += [(char, (0, 1)) for char in ((p, q + half), (p + half, q + half), (p + half, q))]
    mu, pi, exp, num, prec, _ = arithmetic(mu)
    (th2, th3, th4), A = _theta_constant_values(mu, tol, prec)
    sums = theta_values(requests, mu, tol)
    dq = lambda p, q: sums[p, q][1][0]  # noqa: E731
    frames = {}
    for pt in points:
        p, q = pt.p, pt.q
        e_pip = exp(1j * pi * num(p))
        tpq, dtpq = (Jet(comps) for comps in sums[p, q])
        w1 = th3 * th4 * dq(p, q + half) / tpq[0] * (-0.5j / e_pip)
        w2 = th2 * th4 * dq(p + half, q + half) / tpq[0] * (0.5j / e_pip)
        w3 = th2 * th3 * dq(p + half, q) / tpq[0] * (-0.5)
        F = (tpq / dtpq) ** 2 * (2 / pi)
        frames[pt] = InstantonFrame("jet", (w1, w2, w3), F.comps, A, 4 * pi**2)
    return frames


def frame_two_param_jet(pt: TwoParamPoint, mu: complex, tol: float = 1e-12) -> InstantonFrame:
    """The numeric frame of one point at mu: the batch of one."""
    return frames_two_param_jet((pt,), mu, tol)[pt]


def frame_one_param_jet(pt: OneParamPoint, mu: complex, tol: float = 1e-12) -> InstantonFrame:
    """Numeric frame of the one-parametric family at mu; F's tower is (C s^2, 2 C s, 2 C), s = mu + q0."""
    mu, _, _, _, prec, _ = arithmetic(mu)
    if complex(mu).real <= 0:
        raise ValueError("Re(mu) must be positive")
    s = mu + complex(pt.q0)
    if complex(s) == 0:
        raise ValueError("mu = -q0 is a pole of the frame")
    A = _theta_constant_values(mu, tol, prec)[1]
    C = float(pt.C)
    tower = (C * s**2, 2 * C * s, 2 * C + 0j)
    return InstantonFrame("jet", tuple(1 / s + a for a in A), tower, A, 0)
