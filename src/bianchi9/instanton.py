"""Metric functions w1, w2, w3, F of the Bianchi IX instanton families.

Two-parametric family (theta-quotient parametrization):

    w1[p,q] = -(i/2) th3 th4 d_q th[p, q+1/2] / (e^{i pi p} th[p,q])
    w2[p,q] = +(i/2) th2 th4 d_q th[p+1/2, q+1/2] / (e^{i pi p} th[p,q])
    w3[p,q] = -(1/2) th2 th3 d_q th[p+1/2, q] / th[p,q]
    F[p,q]  = (2/(pi Lambda)) (th[p,q] / d_q th[p,q])^2

available as exact nome series or as numeric jets.  One-parametric family:

    w_j[q0] = 1/(mu+q0) + 2 d/dmu log th_{j+1}(i mu),   F[q0] = C (mu+q0)^2

jet mode only (1/(mu+q0) is not a nome series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyclotomic
from .jets import Jet, jet_log_derivative
from .series import Grade, PuiseuxSeries
from .theta import (
    THETA2,
    THETA3,
    THETA4,
    Characteristics,
    ThetaSpec,
    cyclotomic_order,
    theta_jet,
    theta_series,
)

DEGENERATE = {
    (Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2)),  # theta[1/2, 1/2] = theta_1 vanishes identically
}


@dataclass(frozen=True, order=True)
class TwoParamPoint:
    """A parameter pair (p, q), reduced mod 1; ordered lexicographically."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p) % 1)
        object.__setattr__(self, "q", Fraction(self.q) % 1)

    def is_degenerate(self) -> bool:
        return (self.p, self.q) in DEGENERATE


@dataclass(frozen=True)
class OneParamPoint:
    q0: complex  # rational or complex, nonzero
    C: float = 1.0

    def __post_init__(self):
        if complex(self.q0) == 0:
            raise ValueError("q0 must be nonzero")
        if float(self.C) <= 0:
            raise ValueError("C must be positive")


@dataclass(frozen=True)
class InstantonFrame:
    """w_j and F with mu-derivatives.

    mode "series": w[j][k] / F_[k] are PuiseuxSeries for derivative order k.
    mode "jet": w[j] / F_ are Jet objects (index [k] gives the derivative).
    """

    mode: str
    w: tuple
    F_: object

    @property
    def order(self) -> int:
        if self.mode == "series":
            return len(self.F_) - 1
        return self.F_.order


def _derivative_tower(series: PuiseuxSeries, order: int) -> list[PuiseuxSeries]:
    tower = [series]
    for _ in range(order):
        tower.append(tower[-1].mu_derivative())
    return tower


def frame_two_param_series(pt: TwoParamPoint, trunc: int) -> InstantonFrame:
    """Exact series frame to mu-derivative order 4; w_j carry grade pi^1, F carries pi^-3 Lambda^-1."""
    if pt.is_degenerate():
        raise ValueError(f"degenerate parameter point ({pt.p}, {pt.q})")
    p, q = pt.p, pt.q
    half = Fraction(1, 2)
    # generous working truncation: inversion of th[p,q] keeps relative precision
    work = trunc + 2

    def th(char: Characteristics, q_deriv: bool = False) -> PuiseuxSeries:
        return theta_series(ThetaSpec(char, 0, q_deriv), work)

    th2, th3, th4 = th(THETA2), th(THETA3), th(THETA4)
    tpq = th(Characteristics(p, q))
    dtpq = th(Characteristics(p, q), True)
    inv_tpq = tpq.invert()
    n = cyclotomic_order(Characteristics(p, q))
    phase = Cyclotomic.from_turns((Fraction(1, 4) - p / 2) % 1, n) / 2  # i / (2 e^{i pi p})
    # q + 1/2 may pass 1; theta_series then carries the phase e^{2 pi i p} itself
    w1 = (th3 * th4 * th(Characteristics(p, q + half), True) * inv_tpq).scale(-phase)
    w2 = (th2 * th4 * th(Characteristics(p + half, q + half), True) * inv_tpq).scale(phase)
    w3 = (th2 * th3 * th(Characteristics(p + half, q), True) * inv_tpq).scale(Fraction(-1, 2))
    F = (tpq * dtpq.invert()) ** 2
    F = F.scale(2, dpi=-1, dlam=-1)
    for w in (w1, w2, w3):
        assert w.grade == Grade(1, 0)
    assert F.grade == Grade(-3, -1)
    ws = tuple(_derivative_tower(w, 4) for w in (w1, w2, w3))
    return InstantonFrame("series", ws, _derivative_tower(F, 4))


def frame_two_param_jet(pt: TwoParamPoint, mu: complex, tol: float = 1e-12, order: int = 4) -> InstantonFrame:
    """Numeric frame of w_j, F jets at mu (Lambda set to 1)."""
    if pt.is_degenerate():
        raise ValueError(f"degenerate parameter point ({pt.p}, {pt.q})")
    p, q = pt.p, pt.q
    half = Fraction(1, 2)
    if isinstance(mu, (int, float, complex)):
        pi = math.pi
        e_pip = complex(math.cos(math.pi * p), math.sin(math.pi * p))
    else:
        # arbitrary-precision mu: keep the constants at matching precision
        import mpmath

        pi = +mpmath.pi
        e_pip = mpmath.exp(1j * pi * mpmath.mpmathify(p))
    th2 = theta_jet(half, 0, False, mu, order, tol)
    th3 = theta_jet(0, 0, False, mu, order, tol)
    th4 = theta_jet(0, half, False, mu, order, tol)
    tpq = theta_jet(p, q, False, mu, order, tol)
    dtpq = theta_jet(p, q, True, mu, order, tol)
    w1 = th3 * th4 * theta_jet(p, q + half, True, mu, order, tol) / tpq * (-0.5j / e_pip)
    w2 = th2 * th4 * theta_jet(p + half, q + half, True, mu, order, tol) / tpq * (0.5j / e_pip)
    w3 = th2 * th3 * theta_jet(p + half, q, True, mu, order, tol) / tpq * (-0.5)
    F = (tpq / dtpq) ** 2 * (2 / pi)
    return InstantonFrame("jet", (w1, w2, w3), F)


def frame_one_param_jet(pt: OneParamPoint, mu: complex, tol: float = 1e-12, order: int = 4) -> InstantonFrame:
    """Numeric frame of the one-parametric family at mu."""
    if isinstance(mu, (int, float)):
        mu = complex(mu)
    if complex(mu).real <= 0:
        raise ValueError("Re(mu) must be positive")
    q0 = complex(pt.q0)
    if complex(mu + q0) == 0:
        raise ValueError("mu = -q0 is a pole of the frame")
    shifted = Jet.variable(mu, order) + q0
    pole = 1 / shifted
    chars = (THETA2, THETA3, THETA4)
    ws = []
    for char in chars:
        # log-derivative loses one order, so start one higher
        th = theta_jet(char.p, char.q, False, mu, order + 1, tol)
        ws.append(pole + 2 * jet_log_derivative(th))
    C = float(pt.C)
    f_comps = [C * (mu + q0) ** 2, 2 * C * (mu + q0), 2 * C + 0j] + [0j] * (order - 2)
    F = Jet(f_comps[: order + 1])
    return InstantonFrame("jet", tuple(ws), F)
