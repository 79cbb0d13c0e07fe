"""Dirac operator symbols for the Bianchi IX metric and its conformal rescaling.

The operator D on the metric w1 w2 w3 dmu^2 + sum (w_k w_l / w_j) sigma_j^2 is
a first-order operator in coordinates x = (mu, eta, phi, psi); its symbol is
built here directly from the operator display (gamma^0 on d/dmu).  The
conformally rescaled operator is

    Dtilde = F^{-1/2} D + 3 F' / (4 F^{3/2} w1 w2 w3) gamma^0

and its square is formed with the pseudo-differential composition rule
sigma(P1 P2) = sum_alpha (-i)^{|alpha|}/alpha! d_xi^alpha sigma(P1)
d_x^alpha sigma(P2), which terminates at |alpha| <= 1 for first-order symbols.
Spatial derivatives of coefficients are carried analytically by first-order
multivariate jets: trig in eta and psi; in mu, F' and F'' from the frame's
tower, and w', w'' from Tod-Halphen and Halphen on the frame's values.

Two square roots are taken, each once: rW = sqrt(w1 w2 w3), with
sqrt(w_j / (w_k w_l)) = w_j / rW, and sqrt(F).  Every coefficient of D is odd
in rW and every coefficient of Dtilde is odd in sqrt(F), so the squares do not
depend on the branches, only on using one branch throughout.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from .instanton import InstantonFrame

# gamma matrices; (gamma^a)^2 = -I, pairwise anticommuting
GAMMA0 = np.array([[0, 0, 1j, 0], [0, 0, 0, 1j], [1j, 0, 0, 0], [0, 1j, 0, 0]])
GAMMA1 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
GAMMA2 = np.array([[0, 0, 0, -1j], [0, 0, 1j, 0], [0, 1j, 0, 0], [-1j, 0, 0, 0]])
GAMMA3 = np.array([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
GAMMAS = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)
GAMMA123 = GAMMA1 @ GAMMA2 @ GAMMA3
GAMMA0123 = GAMMA0 @ GAMMA123
IDENT = np.eye(4, dtype=complex)


class SField:
    """A function's value and first partials in (mu, eta, phi, psi).

    The value is a complex scalar or a 4x4 complex matrix: a scalar field
    times a constant matrix, ``field * GAMMA1``, is a symbol entry.  Products
    and quotients of two fields need one of them to be scalar.
    """

    __slots__ = ("value", "grad")
    __array_ufunc__ = None  # numpy defers, so ``matrix * field`` raises TypeError: write ``field * matrix``

    def __init__(self, value, grad=(0, 0, 0, 0)):
        self.value = value
        self.grad = tuple(grad)

    def _coerce(self, other) -> "SField":
        return other if isinstance(other, SField) else SField(other)

    def __add__(self, other):
        o = self._coerce(other)
        return SField(self.value + o.value, [a + b for a, b in zip(self.grad, o.grad)])

    def __neg__(self):
        return SField(-self.value, [-g for g in self.grad])

    def __mul__(self, other):
        if not isinstance(other, SField):
            return SField(self.value * other, [g * other for g in self.grad])
        return SField(
            self.value * other.value,
            [self.value * g2 + g1 * other.value for g1, g2 in zip(self.grad, other.grad)],
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        v = self.value / o.value
        return SField(v, [(g1 - v * g2) / o.value for g1, g2 in zip(self.grad, o.grad)])

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sqrt(self) -> "SField":
        s = cmath.sqrt(self.value)
        return SField(s, [g / (2 * s) for g in self.grad])


class Symbol1(NamedTuple):
    """sigma = i sum_k a[k] xi_k + b for a first-order operator."""

    a: list  # four matrix SFields (coefficients of d/dx_k)
    b: SField  # matrix SField


class SymbolQuadratic(NamedTuple):
    """sigma = sum p2[j][k] xi_j xi_k + sum p1[k] xi_k + p0, complex matrices."""

    p2: np.ndarray  # shape (4, 4, 4, 4): [j, k] -> matrix
    p1: np.ndarray  # shape (4, 4, 4): [k] -> matrix
    p0: np.ndarray


def _frame_fields(frame: InstantonFrame):
    """w_j, w_j', F and F' as fields carrying their mu-derivatives, in the frame's
    arithmetic: F' and F'' from its tower, w' = -w_j w_k + w_i (A_j + A_k)
    (Tod-Halphen) and w'' its derivative with A_i' = -A_j A_k + A_i (A_j + A_k)
    (Halphen), (i, j, k) cyclic."""
    if frame.mode != "jet":
        raise ValueError("symbol construction needs a numeric frame")
    w, A = frame.w, frame.A
    F0, F1, F2 = frame.F_
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    dA = [-A[j] * A[k] + A[i] * (A[j] + A[k]) for i, j, k in cyclic]
    dw = [-w[j] * w[k] + w[i] * (A[j] + A[k]) for i, j, k in cyclic]
    ddw = [-dw[j] * w[k] - w[j] * dw[k] + dw[i] * (A[j] + A[k]) + w[i] * (dA[j] + dA[k]) for i, j, k in cyclic]
    field = lambda value, deriv: SField(value, (deriv, 0, 0, 0))  # noqa: E731
    return list(map(field, w, dw)), list(map(field, dw, ddw)), field(F0, F1), field(F1, F2)


def _trig_fields(x):
    _, eta, _, psi = (complex(c) for c in x)
    sin_eta = SField(cmath.sin(eta), (0, cmath.cos(eta), 0, 0))
    cos_eta = SField(cmath.cos(eta), (0, -cmath.sin(eta), 0, 0))
    sin_psi = SField(cmath.sin(psi), (0, 0, 0, cmath.cos(psi)))
    cos_psi = SField(cmath.cos(psi), (0, 0, 0, -cmath.sin(psi)))
    return sin_eta, cos_eta, sin_psi, cos_psi


def _sigma_D(x, frame: InstantonFrame):
    """The symbol of D at x = (mu, eta, phi, psi), the root rW it takes, and the fields it read."""
    if abs(cmath.sin(complex(x[1]))) < 1e-12:
        raise ValueError("eta at a coordinate singularity (csc/cot pole)")
    fields = w, dw, F, dF = _frame_fields(frame)
    trig = sin_eta, cos_eta, sin_psi, cos_psi = _trig_fields(x)
    csc_eta = 1 / sin_eta
    cot_eta = cos_eta / sin_eta
    rW = (w[0] * w[1] * w[2]).sqrt()
    inv_rW = 1 / rW
    r1, r2, r3 = (wj / rW for wj in w)  # sqrt(w_j / (w_k w_l)) on the branch of rW

    u = r1 * cos_psi * GAMMA1 + r2 * sin_psi * GAMMA2  # sin(eta) times the d/dphi coefficient
    a = [inv_rW * GAMMA0, -r1 * sin_psi * GAMMA1 + r2 * cos_psi * GAMMA2]
    a += [csc_eta * u, -cot_eta * u + r3 * GAMMA3]
    sum_dlog = dw[0] / w[0] + dw[1] / w[1] + dw[2] / w[2]
    sum_isq = 1 / (w[0] * w[0]) + 1 / (w[1] * w[1]) + 1 / (w[2] * w[2])
    b = inv_rW * sum_dlog * 0.25 * GAMMA0 + rW * sum_isq * (-0.25) * GAMMA123
    return Symbol1(a, b), rW, fields, trig


def _sigma_Dtilde(x, frame: InstantonFrame):
    """The symbol of Dtilde at x, and what ``_sigma_D`` returned for D."""
    d = _sigma_D(x, frame)
    base, rW, (_, _, F, dF), _ = d
    sF = F.sqrt()
    inv_sF = 1 / sF
    # conformal zero-order term 3F'/(4 F^{3/2} sqrt(w1 w2 w3)) gamma^0: the
    # normalization with sqrt(w1 w2 w3) is forced by conformal covariance
    # (it is a_mu times 3F'/(4F^{3/2})) and is the one consistent with the
    # displayed first-order mu-term of the squared operator
    extra = dF * 3 / (F * sF * rW * 4)
    return Symbol1([inv_sF * m for m in base.a], inv_sF * base.b + extra * GAMMA0), d


def compose_square(sym: Symbol1) -> SymbolQuadratic:
    """sigma(P P) for a first-order P via the finite composition sum."""
    a = [m.value for m in sym.a]
    b = sym.b.value
    p2 = np.array([[-(aj @ ak) for ak in a] for aj in a])
    p1 = np.array([1j * (ak @ b + b @ ak) for ak in a])
    p0 = b @ b
    # |alpha| = 1 corrections: + a_j (i d_j a_l xi_l + d_j b)
    for j in range(4):
        for l in range(4):
            p1[l] += 1j * (a[j] @ sym.a[l].grad[j])
        p0 += a[j] @ sym.b.grad[j]
    return SymbolQuadratic(p2, p1, p0)


def dtilde_sq_crosscheck(x, frame: InstantonFrame, tol: float = 1e-10) -> dict:
    """Compare the composed symbol of Dtilde^2 with the displayed expansion.

    The displayed expansion is (1/F) D^2 plus explicit first- and zero-order
    conformal correction terms; the first-order corrections here replace each
    d/dx_k by i xi_k.
    """
    tilde, (base, _, (w, dw, F, dF), trig) = _sigma_Dtilde(x, frame)
    composed = compose_square(tilde)
    d_sq = compose_square(base)
    invF = (1 / F).value
    p2 = d_sq.p2 * invF
    p1 = d_sq.p1 * invF
    p0 = d_sq.p0 * invF

    w1, w2, w3 = (c.value for c in w)
    W = w1 * w2 * w3
    Fv, dFv = F.value, dF.value
    se, ce, sp, cp = (f.value for f in trig)
    g01, g02, g03 = GAMMA0 @ GAMMA1, GAMMA0 @ GAMMA2, GAMMA0 @ GAMMA3

    # first- and zero-order conformal corrections as displayed, with three
    # repairs the composition forces: the w2 sign of the d/dphi line, the
    # overall factor of the gamma^0123 term, and the F'' identity term that
    # the printed expansion omits
    coeff = dFv / (2 * Fv**2 * W)
    p1[1] += 1j * coeff * (w1 * g01 * sp - w2 * g02 * cp)
    p1[2] += 1j * (-coeff / se) * (w1 * g01 * cp + w2 * g02 * sp)
    p1[3] += 1j * (coeff * ce / se) * (w1 * g01 * cp + w2 * g02 * sp - w3 * g03 * se / ce)
    p1[0] += 1j * (-dFv / (Fv**2 * W)) * IDENT
    ddFv = dF.grad[0]
    p0 = p0 + (
        -3 * ddFv / (4 * Fv**2 * W)
        + 9 * dFv**2 / (16 * Fv**3 * W)
        + dFv * dw[0].value / (8 * Fv**2 * w1**2 * w2 * w3)
        + dFv * dw[1].value / (8 * Fv**2 * w1 * w2**2 * w3)
        + dFv * dw[2].value / (8 * Fv**2 * w1 * w2 * w3**2)
    ) * IDENT
    p0 = p0 + (dFv / (8 * Fv**2)) * (1 / w1**2 + 1 / w2**2 + 1 / w3**2) * GAMMA0123

    res = max(
        np.abs(composed.p2 - p2).max(),
        np.abs(composed.p1 - p1).max(),
        np.abs(composed.p0 - p0).max(),
    )
    return {"max_residual": float(res), "tol": tol, "pass": bool(res <= tol)}
