"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are polynomials in zeta_N reduced modulo the N-th cyclotomic
polynomial, with Fraction coefficients.  This is the coefficient field for
every exact nome series in the package: it holds the phases e^{2 pi i (m+p) q}
and e^{i pi p} exactly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            count += 1
    return count


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the N-th cyclotomic polynomial."""
    # divide x^n - 1 by Phi_d for each proper divisor d of n
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            rem, poly = _divmod_phi(poly, d, 0)
            assert not any(rem)
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_low_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(N) and the nonzero (j, coefficient of x^j) of Phi_N below its leading term."""
    phi = euler_phi(n)
    return phi, tuple((j, c) for j, c in enumerate(cyclotomic_poly(n)[:phi]) if c)


def _divmod_phi(a, n: int, zero) -> tuple[list, list]:
    """Divide the polynomial a (low to high) by Phi_N, over any coefficient ring.

    Eliminates from the top with x^phi = -(low part of Phi_N), which is monic.
    Returns the remainder padded to phi(N) with ``zero`` and the quotient:
    the coefficient left at degree phi + k is the quotient's coefficient of x^k.
    """
    phi, low = _phi_low_terms(n)
    a = list(a)
    for d in range(len(a) - 1, phi - 1, -1):
        c = a[d]
        if c:
            base = d - phi
            for j, m in low:
                a[base + j] -= c * m
    return a[:phi] + [zero] * (phi - len(a)), a[phi:]


# one shared zero: a zero coefficient costs no Fraction of its own, and a
# scaled series keeps no zero of the operand it was made from alive
_ZERO = Fraction(0)


def _reduce(n: int, coeffs: list, zero=_ZERO) -> list:
    """Reduce a coefficient list of any length modulo Phi_N; pad to phi(N) with zero."""
    return _divmod_phi(coeffs, n, zero)[0]


class Cyclotomic:
    """An element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        self.order = order
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        self.coeffs = tuple(_reduce(order, cs))

    @classmethod
    def _from_reduced(cls, order: int, coeffs: tuple) -> "Cyclotomic":
        """An element from coefficients already in reduced form: phi(order) Fractions."""
        obj = object.__new__(cls)
        obj.order = order
        obj.coeffs = coeffs
        return obj

    @classmethod
    def from_int_coeffs(cls, order: int, coeffs: list[int], den: int) -> "Cyclotomic":
        """Fast path: integer power-basis coefficients over a common denominator."""
        return cls._from_reduced(order, tuple(Fraction(c, den) if c else _ZERO for c in _reduce(order, coeffs, 0)))

    # -- constructors -------------------------------------------------

    @classmethod
    def _padded(cls, order: int, coeffs: list) -> "Cyclotomic":
        """An element from Fraction power-basis coefficients; reduced only if longer than phi(order)."""
        phi = euler_phi(order)
        if len(coeffs) > phi:
            return cls(order, coeffs)
        return cls._from_reduced(order, tuple(coeffs) + (Fraction(0),) * (phi - len(coeffs)))

    @classmethod
    def zero(cls, order: int = 4) -> "Cyclotomic":
        return cls._padded(order, [])

    @classmethod
    def one(cls, order: int = 4) -> "Cyclotomic":
        return cls.from_rational(Fraction(1), order)

    @classmethod
    def from_rational(cls, x, order: int = 4) -> "Cyclotomic":
        return cls._padded(order, [Fraction(x)])

    @classmethod
    def root(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_order^k, reduced."""
        k %= order
        return cls._padded(order, [Fraction(0)] * k + [Fraction(1)])

    @classmethod
    def from_turns(cls, turns: Fraction, order: int) -> "Cyclotomic":
        """e^{2 pi i turns} for rational turns with denominator dividing order."""
        turns = Fraction(turns)
        if order % turns.denominator != 0:
            raise ValueError(f"denominator of {turns} does not divide order {order}")
        return cls.root(order, int(turns * order))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        return self.coeffs[0]

    def embed(self, order: int) -> "Cyclotomic":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        return self._power_map(order // self.order, order)

    def _power_map(self, k: int, order: int) -> "Cyclotomic":
        """Send zeta_self.order^j to zeta_order^(j k); at order == self.order this is sigma_k."""
        out = [Fraction(0)] * min(order, k * (len(self.coeffs) - 1) + 1)
        for j, c in enumerate(self.coeffs):
            out[j * k % order] = c
        return Cyclotomic._padded(order, out)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        if a.order == b.order:
            return a, b
        m = a.order * b.order // math.gcd(a.order, b.order)
        return a.embed(m), b.embed(m)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, self.order)
        a, b = self._common(self, other)
        return Cyclotomic._from_reduced(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._from_reduced(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._from_reduced(self.order, tuple(c * other if c else c for c in self.coeffs))
        a, b = self._common(self, other)
        phi = euler_phi(a.order)
        prod = [Fraction(0)] * (2 * phi - 1)
        for j, x in enumerate(a.coeffs):
            if x:
                for k, y in enumerate(b.coeffs):
                    if y:
                        prod[j + k] += x * y
        return Cyclotomic(a.order, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/x = rest / N(x), rest the product of the other Galois conjugates and N(x) = x rest."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        n = self.order
        rest = Cyclotomic.one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                rest = rest * self._power_map(k, n)
        return rest / (self * rest).as_rational()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._from_reduced(self.order, tuple(c / other for c in self.coeffs))
        a, b = self._common(self, other)
        return a * b.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(self, other)
        return a.coeffs == b.coeffs

    def __complex__(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                acc += float(c) * z**j
        return acc

    def __repr__(self):
        parts = [f"{c}*z{self.order}^{j}" for j, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"
