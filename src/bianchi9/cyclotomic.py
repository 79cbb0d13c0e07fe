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


def _poly_divmod_int(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials (b monic), low-to-high coeffs."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    quot = [0] * (da - db + 1)
    for d in range(da, db - 1, -1):
        c = a[d]
        if c:
            quot[d - db] = c
            for j in range(db + 1):
                a[d - db + j] -= c * b[j]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return quot, a


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the N-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # divide x^n - 1 by the product of Phi_d over proper divisors d of n
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_poly(d)))
            assert all(r == 0 for r in rem)
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int, count: int) -> tuple[tuple[int, ...], ...]:
    """Row t expresses zeta^(phi+t) in the power basis, t = 0..count-1, as ints."""
    phi = euler_phi(n)
    mod = cyclotomic_poly(n)
    rows = []
    # zeta^phi = -(low part of Phi_N)  (Phi_N is monic)
    cur = [-c for c in mod[:phi]]
    rows.append(tuple(cur))
    for _ in range(count - 1):
        # multiply current row by zeta and reduce the overflow term
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(phi):
                cur[j] += top * rows[0][j]
        rows.append(tuple(cur))
    return tuple(rows)


def _reduce(n: int, coeffs: list, zero=Fraction(0)) -> list:
    """Reduce a coefficient list of any length modulo Phi_N; pad to phi(N) with zero."""
    phi = euler_phi(n)
    if len(coeffs) > phi:
        rows = _reduction_rows(n, len(coeffs) - phi)
        out = list(coeffs[:phi])
        for t in range(len(coeffs) - 1, phi - 1, -1):
            c = coeffs[t]
            if c:
                row = rows[t - phi]
                for j in range(phi):
                    if row[j]:
                        out[j] += c * row[j]
        coeffs = out
    else:
        coeffs = list(coeffs)
    while len(coeffs) < phi:
        coeffs.append(zero)
    return coeffs


class Cyclotomic:
    """An element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        self.order = order
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        self.coeffs = tuple(_reduce(order, cs))

    @classmethod
    def from_int_coeffs(cls, order: int, coeffs: list[int], den: int) -> "Cyclotomic":
        """Fast path: integer power-basis coefficients over a common denominator."""
        reduced = _reduce(order, coeffs, 0)
        obj = object.__new__(cls)
        obj.order = order
        obj.coeffs = tuple(Fraction(c, den) for c in reduced)
        return obj

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int = 4) -> "Cyclotomic":
        return cls(order, [])

    @classmethod
    def one(cls, order: int = 4) -> "Cyclotomic":
        return cls.from_rational(Fraction(1), order)

    @classmethod
    def from_rational(cls, x, order: int = 4) -> "Cyclotomic":
        return cls(order, [Fraction(x)])

    @classmethod
    def root(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_order^k, reduced."""
        k %= order
        coeffs = [Fraction(0)] * k + [Fraction(1)]
        return cls(order, coeffs)

    @classmethod
    def from_turns(cls, turns: Fraction, order: int) -> "Cyclotomic":
        """e^{2 pi i turns} for rational turns with denominator dividing order."""
        turns = Fraction(turns)
        if order % turns.denominator != 0:
            raise ValueError(f"denominator of {turns} does not divide order {order}")
        return cls.root(order, int(turns * order))

    @classmethod
    def i(cls, order: int = 4) -> "Cyclotomic":
        if order % 4 != 0:
            raise ValueError("order must be divisible by 4 to represent i")
        return cls.root(order, order // 4)

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
        step = order // self.order
        phi = euler_phi(order)
        out = [Fraction(0)] * (step * (len(self.coeffs) - 1) + 1 if self.coeffs else 1)
        for j, c in enumerate(self.coeffs):
            if c:
                out[j * step] += c
        return Cyclotomic(order, out)

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
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [c * other for c in self.coeffs])
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
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        n = self.order
        phi = euler_phi(n)
        mod = [Fraction(c) for c in cyclotomic_poly(n)]
        # extended Euclid over Q[x]: find u with u*self = gcd = const mod Phi_N
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def deg(p):
            d = len(p) - 1
            while d > 0 and p[d] == 0:
                d -= 1
            return d if any(p) else -1

        while deg(r1) > 0:
            dq = deg(r0) - deg(r1)
            if dq < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            lead = r0[deg(r0)] / r1[deg(r1)]
            # r0 -= lead * x^dq * r1 ; s0 likewise
            for j in range(deg(r1) + 1):
                r0[j + dq] -= lead * r1[j]
            while len(s0) < len(s1) + dq:
                s0.append(Fraction(0))
            for j in range(len(s1)):
                s0[j + dq] -= lead * s1[j]
            if deg(r0) < deg(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
        c = r1[deg(r1)] if deg(r1) >= 0 else None
        if c is None or c == 0:
            raise ZeroDivisionError("scalar is a zero divisor (unexpected)")
        inv = Cyclotomic(n, [x / c for x in s1])
        return inv

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [c / other for c in self.coeffs])
        a, b = self._common(self, other)
        return a * b.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

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
