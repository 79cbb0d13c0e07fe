"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are polynomials in zeta_N reduced modulo the N-th cyclotomic
polynomial, stored as integer numerators over one common denominator, the
form the series product kernel packs.  This is the coefficient field for
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
            rem, poly = _divmod_phi(poly, d)
            assert not any(rem)
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_low_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(N) and the nonzero (j, coefficient of x^j) of Phi_N below its leading term."""
    phi = euler_phi(n)
    return phi, tuple((j, c) for j, c in enumerate(cyclotomic_poly(n)[:phi]) if c)


def _divmod_phi(a, n: int) -> tuple[list, list]:
    """Divide the polynomial a (low to high) by Phi_N.

    Eliminates from the top with x^phi = -(low part of Phi_N), which is monic.
    Returns the remainder padded to phi(N) with zeros and the quotient:
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
    return a[:phi] + [0] * (phi - len(a)), a[phi:]


class Cyclotomic:
    """An element of Q(zeta_N): phi(N) integer numerators over one denominator.

    ``nums[j] / den`` is the coefficient of zeta_N^j in the power basis,
    reduced modulo Phi_N.  ``den`` is positive and in lowest terms,
    gcd(den, *nums) == 1, so zero is all-zero ``nums`` over ``den == 1`` and
    equal elements of one order have equal fields.  ``coeffs`` reads the
    element as Fractions.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs) -> None:
        """From rational power-basis coefficients of any length (anything Fraction takes)."""
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        x = Cyclotomic.from_int_coeffs(order, [c.numerator * (den // c.denominator) for c in cs], den)
        self.order, self.nums, self.den = order, x.nums, x.den

    @classmethod
    def from_int_coeffs(cls, order: int, coeffs: list[int], den: int) -> "Cyclotomic":
        """Integer power-basis coefficients of any length over a common denominator den > 0."""
        nums = _divmod_phi(coeffs, order)[0]
        g = math.gcd(den, *nums)
        obj = object.__new__(cls)
        obj.order, obj.nums, obj.den = order, tuple(x // g for x in nums) if g > 1 else tuple(nums), den // g
        return obj

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int = 4) -> "Cyclotomic":
        return cls.from_int_coeffs(order, [], 1)

    @classmethod
    def one(cls, order: int = 4) -> "Cyclotomic":
        return cls.from_int_coeffs(order, [1], 1)

    @classmethod
    def from_rational(cls, x, order: int = 4) -> "Cyclotomic":
        x = Fraction(x)
        return cls.from_int_coeffs(order, [x.numerator], x.denominator)

    @classmethod
    def root(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_order^k, reduced."""
        return cls.from_int_coeffs(order, [0] * (k % order) + [1], 1)

    @classmethod
    def from_turns(cls, turns: Fraction, order: int) -> "Cyclotomic":
        """e^{2 pi i turns} for rational turns with denominator dividing order."""
        turns = Fraction(turns)
        if order % turns.denominator != 0:
            raise ValueError(f"denominator of {turns} does not divide order {order}")
        return cls.root(order, int(turns * order))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        return Fraction(self.nums[0], self.den)

    def embed(self, order: int) -> "Cyclotomic":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        return self._power_map(order // self.order, order)

    def _power_map(self, k: int, order: int) -> "Cyclotomic":
        """Send zeta_self.order^j to zeta_order^(j k); at order == self.order this is sigma_k."""
        out = [0] * min(order, k * (len(self.nums) - 1) + 1)
        for j, x in enumerate(self.nums):
            out[j * k % order] = x
        return Cyclotomic.from_int_coeffs(order, out, self.den)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        if a.order == b.order:
            return a, b
        m = a.order * b.order // math.gcd(a.order, b.order)
        return a.embed(m), b.embed(m)

    def __add__(self, other):
        a, b = self._common(self, other)
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return Cyclotomic.from_int_coeffs(a.order, [x * fa + y * fb for x, y in zip(a.nums, b.nums)], den)

    def __neg__(self):
        return Cyclotomic.from_int_coeffs(self.order, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            return Cyclotomic.from_int_coeffs(self.order, [x * r.numerator for x in self.nums], self.den * r.denominator)
        a, b = self._common(self, other)
        phi = euler_phi(a.order)
        prod = [0] * (2 * phi - 1)
        for j, x in enumerate(a.nums):
            if x:
                for k, y in enumerate(b.nums):
                    if y:
                        prod[j + k] += x * y
        return Cyclotomic.from_int_coeffs(a.order, prod, a.den * b.den)

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
        """Division by a nonzero rational; a field element divides through ``inverse``."""
        return self * (1 / Fraction(other))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.nums[0] == other * self.den
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(self, other)
        return a.nums == b.nums and a.den == b.den

    def __complex__(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for j, x in enumerate(self.nums):
            if x:
                acc += x / self.den * z**j
        return acc

    def __repr__(self):
        parts = [f"{c}*z{self.order}^{j}" for j, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"
