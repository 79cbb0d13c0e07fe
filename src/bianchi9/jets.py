"""Fixed-order truncated Taylor jets over the complex numbers.

A Jet stores the value and the first k mu-derivatives of a function at a
point.  Arithmetic propagates derivatives by the Leibniz and quotient rules:
one lattice pass gives a theta function and its q-derivative as jets, and
F's derivative tower is a quotient of the two.  Only those derivatives need jets: a numeric
frame holds plain values, and the coefficient tables run on those.
"""

from __future__ import annotations

from math import comb


class Jet:
    """Value plus derivatives 1..order of a complex function at a point."""

    __slots__ = ("order", "comps")

    def __init__(self, comps):
        # plain reals are promoted to complex; richer numeric types (e.g.
        # arbitrary-precision complex numbers) pass through untouched
        self.comps = tuple(complex(c) if isinstance(c, (int, float)) else c for c in comps)
        self.order = len(self.comps) - 1

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        return cls((value,) + (0j,) * order)

    def __getitem__(self, j: int) -> complex:
        return self.comps[j]

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other
        return Jet.constant(other, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(tuple(a + b for a, b in zip(self.comps, o.comps)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-a for a in self.comps))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        n = self.order
        out = []
        for j in range(n + 1):
            out.append(sum(comb(j, k) * self.comps[k] * o.comps[j - k] for k in range(j + 1)))
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        scale = max(abs(c) for c in o.comps) or 1.0
        if abs(o.comps[0]) < 1e-12 * scale:
            raise ZeroDivisionError("division by a jet with (near-)zero value")
        n = self.order
        d: list[complex] = []
        for j in range(n + 1):
            s = self.comps[j]
            for k in range(j):
                s -= comb(j, k) * d[k] * o.comps[j - k]
            d.append(s / o.comps[0])
        return Jet(d)

    def __rtruediv__(self, other):
        return Jet.constant(other, self.order) / self

    def __pow__(self, m: int):
        if m == 0:
            return Jet.constant(1.0, self.order)
        if m < 0:
            return (Jet.constant(1.0, self.order) / self) ** (-m)
        r = self
        for _ in range(m - 1):
            r = r * self
        return r

    def __repr__(self):
        return f"Jet({list(self.comps)})"
