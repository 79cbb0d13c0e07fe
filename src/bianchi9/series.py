"""Truncated Puiseux series in the nome Q = e^{-2 pi mu}.

A series is a finite dict of terms ``{e: c}`` meaning ``sum c * Q^(e/D)`` with
cyclotomic-rational coefficients, known modulo ``Q^(trunc/D)``.  Each series
also carries a grade: an overall factor ``pi^a * Lambda^b`` tracked separately
so that the coefficient data stays rational.

Products use Kronecker substitution: the whole convolution (exponent axis
times cyclotomic power basis) is packed into one big-integer multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyclotomic, euler_phi


@dataclass(frozen=True)
class Grade:
    """Exponents of the overall pi^a * Lambda^b prefactor."""

    pi_exp: int = 0
    lambda_exp: int = 0

    def __add__(self, other: "Grade") -> "Grade":
        return Grade(self.pi_exp + other.pi_exp, self.lambda_exp + other.lambda_exp)

    def __neg__(self) -> "Grade":
        return Grade(-self.pi_exp, -self.lambda_exp)


def _as_cyc(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    return Cyclotomic.from_rational(Fraction(x))


class PuiseuxSeries:
    """Finite nome series with denominator-D exponents and a grade.

    ``terms`` maps integer e to a nonzero Cyclotomic coefficient of Q^(e/D).
    ``trunc`` is the knowledge horizon in the same 1/D units: terms with
    exponent >= trunc are unknown and never stored.  ``trunc=None`` marks an
    exact (polynomial) series.
    """

    __slots__ = ("exp_den", "terms", "trunc", "grade", "_flat")

    def __init__(self, exp_den, terms, trunc, grade=Grade()):
        self._flat = {}  # Kronecker-kernel packing cache; not part of the value
        if exp_den <= 0:
            raise ValueError("exp_den must be positive")
        clean = {}
        for e, c in terms.items():
            c = _as_cyc(c)
            if not c.is_zero() and (trunc is None or e < trunc):
                clean[int(e)] = c
        self.exp_den = int(exp_den)
        self.terms = clean
        self.trunc = None if trunc is None else int(trunc)
        self.grade = grade

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, grade=Grade()):
        return cls(1, {0: _as_cyc(value)}, None, grade)

    # -- bookkeeping --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def valuation(self):
        """Order of vanishing in units of 1/exp_den (trunc if no terms)."""
        if self.terms:
            return min(self.terms)
        return self.trunc

    def trunc_frac(self) -> Fraction | None:
        return None if self.trunc is None else Fraction(self.trunc, self.exp_den)

    def coefficient(self, exponent) -> Cyclotomic:
        """Coefficient of Q^exponent (a Fraction); errors past the horizon."""
        exponent = Fraction(exponent)
        e = exponent * self.exp_den
        if self.trunc is not None and exponent >= self.trunc_frac():
            raise ValueError(f"exponent {exponent} is beyond the truncation horizon")
        if e.denominator != 1:
            return Cyclotomic.zero()
        return self.terms.get(int(e), Cyclotomic.zero())

    def rescale(self, exp_den: int) -> "PuiseuxSeries":
        """Re-express on a finer exponent grid (exp_den must be a multiple)."""
        if exp_den == self.exp_den:
            return self
        if exp_den % self.exp_den != 0:
            raise ValueError("new exp_den must be a multiple of the old one")
        f = exp_den // self.exp_den
        t = None if self.trunc is None else self.trunc * f
        return PuiseuxSeries(exp_den, {e * f: c for e, c in self.terms.items()}, t, self.grade)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _aligned(a: "PuiseuxSeries", b: "PuiseuxSeries"):
        d = a.exp_den * b.exp_den // math.gcd(a.exp_den, b.exp_den)
        return a.rescale(d), b.rescale(d)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = PuiseuxSeries.constant(other, self.grade)
        if self.grade != other.grade:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError(f"grade mismatch in addition: {self.grade} vs {other.grade}")
        a, b = self._aligned(self, other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            old = terms.get(e)
            # a term of b alone goes where a sum with Cyclotomic.zero() would:
            # into Q(zeta_lcm(4, N)), since rationals are stored at order 4
            terms[e] = c.embed(math.lcm(4, c.order)) if old is None else old + c
        if a.trunc is None:
            t = b.trunc
        elif b.trunc is None:
            t = a.trunc
        else:
            t = min(a.trunc, b.trunc)
        return PuiseuxSeries(a.exp_den, terms, t, a.grade)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(self.exp_den, {e: -c for e, c in self.terms.items()}, self.trunc, self.grade)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = PuiseuxSeries.constant(other, self.grade)
        return self + (-other)

    def scale(self, value, dpi: int = 0, dlam: int = 0) -> "PuiseuxSeries":
        """Multiply by a scalar, optionally shifting the grade."""
        c = _as_cyc(value)
        g = self.grade + Grade(dpi, dlam)
        if c.is_zero():
            return PuiseuxSeries(self.exp_den, {}, self.trunc, g)
        return PuiseuxSeries(self.exp_den, {e: v * c for e, v in self.terms.items()}, self.trunc, g)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        return series_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n == 0:
            return PuiseuxSeries.constant(1)
        if n < 0:
            return self.invert() ** (-n)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def invert(self) -> "PuiseuxSeries":
        return series_invert(self)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(_as_cyc(1) / _as_cyc(other))
        return self * other.invert()

    def galois(self, k: int) -> "PuiseuxSeries":
        """sigma_k on every coefficient: zeta_N -> zeta_N^k; k must be a unit mod each order N."""
        terms = {e: c._power_map(k % c.order, c.order) for e, c in self.terms.items()}
        return PuiseuxSeries(self.exp_den, terms, self.trunc, self.grade)

    def mu_derivative(self) -> "PuiseuxSeries":
        return series_mu_derivative(self)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(self, other)
        return a.terms == b.terms and a.trunc == b.trunc and a.grade == b.grade

    def __repr__(self):
        bits = []
        for e in sorted(self.terms)[:6]:
            bits.append(f"({self.terms[e]!r})Q^({Fraction(e, self.exp_den)})")
        if len(self.terms) > 6:
            bits.append("...")
        g = f" * pi^{self.grade.pi_exp} L^{self.grade.lambda_exp}" if self.grade != Grade() else ""
        t = "" if self.trunc is None else f" + O(Q^{Fraction(self.trunc, self.exp_den)})"
        return "[" + (" + ".join(bits) or "0") + t + "]" + g

    # -- numerics -----------------------------------------------------

    def evaluate(self, q: complex, lam: float = 1.0) -> complex:
        """Numeric value at nome q, including the pi/Lambda prefactor."""
        acc = 0j
        for e, c in self.terms.items():
            acc += complex(c) * q ** (e / self.exp_den)
        return acc * math.pi**self.grade.pi_exp * lam**self.grade.lambda_exp

    def evaluate_mu(self, mu: complex, lam: float = 1.0) -> complex:
        import cmath

        return self.evaluate(cmath.exp(-2 * cmath.pi * mu), lam)

    # -- rational views and serialization -----------------------------

    def as_q_expansion(self) -> dict[int, Fraction]:
        """Integer-exponent rational view; errors if the series is not one."""
        out = {}
        for e, c in self.terms.items():
            r = c.as_rational()  # raises if any coefficient is irrational
            if e % self.exp_den != 0:
                raise ValueError(f"non-integer exponent {Fraction(e, self.exp_den)} present")
            out[e // self.exp_den] = r
        return out

    def to_json(self) -> dict:
        terms = []
        for e in sorted(self.terms):
            c = self.terms[e]
            terms.append(
                {
                    "exp": f"{e}/{self.exp_den}",
                    "order": c.order,
                    "coeffs": [f"{x.numerator}/{x.denominator}" for x in c.coeffs],
                }
            )
        return {
            "exp_den": self.exp_den,
            "grade": {"pi": self.grade.pi_exp, "lambda": self.grade.lambda_exp},
            "terms": terms,
            "trunc": self.trunc,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PuiseuxSeries":
        d = data["exp_den"]
        terms = {}
        for t in data["terms"]:
            e = Fraction(t["exp"])
            terms[int(e * d)] = Cyclotomic(t["order"], [Fraction(x) for x in t["coeffs"]])
        grade = Grade(data["grade"]["pi"], data["grade"]["lambda"])
        return cls(d, terms, data["trunc"], grade)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def _mul_setup(a: PuiseuxSeries, b: PuiseuxSeries):
    """Aligned operands, grade, horizon and whether the product has no terms.

    Each known horizon is shifted by the other factor's valuation; a zero
    factor with no horizon has no valuation and contributes no bound.
    """
    a, b = PuiseuxSeries._aligned(a, b)
    va, vb = a.valuation, b.valuation
    cands = []
    if a.trunc is not None and vb is not None:
        cands.append(a.trunc + vb)
    if b.trunc is not None and va is not None:
        cands.append(b.trunc + va)
    t = min(cands) if cands else None
    return a, b, a.grade + b.grade, t, not a.terms or not b.terms


def series_mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Product by Kronecker substitution; the horizon follows the valuations."""
    a, b, grade, t, trivial = _mul_setup(a, b)
    if trivial:
        return PuiseuxSeries(a.exp_den, {}, t, grade)

    # promote all coefficients to a common cyclotomic order
    order = 1
    for c in list(a.terms.values()) + list(b.terms.values()):
        order = order * c.order // math.gcd(order, c.order)
    phi = euler_phi(order)
    stride = 2 * phi - 1  # cyclotomic degrees never alias across exponents

    # pack on the coarsest common exponent grid, not the full 1/exp_den grid
    g = 0
    va, vb = a.valuation, b.valuation
    for s, v in ((a, va), (b, vb)):
        for e in s.terms:
            g = math.gcd(g, e - v)
    g = g or 1

    den_a, da, ma = _flatten_cached(a, order, stride, g)
    den_b, db, mb = _flatten_cached(b, order, stride, g)

    # one product digit sums at most min(len) cross terms
    bound = min(len(da), len(db)) * ma * mb
    bits = max(8, ((bound.bit_length() + 2 + 7) // 8) * 8)
    nbytes = bits // 8

    def pack(digits):
        buf = bytearray(len(digits) * nbytes)
        neg = 0
        for k, d in enumerate(digits):
            if d > 0:
                buf[k * nbytes : (k + 1) * nbytes] = d.to_bytes(nbytes, "little")
            elif d < 0:
                neg += (-d) << (bits * k)
        return int.from_bytes(bytes(buf), "little") - neg

    z = pack(da) * pack(db)
    nk = len(da) + len(db) - 1
    half = 1 << (bits - 1)
    offset = half * ((1 << (bits * nk)) - 1) // ((1 << bits) - 1)
    z += offset
    raw = z.to_bytes(nk * nbytes + 16, "little")

    den = den_a * den_b
    terms: dict[int, Cyclotomic] = {}
    for e in range(0, nk, stride):
        exp = va + vb + (e // stride) * g
        if t is not None and exp >= t:
            continue
        chunk = raw[e * nbytes : (min(e + stride, nk)) * nbytes]
        poly = [
            int.from_bytes(chunk[k * nbytes : (k + 1) * nbytes], "little") - half
            for k in range(len(chunk) // nbytes)
        ]
        if any(poly):
            terms[exp] = Cyclotomic.from_int_coeffs(order, poly, den)
    return PuiseuxSeries(a.exp_den, terms, t, grade)


def _flatten_cached(s: PuiseuxSeries, order: int, stride: int, grid: int):
    """Integer digit array for Kronecker packing, memoized on the series."""
    key = (order, grid)
    cache = s._flat
    got = cache.get(key)
    if got is not None:
        return got
    v = s.valuation
    den = 1
    rows = {}
    for e, c in s.terms.items():
        cs = c.embed(order).coeffs
        rows[(e - v) // grid] = cs
        for x in cs:
            den = den * x.denominator // math.gcd(den, x.denominator)
    width = max(rows) + 1
    digits = [0] * (width * stride)
    big = 0
    for e, cs in rows.items():
        for j, x in enumerate(cs):
            if x:
                n = x.numerator * (den // x.denominator)
                digits[e * stride + j] = n
                if -n > big or n > big:
                    big = abs(n)
    got = (den, digits, big)
    cache[key] = got
    return got


def series_invert(a: PuiseuxSeries) -> PuiseuxSeries:
    """Multiplicative inverse as a truncated series.

    The leading coefficient must be invertible; the result is known to the
    same relative precision as the input.  Newton iteration
    x <- x - x (a x - 1) doubles the relative precision of x at each step,
    so every coefficient comes out of ``series_mul``.
    """
    if not a.terms:
        raise ZeroDivisionError("cannot invert a series with no known terms")
    v = a.valuation
    x = PuiseuxSeries(a.exp_den, {-v: a.terms[v].inverse()}, None, -a.grade)
    if a.trunc is None:
        if len(a.terms) > 1:
            raise ValueError("inverse of a multi-term exact series needs a truncation horizon")
        return x
    rel = a.trunc - v  # relative precision of the input, in 1/exp_den units
    # x is the inverse modulo relative order n: the leading monomial alone is
    # exact up to the next term of a
    n = min((e - v for e in a.terms if e > v), default=rel)
    while n < rel:
        n = min(2 * n, rel)
        head = PuiseuxSeries(a.exp_den, a.terms, v + n, a.grade)
        step = x - x * (head * x - 1)  # known to relative order n
        x = PuiseuxSeries(a.exp_den, step.terms, None, x.grade)
    return PuiseuxSeries(a.exp_den, x.terms, a.trunc - 2 * v, x.grade)


def series_mu_derivative(a: PuiseuxSeries) -> PuiseuxSeries:
    """d/dmu, using Q = e^{-2 pi mu}: each term picks up -2 pi e/D."""
    d = a.exp_den
    terms = {e: c * Fraction(-2 * e, d) for e, c in a.terms.items()}
    return PuiseuxSeries(d, terms, a.trunc, a.grade + Grade(pi_exp=1))
