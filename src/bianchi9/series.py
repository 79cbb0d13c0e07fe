"""Truncated Puiseux series in the nome Q = e^{-2 pi mu}.

A series is a finite dict of terms ``{e: c}`` meaning ``sum c * Q^(e/D)`` with
cyclotomic-rational coefficients, known modulo ``Q^(trunc/D)``.  Each series
also carries a grade: an overall factor ``pi^a * Lambda^b`` tracked separately
so that the coefficient data stays rational.

Products convolve the stored terms directly.  Each coefficient is packed
into one integer, its power-basis numerators as digits, so a pair of terms
costs one big-integer multiply.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import Cyclotomic, euler_phi


class Grade(NamedTuple):
    """Exponents of the overall pi^a * Lambda^b prefactor; ``+`` adds them componentwise."""

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

    __slots__ = ("exp_den", "terms", "trunc", "grade")

    def __init__(self, exp_den, terms, trunc, grade=Grade()):
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
        if self.grade != other.grade:
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

    def __neg__(self):
        return PuiseuxSeries(self.exp_den, {e: -c for e, c in self.terms.items()}, self.trunc, self.grade)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = PuiseuxSeries.constant(other, self.grade)
        return self + (-other)

    def scale(self, value, dpi: int = 0, dlam: int = 0) -> "PuiseuxSeries":
        """Multiply by a scalar as given, optionally shifting the grade.

        A rational stays a rational, so it takes Cyclotomic's scalar product.
        """
        g = self.grade + Grade(dpi, dlam)
        return PuiseuxSeries(self.exp_den, {e: v * value for e, v in self.terms.items()}, self.trunc, g)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        return series_mul(self, other)

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
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, other))
        return self * other.invert()

    def galois(self, k: int) -> "PuiseuxSeries":
        """sigma_k on every coefficient: zeta_N -> zeta_N^k; k must be a unit mod each order N."""
        terms = {e: c._power_map(k % c.order, c.order) for e, c in self.terms.items()}
        return PuiseuxSeries(self.exp_den, terms, self.trunc, self.grade)

    def shift_mu(self, n: int) -> "PuiseuxSeries":
        """The series of f(mu - n i): each term at Q^r gains e^{2 pi i n r}, into Q(zeta_lcm(N, denominator of r)).

        The phase is zeta_M^k: the term's power basis is shifted up k places and reduced once.
        """
        terms = {}
        for e, c in self.terms.items():
            ne = n * e  # r = ne / exp_den, the phase zeta_M^{ne M / exp_den}
            order = math.lcm(c.order, self.exp_den // math.gcd(ne, self.exp_den))
            c = c.embed(order)
            terms[e] = Cyclotomic.from_int_coeffs(order, [0] * (ne * order // self.exp_den % order) + list(c.nums), c.den)
        return PuiseuxSeries(self.exp_den, terms, self.trunc, self.grade)

    def mu_derivative(self) -> "PuiseuxSeries":
        """d/dmu, using Q = e^{-2 pi mu}: each term picks up -2 pi e/D."""
        d = self.exp_den
        terms = {e: c * Fraction(-2 * e, d) for e, c in self.terms.items()}
        return PuiseuxSeries(d, terms, self.trunc, self.grade + Grade(pi_exp=1))

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

    def evaluate_mu(self, mu: complex) -> complex:
        """Numeric value at mu, with Q = e^{-2 pi mu}, the pi prefactor and Lambda = 1.

        Q^(e/D) is taken as (e^{-2 pi mu/D})^e, which holds at every mu; the
        principal power of Q would lose the branch once |Im mu| > 1/2.
        """
        q = cmath.exp(-2 * cmath.pi * mu / self.exp_den)
        acc = 0j
        for e, c in self.terms.items():
            acc += complex(c) * q**e
        return acc * math.pi**self.grade.pi_exp

    # -- rational views and serialization -----------------------------

    def as_q_expansion(self) -> dict[int, Fraction]:
        """Integer-exponent rational view in increasing exponent; an error names the first term not of that form."""
        out = {}
        for e in sorted(self.terms):
            c = self.terms[e]
            if not c.is_rational():
                raise ValueError(f"non-rational coefficient at exponent {e}/{self.exp_den}: {c!r}")
            if e % self.exp_den != 0:
                raise ValueError(f"non-integer exponent {e}/{self.exp_den}")
            out[e // self.exp_den] = c.as_rational()
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
    """Product by direct convolution of the stored terms; the horizon follows the valuations.

    Each coefficient is one integer ``sum_j n_j 2^(bits j)`` of its numerators
    over the series' common denominator, so a pair of terms costs one big
    multiply.  ``bits`` leaves room for the largest product digit and a sign,
    and each exponent's sum is read back as 2 phi - 1 balanced digits.
    """
    a, b, grade, t, trivial = _mul_setup(a, b)
    if trivial:
        return PuiseuxSeries(a.exp_den, {}, t, grade)

    # promote all coefficients to a common cyclotomic order
    order = math.lcm(*(c.order for s in (a, b) for c in s.terms.values()))
    phi = euler_phi(order)
    den_a, rows_a, ma = _integer_rows(a, order)
    den_b, rows_b, mb = _integer_rows(b, order)

    # a product digit sums at most phi digit products per pair of terms, and
    # at most min(#terms) pairs meet at one exponent
    bound = phi * min(len(rows_a), len(rows_b)) * ma * mb
    bits = bound.bit_length() + 1
    pack_b = [(e, _pack(ns, bits)) for e, ns in rows_b]
    horizon = rows_a[-1][0] + rows_b[-1][0] + 1 if t is None else t
    sums: dict[int, int] = {}
    for ea, ns in rows_a:
        x = _pack(ns, bits)
        for eb, y in pack_b:
            e = ea + eb
            if e >= horizon:
                break
            sums[e] = sums.get(e, 0) + x * y

    full = 1 << bits
    half = full >> 1
    mask = full - 1
    den = den_a * den_b
    terms: dict[int, Cyclotomic] = {}
    for e in sorted(sums):
        z = sums[e]
        if not z:
            continue
        poly = []
        for _ in range(2 * phi - 1):
            d = z & mask
            if d >= half:
                d -= full
            poly.append(d)
            z = (z - d) >> bits
        terms[e] = Cyclotomic.from_int_coeffs(order, poly, den)
    return PuiseuxSeries(a.exp_den, terms, t, grade)


def _pack(numerators, bits: int) -> int:
    """One integer holding the signed digits ``numerators`` at ``bits`` bits each."""
    return sum(n << (bits * j) for j, n in enumerate(numerators))


def _integer_rows(s: PuiseuxSeries, order: int):
    """Common denominator, (exponent, integer numerators) in increasing exponent, largest |numerator|."""
    cs = [(e, s.terms[e].embed(order)) for e in sorted(s.terms)]
    den = math.lcm(*(c.den for _, c in cs))
    rows = [(e, c.nums if c.den == den else [x * (den // c.den) for x in c.nums]) for e, c in cs]
    big = max(abs(x) for _, ns in rows for x in ns)
    return den, rows, big


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
