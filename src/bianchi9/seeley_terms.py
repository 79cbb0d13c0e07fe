"""Closed-form term tables for the heat-trace coefficients a0, a2 and a4.

Each table is data, not code: a list of rows ``(coefficient, monomial)`` where
the monomial maps variable names to integer exponents (possibly negative).
The variables are ``w1 w2 w3 F``, the first and second mu-derivatives
``Fd1 Fd2`` of F, ``A1 A2 A3`` with ``A_j = 2 d/dmu log theta_{j+1}(i mu)``
for theta_2, theta_3, theta_4, and ``k = 4 pi^2 Lambda``.  The text below is
canonical: each row lists its variables in ``VARIABLES`` order, and the rows
are sorted by their exponents read in that order.  ``parse_terms``,
``render_terms`` and ``table_checksum`` read, regenerate and fingerprint it,
so the tests catch accidental edits; :mod:`bianchi9.seeley` compiles it.

No table reads a derivative of w_j.  The frames are self-dual Einstein, so
with (i, j, k) cyclic they obey

    w_i' = -w_j w_k + w_i (A_j + A_k)          (Tod-Halphen)
    A_i' = -A_j A_k + A_i (A_j + A_k)          (Halphen)
    F''  = F'^2 / (2 F) - k F^2 w1 w2 w3       (Einstein)

``A0_TEXT`` is a0 = 4 w1 w2 w3 F^2.  The first two turn the 17-row a2 table
in w_j, F and their first two derivatives into ``A2_TEXT``, F'' - F'^2/(2F).
The F ODE would make that -(k/4) a0, but the orbit sums of that form reach
a longer horizon, which changes CLI bytes.

a4 is the Chamseddine-Connes density (1/360)(-18 C^2 + 11 E) sqrt(g).  On an
Einstein manifold E = C^2 + R^2/6: hence the 7s of -7 C^2, and the 11 of the
R^2 term, which here is (11/960) k^2 a0.  The anti-self-dual Weyl tensor
vanishes, and C^2 sqrt(g) = 4 (P1^2 + P2^2 + P3^2) / (w1 w2 w3)^5 with P1 a
13-row polynomial in w and A, P2 and P3 its images under 1 -> 2 -> 3, and
P1 + P2 + P3 = 0.  C^2 sqrt(g) is conformally invariant, so it does not
read F.  ``A4_TEXT`` expands -(7/90) (P1^2 + P2^2 + P3^2) / (w1 w2 w3)^5
into 63 rows in w and A, plus (11/240) k^2 F^2 w1 w2 w3.  On the 8-point
orbit of (1/6, 5/6) every P_i vanishes (W+ = 0), so there a4 = (11/960)
k^2 a0.  The tests keep P1, the expansion and the 201-row a4 table in w_j,
F and their derivatives to order 4, which gives the same series, horizon
included (Chamseddine & Connes, CMP 186, 1997; Atiyah, Hitchin & Singer,
Proc. R. Soc. A 362, 1978).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

A0_TEXT = """
+4 w1 w2 w3 F^2
"""

A2_TEXT = """
-1/2 F^-1 Fd1^2
+1 Fd2
"""

A4_TEXT = """
-7/15 w1^-5 w2^3 w3^3
+7/15 w1^-4 w2^2 w3^2 A3
+7/15 w1^-4 w2^2 w3^2 A2
-14/15 w1^-4 w2^2 w3^2 A1
-7/45 w1^-3 w2 w3 A3^2
-7/45 w1^-3 w2 w3 A2 A3
-7/45 w1^-3 w2 w3 A2^2
+7/15 w1^-3 w2 w3 A1 A3
+7/15 w1^-3 w2 w3 A1 A2
-7/15 w1^-3 w2 w3 A1^2
+7/15 w1^-3 w2 w3^3
+7/15 w1^-3 w2^3 w3
-7/15 w1^-2 w3^2 A3
+7/15 w1^-2 w3^2 A1
-7/15 w1^-2 w2^2 A2
+7/15 w1^-2 w2^2 A1
+14/45 w1^-1 w2^-1 w3 A3^2
-14/45 w1^-1 w2^-1 w3 A2 A3
-14/45 w1^-1 w2^-1 w3 A1 A3
+14/45 w1^-1 w2^-1 w3 A1 A2
-14/45 w1^-1 w2 w3^-1 A2 A3
+14/45 w1^-1 w2 w3^-1 A2^2
+14/45 w1^-1 w2 w3^-1 A1 A3
-14/45 w1^-1 w2 w3^-1 A1 A2
-7/15 w1^-1 w2 w3
-7/15 w2^-2 w3^2 A3
+7/15 w2^-2 w3^2 A2
+7/15 w2^2 w3^-2 A3
-7/15 w2^2 w3^-2 A2
-7/45 w1 w2^-3 w3 A3^2
+7/15 w1 w2^-3 w3 A2 A3
-7/15 w1 w2^-3 w3 A2^2
-7/45 w1 w2^-3 w3 A1 A3
+7/15 w1 w2^-3 w3 A1 A2
-7/45 w1 w2^-3 w3 A1^2
+7/15 w1 w2^-3 w3^3
+14/45 w1 w2^-1 w3^-1 A2 A3
-14/45 w1 w2^-1 w3^-1 A1 A3
-14/45 w1 w2^-1 w3^-1 A1 A2
+14/45 w1 w2^-1 w3^-1 A1^2
-7/15 w1 w2^-1 w3
-7/15 w1 w2 w3^-3 A3^2
+7/15 w1 w2 w3^-3 A2 A3
-7/45 w1 w2 w3^-3 A2^2
+7/15 w1 w2 w3^-3 A1 A3
-7/45 w1 w2 w3^-3 A1 A2
-7/45 w1 w2 w3^-3 A1^2
-7/15 w1 w2 w3^-1
+11/240 w1 w2 w3 F^2 k^2
+7/15 w1 w2^3 w3^-3
+7/15 w1^2 w2^-4 w3^2 A3
-14/15 w1^2 w2^-4 w3^2 A2
+7/15 w1^2 w2^-4 w3^2 A1
+7/15 w1^2 w2^-2 A2
-7/15 w1^2 w2^-2 A1
+7/15 w1^2 w3^-2 A3
-7/15 w1^2 w3^-2 A1
-14/15 w1^2 w2^2 w3^-4 A3
+7/15 w1^2 w2^2 w3^-4 A2
+7/15 w1^2 w2^2 w3^-4 A1
-7/15 w1^3 w2^-5 w3^3
+7/15 w1^3 w2^-3 w3
+7/15 w1^3 w2 w3^-3
-7/15 w1^3 w2^3 w3^-5
"""

VARIABLES = ("w1", "w2", "w3", "F", "Fd1", "Fd2", "A1", "A2", "A3", "k")


def parse_terms(text: str, variables=VARIABLES) -> list[tuple[Fraction, dict[str, int]]]:
    rows = []
    for line in text.strip().splitlines():
        parts = line.split()
        coeff = Fraction(parts[0])
        mono: dict[str, int] = {}
        for tok in parts[1:]:
            if "^" in tok:
                var, ex = tok.split("^")
                mono[var] = mono.get(var, 0) + int(ex)
            else:
                var = tok
                mono[var] = mono.get(var, 0) + 1
            if var not in variables:
                raise ValueError(f"unknown variable {var!r} in term table")
        rows.append((coeff, mono))
    return rows


def render_terms(rows) -> str:
    """Regenerate the canonical text, for audit against the source."""
    lines = []
    for coeff, mono in rows:
        sign = "+" if coeff > 0 else "-"
        c = abs(coeff)
        cs = f"{c.numerator}" if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        toks = [f"{sign}{cs}"]
        for var, ex in mono.items():
            toks.append(var if ex == 1 else f"{var}^{ex}")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def table_checksum(rows) -> str:
    return hashlib.sha256(render_terms(rows).encode()).hexdigest()


A0_TERMS = parse_terms(A0_TEXT)
A2_TERMS = parse_terms(A2_TEXT)
A4_TERMS = parse_terms(A4_TEXT)

# canonical fingerprints; the test suite recomputes these from the parsed rows
A0_CHECKSUM = table_checksum(A0_TERMS)
A2_CHECKSUM = table_checksum(A2_TERMS)
A4_CHECKSUM = table_checksum(A4_TERMS)
