"""Closed-form term tables for the heat-trace coefficients a0, a2 and a4.

Each table is data, not code: a list of rows ``(coefficient, monomial)`` where
the monomial maps variable names to integer exponents (possibly negative).
Variables are ``w1 w2 w3 F`` and their mu-derivatives ``w1d1 .. w3d4``,
``Fd1 .. Fd4``.  The source text below is the canonical form; ``parse_terms``
builds the rows, ``render_terms`` regenerates the text for auditing, and
``table_checksum`` fingerprints the canonical rendering so accidental edits
are caught by the tests.

a0 = 4 F^2 w1 w2 w3 is the one-row table ``A0_TEXT``, so all three
coefficients go through the same evaluator.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

A0_TEXT = """
+4 F^2 w1 w2 w3
"""

A2_TEXT = """
-1/3 F w1^2
-1/3 F w2^2
-1/3 F w3^2
+1/6 F w1^2 w2^2 w3^-2
-1/6 F w3d1^2 w3^-2
+1/6 F w1^2 w3^2 w2^-2
-1/6 F w2d1^2 w2^-2
+1/6 F w2^2 w3^2 w1^-2
-1/6 F w1d1^2 w1^-2
-1/3 F w1d1 w2d1 w1^-1 w2^-1
-1/3 F w1d1 w3d1 w1^-1 w3^-1
-1/3 F w2d1 w3d1 w2^-1 w3^-1
+1/3 F w1d2 w1^-1
+1/3 F w2d2 w2^-1
+1/3 F w3d2 w3^-1
-1/2 Fd1^2 F^-1
+1 Fd2
"""

A4_TEXT = """
-1/15 w1^3 w2^3 w3^-5
-1/15 w1^3 w3^3 w2^-5
-1/15 w2^3 w3^3 w1^-5
+1/15 w1^3 w2 w3^-3
+1/15 w1 w2^3 w3^-3
+1/15 w1^3 w3 w2^-3
+1/15 w2^3 w3 w1^-3
+1/15 w1 w3^3 w2^-3
+1/15 w2 w3^3 w1^-3
-1/15 w1 w2 w3^-1
-1/15 w1 w3 w2^-1
-1/15 w2 w3 w1^-1
-1/15 w2 w1d1^2 w1^-1 w3^-3
-1/15 w3 w1d1^2 w1^-1 w2^-3
-1/15 w3 w2d1^2 w1^-3 w2^-1
-1/15 w1 w2d1^2 w2^-1 w3^-3
-1/15 w1 w3d1^2 w2^-3 w3^-1
-1/15 w2 w3d1^2 w1^-3 w3^-1
+2/15 w1d1^2 w1^-1 w2^-1 w3^-1
+2/15 w2d1^2 w1^-1 w2^-1 w3^-1
+2/15 w3d1^2 w1^-1 w2^-1 w3^-1
-1/18 w2 w1d1^2 w1^-3 w3^-1
-1/18 w3 w1d1^2 w1^-3 w2^-1
-1/18 w1 w2d1^2 w2^-3 w3^-1
-1/18 w3 w2d1^2 w1^-1 w2^-3
-1/18 w1 w3d1^2 w2^-1 w3^-3
-1/18 w2 w3d1^2 w1^-1 w3^-3
-1/18 w2 w3 w1d1^2 w1^-5
-1/18 w1 w3 w2d1^2 w2^-5
-1/18 w1 w2 w3d1^2 w3^-5
-31/90 w1d1^4 w1^-5 w2^-1 w3^-1
-31/90 w2d1^4 w1^-1 w2^-5 w3^-1
-31/90 w3d1^4 w1^-1 w2^-1 w3^-5
-7/60 w1d1 w2d1 w3^-3
-7/60 w1d1 w3d1 w2^-3
-7/60 w2d1 w3d1 w1^-3
-1/45 w1d1 w2d1 w1^-2 w3^-1
-1/45 w1d1 w2d1 w2^-2 w3^-1
-1/45 w2d1 w3d1 w1^-1 w3^-2
+5/36 w3 w1d1 w2d1 w1^-4
+5/36 w3 w1d1 w2d1 w2^-4
+5/36 w2 w1d1 w3d1 w1^-4
+5/36 w2 w1d1 w3d1 w3^-4
+5/36 w1 w2d1 w3d1 w2^-4
+5/36 w1 w2d1 w3d1 w3^-4
+7/90 w3 w1d1 w2d1 w1^-2 w2^-2
+7/90 w2 w1d1 w3d1 w1^-2 w3^-2
+7/90 w1 w2d1 w3d1 w2^-2 w3^-2
-41/180 w1d1^3 w2d1 w1^-4 w2^-2 w3^-1
-41/180 w1d1 w2d1^3 w1^-2 w2^-4 w3^-1
-41/180 w1d1^3 w3d1 w1^-4 w2^-1 w3^-2
-41/180 w1d1 w3d1^3 w1^-2 w2^-1 w3^-4
-41/180 w2d1 w3d1^3 w1^-1 w2^-2 w3^-4
-41/180 w2d1^3 w3d1 w1^-1 w2^-4 w3^-2
-23/90 w1d1^2 w2d1^2 w1^-3 w2^-3 w3^-1
-23/90 w1d1^2 w3d1^2 w1^-3 w2^-1 w3^-3
-23/90 w2d1^2 w3d1^2 w1^-1 w2^-3 w3^-3
-1/45 w1d1 w3d1 w1^-2 w2^-1
-1/45 w1d1 w3d1 w2^-1 w3^-2
-1/45 w2d1 w3d1 w1^-1 w2^-2
-91/180 w1d1^2 w2d1 w3d1 w1^-3 w2^-2 w3^-2
-91/180 w1d1 w2d1^2 w3d1 w1^-2 w2^-3 w3^-2
-91/180 w1d1 w2d1 w3d1^2 w1^-2 w2^-2 w3^-3
+1/24 w2 w1d2 w3^-3
+1/24 w3 w1d2 w2^-3
+1/24 w1 w2d2 w3^-3
+1/24 w3 w2d2 w1^-3
+1/24 w1 w3d2 w2^-3
+1/24 w2 w3d2 w1^-3
-1/12 w1d2 w2^-1 w3^-1
-1/12 w2d2 w1^-1 w3^-1
-1/12 w3d2 w1^-1 w2^-1
+1/36 w2 w1d2 w1^-2 w3^-1
+1/36 w3 w1d2 w1^-2 w2^-1
+1/36 w1 w2d2 w2^-2 w3^-1
-5/72 w2 w3 w1d2 w1^-4
-5/72 w1 w3 w2d2 w2^-4
-5/72 w1 w2 w3d2 w3^-4
+5/8 w1d1^2 w1d2 w1^-4 w2^-1 w3^-1
+5/8 w2d1^2 w2d2 w1^-1 w2^-4 w3^-1
+5/8 w3d1^2 w3d2 w1^-1 w2^-1 w3^-4
+71/180 w1d1 w2d1 w1d2 w1^-3 w2^-2 w3^-1
+71/180 w1d1 w2d1 w2d2 w1^-2 w2^-3 w3^-1
+71/180 w1d1 w3d1 w1d2 w1^-3 w2^-1 w3^-2
+71/180 w1d1 w3d1 w3d2 w1^-2 w2^-1 w3^-3
+71/180 w2d1 w3d1 w3d2 w1^-1 w2^-2 w3^-3
+71/180 w2d1 w3d1 w2d2 w1^-1 w2^-3 w3^-2
+41/360 w2d1^2 w1d2 w1^-2 w2^-3 w3^-1
+41/360 w3d1^2 w1d2 w1^-2 w2^-1 w3^-3
+41/360 w2d1^2 w3d2 w1^-1 w2^-3 w3^-2
+41/360 w3d1^2 w2d2 w1^-1 w2^-2 w3^-3
+41/360 w1d1^2 w2d2 w1^-3 w2^-2 w3^-1
+41/360 w1d1^2 w3d2 w1^-3 w2^-1 w3^-2
+11/36 w2d1 w3d1 w1d2 w1^-2 w2^-2 w3^-2
+11/36 w1d1 w3d1 w2d2 w1^-2 w2^-2 w3^-2
+11/36 w1d1 w2d1 w3d2 w1^-2 w2^-2 w3^-2
-1/6 w1d2^2 w1^-3 w2^-1 w3^-1
-1/6 w2d2^2 w1^-1 w2^-3 w3^-1
-1/6 w3d2^2 w1^-1 w2^-1 w3^-3
+1/36 w3 w2d2 w1^-1 w2^-2
+1/36 w1 w3d2 w2^-1 w3^-2
+1/36 w2 w3d2 w1^-1 w3^-2
-1/15 w1d2 w2d2 w1^-2 w2^-2 w3^-1
-1/15 w2d2 w3d2 w1^-1 w2^-2 w3^-2
-1/15 w1d2 w3d2 w1^-2 w2^-1 w3^-2
-1/6 w1d1 w1d3 w1^-3 w2^-1 w3^-1
-1/6 w2d1 w2d3 w1^-1 w2^-3 w3^-1
-1/6 w3d1 w3d3 w1^-1 w2^-1 w3^-3
-1/10 w2d1 w1d3 w1^-2 w2^-2 w3^-1
-1/10 w3d1 w1d3 w1^-2 w2^-1 w3^-2
-1/10 w1d1 w2d3 w1^-2 w2^-2 w3^-1
-1/10 w3d1 w2d3 w1^-1 w2^-2 w3^-2
-1/10 w1d1 w3d3 w1^-2 w2^-1 w3^-2
-1/10 w2d1 w3d3 w1^-1 w2^-2 w3^-2
+1/30 w1d4 w1^-2 w2^-1 w3^-1
+1/30 w2d4 w1^-1 w2^-2 w3^-1
+1/30 w3d4 w1^-1 w2^-1 w3^-2
-1/72 w1 w2 Fd1^2 F^-2 w3^-3
+1/36 w1 Fd1^2 F^-2 w2^-1 w3^-1
+1/36 w2 Fd1^2 F^-2 w1^-1 w3^-1
-1/72 w1 w3 Fd1^2 F^-2 w2^-3
+1/36 w3 Fd1^2 F^-2 w1^-1 w2^-1
-1/72 w2 w3 Fd1^2 F^-2 w1^-3
-13/24 Fd1^4 F^-4 w1^-1 w2^-1 w3^-1
+1/72 Fd1 w2 w1d1 F^-1 w3^-3
-1/36 Fd1 w1d1 F^-1 w2^-1 w3^-1
+1/36 Fd1 w2 w1d1 F^-1 w1^-2 w3^-1
+1/72 Fd1 w3 w1d1 F^-1 w2^-3
+1/36 Fd1 w3 w1d1 F^-1 w1^-2 w2^-1
-1/24 Fd1 w2 w3 w1d1 F^-1 w1^-4
-41/120 Fd1^3 w1d1 F^-3 w1^-2 w2^-1 w3^-1
-53/360 Fd1^2 w1d1^2 F^-2 w1^-3 w2^-1 w3^-1
+1/24 Fd1 w1d1^3 F^-1 w1^-4 w2^-1 w3^-1
+1/72 Fd1 w1 w2d1 F^-1 w3^-3
-1/36 Fd1 w2d1 F^-1 w1^-1 w3^-1
+1/36 Fd1 w1 w2d1 F^-1 w2^-2 w3^-1
+1/72 Fd1 w3 w2d1 F^-1 w1^-3
-1/24 Fd1 w1 w3 w2d1 F^-1 w2^-4
+1/36 Fd1 w3 w2d1 F^-1 w1^-1 w2^-2
-41/120 Fd1^3 w2d1 F^-3 w1^-1 w2^-2 w3^-1
-23/90 Fd1^2 w1d1 w2d1 F^-2 w1^-2 w2^-2 w3^-1
-7/40 Fd1 w1d1^2 w2d1 F^-1 w1^-3 w2^-2 w3^-1
-53/360 Fd1^2 w2d1^2 F^-2 w1^-1 w2^-3 w3^-1
-7/40 Fd1 w1d1 w2d1^2 F^-1 w1^-2 w2^-3 w3^-1
+1/24 Fd1 w2d1^3 F^-1 w1^-1 w2^-4 w3^-1
+1/72 Fd1 w1 w3d1 F^-1 w2^-3
-1/36 Fd1 w3d1 F^-1 w1^-1 w2^-1
+1/72 Fd1 w2 w3d1 F^-1 w1^-3
-1/24 Fd1 w1 w2 w3d1 F^-1 w3^-4
+1/36 Fd1 w1 w3d1 F^-1 w2^-1 w3^-2
+1/36 Fd1 w2 w3d1 F^-1 w1^-1 w3^-2
-41/120 Fd1^3 w3d1 F^-3 w1^-1 w2^-1 w3^-2
-23/90 Fd1^2 w1d1 w3d1 F^-2 w1^-2 w2^-1 w3^-2
-7/40 Fd1 w1d1^2 w3d1 F^-1 w1^-3 w2^-1 w3^-2
-23/90 Fd1^2 w2d1 w3d1 F^-2 w1^-1 w2^-2 w3^-2
-17/60 Fd1 w1d1 w2d1 w3d1 F^-1 w1^-2 w2^-2 w3^-2
-7/40 Fd1 w2d1^2 w3d1 F^-1 w1^-1 w2^-3 w3^-2
-53/360 Fd1^2 w3d1^2 F^-2 w1^-1 w2^-1 w3^-3
-7/40 Fd1 w1d1 w3d1^2 F^-1 w1^-2 w2^-1 w3^-3
-7/40 Fd1 w2d1 w3d1^2 F^-1 w1^-1 w2^-2 w3^-3
+1/24 Fd1 w3d1^3 F^-1 w1^-1 w2^-1 w3^-4
+1/72 w1 w2 Fd2 F^-1 w3^-3
-1/36 w1 Fd2 F^-1 w2^-1 w3^-1
-1/36 w2 Fd2 F^-1 w1^-1 w3^-1
+1/72 w1 w3 Fd2 F^-1 w2^-3
-1/36 w3 Fd2 F^-1 w1^-1 w2^-1
+1/72 w2 w3 Fd2 F^-1 w1^-3
+137/120 Fd1^2 Fd2 F^-3 w1^-1 w2^-1 w3^-1
+101/180 Fd1 Fd2 w1d1 F^-2 w1^-2 w2^-1 w3^-1
+67/360 Fd2 w1d1^2 F^-1 w1^-3 w2^-1 w3^-1
+101/180 Fd1 Fd2 w2d1 F^-2 w1^-1 w2^-2 w3^-1
+53/180 w1d1 w2d1 Fd2 F^-1 w1^-2 w2^-2 w3^-1
+67/360 w2d1^2 Fd2 F^-1 w1^-1 w2^-3 w3^-1
+101/180 Fd1 Fd2 w3d1 F^-2 w1^-1 w2^-1 w3^-2
+53/180 w1d1 w3d1 Fd2 F^-1 w1^-2 w2^-1 w3^-2
+53/180 w2d1 w3d1 Fd2 F^-1 w1^-1 w2^-2 w3^-2
+67/360 w3d1^2 Fd2 F^-1 w1^-1 w2^-1 w3^-3
-3/10 Fd2^2 F^-2 w1^-1 w2^-1 w3^-1
+41/360 Fd1^2 w1d2 F^-2 w1^-2 w2^-1 w3^-1
+7/180 Fd1 w1d1 w1d2 F^-1 w1^-3 w2^-1 w3^-1
+23/180 Fd1 w2d1 w1d2 F^-1 w1^-2 w2^-2 w3^-1
+23/180 Fd1 w3d1 w1d2 F^-1 w1^-2 w2^-1 w3^-2
-2/15 Fd2 w1d2 F^-1 w1^-2 w2^-1 w3^-1
+41/360 Fd1^2 w2d2 F^-2 w1^-1 w2^-2 w3^-1
+23/180 Fd1 w1d1 w2d2 F^-1 w1^-2 w2^-2 w3^-1
+7/180 Fd1 w2d1 w2d2 F^-1 w1^-1 w2^-3 w3^-1
+23/180 Fd1 w3d1 w2d2 F^-1 w1^-1 w2^-2 w3^-2
-2/15 Fd2 w2d2 F^-1 w1^-1 w2^-2 w3^-1
+41/360 Fd1^2 w3d2 F^-2 w1^-1 w2^-1 w3^-2
+23/180 Fd1 w1d1 w3d2 F^-1 w1^-2 w2^-1 w3^-2
+23/180 Fd1 w2d1 w3d2 F^-1 w1^-1 w2^-2 w3^-2
+7/180 Fd1 w3d1 w3d2 F^-1 w1^-1 w2^-1 w3^-3
-2/15 Fd2 w3d2 F^-1 w1^-1 w2^-1 w3^-2
-2/5 Fd1 Fd3 F^-2 w1^-1 w2^-1 w3^-1
-1/5 w1d1 Fd3 F^-1 w1^-2 w2^-1 w3^-1
-1/5 w2d1 Fd3 F^-1 w1^-1 w2^-2 w3^-1
-1/5 w3d1 Fd3 F^-1 w1^-1 w2^-1 w3^-2
-1/30 Fd1 w1d3 F^-1 w1^-2 w2^-1 w3^-1
-1/30 Fd1 w2d3 F^-1 w1^-1 w2^-2 w3^-1
-1/30 Fd1 w3d3 F^-1 w1^-1 w2^-1 w3^-2
+1/10 Fd4 F^-1 w1^-1 w2^-1 w3^-1
"""

VARIABLES = (
    ["w1", "w2", "w3", "F"]
    + [f"w{j}d{k}" for j in (1, 2, 3) for k in (1, 2, 3, 4)]
    + [f"Fd{k}" for k in (1, 2, 3, 4)]
)


def parse_terms(text: str) -> list[tuple[Fraction, dict[str, int]]]:
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
            if var not in VARIABLES:
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
