"""The a2 and a4 term tables in w_j, F and their mu-derivatives, their reduction, and the Weyl form of a4.

``A2_ORACLE_TEXT`` and ``A4_ORACLE_TEXT`` are the tables as first
transcribed: 17 rows in ``w1 w2 w3 F`` and their mu-derivatives to order 2,
and 201 rows with derivatives to order 4.  The library evaluates
``bianchi9.seeley_terms.A2_TEXT`` and ``A4_TEXT`` instead; the tests keep
these as their oracles.  ``reduce_table`` eliminates every derivative past
F' by a derivation on Laurent monomials with ``Fraction`` coefficients,
using

    w_i' = -w_j w_k + w_i (A_j + A_k)          (Tod-Halphen)
    A_i' = -A_j A_k + A_i (A_j + A_k)          (Halphen)
    F''  = F'^2 / (2 F) - k F^2 w1 w2 w3       (Einstein, k = 4 pi^2 Lambda)

for (i, j, k) cyclic.  It turns the a4 oracle into 125 rows in
``w, A, F, F', k``, whose checksum the tests freeze, and both a2 tables
into -k F^2 w1 w2 w3.  Negative exponents fall only on w_j and F, so the
substitution stays polynomial.

``weyl_table`` expands the library's a4 table from ``P1_TEXT``, the first
of the three forms P_i with C^2 sqrt(g) = 4 (P1^2 + P2^2 + P3^2) / (w1 w2 w3)^5
(see :mod:`bianchi9.seeley_terms`).  The 125 rows and the 64 differ as
polynomials and agree on every frame; the tests hold the 64 to the 201-row
oracle on series and jets.  ``oracle_environment`` gives the derivative
variables the oracles read, and ``eval_rows`` sums the rows of any table on
a frame one at a time.  ``render_terms`` writes rows back in the canonical
text form and ``table_checksum`` is the sha256 of that text, so a table's
rows and its library checksum can be held to each other.

The library's numeric frames hold plain values at mu: w_j and A_j, and F
with its derivatives to ``DEPTH``.  ``jet_frame_two_param`` and
``jet_frame_one_param`` build the same frames as mu-jets of any order, from
the same theta lattice sums, with A_j from ``jet_log_derivative``: the
oracles read fourth derivatives of w and F from them, and the tests
derivatives of w and A.  ``value_frame`` cuts such a frame to the library's
shape, and ``table_jet`` runs a library table on one, giving the
coefficient's jet of order ``frame.order - DEPTH``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from bianchi9 import seeley
from bianchi9.instanton import DEPTH, InstantonFrame
from bianchi9.jets import Jet
from bianchi9.seeley_terms import A0_TERMS, A2_TERMS, A4_TERMS, VARIABLES, parse_terms
from bianchi9.theta import THETA2, THETA3, THETA4, _theta_eval_raw, arithmetic

ORACLE_VARIABLES = (
    ["w1", "w2", "w3", "F"]
    + [f"w{j}d{k}" for j in (1, 2, 3) for k in (1, 2, 3, 4)]
    + [f"Fd{k}" for k in (1, 2, 3, 4)]
)


def render_terms(rows) -> str:
    """The canonical text of a table's rows: the form of the texts in ``bianchi9.seeley_terms``."""
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


A2_ORACLE_TEXT = """
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

A2_ORACLE_TERMS = parse_terms(A2_ORACLE_TEXT, ORACLE_VARIABLES)
A2_ORACLE_CHECKSUM = "8255a69302b8f867bc6458c84d81b5db487780f14b00e11f81a6ed65c2a8d016"

A4_ORACLE_TEXT = """
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

A4_ORACLE_TERMS = parse_terms(A4_ORACLE_TEXT, ORACLE_VARIABLES)
A4_ORACLE_CHECKSUM = "37cd33440b372448f9d6eea41d6dec2b269f3bf2d439fb804f976d5f0a0ec5bc"

# the variables left after the reduction, in VARIABLES order
BASE = tuple(v for v in VARIABLES if v in ("w1", "w2", "w3", "F", "Fd1", "A1", "A2", "A3", "k"))


def _collect(pairs):
    out: dict[tuple, Fraction] = {}
    for mono, c in pairs:
        out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def _mono(c=1, **exps):
    return {tuple(exps.get(v, 0) for v in BASE): Fraction(c)}


def _add(*polys):
    return _collect(pair for p in polys for pair in p.items())


def _mul(a, b):
    return _collect(
        (tuple(x + y for x, y in zip(ma, mb)), ca * cb) for ma, ca in a.items() for mb, cb in b.items()
    )


# d/dmu of each variable left after the reduction
_D = {
    "F": _mono(Fd1=1),
    "Fd1": _add(_mono(Fraction(1, 2), F=-1, Fd1=2), _mono(-1, w1=1, w2=1, w3=1, F=2, k=1)),
    "k": {},
}
for _i, _j, _k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    for _x in "wA":
        _D[f"{_x}{_i}"] = _add(
            _mono(-1, **{f"{_x}{_j}": 1, f"{_x}{_k}": 1}),
            _mono(**{f"{_x}{_i}": 1, f"A{_j}": 1}),
            _mono(**{f"{_x}{_i}": 1, f"A{_k}": 1}),
        )


def derive(p):
    """d/dmu of a Laurent polynomial in BASE, by the Leibniz rule."""
    pairs = []
    for mono, c in p.items():
        for pos, e in enumerate(mono):
            if e:
                lowered = mono[:pos] + (e - 1,) + mono[pos + 1 :]
                pairs += _mul({lowered: c * e}, _D[BASE[pos]]).items()
    return _collect(pairs)


def _substitute(var):
    """An oracle variable in BASE: w_jdn and Fdn are the n-th derivatives of w_j and F."""
    name, _, n = var.partition("d")
    p = _mono(**{name: 1})
    for _ in range(int(n or 0)):
        p = derive(p)
    return p


def _power(p, e):
    if e < 0:  # only w_j and F carry negative exponents, and they are monomials
        ((mono, c),) = p.items()
        return {tuple(x * e for x in mono): c**e}
    out = _mono()
    for _ in range(e):
        out = _mul(out, p)
    return out


def reduce_table(rows):
    """The rows with every derivative eliminated, in the canonical order of
    ``bianchi9.seeley_terms``: variables and rows sorted by their exponents
    read in VARIABLES order."""
    total = {}
    for c, mono in rows:
        term = _mono(c)
        for var, e in mono.items():
            term = _mul(term, _power(_substitute(var), e))
        total = _add(total, term)
    return _rows(total)


def _poly(rows):
    return _add(*(_mono(c, **mono) for c, mono in rows))


def _rows(poly):
    return [(c, {v: e for v, e in zip(BASE, mono) if e}) for mono, c in sorted(poly.items())]


def collect_rows(rows):
    """The rows with like monomials merged and zeros dropped, in canonical order."""
    return _rows(_poly(rows))


# P1 of the self-dual Weyl tensor; P2 and P3 are its images under 1 -> 2 -> 3
P1_TEXT = """
-2 w2^4 w3^4
+1 w1 w2^3 w3^3 A3
+1 w1 w2^3 w3^3 A2
-2 w1 w2^3 w3^3 A1
+1 w1^2 w2^2 w3^4
+1 w1^2 w2^4 w3^2
-1 w1^3 w2 w3^3 A3
+1 w1^3 w2 w3^3 A2
+1 w1^3 w2^3 w3 A3
-1 w1^3 w2^3 w3 A2
+1 w1^4 w3^4
-2 w1^4 w2^2 w3^2
+1 w1^4 w2^4
"""

_CYCLE = {"w1": "w2", "w2": "w3", "w3": "w1", "A1": "A2", "A2": "A3", "A3": "A1"}


def weyl_forms():
    """P1, P2, P3 as row tables."""
    forms = [collect_rows(parse_terms(P1_TEXT))]
    for _ in range(2):
        forms.append(collect_rows([(c, {_CYCLE.get(v, v): e for v, e in mono.items()}) for c, mono in forms[-1]]))
    return forms


def weyl_table():
    """-(7/90) (P1^2 + P2^2 + P3^2) (w1 w2 w3)^-5 + (11/240) k^2 F^2 w1 w2 w3, expanded."""
    total = _mono(Fraction(11, 240), w1=1, w2=1, w3=1, F=2, k=2)
    for form in map(_poly, weyl_forms()):
        total = _add(total, _mul(_mul(form, form), _mono(Fraction(-7, 90), w1=-5, w2=-5, w3=-5)))
    return _rows(total)


def oracle_environment(frame):
    """w_j, F and their mu-derivatives to order 4, as ``eval_rows`` takes
    them; jets are lowered to order frame.order - 4."""
    env = {}
    series = frame.mode == "series"
    for name, x in zip(("w1", "w2", "w3", "F"), (*frame.w, frame.F_[0] if series else frame.F_)):
        if series:
            tower = [x]
            for _ in range(4):
                tower.append(tower[-1].mu_derivative())
        else:
            target = frame.order - 4
            tower = [Jet(x.comps[k : k + target + 1]) for k in range(5)]
        for k, value in enumerate(tower):
            env[f"{name}d{k}" if k else name] = value
    return env


def eval_rows(rows, env):
    """Sum the table rows one at a time, with a per-variable power cache.

    This is the evaluator the compiled programs of ``bianchi9.seeley`` are
    checked against.  Float values and jets are summed by ``math.fsum`` per
    component: the monomials cancel massively (sums ~1e3 x the result), and an
    exactly rounded final summation buys several digits.
    """
    cache: dict[tuple[str, int], object] = {}

    def power(var, n):
        key = (var, n)
        if key not in cache:
            if n >= 2:
                cache[key] = power(var, n - 1) * env[var]
            elif n <= -2:
                cache[key] = power(var, n + 1) * power(var, -1)
            else:
                cache[key] = env[var] ** n
        return cache[key]

    parts = []
    for coeff, mono in rows:
        cur = None
        for var, n in mono.items():
            p = power(var, n)
            cur = p if cur is None else cur * p
        # a Fraction scalar gives the same bits as complex() or mpmathify()
        parts.append(cur * coeff)
    fsum = lambda xs: complex(math.fsum(x.real for x in xs), math.fsum(x.imag for x in xs))  # noqa: E731
    if isinstance(parts[0], complex):
        return fsum(parts)
    if isinstance(parts[0], Jet) and isinstance(parts[0].comps[0], complex):
        return Jet(tuple(fsum([p.comps[k] for p in parts]) for k in range(parts[0].order + 1)))
    total = parts[0]
    for cur in parts[1:]:
        total = total + cur
    return total


@dataclass(frozen=True)
class JetFrame:
    """A numeric frame of mu-jets: w_j, F and A_j to one order, and k."""

    w: tuple
    F_: Jet
    A: tuple
    k: object
    mode = "jet"

    @property
    def order(self) -> int:
        return self.F_.order


def jet_log_derivative(a: Jet) -> Jet:
    """The jet of a'/a, one order lower (the top derivative is unknown)."""
    k = a.order
    return Jet(a.comps[1:]) / Jet(a.comps[:k])


def coordinate_jet(mu, order: int) -> Jet:
    """The coordinate function mu itself."""
    return Jet(((mu, 1.0 + 0j) + (0j,) * order)[: order + 1])


def theta_jet(p, q, mu, order: int, tol: float) -> tuple[Jet, Jet]:
    """Jets of theta[p,q](i mu) and d_q theta[p,q](i mu) from one walk for both functions:
    component j is the j-th mu-derivative."""
    return tuple(Jet(comps) for comps in _theta_eval_raw(p, (q,), mu, ((order + 1, order + 1),), tol)[0])


def _theta_constant_jets(mu, order, tol):
    """(th2, th3, th4) and (A1, A2, A3) as jets of the given order, one lattice
    pass per theta at order + 1 (the log-derivative costs one)."""
    thetas = [theta_jet(*char, mu, order + 1, tol)[0] for char in (THETA2, THETA3, THETA4)]
    return [Jet(th.comps[:-1]) for th in thetas], tuple(2 * jet_log_derivative(th) for th in thetas)


def jet_frame_two_param(pt, mu, tol: float = 1e-12, order: int = 4) -> JetFrame:
    """The frame of ``bianchi9.instanton.frame_two_param_jet`` as jets of the given order."""
    if pt.is_degenerate():
        raise ValueError(f"degenerate parameter point ({pt.p}, {pt.q})")
    p, q = pt.p, pt.q
    half = Fraction(1, 2)
    mu, pi, exp, num, _, _ = arithmetic(mu)
    e_pip = exp(1j * pi * num(p))
    (th2, th3, th4), A = _theta_constant_jets(mu, order, tol)
    tpq, dtpq = theta_jet(p, q, mu, order, tol)
    w1 = th3 * th4 * theta_jet(p, q + half, mu, order, tol)[1] / tpq * (-0.5j / e_pip)
    w2 = th2 * th4 * theta_jet(p + half, q + half, mu, order, tol)[1] / tpq * (0.5j / e_pip)
    w3 = th2 * th3 * theta_jet(p + half, q, mu, order, tol)[1] / tpq * (-0.5)
    F = (tpq / dtpq) ** 2 * (2 / pi)
    return JetFrame((w1, w2, w3), F, A, 4 * pi**2)


def jet_frame_one_param(pt, mu, tol: float = 1e-12, order: int = 4) -> JetFrame:
    """The frame of ``bianchi9.instanton.frame_one_param_jet`` as jets of the given order."""
    mu = arithmetic(mu)[0]
    q0 = complex(pt.q0)
    pole = 1 / (coordinate_jet(mu, order) + q0)
    A = _theta_constant_jets(mu, order, tol)[1]
    C = float(pt.C)
    f_comps = [C * (mu + q0) ** 2, 2 * C * (mu + q0), 2 * C + 0j] + [0j] * (order - 2)
    return JetFrame(tuple(pole + a for a in A), Jet(f_comps[: order + 1]), A, 0)


def value_frame(frame: JetFrame) -> InstantonFrame:
    """The library's shape of a jet frame: values, and F's tower to DEPTH."""
    w, A = (tuple(x[0] for x in xs) for xs in (frame.w, frame.A))
    return InstantonFrame("jet", w, frame.F_.comps[: DEPTH + 1], A, frame.k)


def table_jet(frame: JetFrame, n: int) -> Jet:
    """The library's compiled a_{2n} table run on a jet frame: each derivative
    variable is the shifted jet, everything lowered to order frame.order - DEPTH."""
    m = frame.order - DEPTH
    lower = lambda x, d=0: Jet(x.comps[d : d + m + 1])  # noqa: E731
    env = dict(zip(("w1", "w2", "w3", "A1", "A2", "A3"), map(lower, (*frame.w, *frame.A))), k=frame.k)
    env.update(F=lower(frame.F_), Fd1=lower(frame.F_, 1), Fd2=lower(frame.F_, 2))
    return seeley._eval_terms(seeley._compile((A0_TERMS, A2_TERMS, A4_TERMS)[n]), env)
