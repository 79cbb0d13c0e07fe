"""Exact oracle: every output of a benchmark operation is checked here.

Checks raise ``Mismatch`` with a message that names what differs; the runner
records the failure against the operation's name and carries on.

Three sources of truth:

* ``refs.json`` (written by ``make_refs.py``): the exact orbit-sum series in
  their ``to_json`` form, and the exact CLI stdout bytes, for every input a
  seed can generate;
* the identification constants and grades of acceptance criterion 3 and the
  exact Q-expansion coefficients of criterion 2, written out below so that
  they do not depend on ``refs.json``;
* the documented CLI exit codes: 2 bad arguments, 3 domain error,
  5 exceptional orbit.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")

EXIT_INVALID = 2
EXIT_DOMAIN = 3
EXIT_EXCEPTIONAL = 5

# criterion 3: (orbit, order) -> (constant, pi exponent, lambda exponent, target)
IDENTIFICATIONS = {
    ("o24", 0): ("-6081075", -17, -2, "G14/Delta"),
    ("o24", 2): ("6081075", -15, -1, "G14/Delta"),
    ("o24", 4): ("-405405", -13, 0, "G14/Delta"),
    ("o8", 0): ("-114688/3375", 7, -2, "Delta*G6/G4^4"),
    ("o8", 2): ("114688/3375", 9, -1, "Delta*G6/G4^4"),
    ("o8", 4): ("-315392/50625", 11, 0, "Delta*G6/G4^4"),
}

# criterion 2: exact coefficients of Q^e; order 2 is minus order 0
_A0 = {
    "o24": {-1: F(-4, 3), 1: F(262512), 2: F(171950080, 3), 3: F(3457199880)},
    "o8": {1: F(-294912), 2: F(438829056), 3: F(-315542863872)},
}
_A4 = {
    "o24": {1: F(87504, 5), 2: F(34390016, 9), 3: F(230479992)},
    "o8": {1: F(-270336, 5), 2: F(402259968, 5), 3: F(-289247625216, 5)},
}
Q_EXPANSIONS = {
    (orb, order): coeffs
    for orb in ("o24", "o8")
    for order, coeffs in (
        (0, _A0[orb]),
        (2, {e: -c for e, c in _A0[orb].items()}),
        (4, _A4[orb]),
    )
}


class Mismatch(AssertionError):
    """An output differs from its reference."""


def sum_key(orb: str, order: int, trunc: int) -> str:
    return f"{orb}:a{order}:t{trunc}"


def load_refs(path: Path = REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def series_as_rationals(doc: dict) -> dict[int, F]:
    """{integer exponent: rational coefficient} from a rational series' to_json."""
    d = doc["exp_den"]
    out = {}
    for term in doc["terms"]:
        e = F(term["exp"]) * d
        if e.denominator != 1 or any(F(c) != 0 for c in term["coeffs"][1:]):
            raise Mismatch(f"term at Q^{term['exp']} is not a rational integer-exponent term")
        out[int(e) // d] = F(term["coeffs"][0])
    return out


def check_sum(doc: dict, orb: str, order: int, trunc: int, refs: dict) -> None:
    """An orbit-sum series (``to_json`` form) against its exact reference."""
    key = sum_key(orb, order, trunc)
    ref = refs["sums"].get(key)
    if ref is None:
        raise Mismatch(f"no stored reference for {key}")
    if doc["grade"] != ref["grade"] or doc["trunc"] != ref["trunc"]:
        raise Mismatch(
            f"{key}: grade/trunc {doc['grade']}/{doc['trunc']}, expected {ref['grade']}/{ref['trunc']}"
        )
    got, want = series_as_rationals(doc), series_as_rationals(ref)
    for e in sorted(set(got) | set(want)):
        if got.get(e, 0) != want.get(e, 0):
            raise Mismatch(f"{key}: coefficient of Q^{e} is {got.get(e, 0)}, expected {want.get(e, 0)}")
    for e, c in Q_EXPANSIONS[orb, order].items():
        if e < doc["trunc"] and got.get(e, 0) != c:
            raise Mismatch(f"{key}: criterion-2 coefficient of Q^{e} is {got.get(e, 0)}, expected {c}")


def check_identification(doc: dict, orb: str, order: int) -> None:
    """An identification (``to_json(order)`` form) against criterion 3."""
    const, pi_exp, lam_exp, target = IDENTIFICATIONS[orb, order]
    got = (doc.get("constant"), doc.get("pi_exp"), doc.get("lambda_exp"), doc.get("target"))
    if got != (const, pi_exp, lam_exp, target):
        raise Mismatch(
            f"{orb} a{order}: identified {got[0]}*{got[3]} at pi^{got[1]} L^{got[2]}, "
            f"expected {const}*{target} at pi^{pi_exp} L^{lam_exp}"
        )


def evaluate_series(doc: dict, mu: float) -> float:
    """Numeric value at real mu (Lambda = 1) of a rational series, in floats."""
    q = math.exp(-2 * math.pi * mu)
    acc = math.fsum(float(c) * q**e for e, c in series_as_rationals(doc).items())
    return acc * math.pi ** doc["grade"]["pi"]


def check_cli(name: str, code: int, stdout: bytes, expect_code: int, expect_stdout: bytes | None) -> None:
    """Exit code, and stdout bytes when a reference exists (empty on errors)."""
    if code != expect_code:
        raise Mismatch(f"{name}: exit code {code}, expected {expect_code}")
    if expect_stdout is not None and stdout != expect_stdout:
        raise Mismatch(f"{name}: stdout differs from the reference ({len(stdout)} vs {len(expect_stdout)} bytes)")
