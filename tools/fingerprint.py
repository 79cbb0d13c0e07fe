"""Fingerprints of the package's exact values, float bits and CLI bytes.

Usage: python3 tools/fingerprint.py > fingerprints.json

Prints one JSON object {case: sha256} covering the orbit sums of both
orbits (trunc 3 at orders 0/2/4, the trunc-6 8-point order-4 sum and the
three trunc-12 sums), every q-derivative theta series with characteristics
a/b (b <= 6, 0 <= a < 2b) and mu-order 0..2 at trunc 3, float64 and
40-digit a0/a2/a4 jets at four points, and the stdout bytes and exit codes
of a fixed list of CLI requests.  Run it on two trees and compare the
outputs to show that a change moves no value.  It imports the package from
the ``src/`` beside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mpmath  # noqa: E402

from bianchi9 import cli, modular  # noqa: E402
from bianchi9.instanton import TwoParamPoint, frame_two_param_jet  # noqa: E402
from bianchi9.seeley import CoeffIndex, coefficient, orbit_sum  # noqa: E402
from bianchi9.theta import Characteristics, ThetaSpec, theta_series  # noqa: E402

ORBITS = {"o24": (F(0), F(1, 3)), "o8": (F(1, 6), F(5, 6))}
SUMS = [(orb, order, 3) for orb in ORBITS for order in (0, 2, 4)]
SUMS += [("o8", 4, 6), ("o8", 0, 12), ("o8", 2, 12), ("o24", 0, 12)]
JET_POINTS = ((F(1, 6), F(5, 6)), (F(0), F(1, 3)), (F(1, 3), F(1, 5)), (F(1, 2), F(1, 6)))
CLI_REQUESTS = [
    ["coeff", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "3"],
    ["coeff", "--p", "1/6", "--q", "5/6", "--order", "2", "--trunc", "3"],
    ["coeff", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "3"],
    ["identify", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "3"],
    ["identify", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "4"],
    ["identify", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "2"],
    ["orbit", "--p", "1/6", "--q", "5/6"],
    ["orbit", "--p", "0", "--q", "1/3"],
    ["orbit", "--p", "1/2", "--q", "1/2"],
    ["orbit", "--p", "x/3", "--q", "0"],
    ["theta", "--p", "1/2", "--q", "0", "--series", "--trunc", "4"],
    ["theta", "--p", "4/3", "--q", "6/5", "--n", "2", "--dq", "--mu-re", "1.2", "--mu-im", "0.1"],
    ["theta", "--p", "0", "--q", "0", "--n", "7"],
    ["check", "crossval", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "6"],
    ["check", "crossval", "--p", "1/6", "--q", "5/6", "--order", "2", "--trunc", "3", "--mu-re", "1.1"],
    ["check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "0", "--samples", "1"],
    ["check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re", "1.05"],
    ["check", "dirac", "--p", "0", "--q", "1/3", "--mu-re", "1.05", "--mu-im", "0.001"],
    ["check", "dirac", "--p", "1/6", "--q", "1/2"],
    ["check", "dirac", "--p", "1/2", "--q", "1/2"],
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def sums() -> dict:
    out = {}
    for orb, order, trunc in SUMS:
        res = orbit_sum(modular.orbit(*ORBITS[orb]), CoeffIndex(order // 2), trunc)
        out[f"sum {orb} a{order} t{trunc}"] = sha(canonical(res.to_json()))
    return out


def thetas() -> dict:
    values = [F(a, b) for b in range(1, 7) for a in range(2 * b)]
    docs = [
        theta_series(ThetaSpec(Characteristics(p, q), n, True), 3).to_json()
        for p in values
        for q in values
        for n in range(3)
    ]
    return {f"theta series x{len(docs)}": sha(canonical(docs))}


def jets() -> dict:
    out = {}
    for p, q in JET_POINTS:
        pt = TwoParamPoint(p, q)
        frame = frame_two_param_jet(pt, 1.1, 1e-14)
        comps = [coefficient(frame, CoeffIndex(n)).representation.comps for n in range(3)]
        out[f"float jets ({p},{q})"] = sha(repr(comps))
        with mpmath.workdps(40):
            frame = frame_two_param_jet(pt, mpmath.mpc(1.03, 0.02), tol=1e-35)
            comps = [coefficient(frame, CoeffIndex(n)).representation.comps for n in range(3)]
            out[f"mp40 jets ({p},{q})"] = sha(repr(comps))
    return out


def cli_requests() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as cache:
        for argv in CLI_REQUESTS:
            buf = io.StringIO()
            code = 0
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(["--cache-dir", cache] + argv)
                except SystemExit as exc:
                    code = exc.code
            out["cli " + " ".join(argv)] = f"exit {code} stdout {sha(buf.getvalue())}"
    return out


def main() -> None:
    doc = {**sums(), **thetas(), **jets(), **cli_requests()}
    print(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
