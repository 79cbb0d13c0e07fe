"""Fingerprints of the package's exact values, float bits and CLI bytes.

Usage: python3 tools/fingerprint.py > fingerprints.json

Prints one JSON object {case: sha256} covering the orbit sums of the 8- and
24-point orbits (trunc 3 at orders 0/2/4, trunc 6 at orders 2 and 4, and the
8-point sums at orders 0/2/4 and the 24-point order-0 sum at trunc 12), of
the 12-point orbit of (0, 1/4) (trunc 6 at orders 0/2/4) and of the 576-point
orbit of (1/3, 1/5) (order 0 at trunc 2), and their values at mu = 1.02,
1.05, 1.1 (the float bits that ``check crossval`` prints), every theta series and q-derivative theta series with
characteristics a/b (b <= 6, 0 <= a < 2b) and their mu-derivatives of order 1
and 2 at trunc 3, each half under its own key,
the float64 and 40-digit values of a0/a2/a4
at four points with the value frames there (w, the F tower (F, F', F'')
and A, each under its own key), the same for the one-parameter family at
two q0, and the stdout bytes and exit codes of a fixed list of CLI requests
run in order on one cache (a repeated request is keyed with " (repeat)"),
with the sorted names of the cache files they leave under "cli cache
entries": a changed cache key is a miss that prints the same bytes, so only
the names show it.
Run it on two trees and compare the outputs to show that a change moves no
value.  It imports the package from the ``src/`` beside it.  On a 2-core
x86-64 VM the run takes about 6 s, 2 s of it the 576-point sum (16 frames);
a tree whose ``orbit_sum`` joins points by sigma_k and -1 alone builds 69
frames there and takes about 80 s, nearly all of it that sum.
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
from bianchi9.instanton import OneParamPoint, TwoParamPoint, frame_one_param_jet, frame_two_param_jet  # noqa: E402
from bianchi9.seeley import CoeffIndex, coefficient, orbit_sum  # noqa: E402
from bianchi9.theta import theta_series  # noqa: E402

ORBITS = {"o24": (F(0), F(1, 3)), "o8": (F(1, 6), F(5, 6)), "o12": (F(0), F(1, 4)), "o576": (F(1, 3), F(1, 5))}
SUMS = [(orb, order, 3) for orb in ("o24", "o8") for order in (0, 2, 4)]
SUMS += [("o24", 2, 6), ("o8", 2, 6), ("o24", 4, 6), ("o8", 4, 6)]
SUMS += [("o8", 0, 12), ("o8", 2, 12), ("o8", 4, 12), ("o24", 0, 12)]
SUMS += [("o12", order, 6) for order in (0, 2, 4)] + [("o576", 0, 2)]
SUM_MUS = (1.02, 1.05, 1.1)
JET_POINTS = ((F(1, 6), F(5, 6)), (F(0), F(1, 3)), (F(1, 3), F(1, 5)), (F(1, 2), F(1, 6)))
ONE_PARAM_Q0 = (F(1, 3), complex(0.5, 0.2))
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
    # the enumeration bytes of three larger orbits: 576, 144 and 11,520 points
    ["orbit", "--p", "1/3", "--q", "1/5"],
    ["orbit", "--p", "2/7", "--q", "3/7"],
    ["orbit", "--p", "1/11", "--q", "1/12"],
    ["theta", "--p", "1/2", "--q", "0", "--series", "--trunc", "4"],
    ["theta", "--p", "4/3", "--q", "6/5", "--n", "2", "--dq", "--mu-re", "1.2", "--mu-im", "0.1"],
    ["theta", "--p", "4/3", "--q", "6/5", "--series", "--n", "3", "--dq", "--trunc", "4"],
    ["theta", "--p", "4/3", "--q", "6/5", "--n", "2", "--mu-re", "1.2", "--mu-im", "0.1"],
    ["theta", "--p", "4/3", "--q", "6/5", "--series", "--n", "2", "--trunc", "4"],
    ["theta", "--p", "0", "--q", "0", "--n", "7"],
    ["check", "crossval", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "6"],
    ["check", "crossval", "--p", "1/6", "--q", "5/6", "--order", "2", "--trunc", "3", "--mu-re", "1.1"],
    ["check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "0", "--samples", "1"],
    ["check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "2", "--samples", "1", "--seed", "3"],
    ["check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "4", "--samples", "1", "--seed", "5"],
    # the 24-point orbit: its 24 points and their p + 1/2 shifts share the most p per batch
    ["check", "transforms", "--p", "0", "--q", "1/3", "--order", "4", "--samples", "1"],
    ["check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re", "1.05"],
    ["check", "dirac", "--p", "0", "--q", "1/3", "--mu-re", "1.05", "--mu-im", "0.001"],
    ["check", "dirac", "--p", "1/6", "--q", "1/2"],
    ["check", "dirac", "--p", "5/6", "--q", "1/2", "--mu-re", "1.1"],
    ["check", "dirac", "--p", "1/2", "--q", "1/2"],
    # refused by the frame (Re mu <= 0): exit 3, empty stdout
    ["check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re=-1.0"],
    # the second run is a cache hit: JSON -> integer form -> JSON
    ["coeff", "--p", "1/6", "--q", "5/6", "--order", "4", "--trunc", "6"],
    ["coeff", "--p", "1/6", "--q", "5/6", "--order", "4", "--trunc", "6"],
    # criterion 3's constants: G14/Delta and Delta G6/G4^4
    ["identify", "--p", "1/6", "--q", "5/6", "--order", "4", "--trunc", "6"],
    ["identify", "--p", "0", "--q", "1/3", "--order", "4", "--trunc", "6"],
    # no identification of the 72-point orbit (exit 4); G14/Delta for the 12-point
    # orbit, and Delta*G6/G4^4 for the 8-point orbit at trunc 12
    ["identify", "--p", "0", "--q", "1/5", "--order", "0", "--trunc", "3"],
    ["identify", "--p", "0", "--q", "1/4", "--order", "2", "--trunc", "6"],
    ["identify", "--p", "1/6", "--q", "5/6", "--order", "2", "--trunc", "12"],
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
        values = [repr(res.representation.evaluate_mu(mu)) for mu in SUM_MUS]
        out[f"sum {orb} a{order} t{trunc} at mu"] = sha(" ".join(values))
    return out


def thetas() -> dict:
    values = [F(a, b) for b in range(1, 7) for a in range(2 * b)]
    theta_docs, dq_docs = [], []
    for p in values:
        for q in values:
            for docs, series in zip((theta_docs, dq_docs), theta_series(p, q, 3)):
                for _ in range(3):
                    docs.append(series.to_json())
                    series = series.mu_derivative()
    return {
        f"theta series x{len(dq_docs)}": sha(canonical(dq_docs)),
        f"theta series (theta halves) x{len(theta_docs)}": sha(canonical(theta_docs)),
    }


def _frame_values(label: str, frame) -> dict:
    parts = {"w": frame.w, "F tower": frame.F_, "A": frame.A}
    # each value as a 1-tuple: the text once hashed from order-0 jets' components
    return {f"{label} frame values {name}": sha(repr([(x,) for x in values])) for name, values in parts.items()}


def jets() -> dict:
    """Coefficient values and the value frames they are read from."""
    out = {}
    for p, q in JET_POINTS:
        pt = TwoParamPoint(p, q)
        frame = frame_two_param_jet(pt, 1.1, 1e-14)
        for n in range(3):
            out[f"float a{2 * n} ({p},{q})"] = sha(repr(coefficient(frame, CoeffIndex(n)).representation[0]))
        out.update(_frame_values(f"float ({p},{q})", frame))
        with mpmath.workdps(40):
            mu = mpmath.mpc(1.03, 0.02)
            frame = frame_two_param_jet(pt, mu, tol=1e-35)
            for n in range(3):
                out[f"mp40 a{2 * n} ({p},{q})"] = sha(repr(coefficient(frame, CoeffIndex(n)).representation[0]))
            out.update(_frame_values(f"mp40 ({p},{q})", frame))
    for q0 in ONE_PARAM_Q0:
        pt = OneParamPoint(q0, C=2.0)
        for mu in (1.1, complex(0.9, 0.3)):
            frame = frame_one_param_jet(pt, mu, 1e-15)
            values = [coefficient(frame, CoeffIndex(n)).representation[0] for n in range(3)]
            out[f"one-param a0/a2/a4 ({q0}) at {mu}"] = sha(repr(values))
            out.update(_frame_values(f"one-param ({q0}) at {mu}", frame))
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
            key = "cli " + " ".join(argv)
            key += " (repeat)" if key in out else ""
            out[key] = f"exit {code} stdout {sha(buf.getvalue())}"
        out["cli cache entries"] = sorted(path.name for path in Path(cache).iterdir())
    return out


def main() -> None:
    doc = {**sums(), **thetas(), **jets(), **cli_requests()}
    print(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
