#!/usr/bin/env python3
"""Write refs.json: the exact outputs every benchmark input is checked against.

Usage, from the root of a checkout: python3 perfbench/make_refs.py

The orbit sums and CLI stdout bytes are computed by the program at the
checked-out commit, for every input ``workloads.referenced_sums`` and
``workloads.referenced_cli`` list.  Before anything is written, each sum is
checked against the criterion-2 coefficients and its identification against
the criterion-3 constants in ``oracle.py``, which do not come from the
program.  Takes a few minutes: the order-4 truncation-6 sum over the
24-point orbit alone takes about 40 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from bianchi9 import modular, seeley  # noqa: E402


def main() -> None:
    refs: dict = {"sums": {}, "cli": {}}
    for orb, order, trunc in workloads.referenced_sums():
        p, q = workloads.ORBITS[orb]
        o = modular.orbit(Fraction(p), Fraction(q))
        res = seeley.orbit_sum(o, seeley.CoeffIndex(order // 2), trunc)
        key = oracle.sum_key(orb, order, trunc)
        refs["sums"][key] = res.representation.to_json()
        oracle.check_sum(refs["sums"][key], orb, order, trunc, refs)
        oracle.check_identification(modular.identify(res, o).to_json(order), orb, order)
        print(key, file=sys.stderr)
    with tempfile.TemporaryDirectory() as cache:
        for key, args in workloads.referenced_cli().items():
            proc = subprocess.run(
                [sys.executable, "-m", "bianchi9.cli", "--cache-dir", cache] + args,
                cwd=ROOT,
                env=workloads.cli_env(ROOT),
                stdout=subprocess.PIPE,
                check=True,
            )
            refs["cli"][key] = proc.stdout.decode()
            print(key, file=sys.stderr)
    for key, text in refs["cli"].items():
        kind, orb, *rest = key.split(":")
        if kind == "identify":
            oracle.check_identification(json.loads(text), orb, int(rest[0][1:]))
    with open(oracle.REFS_PATH, "w") as fh:
        json.dump(refs, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
