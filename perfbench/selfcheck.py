#!/usr/bin/env python3
"""The benchmark's own test.  Run it directly; pytest does not collect it.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--workload W ...] [--seed N]

1. Inputs: two seeds generate different operations for each workload (their
   names state what they compute: reference key, frames evaluated, mu,
   CLI arguments), and every reference those operations need is stored in
   refs.json.  Every metric a run prints is listed in BENCHMARK.json with the
   same unit.
2. Counts: two traced runs (``run.py --trace 1``) of one seed report the
   same machine-independent counts, exactly, and no failed operation.
3. Split: the traced shares agree with the split measured by hand when the
   benchmark was defined: ``seeley.a4_s`` is most of the traced pass on
   exact-table, ``theta.lattice_s`` most of it on numeric-jets,
   ``series.invert_s`` a much larger share on exact-deep than on
   exact-table, and no ``series`` activity on numeric-jets.  A change that
   moves these shares on purpose updates this check with it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

EXACT_UNITS = ("count", "terms", "B")
EXACT_NAMES = ("cli.hit_ratio",)


def check_inputs(workload: str, seeds=(1, 2)) -> list[str]:
    refs = oracle.load_refs()
    stored = set(refs["sums"]) | set(refs["cli"])
    problems, passes = [], []
    for seed in seeds:
        (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as tmp:
            ctx = workloads.setup(workload, ROOT, seed, Path(tmp))
            passes.append([[op.name for op in workloads.make_pass(ctx, k)] for k in range(workloads.MAX_PASSES)])
        missing = workloads.reference_keys(ctx) - stored
        if missing:
            problems.append(f"{workload} seed {seed}: no reference for {sorted(missing)}")
    if passes[0] == passes[1]:
        problems.append(f"{workload}: seeds {seeds} generate the same inputs")
    return problems


def run_json(workload: str, seed: int, *extra: str) -> tuple[dict, dict]:
    """(provenance line, result line) of one run.py invocation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=600)
    *_, info, result = proc.stdout.decode().strip().splitlines()
    return json.loads(info), json.loads(result)


def exact_counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in EXACT_UNITS or name in EXACT_NAMES
    }


def check_counts(workload: str, seed: int) -> tuple[list[str], dict]:
    (info, first), (_, second) = (run_json(workload, seed, "--trace", "1") for _ in range(2))
    problems = check_manifest(workload, first)
    for run in (first, second):
        if run["failed"] or not run["correct"]:
            problems.append(f"{workload}: {run['failed']} failed operations: {info['failures']}")
    a, b = exact_counts(first), exact_counts(second)
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            problems.append(f"{workload}: {name} is {a.get(name)} then {b.get(name)}")
    shares = {name: m["value"] / info["traced_s"] for name, m in first["metrics"].items() if m["unit"] == "s"}
    return problems, {"counts": a, "shares": shares}


def check_manifest(workload: str, traced: dict) -> list[str]:
    """BENCHMARK.json names every metric run.py prints, with the same unit."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, plain = run_json(workload, 1, "--seconds", "1", "--trace", "0")
    problems = []
    for key, result in (("end_to_end", plain), ("per_layer", traced)):
        want = {m["name"]: m["unit"] for m in manifest[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{workload} {key}: prints {sorted(set(got) ^ set(want))} differently from BENCHMARK.json")
    return problems


def check_split(seen: dict) -> list[str]:
    problems = []

    def share(workload, name):
        return seen[workload]["shares"].get(name, 0.0)

    if "exact-table" in seen and not share("exact-table", "seeley.a4_s") > 0.5:
        problems.append(f"exact-table: seeley.a4_s is {share('exact-table', 'seeley.a4_s'):.0%} of the pass")
    if "numeric-jets" in seen:
        if not share("numeric-jets", "theta.lattice_s") > 0.5:
            problems.append(f"numeric-jets: theta.lattice_s is {share('numeric-jets', 'theta.lattice_s'):.0%} of the pass")
        active = {n: v for n, v in seen["numeric-jets"]["counts"].items() if n.startswith("series.") and v}
        if active:
            problems.append(f"numeric-jets: series activity {active}")
    if "exact-table" in seen and "exact-deep" in seen:
        deep, table = share("exact-deep", "series.invert_s"), share("exact-table", "series.invert_s")
        if not deep > 3 * table:
            problems.append(f"series.invert_s share {deep:.0%} on exact-deep against {table:.0%} on exact-table")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    problems, seen = [], {}
    for workload in args.workload or workloads.WORKLOADS:
        problems += check_inputs(workload)
        found, seen[workload] = check_counts(workload, args.seed)
        problems += found
        shares = ", ".join(f"{n} {v:.1%}" for n, v in sorted(seen[workload]["shares"].items()) if v >= 0.05)
        print(f"{workload}: {len(seen[workload]['counts'])} counts repeat; shares of the traced pass: {shares}")
    problems += check_split(seen)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
