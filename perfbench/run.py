#!/usr/bin/env python3
"""bianchi9 benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload exact-table --seed 1 --seconds 28 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` the run sets up three times (once here, twice in fresh
interpreters) and then repeats whole passes of the workload until the next
pass would end after ``--seconds``.  On the workloads that run in this
process (``RESCALED``) its times are in reference seconds: wall seconds
rescaled by the speed probe of ``speed.py``, which runs throughout.  With
``--trace 1`` it runs one pass untraced and the same pass traced, and
reports the per-layer counters of the traced one.  Every output is checked
by ``oracle.py``; a wrong output is counted as failed, named on the
provenance line, and never stops the run.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it holds the provenance: versions, table checksums, the
sample count behind each metric, the failures and the known-defect probes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedProbe, WallClock  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 3  # one in this process, the rest in fresh interpreters
# Work that runs in this process is timed in reference seconds (speed.py).
# The cli-cache work runs in child processes, which the probe cannot see: a
# probe in the waiting parent, or on the children's CPU, spread more from run
# to run than the wall time does, so cli-cache keeps wall seconds.
RESCALED = ("exact-table", "exact-deep", "numeric-jets")


def calls(stem):
    return (stem,), lambda s: s.calls[stem]


def total(stem):
    return (stem,), lambda s: s.total[stem]


def self_time(stem):
    return (stem,), lambda s: s.self_s[stem]


def count(name, per=None):
    if per is None:
        return (), lambda s: s.counts[name]
    return (), lambda s: s.counts[name] / s.counts[per] if s.counts[per] else 0.0


def _operand_terms(s):
    n = s.calls["series.mul"]
    return s.counts["series.operand_terms"] / (2 * n) if n else 0.0


def _hit_ratio(s):
    lookups = s.counts["cli.hits"] + s.counts["cli.misses"] + s.counts["cli.rejects"]
    return s.counts["cli.hits"] / lookups if lookups else 0.0


def _compute(s):
    return s.counts["cli.main_s"] - s.total["cli.cache_read"] - s.total["cli.cache_write"]


# name, unit, (stems it needs, getter on tracer.Stats)
LAYER_METRICS = (
    ("series.mul_calls", "count", calls("series.mul")),
    ("series.mul_s", "s", total("series.mul")),
    ("series.add_s", "s", total("series.add")),
    ("series.scale_s", "s", total("series.scale")),
    ("series.invert_calls", "count", calls("series.invert")),
    ("series.invert_s", "s", total("series.invert")),
    ("series.operand_terms", "terms", (("series.mul",), _operand_terms)),
    ("cyclotomic.mul_calls", "count", calls("cyclotomic.mul")),
    ("cyclotomic.add_calls", "count", calls("cyclotomic.add")),
    ("theta.series_calls", "count", calls("theta.series")),
    ("theta.series_s", "s", total("theta.series")),
    ("theta.lattice_sums", "count", calls("theta.lattice")),
    ("theta.lattice_s", "s", total("theta.lattice")),
    ("instanton.frames_series", "count", calls("instanton.frame_series")),
    ("instanton.frame_series_self_s", "s", self_time("instanton.frame_series")),
    ("instanton.frames_jet", "count", calls("instanton.frame_jet")),
    ("instanton.frame_jet_self_s", "s", self_time("instanton.frame_jet")),
    (
        "seeley.points_evaluated",
        "count",
        (("seeley.a0", "seeley.a2", "seeley.a4"), lambda s: s.calls["seeley.a0"] + s.calls["seeley.a2"] + s.calls["seeley.a4"]),
    ),
    ("seeley.a0_s", "s", total("seeley.a0")),
    ("seeley.a2_s", "s", total("seeley.a2")),
    ("seeley.a4_s", "s", total("seeley.a4")),
    ("seeley.table_self_s", "s", self_time("seeley.table")),
    ("seeley.orbit_reduce_s", "s", self_time("seeley.orbit_sum")),
    ("jets.mul_calls", "count", calls("jets.mul")),
    ("jets.div_calls", "count", calls("jets.div")),
    ("jets.mul_s", "s", total("jets.mul")),
    ("modular.orbit_s", "s", total("modular.orbit")),
    ("modular.identify_s", "s", total("modular.identify")),
    ("modular.report_self_s", "s", self_time("modular.report")),
    ("dirac.crosscheck_s", "s", total("dirac.crosscheck")),
    ("cli.cache_hits", "count", count("cli.hits")),
    ("cli.cache_misses", "count", count("cli.misses")),
    ("cli.cache_rejects", "count", count("cli.rejects")),
    ("cli.hit_ratio", "frac", ((), _hit_ratio)),
    ("cli.import_s", "s", count("cli.import_s", per="cli.children")),
    ("cli.cache_read_s", "s", total("cli.cache_read")),
    ("cli.cache_write_s", "s", total("cli.cache_write")),
    ("cli.compute_s", "s", (("cli.cache_read", "cli.cache_write"), _compute)),
    ("cli.bytes_written", "B", count("cli.bytes_written")),
)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Pass:
    """Wall-clock windows of one pass and of each of its operations."""

    def __init__(self):
        self.start = self.end = 0.0
        self.ops: list[tuple[str, float, float]] = []  # (kind, start, end)
        self.failures: list[str] = []

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def latencies(self) -> list[float]:
        return [t1 - t0 for _kind, t0, t1 in self.ops]


def run_pass(ctx, k: int) -> Pass:
    result = Pass()
    ops = workloads.make_pass(ctx, k)
    result.start = time.perf_counter()
    for op in ops:
        # a wrong or failing operation is recorded and the pass goes on
        error = None
        try:
            if op.prepare is not None:
                op.prepare()
        except Exception as exc:
            error = exc
        t0 = time.perf_counter()
        if error is None:
            try:
                op.run()
            except Exception as exc:
                error = exc
        result.ops.append((op.kind, t0, time.perf_counter()))
        if error is not None:
            result.failures.append(f"{op.name}: {type(error).__name__}: {error}")
    result.end = time.perf_counter()
    for stale in ctx.tmp.glob("cache-*"):
        shutil.rmtree(stale, ignore_errors=True)
    return result


def timed_passes(ctx, seconds: float) -> list[Pass]:
    """Whole passes until the next one, at the median pass time, would overrun."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ctx, len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.seconds for p in passes) > seconds:
            return passes


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    With fewer than eleven samples that is the maximum, reported as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return 100, xs[-1]
    p = math.floor(100 * (1 - 10 / n))
    while n - math.ceil(p * n / 100) < 10:
        p -= 1
    return p, xs[math.ceil(p * n / 100) - 1]


def kind_p50_ms(passes, kind, seconds=lambda t0, t1: t1 - t0) -> tuple[float, int]:
    xs = [seconds(t0, t1) for p in passes for k, t0, t1 in p.ops if k == kind]
    return (statistics.median(xs) * 1e3 if xs else 0.0), len(xs)


# ---------------------------------------------------------------------------
# set-up and provenance
# ---------------------------------------------------------------------------


def timed_setup(workload: str, seed: int, tmp: Path):
    t0 = time.perf_counter()
    ctx = workloads.setup(workload, ROOT, seed, tmp)
    return ctx, (t0, time.perf_counter())


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    """(reference, wall) seconds of a set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=170, check=True)
    doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return doc["setup_s"], doc["setup_wall_s"]


def provenance(args) -> dict:
    import mpmath
    import numpy

    import bianchi9

    try:
        from bianchi9 import seeley_terms

        checksums = {
            "a2_checksum": getattr(seeley_terms, "A2_CHECKSUM", None),
            "a4_checksum": getattr(seeley_terms, "A4_CHECKSUM", None),
        }
    except ImportError:
        checksums = {"a2_checksum": None, "a4_checksum": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bianchi9").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "package_version": getattr(bianchi9, "__version__", None),
        **checksums,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(args, passes: list[Pass], probe, setup_window) -> tuple[dict, dict]:
    """Times in reference seconds on RESCALED workloads; wall figures go to the info line."""
    if args.workload == "cli-cache":
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref = probe.reference_s
    children = [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    setups = [ref(*setup_window)] + [r for r, _w in children]
    setups_wall = [setup_window[1] - setup_window[0]] + [w for _r, w in children]
    latencies = [ref(t0, t1) for p in passes for _k, t0, t1 in p.ops]
    pass_s = [ref(p.start, p.end) for p in passes]
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "solve_s": metric(statistics.median(pass_s), "s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mib": metric(rss_kib / 1024, "MiB"),
    }
    wall_latencies = [x for p in passes for x in p.latencies]
    info = {
        "samples": {
            "setup_s": len(setups),
            "solve_s": len(passes),
            "latency_p50_ms": len(latencies),
            "peak_rss_mib": 1,
            "latency_tail_ms": len(latencies),
        },
        # the tail of a pass that mixes operation kinds jumps between kinds
        # as the pass count changes, so it is reported here and not bounded
        "latency_tail_ms": tail_s * 1e3,
        "latency_tail_percentile": f"p{pct}",
        "setup_samples_s": setups,
        "pass_s": pass_s,
        "wall": {
            "setup_s": statistics.median(setups_wall),
            "setup_samples_s": setups_wall,
            "solve_s": statistics.median(p.seconds for p in passes),
            "latency_p50_ms": statistics.median(wall_latencies) * 1e3,
            "pass_s": [p.seconds for p in passes],
        },
        "speed_probe": probe.summary(),
    }
    if args.workload == "cli-cache":
        for kind in ("cold", "warm"):
            info[f"{kind}_p50_ms"], info["samples"][f"{kind}_p50_ms"] = kind_p50_ms(passes, kind, ref)
    return metrics, info


def traced(args, ctx) -> tuple[dict, list[Pass], dict]:
    plain = run_pass(ctx, 0)
    cold, warm = (kind_p50_ms([plain], kind) for kind in ("cold", "warm"))
    tracer = Tracer()
    if args.workload == "cli-cache":
        ctx.cli_stats_dir = ctx.tmp / "stats"
        ctx.cli_stats_dir.mkdir()
        traced_pass = run_pass(ctx, 0)
        for path in sorted(ctx.cli_stats_dir.glob("*.json")):
            doc = json.loads(path.read_text())
            tracer.stats.merge(doc)
            tracer.missing.extend(doc["missing"])
    else:
        with tracer:
            traced_pass = run_pass(ctx, 0)
    stats, missing = tracer.stats, set(tracer.missing)
    metrics = {}
    for name, unit, (stems, get) in LAYER_METRICS:
        if not missing.intersection(stems):
            metrics[name] = metric(get(stats), unit)
    metrics["cli.cold_p50_ms"] = metric(cold[0], "ms")
    metrics["cli.warm_p50_ms"] = metric(warm[0], "ms")
    metrics["trace.overhead_frac"] = metric(traced_pass.seconds / plain.seconds - 1, "frac")
    info = {
        "samples": {name: 1 for name in metrics},
        "untraced_s": plain.seconds,
        "traced_s": traced_pass.seconds,
        "trace_missing": sorted(missing),
    }
    info["samples"]["cli.cold_p50_ms"] = cold[1]
    info["samples"]["cli.warm_p50_ms"] = warm[1]
    return metrics, [plain, traced_pass], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bianchi9" / "__init__.py").is_file():
        print(f"perfbench: no bianchi9 sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bianchi9

    if Path(bianchi9.__file__).resolve().parent != (src / "bianchi9").resolve():
        print(f"perfbench: imported bianchi9 from {bianchi9.__file__}, not {src}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if args.trace:
            ctx, _ = timed_setup(args.workload, args.seed, tmp)
            metrics, passes, info = traced(args, ctx)
        else:
            # the probe runs through set-up and the timed passes; it is
            # stopped before the set-ups in fresh interpreters, which run
            # their own
            with SpeedProbe() if args.workload in RESCALED else WallClock() as probe:
                ctx, setup_window = timed_setup(args.workload, args.seed, tmp)
                if args.setup_only:
                    probe.settle(setup_window[1])
                    t0, t1 = setup_window
                    print(json.dumps({"setup_s": probe.reference_s(t0, t1), "setup_wall_s": t1 - t0}))
                    return 0
                passes = timed_passes(ctx, args.seconds)
            metrics, info = end_to_end(args, passes, probe, setup_window)
        probes = workloads.cli_probes(ctx) if args.workload == "cli-cache" else []
        attempted = sum(len(p.latencies) for p in passes)
        failures = [f for p in passes for f in p.failures]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    info.update(
        provenance=provenance(args),
        failed_frac=len(failures) / attempted,
        failures=failures,
        known_failures=[p for p in probes if not p["ok"]],
        probes_now_passing=[p["name"] for p in probes if p["ok"]],
    )
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
