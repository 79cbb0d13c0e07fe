"""The four workloads: seeded inputs, one pass of operations, and their checks.

A pass is a fixed list of operations whose composition is the same for every
seed; the seed decides the order, the order in which the orbit points reach
``seeley.orbit_sum`` (and so which point of each conjugate pair it
evaluates), the mu samples and the CLI request sequence and its bad inputs.
Truncations are fixed per workload, because the cost depends on them
(truncation 4 costs a third more than 3 on the order-4 sum).  So every seed
costs the same work, and every input a seed can generate has a stored
reference (``referenced_sums`` and ``referenced_cli`` list them all;
``make_refs.py`` writes them).

* ``exact-table``: order-4 orbit sum of the 8-point orbit of (1/6, 5/6) at
  the paper's truncation 6, then ``modular.identify``.
* ``exact-deep``: order-0 and order-2 sums of the 8-point orbit and the
  order-0 sum of the 24-point orbit of (0, 1/3) at truncation 12, each
  followed by ``modular.identify``.
* ``numeric-jets``: ``vv_modularity_report`` at 40 digits for orders 0, 2
  and 4 of the 8-point orbit; float64 jets of the 24-point orbit against the
  stored exact truncation-6 series (criterion 7); three
  ``dtilde_sq_crosscheck`` calls.
* ``cli-cache``: a closed loop of 17 CLI processes, one at a time, on an
  empty cache directory: first requests, repeats, the same orbit through a
  different seed point, a truncated cache entry, identify, orbit, check dirac
  and bad inputs judged by their documented exit codes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
from oracle import Mismatch

WORKLOADS = ("exact-table", "exact-deep", "numeric-jets", "cli-cache")

ORBITS = {"o24": ("0", "1/3"), "o8": ("1/6", "5/6")}

TABLE_TRUNC = 6
DEEP_TRUNC = 12
DEEP_TASKS = (("o8", 0), ("o8", 2), ("o24", 0))
REPORT_ORDERS = (0, 2, 4)
REPORT_TOL = 1e-9  # criterion 6
# mu box for the 40-digit reports: narrow enough that every seed sums the
# same number of lattice terms, so the seed moves mu but not the cost
REPORT_MU_BOX = ((1.02, 1.04), (-0.05, 0.05))
CROSSVAL_TRUNC = 6
CROSSVAL_MU = (1.10, 1.12)
CROSSVAL_TOL = 1e-6  # criterion 7
# orbit points where the Dirac symbol cross-check is defined (F off the
# branch cut) and passes; see BASELINE.md for the others
DIRAC_POINTS = (("1/6", "1/6"), ("1/6", "5/6"), ("1/2", "1/6"), ("1/2", "5/6"), ("5/6", "1/6"), ("5/6", "5/6"))
DIRAC_MU = (1.0, 1.1)
DIRAC_TOL = 1e-10

CLI_TRUNC = 3
CLI_COEFF = (("o8", 0), ("o8", 2), ("o24", 0))
CLI_IDENTIFY = (("o8", 0), ("o24", 0))
CLI_DIRAC_MU = ("1.0", "1.05", "1.1")
BAD_RATIONALS = ("zebra", "1/0", "x/3")
EXCEPTIONAL_POINTS = (("1/2", "1/2"), ("0", "0"), ("1/2", "0"), ("0", "1/2"))
BAD_TRUNCS = ("0", "1", "2")
BAD_MU = ("-1.0", "-0.5", "0.0")

MAX_PASSES = 16  # plans generated in set-up; later passes reuse them in turn


def referenced_sums():
    """(orbit, order, trunc) of every exact orbit sum a seed can ask for."""
    yield ("o8", 4, TABLE_TRUNC)
    for orb, order in DEEP_TASKS:
        yield (orb, order, DEEP_TRUNC)
    for order in REPORT_ORDERS:
        yield ("o24", order, CROSSVAL_TRUNC)


def coeff_args(order, trunc, point):
    return ["coeff", "--p", point[0], "--q", point[1], "--order", str(order), "--trunc", str(trunc)]


def identify_args(order, trunc, point):
    return ["identify", "--p", point[0], "--q", point[1], "--order", str(order), "--trunc", str(trunc)]


def referenced_cli():
    """{reference key: CLI arguments} for every CLI stdout a seed can produce."""
    out, t = {}, CLI_TRUNC
    for orb, order in CLI_COEFF:
        out[f"coeff:{orb}:a{order}:t{t}"] = coeff_args(order, t, ORBITS[orb])
    for orb, order in CLI_IDENTIFY:
        out[f"identify:{orb}:a{order}:t{t}"] = identify_args(order, t, ORBITS[orb])
    for orb, point in ORBITS.items():
        out[f"orbit:{orb}"] = ["orbit", "--p", point[0], "--q", point[1]]
    return out


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# operations and the context they run in
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation; ``run`` raises on any wrong output."""

    name: str
    kind: str
    run: Callable[[], None]
    prepare: Callable[[], None] | None = None
    after: tuple[str, ...] = ()


@dataclass
class Context:
    workload: str
    root: Path
    seed: int
    refs: dict
    lib: dict  # bianchi9 modules by short name
    orbits: dict = field(default_factory=dict)  # name -> tuple of (p, q) strings
    plans: list = field(default_factory=list)
    tmp: Path | None = None
    cli_stats_dir: Path | None = None  # set for a traced CLI pass

    def rng(self, *tag) -> random.Random:
        return random.Random(":".join(map(str, (self.workload, self.seed) + tag)))


def import_library() -> dict:
    from bianchi9 import cli, dirac, instanton, modular, seeley

    return {"cli": cli, "dirac": dirac, "instanton": instanton, "modular": modular, "seeley": seeley}


def setup(workload: str, root: Path, seed: int, tmp: Path) -> Context:
    """Imports, orbits, inputs, references and warm-up: everything untimed."""
    lib = import_library()
    ctx = Context(workload, root, seed, oracle.load_refs(), lib, tmp=tmp)
    modular = lib["modular"]
    for name, (p, q) in ORBITS.items():
        ctx.orbits[name] = tuple((fmt(pt.p), fmt(pt.q)) for pt in modular.orbit(Fraction(p), Fraction(q)).points)
    spec = SPECS[workload]
    ctx.plans = [spec.plan(ctx, ctx.rng("pass", k)) for k in range(MAX_PASSES)]
    spec.warmup(ctx)
    return ctx


def make_pass(ctx: Context, k: int) -> list[Op]:
    ops = SPECS[ctx.workload].build(ctx, ctx.plans[k % MAX_PASSES])
    return seeded_order(ops, ctx.rng("order", k))


def seeded_order(ops: list[Op], rng: random.Random) -> list[Op]:
    """A random order of ``ops`` that keeps each op after the ones it names."""
    done: set[str] = set()
    todo = list(ops)
    out = []
    while todo:
        ready = [op for op in todo if all(a in done for a in op.after)]
        op = ready[rng.randrange(len(ready))]
        todo.remove(op)
        done.add(op.name)
        out.append(op)
    return out


def reference_keys(ctx: Context) -> set[str]:
    """Every reference the generated plans rely on (for coverage checks)."""
    return set().union(*(SPECS[ctx.workload].refkeys(plan) for plan in ctx.plans))


# ---------------------------------------------------------------------------
# exact path
# ---------------------------------------------------------------------------


def frames_evaluated(points) -> list:
    """The points whose frames ``orbit_sum`` evaluates, in its order.

    It evaluates the first point of each conjugate pair (p, q), (-p, -q) it
    meets and counts the partner twice, so the seeded order of the points
    decides which frames are computed, at the same cost.
    """
    seen, out = set(), []
    for p, q in points:
        if (p, q) not in seen:
            out.append((p, q))
            seen |= {(p, q), (fmt(-Fraction(p) % 1), fmt(-Fraction(q) % 1))}
    return out


def _sum_and_identify(ctx: Context, orb: str, order: int, trunc: int, points) -> None:
    modular, seeley = ctx.lib["modular"], ctx.lib["seeley"]
    o = modular.orbit(Fraction(points[0][0]), Fraction(points[0][1]))
    seq = [modular.OrbitPoint(Fraction(p), Fraction(q)) for p, q in points]
    res = seeley.orbit_sum(seq, seeley.CoeffIndex(order // 2), trunc)
    oracle.check_sum(res.representation.to_json(), orb, order, trunc, ctx.refs)
    ident = modular.identify(res, o)
    oracle.check_identification(ident.to_json(order), orb, order)


def _exact_op(ctx, orb, order, trunc, points) -> Op:
    frames = " ".join(f"({p},{q})" for p, q in frames_evaluated(points))
    name = f"{orb} a{order} t{trunc} frames {frames}"
    return Op(name, "sum", lambda: _sum_and_identify(ctx, orb, order, trunc, points))


def plan_table(ctx, rng):
    return [("o8", 4, TABLE_TRUNC, tuple(rng.sample(ctx.orbits["o8"], len(ctx.orbits["o8"]))))]


def plan_deep(ctx, rng):
    return [
        (orb, order, DEEP_TRUNC, tuple(rng.sample(ctx.orbits[orb], len(ctx.orbits[orb])))) for orb, order in DEEP_TASKS
    ]


def build_exact(ctx, plan):
    return [_exact_op(ctx, *task) for task in plan]


def refkeys_exact(plan):
    return {oracle.sum_key(orb, order, trunc) for orb, order, trunc, _points in plan}


def warmup_exact(ctx):
    seeley, modular = ctx.lib["seeley"], ctx.lib["modular"]
    o = modular.orbit(Fraction(1, 6), Fraction(5, 6))
    seeley.orbit_sum(o, seeley.CoeffIndex(0), 2)


# ---------------------------------------------------------------------------
# numeric path
# ---------------------------------------------------------------------------


def report_seeds(modular, start: int, count: int) -> list[int]:
    """Report seeds whose single mu sample lands in REPORT_MU_BOX."""
    (re_lo, re_hi), (im_lo, im_hi) = REPORT_MU_BOX
    out, s = [], start
    while len(out) < count:
        mu = modular.sample_mu(1, s)[0]
        if re_lo <= mu.real <= re_hi and im_lo <= mu.imag <= im_hi:
            out.append(s)
        s += 1
        if s - start > 200_000 * count:
            raise RuntimeError("sample_mu never lands in the report mu box")
    return out


def plan_numeric(ctx, rng):
    seeds = report_seeds(ctx.lib["modular"], rng.randrange(1 << 30), len(REPORT_ORDERS))
    dirac = [
        (rng.choice(DIRAC_POINTS), rng.uniform(*DIRAC_MU), (rng.random(), rng.random(), rng.random()))
        for _ in range(3)
    ]
    return {
        "reports": list(zip(REPORT_ORDERS, seeds)),
        "crossval_mu": rng.uniform(*CROSSVAL_MU),
        "dirac": dirac,
    }


def _report(ctx, order, seed) -> None:
    modular, seeley = ctx.lib["modular"], ctx.lib["seeley"]
    o = modular.orbit(*map(Fraction, ORBITS["o8"]))
    rep = modular.vv_modularity_report(o, seeley.CoeffIndex(order // 2), samples=1, tol=REPORT_TOL, seed=seed)
    if rep.get("order") != order or rep.get("samples") != 1:
        raise Mismatch(f"report echoes order {rep.get('order')} samples {rep.get('samples')}")
    if not (rep.get("pass") is True and rep["max_residual"] <= REPORT_TOL):
        raise Mismatch(f"transformation residual {rep.get('max_residual')} above {REPORT_TOL}")


def _crossval(ctx, mu) -> None:
    instanton, seeley = ctx.lib["instanton"], ctx.lib["seeley"]
    direct = dict.fromkeys(REPORT_ORDERS, 0j)
    for p, q in ctx.orbits["o24"]:
        frame = instanton.frame_two_param_jet(instanton.TwoParamPoint(Fraction(p), Fraction(q)), mu, 1e-14)
        for order in REPORT_ORDERS:
            value = seeley.coefficient(frame, seeley.CoeffIndex(order // 2)).representation[0]
            direct[order] += complex(value)
    for order in REPORT_ORDERS:
        ref = ctx.refs["sums"][oracle.sum_key("o24", order, CROSSVAL_TRUNC)]
        exact = oracle.evaluate_series(ref, mu)
        resid = abs(exact - direct[order]) / max(abs(direct[order]), 1.0)
        if not resid < CROSSVAL_TOL:
            raise Mismatch(f"a{order} jets vs exact series at mu={mu}: residual {resid:.3e}")


def _dirac(ctx, checks) -> None:
    instanton, dirac = ctx.lib["instanton"], ctx.lib["dirac"]
    for (p, q), mu, (r1, r2, r3) in checks:
        frame = instanton.frame_two_param_jet(instanton.TwoParamPoint(Fraction(p), Fraction(q)), mu, 1e-14)
        x = (mu, 0.3 + 2.2 * r1, 6.28 * r2, 6.28 * r3)
        res = dirac.dtilde_sq_crosscheck(x, frame, tol=DIRAC_TOL)
        if not (res.get("pass") is True and res["max_residual"] <= DIRAC_TOL):
            raise Mismatch(f"Dirac cross-check at ({p},{q}) mu={mu}: residual {res.get('max_residual')}")


def build_numeric(ctx, plan):
    ops = [
        Op(f"report o8 a{order} seed {s}", "report", lambda o=order, s=s: _report(ctx, o, s))
        for order, s in plan["reports"]
    ]
    mu = plan["crossval_mu"]
    ops.append(Op(f"crossval o24 mu={mu:.6f}", "crossval", lambda: _crossval(ctx, mu)))
    where = "; ".join(f"({p},{q}) mu={m:.6f}" for (p, q), m, _r in plan["dirac"])
    ops.append(Op(f"dirac at {where}", "dirac", lambda: _dirac(ctx, plan["dirac"])))
    return ops


def refkeys_numeric(plan):
    return {oracle.sum_key("o24", order, CROSSVAL_TRUNC) for order in REPORT_ORDERS}


def warmup_numeric(ctx):
    import mpmath

    instanton, seeley = ctx.lib["instanton"], ctx.lib["seeley"]
    pt = instanton.TwoParamPoint(Fraction(1, 6), Fraction(5, 6))
    with mpmath.workdps(40):
        frame = instanton.frame_two_param_jet(pt, mpmath.mpc(1.03), tol=1e-35)
        seeley.coefficient(frame, seeley.CoeffIndex(0))
    seeley.coefficient(instanton.frame_two_param_jet(pt, 1.1, 1e-14), seeley.CoeffIndex(0))


# ---------------------------------------------------------------------------
# CLI path
# ---------------------------------------------------------------------------


def cli_env(root: Path) -> dict:
    """The caller's environment with ``src/`` first on the path.

    Bytecode caching is left on, as for an installed package, so that only
    the set-up's warm-up request compiles the package.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(ctx: Context, args: list[str], cache: Path) -> tuple[int, bytes]:
    """One CLI process, waited for; traced through ``cli_child.py`` if asked."""
    argv = ["--cache-dir", str(cache)] + list(args)
    if ctx.cli_stats_dir is None:
        cmd = [sys.executable, "-m", "bianchi9.cli"] + argv
    else:
        stats = ctx.cli_stats_dir / f"{time.monotonic_ns()}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(stats)] + argv
    proc = subprocess.Popen(
        cmd, cwd=ctx.root, env=cli_env(ctx.root), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def cache_entries(cache: Path) -> set[Path]:
    return set(cache.rglob("*.json")) if cache.exists() else set()


def plan_cli(ctx, rng):
    pick = lambda orb: rng.choice(ctx.orbits[orb])  # noqa: E731
    t = CLI_TRUNC
    cold = [(orb, order, t, pick(orb)) for orb, order in CLI_COEFF]
    return {
        "cold": cold,
        "alias": cold[0][:3] + (rng.choice([pt for pt in ctx.orbits["o8"] if pt != cold[0][3]]),),
        "identify": [(orb, order, t, pick(orb)) for orb, order in CLI_IDENTIFY],
        "orbit": [(orb, pick(orb)) for orb in (rng.choice(sorted(ORBITS)),)],
        "dirac": (rng.choice(DIRAC_POINTS), rng.choice(CLI_DIRAC_MU), rng.randrange(10)),
        "bad": [
            (["orbit", "--p", rng.choice(BAD_RATIONALS), "--q", "0"], oracle.EXIT_INVALID),
            (coeff_args(0, t, rng.choice(EXCEPTIONAL_POINTS)), oracle.EXIT_EXCEPTIONAL),
            (["identify", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", rng.choice(BAD_TRUNCS)], oracle.EXIT_INVALID),
            (["check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re", rng.choice(BAD_MU)], oracle.EXIT_DOMAIN),
        ],
    }


def _cli_request(ctx, cache, name, args, expect_code, ref_key) -> Callable[[], None]:
    def run():
        code, out = run_cli(ctx, args, cache)
        want = None if ref_key is None else ctx.refs["cli"][ref_key].encode()
        oracle.check_cli(name, code, out, expect_code, b"" if expect_code else want)

    return run


def _dirac_request(ctx, cache, name, args) -> Callable[[], None]:
    def run():
        code, out = run_cli(ctx, args, cache)
        oracle.check_cli(name, code, out, 0, None)
        doc = json.loads(out)
        if not (doc.get("pass") is True and doc.get("tol") == DIRAC_TOL and doc["max_residual"] <= DIRAC_TOL):
            raise Mismatch(f"{name}: {doc}")

    return run


def build_cli(ctx, plan):
    cache = ctx.tmp / f"cache-{time.monotonic_ns()}"
    cache.mkdir(parents=True)
    ops = []

    def coeff_op(name, task, kind, after=()):
        orb, order, trunc, pt = task
        key = f"coeff:{orb}:a{order}:t{trunc}"
        return Op(name, kind, _cli_request(ctx, cache, name, coeff_args(order, trunc, pt), 0, key), after=after)

    first_entries: set[Path] = set()
    for i, task in enumerate(plan["cold"]):
        cold = coeff_op(f"coeff#{i} cold {task}", task, "cold")
        if i == 0:
            body = cold.run

            def recorded(body=body):
                before = cache_entries(cache)
                body()
                first_entries.update(cache_entries(cache) - before)

            cold.run, first = recorded, cold
        ops.append(cold)
        for r in range(2 if i == 0 else 1):
            ops.append(coeff_op(f"coeff#{i} warm{r} {task}", task, "warm", after=(cold.name,)))
    ops.append(coeff_op(f"coeff#0 alias {plan['alias']}", plan["alias"], "alias", after=(first.name,)))
    corrupt = coeff_op(f"coeff#0 truncated entry {plan['cold'][0]}", plan["cold"][0], "corrupt", after=(first.name,))

    def truncate_entry():
        if not first_entries:
            raise Mismatch("coeff#0 left no cache entry to corrupt")
        for path in first_entries:
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

    corrupt.prepare = truncate_entry
    ops.append(corrupt)

    for orb, order, trunc, pt in plan["identify"]:
        name = f"identify {orb} a{order} t{trunc} via {pt}"
        key = f"identify:{orb}:a{order}:t{trunc}"
        ops.append(Op(name, "identify", _cli_request(ctx, cache, name, identify_args(order, trunc, pt), 0, key)))
    for orb, pt in plan["orbit"]:
        name = f"orbit {orb} via {pt}"
        args = ["orbit", "--p", pt[0], "--q", pt[1]]
        ops.append(Op(name, "orbit", _cli_request(ctx, cache, name, args, 0, f"orbit:{orb}")))
    (p, q), mu, seed = plan["dirac"]
    args = ["check", "dirac", "--p", p, "--q", q, "--mu-re", mu, "--seed", str(seed)]
    ops.append(Op(f"check dirac ({p},{q}) mu={mu}", "dirac", _dirac_request(ctx, cache, f"check dirac ({p},{q})", args)))
    for args, code in plan["bad"]:
        name = "bad " + " ".join(args)
        ops.append(Op(name, "bad", _cli_request(ctx, cache, name, args, code, None)))
    return ops


def refkeys_cli(plan):
    keys = {f"coeff:{orb}:a{order}:t{trunc}" for orb, order, trunc, _pt in plan["cold"]}
    keys |= {f"identify:{orb}:a{order}:t{trunc}" for orb, order, trunc, _pt in plan["identify"]}
    keys |= {f"orbit:{orb}" for orb, _pt in plan["orbit"]}
    return keys


def warmup_cli(ctx):
    cache = ctx.tmp / "warmup"
    code, _ = run_cli(ctx, ["orbit", "--p", "1/6", "--q", "5/6"], cache)
    shutil.rmtree(cache, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"CLI warm-up exited {code}")


def cli_probes(ctx: Context) -> list[dict]:
    """Known defects at the boundaries, run once, outside the timed passes.

    Each probe states the documented behaviour; ``ok`` says whether the
    program meets it.  They are reported, not counted as operations.
    """
    cache = ctx.tmp / "probes"
    probes = []
    code, out = run_cli(ctx, coeff_args(0, -3, ORBITS["o8"]), cache)
    probes.append(
        {"name": "coeff --trunc -3", "expected": f"exit {oracle.EXIT_INVALID}", "got": f"exit {code}", "ok": code == oracle.EXIT_INVALID}
    )
    args = coeff_args(0, CLI_TRUNC, ORBITS["o8"])
    ref = ctx.refs["cli"][f"coeff:o8:a0:t{CLI_TRUNC}"].encode()
    before = cache_entries(cache)
    run_cli(ctx, args, cache)
    for path in cache_entries(cache) - before:
        path.write_text(json.dumps({"order": 0, "series": {"terms": "wrong shape"}}))
    code, out = run_cli(ctx, args, cache)
    probes.append(
        {
            "name": "wrong-shape cache entry",
            "expected": "exit 0, reference bytes",
            "got": f"exit {code}, " + ("reference bytes" if out == ref else repr(out[:80])),
            "ok": code == 0 and out == ref,
        }
    )
    code, out = run_cli(ctx, ["check", "dirac", "--p", "1/6", "--q", "1/2"], cache)
    probes.append(
        {"name": "check dirac at F on the branch cut", "expected": f"exit {oracle.EXIT_DOMAIN}", "got": f"exit {code}", "ok": code == oracle.EXIT_DOMAIN}
    )
    code, out = run_cli(ctx, ["check", "dirac", "--p", "0", "--q", "1/3"], cache)
    try:
        passed = code == 0 and json.loads(out).get("pass") is True
    except ValueError:
        passed = False
    probes.append(
        {"name": "check dirac at p = 0", "expected": "exit 0, pass true", "got": f"exit {code}, {out[:120]!r}", "ok": passed}
    )
    shutil.rmtree(cache, ignore_errors=True)
    return probes


@dataclass(frozen=True)
class Spec:
    plan: Callable  # (ctx, rng) -> the seeded inputs of one pass
    build: Callable  # (ctx, plan) -> list of Op
    refkeys: Callable  # plan -> reference keys it needs
    warmup: Callable  # ctx -> None


SPECS = {
    "exact-table": Spec(plan_table, build_exact, refkeys_exact, warmup_exact),
    "exact-deep": Spec(plan_deep, build_exact, refkeys_exact, warmup_exact),
    "numeric-jets": Spec(plan_numeric, build_numeric, refkeys_numeric, warmup_numeric),
    "cli-cache": Spec(plan_cli, build_cli, refkeys_cli, warmup_cli),
}
assert tuple(SPECS) == WORKLOADS
