"""Per-layer tracing from the outside: wrap functions of the bianchi9 modules.

Nothing in ``src/`` is edited.  ``Tracer.install`` looks up each target in
``TARGETS``, wraps it, and rebinds the wrapper in every place the package
holds the original object: module globals (``instanton`` imports
``theta_series`` and ``_theta_eval_raw`` itself, ``seeley`` imports
``frame_two_param_series``), class attributes (``__radd__`` aliases
``__add__``), and module-level dicts such as the ``a0/a2/a4`` dispatch
table.  A target whose module or attribute no longer exists is
skipped and listed in ``Tracer.missing``; its metrics are then left out of
the report instead of failing the run.

Two kinds of wrapper:

* ``span``: call count, inclusive wall time, and self time (inclusive time
  minus the time covered by nested traced spans);
* ``count``: call count only, for hot scalar operations whose timing would
  cost more than the operation.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "bianchi9"

# (stem, module, attribute path, kind)
TARGETS = (
    ("series.mul", "bianchi9.series", "series_mul", "span"),
    ("series.invert", "bianchi9.series", "series_invert", "span"),
    ("series.add", "bianchi9.series", "PuiseuxSeries.__add__", "span"),
    ("series.scale", "bianchi9.series", "PuiseuxSeries.scale", "span"),
    ("cyclotomic.mul", "bianchi9.cyclotomic", "Cyclotomic.__mul__", "count"),
    ("cyclotomic.add", "bianchi9.cyclotomic", "Cyclotomic.__add__", "count"),
    ("theta.series", "bianchi9.theta", "theta_series", "span"),
    ("theta.lattice", "bianchi9.theta", "_theta_eval_raw", "span"),
    ("instanton.frame_series", "bianchi9.instanton", "frame_two_param_series", "span"),
    ("instanton.frame_jet", "bianchi9.instanton", "frame_two_param_jet", "span"),
    ("seeley.a0", "bianchi9.seeley", "a0", "span"),
    ("seeley.a2", "bianchi9.seeley", "a2", "span"),
    ("seeley.a4", "bianchi9.seeley", "a4", "span"),
    ("seeley.table", "bianchi9.seeley", "_eval_terms", "span"),
    ("seeley.orbit_sum", "bianchi9.seeley", "orbit_sum", "span"),
    ("jets.mul", "bianchi9.jets", "Jet.__mul__", "span"),
    ("jets.div", "bianchi9.jets", "Jet.__truediv__", "count"),
    ("modular.orbit", "bianchi9.modular", "orbit", "span"),
    ("modular.identify", "bianchi9.modular", "identify", "span"),
    ("modular.report", "bianchi9.modular", "vv_modularity_report", "span"),
    ("dirac.crosscheck", "bianchi9.dirac", "dtilde_sq_crosscheck", "span"),
    ("cli.cache_read", "bianchi9.cli", "cache_read", "span"),
    ("cli.cache_write", "bianchi9.cli", "cache_write", "span"),
)


def _terms(x) -> int:
    terms = getattr(x, "terms", None)
    return len(terms) if isinstance(terms, dict) else 0


# extra per-call accounting, keyed by stem
NOTES = {
    "series.mul": lambda stats, args: stats.add_count(
        "series.operand_terms", _terms(args[0]) + _terms(args[1]) if len(args) >= 2 else 0
    ),
}


class Stats:
    """Calls, inclusive and self seconds per stem, plus free-form counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def add_count(self, name: str, n) -> None:
        self.counts[name] += n

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def merge(self, doc: dict) -> None:
        for name, n in doc.get("calls", {}).items():
            self.calls[name] += n
        for name, s in doc.get("total", {}).items():
            self.total[name] += s
        for name, s in doc.get("self", {}).items():
            self.self_s[name] += s
        for name, n in doc.get("counts", {}).items():
            self.counts[name] += n


def _resolve(module: str, path: str):
    """The function at ``module.path``, or None if any step is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return original if callable(original) else None


class Tracer:
    def __init__(self):
        self.stats = Stats()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._undo: list = []

    # -- wrappers -----------------------------------------------------

    def _span(self, stem, fn):
        stats, stack, note = self.stats, self._stack, NOTES.get(stem)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if note is not None:
                note(stats, args)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stats.calls[stem] += 1
                stats.total[stem] += dur
                stats.self_s[stem] += dur - child
                if stack:
                    stack[-1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, stem, fn):
        calls = self.stats.calls

        def wrapper(*args, **kwargs):
            calls[stem] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------

    def _rebind_everywhere(self, original, wrapper) -> int:
        """Replace every binding of ``original`` inside the package."""
        n = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((setattr, mod, key, original))
                    setattr(mod, key, wrapper)
                    n += 1
                elif isinstance(val, type) and val.__module__ == name:
                    for ckey, cval in list(vars(val).items()):
                        if cval is original:
                            self._undo.append((setattr, val, ckey, original))
                            setattr(val, ckey, wrapper)
                            n += 1
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self._undo.append((dict.__setitem__, val, dkey, original))
                            val[dkey] = wrapper
                            n += 1
        return n

    def install(self) -> "Tracer":
        for stem, module, path, kind in TARGETS:
            original = _resolve(module, path)
            if original is None:
                self.missing.append(stem)
                continue
            make = self._span if kind == "span" else self._count
            if self._rebind_everywhere(original, make(stem, original)) == 0:
                self.missing.append(stem)
        return self

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
