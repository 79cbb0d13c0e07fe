"""Command-line interface.

Subcommands: theta, orbit, coeff, identify, check.  All results go to stdout
as a single JSON document; diagnostics go to stderr as ``LEVEL:bianchi9:message``
lines, DEBUG ones only under -v.  Rationals are strings as ``str(Fraction)``
writes them, "num/den" or "num" when den = 1; series and identify's orbit
points always write "num/den".  Exit codes: 2 invalid
parameters (argparse's own code: every option is validated by its type or
choices, and ``main`` refuses a complex mu for ``check crossval``), 3 domain
errors, 4 identification failure, 5 exceptional orbit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import __version__, modular, seeley
from .instanton import TwoParamPoint, frame_two_param_jet
from .modular import ExceptionalOrbitError, IdentificationError
from .seeley import CoeffIndex, CoeffResult
from .seeley_terms import A0_CHECKSUM, A2_CHECKSUM, A4_CHECKSUM
from .series import PuiseuxSeries
from .theta import theta_series, theta_values

# tag for the nome convention baked into every cached series; changing the
# convention must invalidate old cache entries
NOME_TAG = "Q=exp(-2*pi*mu)"

EXIT_DOMAIN = 3
EXIT_IDENTIFY = 4
EXIT_EXCEPTIONAL = 5


def _rational(text: str) -> Fraction:
    """Argparse type for an exact rational such as ``1/3`` or ``0``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_at_least(low: int):
    """Argparse type for an integer option with a lower bound."""

    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return n

    return integer


def _finite_float(text: str) -> float:
    """Argparse type for a float option that must be finite (no nan or inf)."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError("must be finite")
    return x


def _positive_float(text: str) -> float:
    """Argparse type for a finite float above 0."""
    x = _finite_float(text)
    if x <= 0:
        raise argparse.ArgumentTypeError("must be above 0")
    return x


def _log(level: str, message: str) -> None:
    """One ``LEVEL:bianchi9:message`` line on the stderr of the moment."""
    sys.stderr.write(f"{level}:bianchi9:{message}\n")


@contextmanager
def _domain_errors():
    """Turn a ValueError or ArithmeticError (a zero division, an overflow) of the numeric layer into the domain-error exit code."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        _log("ERROR", str(exc))
        raise SystemExit(EXIT_DOMAIN) from exc


def _emit(doc: dict) -> None:
    """Write one JSON document to stdout; a non-finite number in it is a domain error."""
    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        _log("ERROR", f"result holds a non-finite number: {exc}")
        raise SystemExit(EXIT_DOMAIN) from exc
    sys.stdout.write(text + "\n")


# -- cache ------------------------------------------------------------


def cache_dir(args) -> Path:
    if args.cache_dir:
        return Path(args.cache_dir)
    env = os.environ.get("SDW_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bianchi9"


def cache_key(p: Fraction, q: Fraction, order: int, trunc: int) -> str:
    """Hash of the orbit-sum inputs, the package version and the term-table checksums."""
    inputs = ["two-param-orbit-sum", str(p), str(q), order, trunc, NOME_TAG]
    blob = json.dumps(inputs + [__version__, A0_CHECKSUM, A2_CHECKSUM, A4_CHECKSUM], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_read(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):  # ValueError covers bad JSON and bad UTF-8
        return None


def cache_write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- subcommands ------------------------------------------------------


def cmd_theta(args) -> None:
    # reduced mod 1: the printed value and series belong to [p mod 1, q mod 1]
    p, q = args.p % 1, args.q % 1
    if args.series:
        series = theta_series(p, q, args.trunc)[args.dq]
        for _ in range(args.n):
            series = series.mu_derivative()
        _emit({"series": series.to_json()})
        return
    # the lattice sum has period 2 dp^2 in Im mu; fmod is exact, so a huge
    # |Im mu| keeps the digits of its phase (and |Im mu| < 2 is left as is)
    mu_im = math.fmod(args.mu_im, 2 * p.denominator**2)
    with _domain_errors():
        counts = (0, args.n + 1) if args.dq else (args.n + 1, 0)  # sum only the function --dq picks
        v = theta_values([((p, q), counts)], complex(args.mu_re, mu_im), args.tol)[p, q][args.dq][args.n]
    _emit({"value": [v.real, v.imag]})


def _orbit_or_exit(args) -> modular.Orbit:
    with _domain_errors():
        orb = modular.orbit(args.p, args.q)
    try:
        budget = modular.valence_budget(orb)
    except ExceptionalOrbitError as exc:
        _log("ERROR", str(exc))
        raise SystemExit(EXIT_EXCEPTIONAL) from exc
    if args.verbose:
        _log("DEBUG", f"orbit n={orb.n} n0={orb.n0} budget={budget}")
    return orb


def cmd_orbit(args) -> None:
    orb = _orbit_or_exit(args)
    _emit(
        {
            "n": orb.n,
            "n0": orb.n0,
            "budget": str(modular.valence_budget(orb)),
            "points": [[str(pt.p), str(pt.q)] for pt in orb.points],
        }
    )


def _cached_series(path: Path, order: int) -> PuiseuxSeries | None:
    """The series of a cache entry that round-trips exactly, else None."""
    doc = cache_read(path)
    try:
        series = PuiseuxSeries.from_json(doc["series"])
        if doc == {"order": order, "series": series.to_json()}:
            return series
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        pass
    return None


def _orbit_sum_cached(args, orb, index: CoeffIndex, store: bool) -> CoeffResult:
    """Orbit sum through a disk cache keyed on the orbit's canonical point.

    Only ``coeff`` stores a fresh sum.  ``identify`` and ``check crossval``
    reuse a stored entry but never create one, so each entry is written by
    the first ``coeff`` request for that sum; the cli-cache workload of
    ``perfbench`` relies on this when it corrupts that entry.
    """
    pt = orb.points[0]
    key = cache_key(pt.p, pt.q, index.order, args.trunc)
    path = cache_dir(args) / f"{key}.json"
    series = _cached_series(path, index.order)
    if series is not None:
        _log("INFO", f"cache hit {path}")
        return CoeffResult(index, series)
    _log("INFO", f"cache miss; computing orbit sum (order {index.order}, trunc {args.trunc})")
    result = seeley.orbit_sum(orb, index, args.trunc)
    if store:
        try:
            cache_write(path, result.to_json())
        except OSError as exc:  # the cache only saves time: keep the result
            _log("WARNING", f"cache write to {path} failed: {exc}")
    return result


def cmd_coeff(args) -> None:
    orb = _orbit_or_exit(args)
    _emit(_orbit_sum_cached(args, orb, CoeffIndex(args.order // 2), store=True).to_json())


def cmd_identify(args) -> None:
    orb = _orbit_or_exit(args)
    index = CoeffIndex(args.order // 2)
    result = _orbit_sum_cached(args, orb, index, store=False)
    try:
        ident = modular.identify(result, orb)
    except IdentificationError as exc:
        _log("ERROR", str(exc))
        raise SystemExit(EXIT_IDENTIFY) from exc
    _emit(ident.to_json(index.order))


def cmd_check(args) -> None:
    if args.subject == "transforms":
        orb = _orbit_or_exit(args)
        report = modular.vv_modularity_report(
            orb, CoeffIndex(args.order // 2), samples=args.samples, tol=args.tol, seed=args.seed
        )
        _emit(report)
        return
    if args.subject == "dirac":
        pt = TwoParamPoint(args.p, args.q)
        mu = complex(args.mu_re, args.mu_im)
        import random

        rng = random.Random(args.seed)
        x = (mu, 0.3 + 2.2 * rng.random(), 6.28 * rng.random(), 6.28 * rng.random())
        with _domain_errors():
            frame = frame_two_param_jet(pt, mu, 1e-14)  # refuses a bad mu or point before numpy loads
            from .dirac import dtilde_sq_crosscheck  # imports numpy, which only this check needs

            doc = dtilde_sq_crosscheck(x, frame, tol=args.tol)
        _emit(doc)
        return
    # subject == "crossval": exact orbit-sum series vs jet evaluation at mu
    orb = _orbit_or_exit(args)
    index = CoeffIndex(args.order // 2)
    mu = args.mu_re
    with _domain_errors():
        direct = sum(map(complex, modular.orbit_values(orb.points, index, mu, 1e-14).values()), 0j)
    series = _orbit_sum_cached(args, orb, index, store=False).representation
    with _domain_errors():
        exact = series.evaluate_mu(mu)
    scale = max(abs(direct), 1.0)
    resid = abs(exact - direct) / scale
    _emit(
        {
            "mu": mu,
            "order": index.order,
            "series_value": [exact.real, exact.imag],
            "jet_value": [direct.real, direct.imag],
            "relative_residual": resid,
            "pass": bool(resid < 1e-6),
        }
    )


# -- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bianchi9")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, least_trunc=0):
        """--p and --q, and --trunc unless least_trunc is None."""
        sp.add_argument("--p", type=_rational, required=True)
        sp.add_argument("--q", type=_rational, required=True)
        if least_trunc is not None:
            sp.add_argument("--trunc", type=_int_at_least(least_trunc), default=6)

    t = sub.add_parser("theta", help="theta function value or nome series")
    common(t)
    t.add_argument("--n", type=int, default=0, choices=range(5), help="mu-derivative order")
    t.add_argument("--dq", action="store_true", help="apply the q-derivative")
    t.add_argument("--series", action="store_true")
    t.add_argument("--mu-re", type=_finite_float, default=1.0)
    t.add_argument("--mu-im", type=_finite_float, default=0.0)
    t.add_argument("--tol", type=_positive_float, default=1e-10)
    t.set_defaults(func=cmd_theta)

    o = sub.add_parser("orbit", help="enumerate the orbit of a parameter point")
    common(o, least_trunc=None)
    o.set_defaults(func=cmd_orbit)

    c = sub.add_parser("coeff", help="exact orbit-sum heat coefficient series")
    common(c)
    c.add_argument("--order", type=int, required=True, choices=(0, 2, 4))
    c.set_defaults(func=cmd_coeff)

    i = sub.add_parser("identify", help="match an orbit sum against modular forms")
    common(i, least_trunc=3)
    i.add_argument("--order", type=int, required=True, choices=(0, 2, 4))
    i.set_defaults(func=cmd_identify)

    k = sub.add_parser("check", help="numeric structural checks")
    k.add_argument("subject", choices=("transforms", "dirac", "crossval"))
    common(k)
    k.add_argument("--order", type=int, default=4, choices=(0, 2, 4))
    k.add_argument("--samples", type=_int_at_least(1), default=5)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--tol", type=_positive_float, default=1e-10)
    k.add_argument("--mu-re", type=_finite_float, default=1.05)
    k.add_argument("--mu-im", type=_finite_float, default=0.0)
    k.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and args.subject == "crossval" and args.mu_im:
        parser.error("argument --mu-im: check crossval compares at a real mu; leave it at 0")
    args.func(args)


if __name__ == "__main__":
    main()
