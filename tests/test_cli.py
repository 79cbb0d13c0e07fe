from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi9 import cli, seeley
from bianchi9.series import Grade, PuiseuxSeries
from bianchi9.theta import theta_series, theta_values
from test_series import _series


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``src/`` first on its path; text output captured."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _run(capsys, *argv) -> dict:
    cli.main(list(argv))
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return json.loads(out)


def _exit_code(*argv) -> int:
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code


def test_theta_value(capsys):
    doc = _run(capsys, "theta", "--p", "0", "--q", "0", "--mu-re", "1.0")
    assert doc["value"][0] == pytest.approx(1.0864348112133080, abs=1e-10)
    assert doc["value"][1] == pytest.approx(0.0, abs=1e-12)


def test_theta_series_exponents(capsys):
    doc = _run(capsys, "theta", "--p", "1/2", "--q", "0", "--series", "--trunc", "4")
    exps = [t["exp"] for t in doc["series"]["terms"]]
    assert exps == ["1/8", "9/8", "25/8"]


@pytest.mark.parametrize("extra", [(), ("--series",), ("--dq", "--n", "2")])
def test_theta_reduces_characteristics_mod_1(capsys, extra):
    outs = []
    for p, q in (("1/3", "1/5"), ("1/3", "6/5"), ("4/3", "1/5")):
        cli.main(["theta", "--p", p, "--q", q, *extra])
        outs.append(capsys.readouterr().out)
    assert outs[0].endswith("\n") and outs[1:] == outs[:1] * 2


def test_negative_option_values_follow_an_equals_sign(capsys):
    """argparse reads -2/3 and -1e-3 as option names, so a negative value is written --p=-2/3."""
    assert _exit_code("theta", "--p", "-2/3", "--q", "1/5") == 2
    outs = []
    for p, q in (("--p=-2/3", "--q=-4/5"), ("--p=1/3", "--q=1/5")):
        cli.main(["theta", p, q, "--n", "2", "--mu-re", "1.2", "--mu-im", "0.1"])
        outs.append(capsys.readouterr().out)
    assert outs[0].endswith("\n") and outs[0] == outs[1]
    cli.main(["check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-im=-1e-3"])  # returns: exit 0
    assert '"pass":true' in capsys.readouterr().out


@pytest.mark.parametrize("mu_im", ("1e300", "18.3"))
def test_theta_reduces_mu_im_mod_its_period(capsys, mu_im):
    """At p = 1/3 the lattice sum has period 2 * 3^2 = 18 in Im mu."""
    outs = []
    for im in (mu_im, repr(math.fmod(float(mu_im), 18)), "0.3"):
        cli.main(["theta", "--p", "4/3", "--q", "1/5", "--mu-re", "1.0", "--mu-im", im])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    if mu_im == "18.3":
        # 18.3 - 18 is 0.3 + 7e-16, so the phase keeps nearly every digit
        assert json.loads(outs[0])["value"] == pytest.approx(json.loads(outs[2])["value"], abs=1e-13)


@pytest.mark.parametrize("dq", [False, True])
@pytest.mark.parametrize("n", [0, 3])
def test_theta_value_is_the_walk_for_both_functions(capsys, n, dq):
    """theta --n k sums only the function --dq picks; its value has the bits of a walk for both."""
    extra = ["--dq"] if dq else []
    doc = _run(capsys, "theta", "--p", "1/3", "--q", "1/5", "--n", str(n), "--mu-re", "0.9", "--mu-im", "0.2", "--tol", "1e-14", *extra)
    p, q = Fraction(1, 3), Fraction(1, 5)
    v = theta_values([((p, q), (n + 1, n + 1))], complex(0.9, 0.2), 1e-14)[p, q][dq][n]
    assert doc["value"] == [v.real, v.imag]


@pytest.mark.parametrize("p,q", [("1e-30", "0"), ("1/100003", "1/100019"), ("99991/100003", "100018/100019")])
def test_theta_with_large_denominators_reads_only_the_roots_it_sums(capsys, p, q):
    """A phase of order den(p) den(q) near 1e10 or 1e30 costs one root per lattice term read,
    not a table of the whole order: the value is the direct sum, term by term."""
    doc = _run(capsys, "theta", "--p", p, "--q", q, "--mu-re", "1.1", "--mu-im", "0.3")
    pf, qf = (float(Fraction(x)) for x in (p, q))
    mu = complex(1.1, 0.3)
    direct = sum(cmath.exp(-math.pi * (m + pf) ** 2 * mu + 2j * math.pi * (m + pf) * qf) for m in range(-12, 13))
    assert doc["value"] == pytest.approx([direct.real, direct.imag], abs=1e-13)


@pytest.mark.parametrize("dq", [False, True])
def test_theta_series_mu_derivative(capsys, dq):
    extra = ["--dq"] if dq else []
    doc = _run(capsys, "theta", "--p", "1/3", "--q", "1/5", "--series", "--n", "1", "--trunc", "4", *extra)
    assert doc == {"series": theta_series(Fraction(1, 3), Fraction(1, 5), 4)[dq].mu_derivative().to_json()}


def test_theta_invalid_order(capsys):
    assert _exit_code("theta", "--p", "0", "--q", "0", "--n", "7") == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --n: invalid choice: 7" in err


@pytest.mark.parametrize("tol", ("1e-323", "5e-324"))
def test_theta_tol_near_the_float_minimum(capsys, tol):
    """tol * 1e-2 underflows to 0 here; the lattice range must still come out as at 1e-300."""
    cli.main(["theta", "--p", "0", "--q", "0", "--tol", "1e-300"])
    want = capsys.readouterr().out
    cli.main(["theta", "--p", "0", "--q", "0", "--tol", tol])
    assert capsys.readouterr().out == want


def test_orbit_cap_names_grid_and_cap(capsys):
    assert _exit_code("orbit", "--p", "1/100003", "--q", "0") == 3
    err = capsys.readouterr().err
    assert "1/200006 grid" in err and "MAX_ORBIT_POINTS = 100000" in err


def test_theta_domain_error():
    assert _exit_code("theta", "--p", "0", "--q", "0", "--mu-re", "-1.0") == 3


def test_invalid_rational(capsys):
    for argv, option in ((("orbit", "--p", "zebra", "--q", "0"), "--p"), (("theta", "--p", "0", "--q", "1/0"), "--q")):
        assert _exit_code(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {option}: not a rational number" in err


def test_orbit_output(capsys):
    doc = _run(capsys, "orbit", "--p", "1/6", "--q", "5/6")
    assert doc["n"] == 8 and doc["n0"] == 0 and doc["budget"] == "2/3"
    assert ["1/6", "1/6"] in doc["points"]
    doc = _run(capsys, "orbit", "--p", "0", "--q", "1/3")
    assert doc["n"] == 24 and doc["n0"] == 4 and doc["budget"] == "0"


def test_exceptional_orbit_exit_code():
    assert _exit_code("orbit", "--p", "1/2", "--q", "1/2") == 5
    assert _exit_code("coeff", "--p", "0", "--q", "0", "--order", "0") == 5


def test_coeff_deterministic_and_cached(tmp_path, capsys):
    argv = (
        "--cache-dir",
        str(tmp_path),
        "coeff",
        "--p",
        "1/6",
        "--q",
        "5/6",
        "--order",
        "0",
        "--trunc",
        "3",
    )
    cli.main(list(argv))
    first = capsys.readouterr().out
    cached = list(tmp_path.glob("*.json"))
    assert len(cached) == 1
    cli.main(list(argv))
    second = capsys.readouterr().out
    assert first == second  # byte-identical, second run from cache
    doc = json.loads(first)
    assert doc["order"] == 0
    assert json.loads(cached[0].read_text()) == doc


def test_cache_dir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SDW_CACHE_DIR", str(tmp_path))
    cli.main(["coeff", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "3"])
    capsys.readouterr()
    assert list(tmp_path.glob("*.json"))


def test_cache_key_depends_on_inputs():
    from fractions import Fraction

    base = cli.cache_key(Fraction(1, 6), Fraction(5, 6), 0, 3)
    # the key of entries already on disk: a change that moves it on purpose updates this literal
    assert base == "4a7d91391778583cf39b09a284915f232e5228b8b35adb2caff52c4e0c5152b6"
    assert base != cli.cache_key(Fraction(1, 6), Fraction(5, 6), 2, 3)
    assert base != cli.cache_key(Fraction(1, 6), Fraction(5, 6), 0, 4)
    assert base == cli.cache_key(Fraction(1, 6), Fraction(5, 6), 0, 3)


def test_corrupt_cache_recomputed(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "coeff", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "3"]
    cli.main(list(argv))
    first = capsys.readouterr().out
    path = next(tmp_path.glob("*.json"))
    path.write_text("{not json")
    cli.main(list(argv))
    assert capsys.readouterr().out == first


def test_unwritable_cache_keeps_the_result(tmp_path, capsys):
    """A --cache-dir that is a regular file: the entry cannot be written, so the
    CLI warns on stderr naming the path and still prints the sum, exit 0."""
    request = ["coeff", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "1"]
    cli.main(["--cache-dir", str(tmp_path / "fresh")] + request)
    want = capsys.readouterr().out
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    proc = _python("-m", "bianchi9.cli", "--cache-dir", str(blocker), *request)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
    assert "Traceback" not in proc.stderr
    assert "WARNING" in proc.stderr and str(blocker) in proc.stderr
    assert blocker.read_text() == "not a directory"


def test_cache_write_failure_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    """An entry that cannot be moved into place: cache_write removes its temporary
    file and re-raises, and coeff warns and still prints the sum, exit 0."""
    request = ["coeff", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "1"]
    cli.main(["--cache-dir", str(tmp_path / "fresh")] + request)
    want = capsys.readouterr().out

    def refuse(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    cache = tmp_path / "cache"
    with pytest.raises(OSError, match="cannot replace"):
        cli.cache_write(cache / "entry.json", {"order": 0})
    assert list(cache.iterdir()) == []
    cli.main(["--cache-dir", str(cache)] + request)
    out, err = capsys.readouterr()
    assert out == want
    assert list(cache.iterdir()) == []
    assert "cache write to" in err and "cannot replace" in err


def test_identify_failure_exit_code(capsys):
    """No multiplier of the search identifies the 72-point orbit's sum at trunc 3."""
    assert _exit_code("identify", "--p", "0", "--q", "1/5", "--order", "0", "--trunc", "3") == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "no identification" in err


def test_identify_requires_depth():
    assert _exit_code("identify", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "2") == 2


def test_identify_output(capsys):
    doc = _run(capsys, "identify", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "4")
    assert doc["target"] == "G14/Delta"
    assert doc["constant"] == "-6081075"
    assert doc["multiplier"] == {"delta": 1, "e4": 0, "e6": 0}
    assert doc["pi_exp"] == -17 and doc["lambda_exp"] == -2


def test_check_dirac(capsys):
    doc = _run(capsys, "check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re", "1.05")
    assert doc["pass"] and doc["max_residual"] <= doc["tol"]


def test_check_dirac_at_complex_mu_and_p_zero(capsys):
    doc = _run(capsys, "check", "dirac", "--p", "0", "--q", "1/3", "--mu-re", "1.05", "--mu-im", "0.001")
    assert doc["pass"] and doc["max_residual"] <= doc["tol"]


def test_check_dirac_where_F_is_real_and_negative(capsys):
    cli.main(["check", "dirac", "--p", "1/6", "--q", "1/2"])  # returns: exit 0
    assert '"pass":true' in capsys.readouterr().out


def test_check_dirac_at_zero_F_exits_3(monkeypatch):
    """sqrt(F) = 0 has no inverse: the ZeroDivisionError is a domain error."""
    real = cli.frame_two_param_jet
    monkeypatch.setattr(cli, "frame_two_param_jet", lambda *a: real(*a)._replace(F_=(0j, 0j, 0j)))
    assert _exit_code("check", "dirac", "--p", "1/6", "--q", "5/6") == 3


def test_check_crossval(capsys):
    doc = _run(
        capsys, "check", "crossval", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "6"
    )
    assert doc["pass"] and doc["relative_residual"] < 1e-6


def test_check_transforms(capsys):
    doc = _run(capsys, "check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "0", "--samples", "1")
    assert doc["pass"] is True and doc["max_residual"] <= doc["tol"]


def test_check_crossval_refuses_complex_mu(capsys):
    assert _exit_code("check", "crossval", "--p", "0", "--q", "1/3", "--order", "0", "--mu-im", "-0.5") == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --mu-im:" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("coeff", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "-3"), 2),
        (("identify", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "-3"), 2),
        (("theta", "--p", "0", "--q", "0", "--series", "--trunc", "-3"), 2),
        (("check", "crossval", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "-3"), 2),
        (("check", "crossval", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "3", "--mu-re", "-1"), 3),
        # refused on the 1/200006 grid before any orbit is enumerated
        (("coeff", "--p", "1/100003", "--q", "0", "--order", "0", "--trunc", "3"), 3),
        (("check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "0", "--samples", "0"), 2),
        (("check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "0", "--samples", "-3"), 2),
        # non-finite floats are refused by the parser
        (("theta", "--p", "0", "--q", "0", "--mu-re", "nan"), 2),
        (("theta", "--p", "0", "--q", "0", "--tol", "nan"), 2),
        (("theta", "--p", "0", "--q", "0", "--tol", "inf"), 2),
        (("check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re", "nan"), 2),
        (("check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re", "inf"), 2),
        (("check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "0", "--tol", "nan"), 2),
        (("check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "0", "--tol", "inf"), 2),
        (("check", "crossval", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "3", "--mu-re", "inf"), 2),
        # finite mu so deep in the cusp that the jets lose their value
        (("check", "crossval", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "3", "--mu-re", "60"), 3),
        (("check", "crossval", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "3", "--mu-re", "1000"), 3),
        (("check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re", "1000"), 3),
        (("check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re", "0.0"), 3),
        # --tol must be above 0 everywhere
        (("theta", "--p", "0", "--q", "0", "--tol", "0"), 2),
        (("theta", "--p", "0", "--q", "0", "--tol", "-1"), 2),
        (("check", "dirac", "--p", "1/6", "--q", "5/6", "--tol", "0"), 2),
        (("check", "dirac", "--p", "1/6", "--q", "5/6", "--tol", "-1"), 2),
        (("check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "0", "--tol", "0"), 2),
        (("check", "transforms", "--p", "1/6", "--q", "5/6", "--order", "0", "--tol", "-1"), 2),
        # theta[1/2, 1/2] = theta_1 vanishes identically: a degenerate parameter point
        (("check", "dirac", "--p", "1/2", "--q", "1/2"), 3),
        # crossval compares at a real mu only
        (("check", "crossval", "--p", "0", "--q", "1/3", "--order", "0", "--trunc", "3", "--mu-im", "0.2"), 2),
        # mu so near Re mu = 0 that the lattice sum would need about 1e150 terms
        (("theta", "--p", "0", "--q", "0", "--mu-re", "1e-300"), 3),
        (("check", "dirac", "--p", "1/6", "--q", "5/6", "--mu-re", "1e-300"), 3),
        (("check", "crossval", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "3", "--mu-re", "1e-300"), 3),
        # an orbit on the 1/200006 grid: up to 4e10 points, above MAX_ORBIT_POINTS
        (("orbit", "--p", "1/100003", "--q", "0"), 3),
        # a mu so deep in the cusp that the check's complex arithmetic overflows
        (("check", "dirac", "--p", "0", "--q", "1/3", "--mu-re", "60"), 3),
    ],
)
def test_bad_input_exit_codes(argv, code):
    assert _exit_code(*argv) == code


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFS = json.loads((PERFBENCH / "refs.json").read_text())
CLI_REFS = REFS["cli"]


def _benchmark_cli_requests() -> dict:
    """{reference key: CLI arguments} of the stored benchmark requests (perfbench/workloads.py)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads

        return workloads.referenced_cli()
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("key", sorted(CLI_REFS))
def test_cli_stdout_matches_benchmark_reference(tmp_path, capsys, key):
    """The stdout bytes the benchmark stores for each CLI request, from an empty cache."""
    cli.main(["--cache-dir", str(tmp_path)] + _benchmark_cli_requests()[key])
    assert capsys.readouterr().out == CLI_REFS[key]


@pytest.mark.parametrize(("name", "order", "key"), [("third", 0, "o24:a0:t6"), ("third", 2, "o24:a2:t6"), ("third", 4, "o24:a4:t6"), ("sixth", 4, "o8:a4:t6")])
def test_orbit_sum_matches_benchmark_reference(orbit_sums, name, order, key):
    """The session's trunc-6 orbit sums are the series the benchmark stores, terms and horizon, as to_json gives them."""
    assert orbit_sums[name, order][0].representation.to_json() == REFS["sums"][key]


def test_cli_import_leaves_numpy_unloaded():
    """Only ``check dirac`` needs numpy, and no request needs mpmath, dataclasses or logging
    at start-up, so importing the CLI loads none of them."""
    code = "import bianchi9.cli, sys; print([m for m in ('numpy', 'mpmath', 'dataclasses', 'logging') if m in sys.modules])"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_check_dirac_domain_error_leaves_numpy_unloaded():
    """check dirac builds its frame first: a mu the frame refuses exits 3, stdout empty, before numpy loads."""
    code = (
        "import sys\n"
        "from bianchi9 import cli\n"
        "try:\n"
        "    cli.main(['check', 'dirac', '--p', '1/6', '--q', '5/6', '--mu-re=-1.0'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'numpy' in sys.modules)\n"
    )
    proc = _python("-c", code)
    assert (proc.stdout, proc.stderr) == ("3 False\n", "ERROR:bianchi9:Re(mu) must be positive\n")


def test_stderr_lines(tmp_path):
    """The stderr bytes of a cache miss and hit, of -v's orbit line and of a domain error:
    one ``LEVEL:bianchi9:message`` line each."""
    cli_run = lambda *argv: _python("-m", "bianchi9.cli", "--cache-dir", str(tmp_path), *argv)  # noqa: E731
    request = ["coeff", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "3"]
    miss, hit = cli_run(*request), cli_run(*request)
    (entry,) = tmp_path.glob("*.json")
    assert (miss.returncode, miss.stderr) == (0, "INFO:bianchi9:cache miss; computing orbit sum (order 0, trunc 3)\n")
    assert (hit.returncode, hit.stderr) == (0, f"INFO:bianchi9:cache hit {entry}\n")
    assert hit.stdout == miss.stdout
    verbose = cli_run("-v", "orbit", "--p", "1/6", "--q", "5/6")
    assert (verbose.returncode, verbose.stderr) == (0, "DEBUG:bianchi9:orbit n=8 n0=0 budget=2/3\n")
    assert cli_run("orbit", "--p", "1/6", "--q", "5/6").stderr == ""
    bad = cli_run("check", "dirac", "--p", "1/2", "--q", "1/2")
    assert (bad.returncode, bad.stdout, bad.stderr) == (3, "", "ERROR:bianchi9:degenerate parameter point (1/2, 1/2)\n")


def _forbid_recompute(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("orbit sum recomputed instead of read from the cache")

    monkeypatch.setattr(seeley, "orbit_sum", fail)


def test_orbit_alias_point_hits_cache(tmp_path, monkeypatch, capsys):
    common = ["--cache-dir", str(tmp_path), "coeff", "--order", "0", "--trunc", "3"]
    cli.main(common + ["--p", "1/6", "--q", "5/6"])
    first = capsys.readouterr().out
    _forbid_recompute(monkeypatch)
    cli.main(common + ["--p", "1/2", "--q", "1/6"])  # another point of the same orbit
    assert capsys.readouterr().out == first
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cache_key_depends_on_tables(monkeypatch):
    from fractions import Fraction

    base = cli.cache_key(Fraction(1, 6), Fraction(5, 6), 0, 3)
    monkeypatch.setattr(cli, "A4_CHECKSUM", "0" * 64)
    assert base != cli.cache_key(Fraction(1, 6), Fraction(5, 6), 0, 3)


def test_identify_and_crossval_read_cache(tmp_path, monkeypatch, capsys):
    common = ["--p", "0", "--q", "1/3", "--order", "0", "--trunc", "3"]
    identify = ["--cache-dir", str(tmp_path), "identify"] + common
    crossval = ["--cache-dir", str(tmp_path), "check", "crossval"] + common
    cli.main(identify)
    cli.main(crossval)
    first = capsys.readouterr().out
    assert not list(tmp_path.glob("*.json"))  # only coeff stores an entry
    cli.main(["--cache-dir", str(tmp_path), "coeff", "--p", "1/6", "--q", "0"] + common[4:])
    capsys.readouterr()
    _forbid_recompute(monkeypatch)
    cli.main(identify)
    cli.main(crossval)
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "entry",
    [
        b'{"order":0,"series":{"terms":"wrong shape"}}',
        b"[]",
        b"\xff\xfe not utf-8",
    ],
)
def test_malformed_cache_entry_recomputed(tmp_path, capsys, entry):
    argv = ["--cache-dir", str(tmp_path), "coeff", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "3"]
    cli.main(list(argv))
    first = capsys.readouterr().out
    path = next(tmp_path.glob("*.json"))
    path.write_bytes(entry)
    cli.main(list(argv))
    assert capsys.readouterr().out == first


def test_cache_entry_of_another_order_recomputed(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "coeff", "--p", "1/6", "--q", "5/6", "--order", "0", "--trunc", "3"]
    cli.main(list(argv))
    first = capsys.readouterr().out
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(first)
    doc["order"] = 2
    path.write_text(json.dumps(doc))
    cli.main(list(argv))
    assert capsys.readouterr().out == first


@given(_series(), st.integers(-3, 3), st.integers(-3, 3), st.sampled_from((0, 2, 4)))
@settings(max_examples=60, deadline=None)
def test_cache_entry_round_trips(tmp_path_factory, s, pi_exp, lambda_exp, order):
    s = PuiseuxSeries(s.exp_den, s.terms, s.trunc, Grade(pi_exp, lambda_exp))
    doc = s.to_json()
    assert PuiseuxSeries.from_json(doc).to_json() == doc
    path = tmp_path_factory.getbasetemp() / "round-trip" / "entry.json"
    cli.cache_write(path, {"order": order, "series": doc})
    cached = cli._cached_series(path, order)
    assert cached is not None and cached.to_json() == doc  # cyclotomic orders too
    assert cli._cached_series(path, (order + 2) % 6) is None  # an entry of another order is a miss
