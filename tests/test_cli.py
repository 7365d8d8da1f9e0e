import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from todalab.cli import _DEFAULTS, RunConfig, main, parse_config
from todalab.errors import ConfigError
from todalab.spectral import (ScalarField, TorusGrid, load_field_values,
                              save_field)
from todalab.testfn import DEFAULT_EPS_LIST, _window_radius


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_comments_and_blanks(tmp_path):
    cfg = parse_config(write_config(tmp_path, """
        # a comment
        grid.n = 64   # trailing comment

        eps = 0.5
    """))
    assert cfg.n == 64
    assert cfg.eps == 0.5


def test_parse_config_rejects_bad_line(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "grid.n 64\n"))


def test_unknown_key_exits_64(tmp_path, capsys):
    path = write_config(tmp_path, "grid.m = 64\n")
    assert main(["verify", "--config", path]) == 64
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_config_exits_64(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "nope.cfg")]) == 64
    assert "configuration error" in capsys.readouterr().err


def test_bad_grid_exits_64(tmp_path, capsys):
    path = write_config(tmp_path, "grid.n = 63\n")
    assert main(["solve", "--config", path]) == 64
    capsys.readouterr()


def test_grid_n_not_power_of_two_exits_64_with_one_line(tmp_path, capsys):
    # grid.n follows TorusGrid's rule at parse time, also for commands
    # that build no grid from it
    path = write_config(tmp_path, "grid.n = 24\n")
    assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "power of two" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "verify.json").exists()


def test_bad_eps_list_exits_64(tmp_path, capsys):
    path = write_config(tmp_path, "testfn.eps_list = 1e-3,1e-2\n")
    assert main(["testfn", "--config", path]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["bogus"], ["verify", "--format", "xml"],
                                  ["solve", "--bogus"]])
def test_bad_argv_exits_64_with_one_line(capsys, argv):
    # a bad command line is bad input like a bad config: exit 64 and one
    # line, not argparse's usage message and its exit 2, the numerical
    # failure code
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: todalab" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "points = 0.5,abc\n",
    "solver.max_iter = -5\nsolver.grad_tol = nan\n",
    "solver.max_iter = -5\n",
    "solver.grad_tol = nan\n",
    "solver.grad_tol = 0\n",
    "metric.kind = cosine:nan\n",
    "testfn.L_coupling = fixed:abc\n",
    "seed = -1\n",
    "testfn.L_coupling = fixed:-5\n",
    "testfn.L_coupling = fixed:0\n",
    "testfn.L_coupling = fixed:2.0\ntestfn.eps_list = 1e-2,-1e-3\n",
    "metric.kind = file=TMPDIR\n",
    "solver.ceiling = -1\n",
    "solver.ceiling = 0\n",
    "metric.kind = cosine:800\n",
    "metric.kind = file=TMPDIR/count.txt\n",
    "metric.kind = file=TMPDIR/abc.txt\n",
    "metric.kind = file=TMPDIR/empty.txt\n",
    "metric.kind = file=TMPDIR/bytes.txt\n",
    "metric.kind = file=TMPDIR/negative.txt\n",
    "points = 0.1,0.1;0.2,0.1\n",
    "masses = 1,1\n",
])
def test_bad_values_exit_64_with_one_line(tmp_path, capsys, text):
    # malformed metric files: a wrong value count, a non-number, no data,
    # bytes that are not UTF-8 text, a negative size
    (tmp_path / "count.txt").write_text("64\n1 2 3\n")
    (tmp_path / "abc.txt").write_text("64\nabc\n")
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "bytes.txt").write_bytes(b"2\n\xff 1 2 3\n")
    (tmp_path / "negative.txt").write_text("-4\n" + " 0.0" * 16 + "\n")
    text = text.replace("TMPDIR", str(tmp_path))     # a directory
    # points are read by green (two closer than 16h cannot be resolved)
    command = "green" if text.startswith("points") else "solve"
    path = write_config(tmp_path, "grid.n = 64\neps = 0.5\n" + text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", path, "--out", str(tmp_path)])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert "Warning" not in err and not caught
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("config, out", [
    ("cfgdir", "out"), ("bytes.cfg", "out"),
    ("run.cfg", "afile"), ("run.cfg", "afile/sub")])
def test_unreadable_config_or_out_exits_64_before_any_work(
        tmp_path, capsys, monkeypatch, config, out):
    # a config that is a directory or not UTF-8 text, and an output
    # directory that cannot be made (an existing file, or a path under
    # one), are configuration errors found before any work
    (tmp_path / "cfgdir").mkdir()
    (tmp_path / "bytes.cfg").write_bytes(b"grid.n = 64\n\xff\xfe\n")
    (tmp_path / "afile").write_text("")
    write_config(tmp_path, "grid.n = 64\neps = 0.5\n")
    monkeypatch.setattr("todalab.cli.minimize_phi_eps",
                        lambda *args: pytest.fail("the solve ran"))
    assert main(["solve", "--config", str(tmp_path / config),
                 "--out", str(tmp_path / out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("coupling, tail", [
    (coupling, tail) for coupling in ("auto", "fixed:2.0")
    for tail in ("1e-300", "5e-324", "1e-160", "1e-80")] + [
    ("fixed:2.0", "1e-55")])
def test_tiny_eps_exits_64_with_one_line(tmp_path, capsys, tail, coupling):
    # eps^2 underflows, L overflows, the window radius squared underflows
    # or e^G / eps^2 at the stitch circle overflows: a configuration
    # error before any row is evaluated
    path = write_config(tmp_path, "grid.n = 32\npoints = 0.25,0.25;0.75,0.75\n"
                        f"testfn.L_coupling = {coupling}\n"
                        f"testfn.eps_list = 1e-2,1e-3,1e-4,{tail}\n")
    assert main(["testfn", "--config", path, "--out", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "too small" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "testfn.json").exists()


@pytest.mark.parametrize("coupling, tail", [("auto", "1e-75"),
                                            ("fixed:2.0", "1e-50")])
def test_small_eps_near_the_limit_runs(tmp_path, capsys, tail, coupling):
    # the smallest eps of each coupling that the window check lets
    # through runs with no overflow
    path = write_config(tmp_path, "grid.n = 32\npoints = 0.25,0.25;0.75,0.75\n"
                        f"testfn.L_coupling = {coupling}\n"
                        f"testfn.eps_list = 1e-2,1e-3,1e-4,{tail}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["testfn", "--config", path, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "testfn.json").exists()


_NUMBER = st.one_of(st.integers().map(str), st.floats().map(repr))
_NUMBER_LIST = st.lists(_NUMBER, min_size=1, max_size=4).map(",".join)
# values shaped like each key's own, so that some examples get past parsing
_TYPED = {
    "metric.kind": st.one_of(
        st.sampled_from([__file__, os.path.dirname(__file__),
                         "/no/such/file", "a\x00b"]).map("file={}".format),
        _NUMBER.map("cosine:{}".format)),
    "testfn.L_coupling": st.one_of(st.just("auto"),
                                   _NUMBER.map("fixed:{}".format)),
    "points": st.lists(st.tuples(_NUMBER, _NUMBER).map(",".join),
                       max_size=2).map(";".join),
    "masses": _NUMBER_LIST,
    "testfn.eps_list": _NUMBER_LIST,
    "sweep.eps_list": _NUMBER_LIST,
    "output.format": st.sampled_from(["json", "csv", "xml"]),
}
_ENTRIES = st.lists(st.sampled_from(sorted(_DEFAULTS)), unique=True,
                    max_size=3).flatmap(lambda keys: st.fixed_dictionaries({
                        k: st.one_of(st.text(max_size=20),
                                     _TYPED.get(k, _NUMBER)) for k in keys}))


@settings(max_examples=300, deadline=None)
@given(_ENTRIES)
@example({"metric.kind": "file=" + os.path.dirname(__file__)})
def test_config_text_parses_or_fails_cleanly(entries):
    # every value either builds a config that holds the invariants the
    # commands rely on, or raises ConfigError (exit 64 in main); a few
    # keys per example, so that the others keep their valid defaults
    try:
        cfg = RunConfig(entries)
    except ConfigError:
        return
    assert cfg.seed >= 0
    assert cfg.solver.max_iter >= 1
    assert cfg.solver.grad_tol > 0.0
    assert cfg.solver.ceiling > 0.0
    assert cfg.L_fixed is None or cfg.L_fixed > 0.0
    assert all(e > 0.0 for e in cfg.testfn_eps)
    # every parsed eps gives a finite, nonzero window radius, or the test
    # pair rejects it with a ConfigError (exit 64)
    for eps in cfg.testfn_eps:
        try:
            _, le = _window_radius(eps, cfg.L_fixed, ())
        except ConfigError:
            continue
        assert math.isfinite(le) and le * le > 0.0
    if cfg.metric_kind.startswith("file="):
        assert os.path.isfile(cfg.metric_kind[len("file="):])


def _mostly(valid, other):
    """valid in three of four branches, other in the fourth."""
    return st.one_of(valid, valid, valid, other)


_POINT = st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                   st.floats(0.0, 1.0, exclude_max=True)).map(
                       lambda p: f"{p[0]!r},{p[1]!r}")
_EPS_LIST = st.lists(st.floats(1e-8, 2.0), min_size=4, max_size=6).map(
    lambda xs: ",".join(map(repr, sorted(set(xs), reverse=True))))
# whole runs on the 16 grid: mostly values of each key's own shape, so
# that most examples get past parsing into the solvers, and short solves
_RUN_ENTRIES = st.fixed_dictionaries({
    "grid.n": st.just("16"),
    "points": _mostly(_POINT, st.lists(st.one_of(_POINT, _TYPED["points"]),
                                       min_size=1, max_size=2).map(";".join)),
    "solver.max_iter": st.integers(1, 12).map(str),
    "eps": _mostly(st.floats(1e-3, 4 * math.pi).map(repr), _NUMBER),
}, optional={
    "metric.kind": _mostly(st.floats(-3.0, 3.0).map("cosine:{!r}".format),
                           _TYPED["metric.kind"]),
    "masses": _NUMBER_LIST,
    "solver.grad_tol": _mostly(st.floats(1e-12, 1.0).map(repr), _NUMBER),
    "solver.ceiling": _mostly(st.floats(1.0, 60.0).map(repr), _NUMBER),
    "testfn.eps_list": _mostly(_EPS_LIST, _NUMBER_LIST),
    "testfn.L_coupling": _TYPED["testfn.L_coupling"],
    "output.format": st.sampled_from(["json", "csv"]),
})


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["green", "solve", "testfn"]), _RUN_ENTRIES)
def test_main_runs_or_fails_with_one_line(command, entries):
    # from the config file to the exit code: every run exits 0, 1, 2 or
    # 64; a failure prints exactly one line to stderr, a success none,
    # and nothing escapes main or warns (a warning would print as more
    # stderr lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in entries.items()))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--config", path, "--out", tmp])
    assert code in (0, 1, 2, 64)
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    assert len(lines) == (0 if code == 0 else 1), lines
    assert err.getvalue().count("\n") == len(lines)


def test_metric_kind_validation():
    assert RunConfig({"metric.kind": "cosine:0.2"}).metric_kind == "cosine:0.2"
    with pytest.raises(ConfigError):
        RunConfig({"metric.kind": "cosine:abc"})
    with pytest.raises(ConfigError):
        RunConfig({"metric.kind": "bumpy"})
    with pytest.raises(ConfigError):
        RunConfig({"metric.kind": "file=/no/such/metric.txt"})


def test_cosine_metric_is_normalized():
    metric = RunConfig({"metric.kind": "cosine:0.2", "grid.n": "64"}).metric()
    assert abs(metric.area - 1.0) < 1e-12


def test_verify_ok(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verify: ok" in out
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) == 21
    assert all(c["passed"] for c in payload["checks"])
    assert payload["config_sha256"]
    # exact derivatives at n = 256 read at most 2.5e-12 against 1e-10
    traces = [c for c in payload["checks"]
              if c["check"].startswith("quadratic_trace_")]
    assert len(traces) == 4
    assert all(c["tolerance"] == 1e-10 for c in traces)


def test_verify_perturb_fails(tmp_path, capsys):
    code = main(["verify", "--perturb", "--out", str(tmp_path),
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verify: FAIL" in out
    text = (tmp_path / "verify.csv").read_text()
    assert text.splitlines()[0].startswith("config_sha256,")
    assert "False" in text


def test_solve_flat(tmp_path, capsys):
    path = write_config(tmp_path, "grid.n = 64\neps = 0.5\n")
    code = main(["solve", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    assert "solve: grad_tol after 0 iterations" in capsys.readouterr().out
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["converged"] is True
    assert payload["eps"] == 0.5
    for name in ("u1.txt", "u2.txt"):
        vals = load_field_values(str(tmp_path / name))
        assert vals.shape == (64, 64)
        assert np.max(np.abs(vals)) == 0.0


@pytest.mark.parametrize("stop", ["stagnation", "line_search", "nondescent",
                                  "max_iter", "ceiling"])
def test_solve_unconverged_exits_2_with_one_line(tmp_path, capsys,
                                                 monkeypatch, stop):
    # the zero start converges at once, so the descent is replaced by one
    # that stops short: the report and the fields are still written
    from dataclasses import replace

    from todalab import cli

    real = cli.minimize_phi_eps

    def stopped_short(*args):
        final, report = real(*args)
        return final, replace(report, stop_reason=stop)

    monkeypatch.setattr(cli, "minimize_phi_eps", stopped_short)
    path = write_config(tmp_path, "grid.n = 16\neps = 0.5\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"solve: {stop} after 0 iterations" in captured.out
    assert captured.err == (f"numerical failure: solve did not converge "
                            f"({stop})\n")
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["stop_reason"] == stop
    assert payload["converged"] is False
    assert (tmp_path / "u1.txt").exists() and (tmp_path / "u2.txt").exists()


@pytest.mark.parametrize("stop", ["stagnation", "max_iter", "error"])
def test_sweep_unconverged_exits_2_with_one_line(tmp_path, capsys,
                                                 monkeypatch, stop):
    # the zero start converges at once, so the descent is replaced by one
    # that stops short (or raises) at the second eps: the report is still
    # written
    from dataclasses import replace

    from todalab import diagnostics
    from todalab.errors import SolverError

    real = diagnostics.minimize_phi_eps

    def stopped_short(init, eps, *args):
        final, report = real(init, eps, *args)
        if eps == 0.5 and stop == "error":
            raise SolverError("descent failed")
        if eps == 0.5:
            report = replace(report, stop_reason=stop)
        return final, report

    monkeypatch.setattr(diagnostics, "minimize_phi_eps", stopped_short)
    path = write_config(tmp_path, "grid.n = 16\nsweep.eps_list = 1.0,0.5\n")
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "sweep: 2 runs" in captured.out
    assert captured.err == (f"numerical failure: sweep did not converge at "
                            f"eps 0.5 ({stop})\n")
    runs = json.loads((tmp_path / "sweep.json").read_text())["runs"]
    assert runs[0]["stop_reason"] == "grad_tol"
    assert runs[1].get("stop_reason", "error") == stop
    assert (runs[1]["error"] != "") == (stop == "error")


def test_solve_requires_eps(tmp_path, capsys):
    path = write_config(tmp_path, "grid.n = 64\n")
    assert main(["solve", "--config", path]) == 64
    capsys.readouterr()


def test_solve_supercritical_masses_warn(tmp_path, capsys):
    path = write_config(tmp_path, "grid.n = 64\nmasses = 13.0,13.0\n")
    code = main(["solve", "--config", path, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 64
    assert "masses exceed 4*pi" in err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1


def test_green_case1(tmp_path, capsys):
    path = write_config(
        tmp_path, "grid.n = 128\npoints = 0.25,0.25;0.75,0.75\n")
    code = main(["green", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    assert "green: case one" in capsys.readouterr().out
    payload = json.loads((tmp_path / "green.json").read_text())
    rows = payload["expansions"]
    assert [r["a"] for r in rows] == [-4.0, 2.0, 2.0, -4.0]
    # exact derivatives read at most 1.6e-12 here
    assert all(abs(r["alpha_plus_beta"] - 2 * math.pi) < 1e-10 for r in rows)
    assert payload["case"] == "one"


def test_green_rough_metric_exits_2_with_one_line(tmp_path, capsys):
    # phi = 0.5 cos(20 * 2 pi x) varies on a few cells: e^phi is not
    # resolved on the grid, so no expansion is stated
    grid = TorusGrid(64)
    X, _ = grid.mesh()
    save_field(str(tmp_path / "rough.txt"),
               ScalarField(grid, 0.5 * np.cos(40.0 * math.pi * X)))
    path = write_config(tmp_path, "grid.n = 64\npoints = 0.25,0.25;0.75,0.75\n"
                        f"metric.kind = file={tmp_path / 'rough.txt'}\n")
    assert main(["green", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: metric unresolved ")
    assert err.count("\n") == 1
    assert not (tmp_path / "green.json").exists()


@pytest.mark.parametrize("n", [16, 32])
def test_green_coarse_curved_one_point_is_unconverged(tmp_path, capsys, n):
    # the cosine:0.5 one-point descent stagnates at n = 16 and 32: at
    # both the report is written and the run exits 2 naming the pair's
    # stop reason, not an expansion failure
    path = write_config(tmp_path, f"grid.n = {n}\nmetric.kind = cosine:0.5\n"
                        "points = 0.3,0.6\n")
    assert main(["green", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: one-point pair did not converge (stagnation)\n")
    payload = json.loads((tmp_path / "green.json").read_text())
    assert payload["descent"]["converged"] is False
    assert [r["field"] for r in payload["expansions"]] == [1, 2]


def test_green_one_point_honours_solver_options(tmp_path, capsys):
    # one Newton step stops the pair short: the report is written, and
    # the run exits 2 with one line naming the stop reason
    path = write_config(
        tmp_path, "grid.n = 64\npoints = 0.5,0.5\n"
        "solver.max_iter = 1\nsolver.grad_tol = 1e-3\n")
    assert main(["green", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: one-point pair did not converge (max_iter)\n")
    descent = json.loads((tmp_path / "green.json").read_text())["descent"]
    assert descent["iterations"] == 1
    assert descent["stop_reason"] == "max_iter"
    assert descent["converged"] is False


def test_green_one_point_converged_exits_0(tmp_path, capsys):
    path = write_config(tmp_path, "grid.n = 32\npoints = 0.5,0.5\n")
    assert main(["green", "--config", path, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    descent = json.loads((tmp_path / "green.json").read_text())["descent"]
    assert descent["converged"] is True


def test_testfn_unconverged_one_point_exits_2_with_one_line(tmp_path, capsys):
    path = write_config(
        tmp_path, "grid.n = 64\npoints = 0.5,0.5\nsolver.max_iter = 1\n"
        "testfn.eps_list = 1e-2,3e-3,1e-3,3e-4\n")
    assert main(["testfn", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("numerical failure: one-point pair did not converge "
                   "(max_iter)\n")
    assert not (tmp_path / "testfn.json").exists()


def test_testfn_default_eps_list_fits(tmp_path, capsys):
    # the default eps list is testfn's own five couplings, enough for the
    # slope fit that the default L_coupling = auto makes
    assert RunConfig({}).testfn_eps == list(DEFAULT_EPS_LIST)
    path = write_config(tmp_path, "grid.n = 32\npoints = 0.5,0.5\n")
    assert main(["testfn", "--config", path, "--out", str(tmp_path)]) == 0
    assert "testfn: case two, 5 evaluations" in capsys.readouterr().out
    rows = json.loads((tmp_path / "testfn.json").read_text())["rows"]
    assert [r["eps"] for r in rows] == list(DEFAULT_EPS_LIST)


@pytest.mark.parametrize("points, case", [("0.5,0.5", "two"),
                                          ("0.25,0.25;0.75,0.75", "one")])
def test_testfn_marks_case2_fit_not_a_result(tmp_path, capsys, points, case):
    # the one-point fit's slope and constants miss a term of the case-2
    # level (README, "not a result yet"), so testfn says so in one more
    # stdout line; a two-point fit prints none
    path = write_config(tmp_path, f"grid.n = 32\npoints = {points}\n")
    assert main(["testfn", "--config", path, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith(f"testfn: case {case}, 5 evaluations")
    assert lines[1:] == ([
        "testfn: the case-2 slope and constants are not a result yet "
        "(a term of the case-2 level is missing; see README)"]
        if case == "two" else [])


def test_green_needs_points(tmp_path, capsys):
    path = write_config(tmp_path, "grid.n = 128\n")
    assert main(["green", "--config", path]) == 64
    capsys.readouterr()


def test_green_one_point_csv_cells_are_flat(tmp_path, capsys):
    # the one-point pair's descent record is one descent_<field> column
    # per field in CSV (the JSON report keeps it nested)
    path = write_config(tmp_path, "grid.n = 64\npoints = 0.5,0.5\n"
                        "output.format = csv\n")
    assert main(["green", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "green.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert not any(cell.startswith("{") for row in rows
                   for cell in row.values())
    assert "descent" not in rows[0]
    assert {row["descent_stop_reason"] for row in rows} == {"grad_tol"}
    assert {row["descent_el_residual"] for row in rows} == {""}


def test_green_deterministic(tmp_path, capsys):
    path = write_config(
        tmp_path, "grid.n = 128\npoints = 0.25,0.25;0.75,0.75\n"
        "output.format = csv\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["green", "--config", path, "--out", str(out1)]) == 0
    assert main(["green", "--config", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "green.csv").read_bytes() == (out2 / "green.csv").read_bytes()


def test_testfn_fixed_L(tmp_path, capsys):
    path = write_config(
        tmp_path, "grid.n = 128\npoints = 0.25,0.25;0.75,0.75\n"
        "testfn.eps_list = 1e-2,1e-3\ntestfn.L_coupling = fixed:2.0\n")
    code = main(["testfn", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    assert "testfn: case one, 2 evaluations" in capsys.readouterr().out
    payload = json.loads((tmp_path / "testfn.json").read_text())
    assert payload["L_mode"] == "fixed:2.0"
    assert [r["L"] for r in payload["rows"]] == [2.0, 2.0]
    assert all(np.isfinite(r["phi0"]) for r in payload["rows"])


def test_sweep_writes_csv(tmp_path, capsys):
    path = write_config(tmp_path, "grid.n = 64\nsweep.eps_list = 1.0,0.5\n"
                        "output.format = csv\n")
    code = main(["sweep", "--config", path, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged, converged" in out
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["eps"] for row in rows] == ["1.0", "0.5"]
    assert {row["config_sha256"] for row in rows} == {parse_config(path).digest}


SWEEP_KEYS = ("eps", "classification", "profile_error", "r1", "r2", "x1",
              "y1", "x2", "y2", "converged", "iterations")


def test_sweep_report_formats(tmp_path, capsys):
    path = write_config(tmp_path, "grid.n = 64\nsweep.eps_list = 1.0,0.5\n"
                        "solver.max_iter = 50\n")
    for fmt in ("json", "csv"):
        reports = []
        for run in ("a", "b"):
            out = tmp_path / fmt / run
            assert main(["sweep", "--config", path, "--out", str(out),
                         "--format", fmt]) == 0
            assert [p.name for p in out.iterdir()] == [f"sweep.{fmt}"]
            reports.append((out / f"sweep.{fmt}").read_bytes())
        assert reports[0] == reports[1]
        text = reports[0].decode()
        if fmt == "json":
            rows = json.loads(text)["runs"]
            keys = set(rows[0])
        else:
            lines = text.splitlines()
            rows, keys = lines[1:], set(lines[0].split(","))
        assert len(rows) == 2
        assert set(SWEEP_KEYS) <= keys
    capsys.readouterr()


def test_config_digest_stable():
    assert RunConfig({}).digest == RunConfig({}).digest
    assert RunConfig({}).digest != RunConfig({"grid.n": "128"}).digest


def test_imports_leave_scipy_special_and_integrate_unloaded():
    # scipy.special and scipy.integrate are imported where they are used:
    # loaded with the modules they cost every Phi_eps-only process and
    # every command about 24 MB and 50 MB
    code = ("import todalab.functional, todalab.greens, todalab.testfn, "
            "todalab.cli\n")
    assert _scipy_modules_after(code) == "[]"


def test_fits_leave_scipy_special_unloaded():
    # E1 and the kernel transform's Bessel function are numpy code: a
    # two-pole fit and a one-pole solve load no scipy.special
    code = ("import numpy as np\n"
            "from todalab import geometry, greens, testfn\n"
            "m = geometry.make_flat_torus(32)\n"
            "pair = greens.green_pair_case1((0.25, 0.25), (0.75, 0.75), m)\n"
            "testfn.asymptotic_fit_case1(pair, m)\n"
            "one = greens.green_pair_case2(np.array([0.5, 0.5]), m)\n"
            "greens.extract_expansions(one)\n")
    assert _scipy_modules_after(code) == "[]"


def test_verify_loads_no_scipy(tmp_path):
    # verify's integrals are composite Gauss-Legendre in numpy: no
    # todalab command needs scipy at run time
    code = ("from todalab.cli import main\n"
            f"assert main(['verify', '--out', {str(tmp_path)!r}]) == 0\n")
    assert _scipy_modules_after(code) == "[]"


def _scipy_modules_after(code: str) -> str:
    """Which scipy modules a fresh interpreter has loaded after running
    code."""
    import subprocess
    import sys

    import todalab

    src = os.path.dirname(os.path.dirname(os.path.abspath(todalab.__file__)))
    code = ("import sys\n" + code
            + "print(sorted(m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]
