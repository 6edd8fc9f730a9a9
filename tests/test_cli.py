"""End-to-end tests of the command-line front end, driving main() in
process and checking files, manifests and exit codes."""

import dataclasses
import json
import math
import re
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neurofield.analysis
import neurofield.cli
from neurofield.cli import _COMMANDS, _SETTINGS, _command_keys, build_parser, main
from neurofield.problems import example1
from neurofield.quadrature import Rectangle, build_gauss_rule, build_grid
from neurofield.solver import SolveResult, SolverConfig, solve


def read_field_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,V"
    data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return data


def reject_constant(name):
    raise ValueError(f"manifest holds {name}, which is not valid JSON")


def test_run_writes_snapshot_and_manifest(tmp_path):
    rc = main(["run", "--example", "1", "--ht", "0.02", "--T", "0.1",
               "--snapshots", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    data = read_field_csv(tmp_path / "snapshot_t0.1.csv")
    assert data.shape == (576, 3)
    # field stays near exp(-0.1) everywhere for this problem
    assert np.max(np.abs(data[:, 2] - math.exp(-0.1))) < 1e-3

    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=reject_constant)
    assert manifest["command"] == "run"
    assert manifest["problem"] == "example1"
    params = manifest["parameters"]
    # example 1's own parameters plus the solver settings; nothing the run
    # did not use
    settings = {"ht", "T", "n", "k", "m", "N", "eps_inner", "rank_reduction"}
    assert params.keys() == {"example", "lambda", "sigma", "c"} | settings
    assert neurofield.analysis.solver_settings([SolverConfig(h_t=0.02, T=0.1)]).keys() == settings
    assert params["ht"] == 0.02 and params["N"] == 24
    assert params["rank_reduction"] is True
    # a level's record holds what that level measured, and no run constant
    # but the pair count in integrand_evals
    assert manifest["diagnostics"][0].keys() == {
        "level", "inner_iterations", "contraction_estimate", "kappa_applies",
        "integrand_evals"}
    assert manifest["diagnostics"][0]["kappa_applies"] >= 2
    assert manifest["total_integrand_evals"] > 0
    # example 1's two axis factors, m x N = 12 x 24 each, not a pair table
    assert manifest["table_bytes"] == 2 * 12 * 24 * 8
    assert manifest["table_form"] == "AxisFactors"
    # the fixed-point loop's bound, next to the stability margin it sets
    assert manifest["stability_margin"] == pytest.approx(
        (0.04 / 3.0) * (1.0 + manifest["contraction_bound"]), rel=1e-12)
    assert 0 < manifest["contraction_bound"] < 1
    assert manifest["wall_time"] > 0


def test_run_snapshot_points_match_grid(tmp_path):
    main(["run", "--ht", "0.05", "--T", "0.05", "--snapshots", "0.05",
          "--out", str(tmp_path)])
    data = read_field_csv(tmp_path / "snapshot_t0.05.csv")
    grid = build_grid(Rectangle(-1, 1, -1, 1), 6, build_gauss_rule(4))
    p1, p2 = grid.flat_points()
    assert data[:, 0] == pytest.approx(p1, abs=0.0)
    assert data[:, 1] == pytest.approx(p2, abs=0.0)


def test_run_deterministic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    argv = ["run", "--example", "3", "--ht", "0.05", "--T", "0.1",
            "--snapshots", "0.1"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert (a / "snapshot_t0.1.csv").read_bytes() == (b / "snapshot_t0.1.csv").read_bytes()


def test_run_requires_out_dir(tmp_path, capsys):
    assert main(["run", "--ht", "0.05", "--T", "0.05"]) == 1
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "nowhere"
    assert main(["run", "--ht", "0.05", "--T", "0.05", "--out", str(missing)]) == 1
    assert not missing.exists()  # the directory is not created on demand


def test_run_failure_leaves_no_partial_files(tmp_path, capsys):
    # a snapshot time off the step grid fails before solving and writing
    rc = main(["run", "--ht", "0.02", "--T", "0.1", "--snapshots", "0.015",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["run", "--ht", "0.05", "--T", "0.05", "--snapshots", "inf"], "not a stored level"),
    (["run", "--ht", "0.05", "--T", "0.05", "--snapshots", "nan"], "not a stored level"),
    (["converge-time", "--steps", "nan"], "must be positive and finite"),
    (["converge-space", "--k", "0", "--N", "12"], "rule order"),
    (["converge-time", "--steps", "0"], "must be positive"),
    (["converge-time", "--steps", "0.01,0"], "must be positive"),
    (["converge-time", "--steps", "-0.05"], "must be positive"),
    # example 5's kernel holds its speed: setting v afterwards would pair
    # one speed's kernel with another speed
    (["compare-delay", "--example", "5", "--v", "2", "--ht", "0.1", "--T", "0.2",
      "--snapshots", "0.2"], "does not apply to example 5"),
    # T / h_t overflows to inf
    (["run", "--ht", "5e-324", "--T", "1"], "integer multiple"),
    (["converge-time", "--steps", "1e-300", "--T", "1e300"], "integer multiple"),
    # the closed-form input divides by lambda + mu
    (["run", "--example", "3", "--lambda", "0", "--mu", "0"], "lambda + mu"),
    # a RuntimeError from the solver: the fixed-point loop diverges
    (["run", "--example", "3", "--c", "0.01", "--ht", "1", "--T", "2",
      "--n", "1", "--k", "2", "--m", "2"], "did not reach"),
    # an infinite time constant fails at construction; a tiny one overflows
    # the Euler step to 1e298 and the first inner iteration to inf
    (["run", "--c", "inf"], "c must be positive and finite"),
    (["run", "--c", "1e-300"], "non-finite increment"),
    # tau_max / h_t = 2.8e301 levels of history cannot be indexed
    (["run", "--example", "4", "--v", "1e-300", "--ht", "0.1", "--T", "0.1"],
     "v=1e-300, h_t=0.1"),
    (["compare-delay", "--v", "1e-300", "--ht", "0.1", "--T", "0.1", "--snapshots", "0.1"],
     "v=1e-300, h_t=0.1"),
    # tau_max / h_t = 2.8e10 levels of history at N = 24 fit in int64 but
    # not in memory
    (["run", "--example", "4", "--v", "1e-9", "--ht", "0.1", "--T", "0.1"],
     "B of physical memory"),
    # an infinite speed has no delay to compare, and NaN is no speed
    (["compare-delay", "--v", "inf", "--ht", "0.1", "--T", "0.2", "--snapshots", "0.2"],
     "needs a finite positive transmission speed"),
    (["compare-delay", "--v", "nan", "--ht", "0.1", "--T", "0.2", "--snapshots", "0.2"],
     "needs a finite positive transmission speed"),
], ids=["snapshot-inf", "snapshot-nan", "steps-nan", "k-zero", "steps-zero",
        "steps-with-zero", "steps-negative", "compare-delay-example5",
        "run-steps-overflow", "converge-time-steps-overflow", "zero-decay-rate",
        "inner-iteration-diverges", "c-inf", "c-tiny", "run-delay-too-deep",
        "compare-delay-too-deep", "run-delay-beyond-memory", "compare-delay-v-inf",
        "compare-delay-v-nan"])
def test_bad_times_and_rule_order_exit_cleanly(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("settings,t", [
    (["--v", "1e-3", "--n", "1", "--k", "1", "--no-rank-reduction"], "-709.8"),
    (["--c", "0.003", "--n", "1", "--k", "2", "--m", "2"], "-2.2"),
], ids=["slow", "fast-decay"])
def test_a_history_that_overflows_exits_with_one_error_line(tmp_path, capsys, settings, t):
    """Example 5's history overflows math.exp at a level the run seeds:
    one error line names its time, after the step-bound warnings, and no
    file is written."""
    rc = main(["run", "--example", "5", *settings, "--ht", "0.1", "--T", "0.1",
               "--out", str(tmp_path)])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert rc == 1 and errors == [f"error: the initial data overflow at t={t}, a level the run "
                                  f"seeds: math range error"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("example,name,value", [
    (example, name, value)
    for example, names, values in [
        (1, ("lambda", "sigma"), ("1e-300", "1e300")),
        (2, ("lambda", "sigma"), ("1e-300", "1e300")),
        (3, ("lambda", "mu"), ("1e-300", "1e300")),
        # below v = 1e-2 example 4's history scan takes a third of a second
        (4, ("v",), ("1e-2", "1e300")),
        (4, ("c",), ("1e-300", "1e300")),
        # example 5's history exp(-t / c) bump overflows at t = -709.8 for
        # v = 1e-3 and at t = -0.1 for c = 1e-300
        (5, ("v",), ("1e-3", "1e300")),
        (5, ("c",), ("1e-300", "1e300")),
    ]
    for name in names for value in values])
def test_shipped_examples_at_extreme_parameters_exit_cleanly(tmp_path, capsys, example, name,
                                                             value):
    """Every example at a tiny and a huge value of each of its parameters
    either runs or fails with one error line and no files: no exception
    escapes main."""
    rc = main(["run", "--example", str(example), f"--{name}", value, "--ht", "0.1", "--T", "0.1",
               "--n", "1", "--k", "1", "--no-rank-reduction", "--out", str(tmp_path)])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert (rc, errors) == (0, []) or (rc == 1 and len(errors) == 1
                                        and list(tmp_path.iterdir()) == [])


@pytest.mark.parametrize("argv", [
    ["run", "--example", "4", "--ht", "0.01", "--T", "0.5", "--snapshots", "0.035"],
    ["run", "--ht", "0.01", "--T", "0.5", "--snapshots", "0.1,0.6"],
    ["compare-delay", "--ht", "0.1", "--T", "0.4", "--snapshots", "0.2,0.45"],
], ids=["run-off-grid", "run-after-T", "compare-delay-off-grid"])
def test_bad_snapshot_fails_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    """Every snapshot time is checked against the run's levels, by the rule
    of SolveResult.state_at and with its message, before anything is solved."""
    def no_solve(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr(neurofield.cli, "solve", no_solve)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: time ") and "is not a stored level (h_t=" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "compare-delay"])
@pytest.mark.parametrize("times, first, second", [
    ("0.1,0.1000004", "0.1", "0.1000004"),  # six significant digits read both as 0.1
    ("0.1000004,0.2,0.1000004", "0.1000004", "0.1000004"),
], ids=["six-digits", "equal"])
def test_snapshot_times_that_share_a_file_fail_before_any_solve(
        tmp_path, capsys, monkeypatch, command, times, first, second):
    """Two stored levels whose file names coincide once wrote one file, with
    the later time's field under the earlier time's name; both are named."""
    def no_solve(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr(neurofield.cli, "solve", no_solve)
    argv = [command, "--example", "1", "--n", "1", "--k", "1", "--no-rank-reduction",
            "--ht", "4e-7", "--T", "0.2", "--snapshots", times, "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: snapshot times {first} and {second} both name their files "
                   f"snapshot_t0.1\n")
    assert list(tmp_path.iterdir()) == []


def test_run_rejects_multiple_m_values(tmp_path, capsys):
    rc = main(["run", "--m", "12,24", "--ht", "0.05", "--T", "0.05",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "interpolation order" in capsys.readouterr().err


def test_run_rejects_m_above_resolution(tmp_path, capsys):
    rc = main(["run", "--m", "30", "--ht", "0.05", "--T", "0.05",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "exceeds" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--no-rank-reduction", "--m", "30", "--ht", "0.05", "--T", "0.05"],
    ["compare-delay", "--no-rank-reduction", "--m", "30", "--ht", "0.05", "--T", "0.1",
     "--snapshots", "0.1"],
    # the time study runs direct unless told otherwise
    ["converge-time", "--m", "0", "--steps", "0.02", "--T", "0.02"],
], ids=["run", "compare-delay", "converge-time"])
def test_m_on_a_direct_run_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    """A direct run reads no interpolation order, so an --m given to it is
    an error, not a setting silently dropped."""
    def no_solve(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr(neurofield.cli, "solve", no_solve)
    monkeypatch.setattr(neurofield.analysis, "solve", no_solve)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--m" in err
    assert list(tmp_path.iterdir()) == []


def test_m_on_a_direct_run_is_rejected_from_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 30\nrank-reduction = no\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(cfg), "--ht", "0.05", "--T", "0.05",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--m" in err
    assert list(out.iterdir()) == []


def test_example2_time_constant_is_pinned(tmp_path, capsys):
    # example 2 takes no c, so --c is rejected whatever its value
    for c in ("2.0", "1.0"):
        rc = main(["run", "--example", "2", "--c", c, "--ht", "0.05",
                   "--T", "0.05", "--out", str(tmp_path)])
        assert rc == 1
        assert "--c" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_flag_the_example_does_not_take_is_rejected(tmp_path, capsys):
    rc = main(["run", "--example", "3", "--sigma", "5", "--ht", "0.05",
               "--T", "0.05", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--sigma" in err and "example 3" in err
    assert list(tmp_path.iterdir()) == []


def test_manifest_records_the_problem_parameters(tmp_path):
    rc = main(["run", "--example", "3", "--mu", "2", "--ht", "0.05", "--T", "0.05",
               "--out", str(tmp_path)])
    assert rc == 0
    params = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
    assert {key: params[key] for key in ("example", "lambda", "mu", "c")} == {
        "example": 3, "lambda": 1.0, "mu": 2.0, "c": 1.0}
    assert "sigma" not in params and "v" not in params


def test_converge_time_defaults(tmp_path):
    rc = main(["converge-time", "--example", "1", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "param,error,ratio,order"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.02", "0.01"]
    ratio = float(lines[2].split(",")[2])
    assert 3.4 < ratio < 4.3
    assert (tmp_path / "report.txt").read_text()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["steps"] == [0.02, 0.01]
    assert manifest["parameters"]["rank_reduction"] is False
    assert manifest["rows"][1]["ratio"] == pytest.approx(ratio)


def test_converge_time_on_a_solution_exact_in_time_reports_flat_errors(tmp_path):
    """Example 2 (V = t) has no time error: the bare command's errors are the
    spatial floor, unchanged by halving the step, not the inner tolerance."""
    assert main(["converge-time", "--example", "2", "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "manifest.json").read_text())["rows"]
    assert 0.5 <= rows[1]["ratio"] <= 2.0
    assert all(row["error"] < 1e-12 for row in rows)


@pytest.mark.parametrize("argv,reduced", [
    (["converge-time", "--example", "1", "--steps", "0.02,0.01", "--T", "0.04"], False),
    (["converge-time", "--example", "1", "--steps", "0.02,0.01", "--T", "0.04",
      "--m", "7", "--rank-reduction"], True),
    (["run", "--no-rank-reduction", "--ht", "0.02", "--T", "0.04"], False),
    (["run", "--m", "7", "--ht", "0.02", "--T", "0.04"], True),
], ids=["time-direct", "time-reduced", "run-direct", "run-reduced"])
def test_interpolation_order_is_recorded_only_where_it_is_read(tmp_path, argv, reduced):
    """The direct operator reads no m, so its header and manifest hold none
    (not even the default); an m given to it is an error (below)."""
    assert main([*argv, "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
    assert params.get("m") == (7 if reduced else None)
    if argv[0] == "converge-time":
        header = header_settings((tmp_path / "report.txt").read_text())
        assert header.get("m") == ("7" if reduced else None)


def test_converge_time_on_the_delayed_example(tmp_path):
    """converge-time --example 5 measures the delayed scheme's order 2."""
    rc = main(["converge-time", "--example", "5", "--v", "0.5", "--steps", "0.1,0.05,0.025",
               "--T", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["problem"] == "example5"
    assert manifest["parameters"]["v"] == 0.5
    ratios = [row["ratio"] for row in manifest["rows"][1:]]
    assert len(ratios) == 2 and all(3.7 <= r <= 4.2 for r in ratios), ratios


def test_converge_time_rejects_non_nested_steps(tmp_path, capsys):
    rc = main(["converge-time", "--steps", "0.02,0.015", "--T", "0.06",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "nested" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_converge_space_quick(tmp_path):
    rc = main(["converge-space", "--N", "12,24", "--m", "12",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "report_m12.csv").read_text().strip().split("\n")
    assert [line.split(",")[0] for line in lines[1:]] == ["12", "24"]
    ratio = float(lines[2].split(",")[2])
    assert 200.0 < ratio < 340.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["rank_reduction"] is True
    assert manifest["parameters"]["N"] == [12, 24]


@pytest.fixture
def solved_configs(monkeypatch):
    """Every SolverConfig the study drivers hand to the solver."""
    configs = []

    def recording_solve(problem, config, keep=None):
        configs.append(config)
        return solve(problem, config, keep=keep)

    solve = neurofield.analysis.solve
    monkeypatch.setattr(neurofield.analysis, "solve", recording_solve)
    return configs


def settings(cfg, *varying):
    """A config's recorded settings; a direct config reads no m."""
    out = {"ht": cfg.h_t, "T": cfg.T, "n": cfg.n, "k": cfg.k, "m": cfg.m,
           "N": cfg.n * cfg.k, "eps_inner": cfg.eps_inner, "rank_reduction": cfg.rank_reduction}
    if not cfg.rank_reduction:
        del out["m"]
    return {key: value for key, value in out.items() if key not in varying}


def test_converge_time_manifest_copies_the_solved_configs(tmp_path, solved_configs):
    assert main(["converge-time", "--steps", "0.02,0.01", "--T", "0.04", "--n", "2",
                 "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
    assert params["steps"] == [cfg.h_t for cfg in solved_configs] == [0.02, 0.01]
    for cfg in solved_configs:
        shared = settings(cfg, "ht")
        assert {key: params[key] for key in shared} == shared


def test_converge_space_manifest_copies_the_solved_configs(tmp_path, solved_configs):
    assert main(["converge-space", "--N", "8,12", "--m", "8", "--T", "0.02",
                 "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
    assert params["N"] == [cfg.n * cfg.k for cfg in solved_configs] == [8, 12]
    assert params["m"] == [8]
    for cfg in solved_configs:
        shared = settings(cfg, "n", "N", "m")
        assert {key: params[key] for key in shared} == shared


def header_settings(report_txt):
    """The key=value settings in the parentheses of a report's first line."""
    inside = report_txt.split("\n", 1)[0].split("  (", 1)[1].rstrip(")")
    return dict(item.split("=", 1) for item in inside.split(", ") if "=" in item)


@pytest.mark.parametrize("argv,listed", [
    (["converge-time", "--steps", "0.02,0.01", "--T", "0.04", "--n", "2"], ()),
    (["converge-space", "--N", "8,12", "--m", "8", "--T", "0.02"], ("m",)),
], ids=["time", "space"])
def test_report_header_shows_the_manifest_settings(tmp_path, solved_configs, argv, listed):
    """The settings in a study's report.txt header are the ones every
    solve shared, rank_reduction included, with the manifest's values; the
    manifest lists the studied values of the keys in ``listed``."""
    assert main([*argv, "--out", str(tmp_path)]) == 0
    header = header_settings((tmp_path / "report.txt").read_text())
    params = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
    shared = {key: value for key, value in settings(solved_configs[0]).items()
              if all(settings(cfg).get(key) == value for cfg in solved_configs)}
    assert "rank_reduction" in shared
    assert header == {key: str(value) for key, value in shared.items()}
    assert {key: params[key] for key in shared if key not in listed} == \
        {key: value for key, value in shared.items() if key not in listed}
    assert all(params[key] == [shared[key]] for key in listed)


@pytest.mark.parametrize("argv,study", [
    (["converge-time", "--steps", "0.02,0.01", "--T", "0.04", "--n", "2"], "TimeStudy"),
    (["converge-space", "--N", "8,12", "--m", "8", "--T", "0.02"], "SpaceStudy"),
], ids=["time", "space"])
def test_a_study_command_builds_its_text_once(tmp_path, capsys, monkeypatch, argv, study):
    """A study command builds its report text once: report.txt holds it
    with a final newline, and it is what the command prints."""
    cls = getattr(neurofield.analysis, study)
    to_text, calls = cls.to_text, []

    def counted(self):
        calls.append(self)
        return to_text(self)

    monkeypatch.setattr(cls, "to_text", counted)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (tmp_path / "report.txt").read_text()


def test_converge_time_can_turn_rank_reduction_on(tmp_path, solved_configs):
    assert main(["converge-time", "--steps", "0.02,0.01", "--T", "0.04",
                 "--rank-reduction", "--m", "6", "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
    assert params["rank_reduction"] is True and params["m"] == 6
    assert [(cfg.rank_reduction, cfg.m) for cfg in solved_configs] == [(True, 6)] * 2


def test_converge_space_rejects_an_unused_resolution_or_order(tmp_path, capsys):
    assert main(["converge-space", "--N", "8,12,24", "--m", "12,30", "--T", "0.02",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "m=30 exceeds every grid resolution" in err
    assert "N=8 is below every interpolation order" in err
    assert list(tmp_path.iterdir()) == []


def test_converge_space_needs_rank_reduction(tmp_path, capsys):
    # the study always runs the rank-reduced operator, so the flag is unknown
    with pytest.raises(SystemExit) as exc:
        main(["converge-space", "--N", "12", "--m", "12",
              "--no-rank-reduction", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--no-rank-reduction" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# settings a subcommand does not read: converge-time takes its steps from
# --steps, converge-space its n from N / k and always reduces rank
UNREAD_SETTINGS = [
    ("converge-time", ["--ht", "0.01"], "ht = 0.01"),
    ("converge-space", ["--n", "1"], "n = 1"),
    ("converge-space", ["--no-rank-reduction"], "rank-reduction = off"),
]


@pytest.mark.parametrize("command,flag,line", UNREAD_SETTINGS)
def test_unread_setting_is_rejected_as_a_flag(tmp_path, capsys, command, flag, line):
    with pytest.raises(SystemExit) as exc:
        main([command, *flag, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag,line", UNREAD_SETTINGS)
def test_unread_setting_is_rejected_as_a_key(tmp_path, capsys, command, flag, line):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    key = line.split(" =")[0]
    assert f"key {key!r} does not apply to this subcommand" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command,flag,value,what", [
    ("run", "--snapshots", "0.1,x", "snapshot"),
    ("converge-time", "--steps", "0.02,,0.01q", "step"),
    ("converge-space", "--N", "12,2.5", "N"),
    ("compare-delay", "--snapshots", "1;2", "snapshot"),
])
def test_unparsable_list_is_rejected(tmp_path, capsys, command, flag, value, what):
    assert main([command, flag, value, "--out", str(tmp_path)]) == 1
    assert f"cannot parse {what} list {value!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_delay_quick(tmp_path):
    rc = main(["compare-delay", "--ht", "0.1", "--T", "0.4",
               "--snapshots", "0.2,0.4", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("snapshot_t0.2_delayed.csv", "snapshot_t0.2_undelayed.csv",
                 "snapshot_t0.4_delayed.csv", "snapshot_t0.4_undelayed.csv",
                 "summary.csv"):
        assert (tmp_path / name).exists(), name
    lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == "t,delayed,undelayed"
    t, delayed, undelayed = (float(tok) for tok in lines[-1].split(","))
    assert t == pytest.approx(0.4)
    assert delayed > undelayed
    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=reject_constant)
    assert manifest["parameters"]["v"] == 1.0
    solves = manifest["solves"]
    for which, form in (("delayed", "DelayedPairs"), ("undelayed", "AxisFactors")):
        record = solves[which]
        assert record["diagnostics"], which
        assert 0 < record["contraction_bound"] < 1
        assert record["total_integrand_evals"] > 0 and record["table_bytes"] > 0
        assert record["table_form"] == form


# what a manifest records of one solve: SolveResult's fields but its inputs
# and states
SOLVE_RECORD = {f.name for f in dataclasses.fields(SolveResult)} - {
    "problem", "config", "grid", "states"}


def test_manifests_record_every_run_level_field_of_each_solve(tmp_path, monkeypatch):
    """Each manifest holds SolveResult.record() of the solves that made it."""
    solves = []

    def keeping(problem, config, keep=None):
        solves.append(solve(problem, config, keep=keep))
        return solves[-1]

    monkeypatch.setattr(neurofield.cli, "solve", keeping)
    run_out, delay_out = tmp_path / "run", tmp_path / "delay"
    run_out.mkdir()
    delay_out.mkdir()
    assert main(["run", "--example", "4", "--ht", "0.1", "--T", "0.2",
                 "--out", str(run_out)]) == 0
    assert main(["compare-delay", "--ht", "0.1", "--T", "0.2", "--snapshots", "0.2",
                 "--out", str(delay_out)]) == 0
    # as the manifests write them: dataclass values as dicts, through JSON
    run_record, delayed, undelayed = (
        json.loads(json.dumps(res.record(), default=dataclasses.asdict)) for res in solves)
    run = json.loads((run_out / "manifest.json").read_text())
    assert run.keys() - {"command", "problem", "parameters", "snapshots",
                         "wall_time"} == SOLVE_RECORD
    assert list(run) == ["command", "problem", "parameters", "snapshots", *run_record,
                         "wall_time"]
    assert {key: run[key] for key in run_record} == run_record
    delay = json.loads((delay_out / "manifest.json").read_text())
    assert delay.keys() == {"command", "problem", "parameters", "snapshots", "solves",
                            "wall_time"}
    assert delay["solves"] == {"delayed": delayed, "undelayed": undelayed}
    for record in delay["solves"].values():
        assert record.keys() == SOLVE_RECORD
        assert record["bounds"].keys() == {"bound_l2", "bound_max"}
    # example 4's Gaussian separates, but its delay keeps the pair table, and
    # its constant history folds all but a few of the m^2 N^2 pairs out of
    # the frozen sum; the undelayed solve has no frozen part
    for record in (run, delay["solves"]["delayed"]):
        assert record["separable"] is True and record["table_form"] == "DelayedPairs"
        assert 0 < record["frozen_pairs"] < 144 * 576
    assert delay["solves"]["undelayed"]["separable"] is True
    assert delay["solves"]["undelayed"]["frozen_pairs"] == 0


def test_run_and_compare_delay_keep_only_their_snapshots(tmp_path, monkeypatch):
    """Both commands pass their snapshot times to solve, so each solve
    holds the levels its march reads plus a copy per snapshot, and its
    manifest's level_bytes says so: at N = 24, a 2-row buffer without
    delay, and example 4's folded 2-step buffer of 2 + 3 rows, against the
    num_steps + 1 rows of a run that keeps every level."""
    kept = []

    def solve_and_note(problem, config, keep=None):
        kept.append(list(keep))
        return solve(problem, config, keep=keep)

    monkeypatch.setattr(neurofield.cli, "solve", solve_and_note)
    row = 576 * 8
    run_out, delay_out = tmp_path / "run", tmp_path / "delay"
    run_out.mkdir()
    delay_out.mkdir()
    assert main(["run", "--ht", "0.01", "--T", "0.1", "--snapshots", "0.05,0.1",
                 "--out", str(run_out)]) == 0
    assert json.loads((run_out / "manifest.json").read_text())["level_bytes"] == (2 + 2) * row
    assert main(["compare-delay", "--ht", "0.1", "--T", "0.2", "--snapshots", "0.2",
                 "--out", str(delay_out)]) == 0
    solves = json.loads((delay_out / "manifest.json").read_text())["solves"]
    assert solves["delayed"]["level_bytes"] == (2 + 3 + 1) * row
    assert solves["undelayed"]["level_bytes"] == (2 + 1) * row
    assert kept == [[0.05, 0.1], [0.2], [0.2]]


def test_solve_record_is_every_field_but_the_inputs_in_field_order():
    res = solve(example1(), SolverConfig(h_t=0.01, T=0.02))
    record = res.record()
    assert list(record) == [f.name for f in dataclasses.fields(SolveResult)
                            if f.name in SOLVE_RECORD]
    assert all(value is getattr(res, name) for name, value in record.items())


def test_compare_delay_names_the_solve_of_each_warning(tmp_path):
    """h_t = 0.4 at c = 0.5 breaks both step bounds and the stability
    margin in each solve: three warnings per solve, each listed once."""
    assert main(["compare-delay", "--ht", "0.4", "--T", "2", "--c", "0.5",
                 "--snapshots", "2", "--out", str(tmp_path)]) == 0
    solves = json.loads((tmp_path / "manifest.json").read_text())["solves"]
    for record in solves.values():
        assert len(record["warnings"]) == len(set(record["warnings"])) == 3
        assert record["stability_margin"] > 1


def test_single_iteration_levels_keep_the_manifest_valid_json(tmp_path):
    """At h_t = 1e-6 every level converges in one inner iteration, so no
    increment ratio exists: the estimate is written as null, not NaN."""
    assert main(["run", "--example", "3", "--ht", "1e-6", "--T", "3e-6",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=reject_constant)
    assert [d["inner_iterations"] for d in manifest["diagnostics"]] == [1, 1]
    assert [d["contraction_estimate"] for d in manifest["diagnostics"]] == [None, None]


def test_compare_delay_near_infinite_speed_matches(tmp_path):
    rc = main(["compare-delay", "--v", "1e9", "--ht", "0.1", "--T", "0.2",
               "--snapshots", "0.2", "--out", str(tmp_path)])
    assert rc == 0
    d = read_field_csv(tmp_path / "snapshot_t0.2_delayed.csv")
    u = read_field_csv(tmp_path / "snapshot_t0.2_undelayed.csv")
    assert np.max(np.abs(d[:, 2] - u[:, 2])) < 1e-8


def test_compare_delay_zero_horizon_returns_initial(tmp_path):
    rc = main(["compare-delay", "--T", "0", "--snapshots", "0",
               "--out", str(tmp_path)])
    assert rc == 0
    d = read_field_csv(tmp_path / "snapshot_t0_delayed.csv")
    u = read_field_csv(tmp_path / "snapshot_t0_undelayed.csv")
    assert np.array_equal(d, u)
    # both hold the initial bump samples
    assert d[:, 2] == pytest.approx(np.exp(-(d[:, 0] ** 2 + d[:, 1] ** 2)), abs=1e-15)


def test_config_file_fills_defaults_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# study setup\nexample = 3\nht = 0.025\nT = 0.05\n")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["run", "--config", str(cfg), "--ht", "0.05",
               "--snapshots", "0.05", "--out", str(out)])
    assert rc == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert params["example"] == 3
    assert params["ht"] == 0.05  # flag beats the file
    assert params["T"] == 0.05


def test_config_file_rank_reduction_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank-reduction = off\n")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["run", "--config", str(cfg), "--ht", "0.05", "--T", "0.05",
               "--out", str(out)])
    assert rc == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert params["rank_reduction"] is False


def test_config_file_rank_reduction_on(tmp_path):
    """``on`` is one of the words a boolean key reads as true."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank-reduction = on\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(cfg), "--ht", "0.05", "--T", "0.05",
                 "--out", str(out)]) == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert params["rank_reduction"] is True


def test_config_file_rank_reduction_not_a_boolean(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rank-reduction = maybe\n")
    assert main(["run", "--config", str(cfg), "--ht", "0.05", "--T", "0.05",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:1: bad value 'maybe' for 'rank-reduction'" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_line_without_equals(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("example = 3\nht 0.05\n")
    assert main(["run", "--config", str(cfg), "--T", "0.05", "--out", str(tmp_path)]) == 1
    assert f"{cfg}:2: expected key=value, got 'ht 0.05'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_example_outside_choices(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("example = 7\nv = 1\n")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["run", "--config", str(cfg), "--ht", "0.05", "--T", "0.05",
               "--out", str(out)])
    assert rc == 1
    assert "bad value '7'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_config_file_norm_outside_choices(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("norm = linf\n")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["compare-delay", "--config", str(cfg), "--ht", "0.1", "--T", "0.2",
               "--snapshots", "0.2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad value 'linf'" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_config_file_norm_does_not_apply_to_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("norm = l2\n")
    rc = main(["run", "--config", str(cfg), "--ht", "0.05", "--T", "0.05",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "does not apply" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", "--norm", "l2", "--out", str(tmp_path)])


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ht = fast\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "bad value" in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "none.cfg"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    *([command, "--help"] for command in _COMMANDS),
    *([command, "--bogus"] for command in _COMMANDS),
    ["run", "--example", "9"], ["--help"], ["-h", "run"], [], ["bogus"], ["--config", "x"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_builds_the_named_command_only_and_prints_what_the_whole_parser_does(
        monkeypatch, capsys, argv):
    """main, reading sys.argv[1:], fills in only the subparser that argv[0]
    names, and every command without one; help and error texts and exit
    codes are those of the parser of all four commands."""
    with pytest.raises(SystemExit) as whole:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    built = []

    def recording(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(neurofield.cli, "build_parser", recording)
    monkeypatch.setattr(sys, "argv", ["neurofield", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == whole.value.code
    assert capsys.readouterr() == expected
    assert built == [argv[0] if argv and argv[0] in _COMMANDS else None]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse():
    # every `neurofield ...` line of the README, backslash continuations joined
    text = README.read_text().replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.strip().startswith("neurofield ")]
    assert [argv[0] for argv in commands] == [
        "run", "converge-time", "converge-space", "compare-delay"]
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_library_block_runs():
    """The README's Library example runs as written, against src/."""
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", block + "print(repr(err))\n"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # example 1's max error at t = 0.1 with the README's settings
    assert float(proc.stdout) == pytest.approx(7.7514e-5, rel=1e-3)


def test_module_form_prints_the_help_of_main(monkeypatch, capsys):
    """``python -m neurofield.cli``, which the README gives as equal to
    ``neurofield``, runs main on its arguments and exits with its status."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    expected = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src"), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "neurofield.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected and proc.stderr == ""
    # main's own status, not argparse's exit: 1 for a run without --out
    proc = subprocess.run([sys.executable, "-m", "neurofield.cli", "run"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "error: no output directory given (--out)\n"


def test_readme_config_keys_match_the_flag_table():
    listed = README.read_text().split("The config keys are:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == list(_SETTINGS)


def test_readme_subcommand_keys_match_the_command_table():
    text = README.read_text()
    common = text.split("All four take", 1)[1].split("besides those", 1)[0]
    common_keys = re.findall(r"`([^`]+)`", common)
    for command in _COMMANDS:
        # the keys before the parenthesis on the command's list line
        own = re.findall(r"`([^`]+)`", re.search(rf"^- `{command}`: ([^(\n]*)", text, re.M)[1])
        assert sorted(common_keys + own) == sorted(_command_keys(command)), command
