"""End-to-end tests of the command-line front end, driving main() in
process and checking files, manifests and exit codes."""

import json
import math

import numpy as np
import pytest

import neurofield.analysis
from neurofield.cli import main
from neurofield.quadrature import Rectangle, build_gauss_rule, build_grid


def read_field_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,V"
    data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return data


def test_run_writes_snapshot_and_manifest(tmp_path):
    rc = main(["run", "--example", "1", "--ht", "0.02", "--T", "0.1",
               "--snapshots", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    data = read_field_csv(tmp_path / "snapshot_t0.1.csv")
    assert data.shape == (576, 3)
    # field stays near exp(-0.1) everywhere for this problem
    assert np.max(np.abs(data[:, 2] - math.exp(-0.1))) < 1e-3

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["problem"] == "example1"
    params = manifest["parameters"]
    for key in ("example", "lambda", "sigma", "mu", "c", "v", "ht", "T",
                "n", "k", "m", "N", "eps_inner", "max_inner",
                "rank_reduction", "norm"):
        assert key in params, key
    assert params["ht"] == 0.02 and params["N"] == 24
    assert params["rank_reduction"] is True
    assert manifest["diagnostics"], "per-step diagnostics missing"
    assert manifest["diagnostics"][0]["kappa_applies"] >= 2
    assert manifest["total_integrand_evals"] > 0
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
    # a snapshot time off the step grid fails after solving, before writing
    rc = main(["run", "--ht", "0.02", "--T", "0.1", "--snapshots", "0.015",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
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


def test_example2_time_constant_is_pinned(tmp_path, capsys):
    rc = main(["run", "--example", "2", "--c", "2.0", "--ht", "0.05",
               "--T", "0.05", "--out", str(tmp_path)])
    assert rc == 1
    assert "c=1" in capsys.readouterr().err
    rc = main(["run", "--example", "2", "--c", "1.0", "--ht", "0.05",
               "--T", "0.05", "--out", str(tmp_path)])
    assert rc == 0


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

    def recording_solve(problem, config):
        configs.append(config)
        return solve(problem, config)

    solve = neurofield.analysis.solve
    monkeypatch.setattr(neurofield.analysis, "solve", recording_solve)
    return configs


def settings(cfg, *varying):
    out = {"ht": cfg.h_t, "T": cfg.T, "n": cfg.n, "k": cfg.k, "m": cfg.m,
           "N": cfg.n * cfg.k, "eps_inner": cfg.eps_inner,
           "max_inner": cfg.max_inner, "rank_reduction": cfg.rank_reduction}
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


def test_converge_space_needs_rank_reduction(tmp_path, capsys):
    rc = main(["converge-space", "--N", "12", "--m", "12",
               "--no-rank-reduction", "--out", str(tmp_path)])
    assert rc == 1
    assert "rank" in capsys.readouterr().err


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
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["v"] == 1.0
    assert manifest["diagnostics"]["delayed"]


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
