"""Tests for norms, convergence reports and the two study drivers."""

import math

import numpy as np
import pytest

from neurofield.analysis import (
    ConvergenceReport,
    ReportRow,
    SpaceStudy,
    error_norm,
    field_norm,
    space_convergence_study,
    time_convergence_study,
)
from neurofield.problems import example1, example2, example4
from neurofield.quadrature import Rectangle, build_gauss_rule, build_grid
from neurofield.solver import FieldState, SolverConfig, solve

UNIT_BOX = Rectangle(-1.0, 1.0, -1.0, 1.0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(UNIT_BOX, 6, build_gauss_rule(4))


@pytest.fixture(scope="module")
def ex1_study():
    return time_convergence_study(example1(), [0.02, 0.01], T=0.1)


@pytest.fixture(scope="module")
def ex2_space_study():
    return space_convergence_study(example2(), [12, 24], [12])


def test_field_norm_constant(grid):
    eps = 0.25
    vals = np.full(grid.total_points, -eps)
    assert field_norm(grid, vals, "max") == pytest.approx(eps, abs=1e-15)
    # L2 of a constant over the 2 x 2 square is sqrt(area) * |const|
    assert field_norm(grid, vals, "l2") == pytest.approx(2.0 * eps, rel=1e-13)


def test_field_norm_ordering(grid):
    rng = np.random.default_rng(11)
    for _ in range(3):
        vals = rng.standard_normal(grid.total_points)
        l2 = field_norm(grid, vals, "l2")
        mx = field_norm(grid, vals, "max")
        assert l2 <= 2.0 * mx * (1.0 + 1e-12)
        assert l2 > 0.0


def test_field_norm_unknown_name(grid):
    with pytest.raises(ValueError):
        field_norm(grid, np.zeros(grid.total_points), "energy")


def test_error_norm_zero_for_exact_samples(grid):
    p = example1()
    p1, p2 = grid.flat_points()
    state = FieldState(values=np.asarray(p.exact(p1, p2, 0.3)), time=0.3)
    assert error_norm(grid, state, p.exact) == 0.0
    assert error_norm(grid, state, p.exact, "l2") == 0.0


def test_report_csv_format():
    report = ConvergenceReport(
        title="t", norm="max",
        rows=[ReportRow(param="0.02", error=1.25e-4),
              ReportRow(param="0.01", error=3.125e-5, ratio=4.0, order=2.0)])
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "param,error,ratio,order"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.02"
    assert float(first[1]) == 1.25e-4  # full-precision round trip
    assert first[2] == "" and first[3] == ""
    second = lines[2].split(",")
    assert float(second[2]) == 4.0
    assert float(second[3]) == 2.0


def test_report_text_contains_flags():
    report = ConvergenceReport(
        title="demo", norm="max", fixed={"m": 12},
        rows=[ReportRow(param="24", error=5e-14, flags=("roundoff-dominated",))])
    text = report.to_text()
    assert "demo" in text and "m=12" in text
    assert "roundoff-dominated" in text


# --- time studies -----------------------------------------------------------

def test_time_study_orders_on_decay_solution(ex1_study):
    report = ex1_study.report()
    assert [row.param for row in report.rows] == ["0.02", "0.01"]
    assert report.rows[0].ratio is None
    assert report.rows[1].error == pytest.approx(7.751e-5, rel=0.25)
    assert 3.4 < report.rows[1].ratio < 4.3
    assert 1.8 < report.rows[1].order < 2.2


def test_time_study_shared_levels_only(ex1_study):
    # the coarse step resolves only even multiples of the fine step
    assert ex1_study.error_at(0.02, 0.03) is None
    assert ex1_study.error_at(0.01, 0.03) is not None
    assert ex1_study.ratio(0.02, 0.01, 0.03) is None
    assert ex1_study.ratio(0.02, 0.01, 0.06) is not None


def test_time_study_rejects_times_off_the_step_grid(ex1_study):
    # 0.0349 is no level of any step: it must not snap to t = 0.03 or 0.04
    with pytest.raises(ValueError, match="not a level"):
        ex1_study.error_at(0.01, 0.0349)
    with pytest.raises(ValueError, match="not a level"):
        ex1_study.report(at_time=0.0409)
    assert ex1_study.report(at_time=0.04).title.endswith("t=0.04")


def test_time_study_bootstrap_flag(ex1_study):
    report = ex1_study.report(at_time=0.04)
    by_param = {row.param: row for row in report.rows}
    assert "bootstrap-affected" in by_param["0.02"].flags  # level 2 of h=0.02
    assert "bootstrap-affected" not in by_param["0.01"].flags


def test_time_study_report_needs_shared_time(ex1_study):
    with pytest.raises(ValueError):
        ex1_study.report(at_time=0.03)


def test_time_study_text_table(ex1_study):
    text = ex1_study.to_text()
    assert "example1" in text
    assert "e(0.02)" in text and "e(0.01)" in text
    assert "0.02/0.01" in text


def test_time_study_single_step():
    study = time_convergence_study(example1(), [0.02], T=0.04)
    report = study.report()
    assert len(report.rows) == 1
    assert report.rows[0].ratio is None
    assert study.to_text()  # renders without ratio columns


def test_time_study_rejects_non_nested_steps():
    with pytest.raises(ValueError, match="nested"):
        time_convergence_study(example1(), [0.02, 0.015], T=0.06)


def test_time_study_rejects_step_not_dividing_T():
    with pytest.raises(ValueError, match="divide"):
        time_convergence_study(example1(), [0.03], T=0.1)


@pytest.mark.parametrize("steps", [[0.0], [0.01, 0.0], [-0.05], [0.02, -0.01]])
def test_time_study_rejects_non_positive_steps(steps):
    with pytest.raises(ValueError, match="must be positive"):
        time_convergence_study(example1(), steps, T=0.1)


def test_time_study_requires_exact_solution():
    with pytest.raises(ValueError, match="exact"):
        time_convergence_study(example4(v=1.0), [0.02], T=0.04)


def test_time_study_rejects_empty_steps():
    with pytest.raises(ValueError):
        time_convergence_study(example1(), [], T=0.1)


def test_time_study_linear_solution_has_flat_errors():
    """For V = t the error is purely spatial, so refining the time step
    must not move it (inner tolerance tightened below the floor)."""
    study = time_convergence_study(example2(), [0.02, 0.01], T=0.1,
                                   eps_inner=1e-14)
    e_coarse = study.error_at(0.02, 0.1)
    e_fine = study.error_at(0.01, 0.1)
    assert abs(e_coarse - e_fine) < 1e-13
    for t in (0.04, 0.08, 0.1):
        assert 0.5 < study.ratio(0.02, 0.01, t) < 2.0


# --- space studies ----------------------------------------------------------

def test_space_study_spectral_drop(ex2_space_study):
    report = ex2_space_study.report(12)
    assert [row.param for row in report.rows] == ["12", "24"]
    assert 200.0 < report.rows[1].ratio < 340.0
    assert report.rows[1].order > 7.0


def test_space_study_error_lookup(ex2_space_study):
    assert ex2_space_study.error(12, 12) > ex2_space_study.error(24, 12)
    assert ex2_space_study.error(48, 12) is None


def test_space_study_skips_m_above_N():
    study = space_convergence_study(example2(), [12, 24], [12, 16])
    assert study.error(12, 16) is None
    assert study.error(24, 16) is not None
    report = study.report(16)
    assert [row.param for row in report.rows] == ["24"]
    assert set(study.reports()) == {12, 16}


def test_space_study_rejects_bad_resolutions():
    with pytest.raises(ValueError, match="multiple"):
        space_convergence_study(example2(), [10], [4])
    with pytest.raises(ValueError):
        space_convergence_study(example2(), [], [12])
    with pytest.raises(ValueError, match="exceeds"):
        space_convergence_study(example2(), [12], [16])
    with pytest.raises(ValueError, match="rule order"):
        space_convergence_study(example2(), [12], [12], k=0)


def test_space_study_requires_exact_solution():
    with pytest.raises(ValueError, match="exact"):
        space_convergence_study(example4(v=1.0), [12], [12])


def test_roundoff_floor_flag():
    study = SpaceStudy(problem_name="demo", norm="max", N_values=[24, 48],
                       m_values=[12], k=4, h_t=0.01, T=0.1,
                       errors={(24, 12): 2e-10, (48, 12): 5e-14})
    rows = study.report(12).rows
    assert rows[0].flags == ()
    assert "roundoff-dominated" in rows[1].flags


def test_study_matches_direct_solve(ex1_study):
    p = example1()
    res = solve(p, SolverConfig(h_t=0.01, T=0.1, rank_reduction=False))
    direct = error_norm(res.grid, res.states[-1], p.exact)
    assert ex1_study.error_at(0.01, 0.1) == pytest.approx(direct, rel=1e-12)


def test_study_l2_norm_option():
    p = example1()
    study = time_convergence_study(p, [0.02], T=0.04, norm="l2")
    res = solve(p, SolverConfig(h_t=0.02, T=0.04, rank_reduction=False))
    direct = error_norm(res.grid, res.states[-1], p.exact, "l2")
    assert study.error_at(0.02, 0.04) == pytest.approx(direct, rel=1e-12)
    # the error field is nearly uniform here, so L2 is close to 2x max
    study_max = time_convergence_study(p, [0.02], T=0.04, norm="max")
    assert study.error_at(0.02, 0.04) == pytest.approx(
        2.0 * study_max.error_at(0.02, 0.04), rel=0.05)
