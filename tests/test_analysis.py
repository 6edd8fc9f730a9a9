"""Tests for norms, convergence reports and the two study drivers."""

import dataclasses
import gc
import inspect
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from neurofield.analysis import (
    ConvergenceReport,
    ReportRow,
    SpaceStudy,
    error_norm,
    field_norm,
    solver_settings,
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


def test_time_study_rejects_a_step_it_did_not_run(ex1_study):
    """A step the study did not run is named in a ValueError, with the steps
    it did run, from error_at and from ratio on either side."""
    message = r"step 0\.03 is not one of the steps the study ran: 0\.02, 0\.01"
    with pytest.raises(ValueError, match=message):
        ex1_study.error_at(0.03, 0.04)
    with pytest.raises(ValueError, match=message):
        ex1_study.ratio(0.03, 0.01, 0.04)
    with pytest.raises(ValueError, match=r"step 0\.005 is not one of the steps"):
        ex1_study.ratio(0.02, 0.005, 0.04)


def test_time_study_rejects_times_off_the_step_grid(ex1_study):
    # 0.0349 is no level of any step: it must not snap to t = 0.03 or 0.04
    with pytest.raises(ValueError, match="not a level"):
        ex1_study.error_at(0.01, 0.0349)


def test_time_study_bootstrap_flag():
    report = time_convergence_study(example1(), [0.02, 0.01], T=0.04).report()
    assert report.title.endswith("t=0.04")
    by_param = {row.param: row for row in report.rows}
    assert "bootstrap-affected" in by_param["0.02"].flags  # level 2 of h=0.02
    assert "bootstrap-affected" not in by_param["0.01"].flags


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
    with pytest.raises(ValueError, match="integer multiple"):
        time_convergence_study(example1(), [0.03], T=0.1)


@pytest.mark.parametrize("steps,T,bad", [
    ([math.nan], 0.1, math.nan), ([0.02, 0.03], 0.1, 0.03), ([0.01, -0.01], 0.1, -0.01),
    ([1e-300], 1e300, 1e-300), ([0.02], math.inf, 0.02),
], ids=["nan", "not-dividing", "negative", "overflow", "T-inf"])
def test_time_study_raises_the_configs_own_message(monkeypatch, steps, T, bad):
    """A step or T that makes no SolverConfig fails with SolverConfig's
    message, word for word, before any solve."""
    monkeypatch.setattr("neurofield.analysis.solve", lambda *args: pytest.fail("solved"))
    with pytest.raises(ValueError) as expected:
        SolverConfig(h_t=bad, T=T)
    with pytest.raises(ValueError) as got:
        time_convergence_study(example1(), steps, T=T)
    assert str(got.value) == str(expected.value)


def test_time_study_needs_a_level_after_zero():
    with pytest.raises(ValueError, match="at least one level after t = 0, got T=0.0"):
        time_convergence_study(example1(), [0.02], T=0.0)


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
    must not move it (the studies' inner tolerance is below the floor)."""
    study = time_convergence_study(example2(), [0.02, 0.01], T=0.1)
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


def test_space_study_report_needs_a_studied_order(ex2_space_study):
    with pytest.raises(ValueError, match="no interpolation order m=16"):
        ex2_space_study.report(16)


def test_space_study_skips_m_above_N():
    study = space_convergence_study(example2(), [12, 24], [12, 16])
    assert study.error(12, 16) is None
    assert study.error(24, 16) is not None
    report = study.report(16)
    assert [row.param for row in report.rows] == ["24"]
    assert set(study.reports()) == {12, 16}


@pytest.mark.parametrize("N_values,m_values,bad", [
    ([12.7], [12], "12.7"), ([12], [12.9], "12.9"), ([12, 24.0], [12], "24.0"),
    ([12], ["12"], "'12'"),
], ids=["N-fraction", "m-fraction", "N-float", "m-string"])
def test_space_study_rejects_non_integer_values(monkeypatch, N_values, m_values, bad):
    """N and m are taken as they are, never truncated: a value that is not
    an integer is named in the error, before any solve."""
    monkeypatch.setattr("neurofield.analysis.solve", lambda *args: pytest.fail("solved"))
    with pytest.raises(ValueError, match=f"must be integers, got {re.escape(bad)}$"):
        space_convergence_study(example2(), N_values, m_values)


def test_space_study_takes_numpy_integers():
    study = space_convergence_study(example2(), np.array([12]), [np.int64(12)], T=0.0)
    assert study.N_values == [12] and study.m_values == [12]
    assert all(type(N) is int for N in study.N_values + study.m_values)


def test_space_study_rejects_bad_resolutions():
    with pytest.raises(ValueError, match="multiple"):
        space_convergence_study(example2(), [10], [4])
    with pytest.raises(ValueError):
        space_convergence_study(example2(), [], [12])
    with pytest.raises(ValueError, match="exceeds"):
        space_convergence_study(example2(), [12], [16])
    with pytest.raises(ValueError, match="rule order"):
        space_convergence_study(example2(), [12], [12], k=0)


@pytest.mark.parametrize("N_values,m_values,unused", [
    ([12, 24], [12, 30], ["m=30"]),
    ([8, 12, 24], [12], ["N=8"]),
    ([8, 12, 24], [12, 30], ["m=30", "N=8"]),
], ids=["m-above-every-N", "N-below-every-m", "both"])
def test_space_study_rejects_what_no_solve_would_use(N_values, m_values, unused):
    """An m above every N or an N below every m pairs with nothing, so the
    study would drop it; it is an error instead."""
    with pytest.raises(ValueError) as exc:
        space_convergence_study(example2(), N_values, m_values)
    assert re.findall(r"[mN]=\d+", str(exc.value)) == unused


def test_space_study_requires_exact_solution():
    with pytest.raises(ValueError, match="exact"):
        space_convergence_study(example4(v=1.0), [12], [12])


@pytest.mark.parametrize("run_study,solves", [
    (lambda: time_convergence_study(example1(), [0.02, 0.01, 0.005], T=0.04), 3),
    (lambda: space_convergence_study(example2(), [12, 24], [8, 12]), 4),
], ids=["time", "space"])
def test_study_lets_each_solve_go_before_the_next(monkeypatch, run_study, solves):
    """A study keeps only each solve's errors: when it starts a solve, the
    levels of every earlier solve are gone already, with no help from the
    cyclic collector.  The time study keeps every level, each a row of
    one array (SolveResult), so a result held across the loop keeps it
    all; the space study keeps T's state alone, a copy that holds no other
    level, and that copy is gone too."""
    earlier = []

    def solve_and_watch(problem, cfg, keep=None):
        alive = [i for i, refs in enumerate(earlier) if any(ref() is not None for ref in refs)]
        assert not alive, f"the levels of solves {alive} outlive their solve"
        res = solve(problem, cfg, keep=keep)
        if keep is None:
            levels = res.states[0].values.base
            assert all(state.values.base is levels for state in res.states)
            earlier.append([weakref.ref(levels)])
        else:
            assert [state.time for state in res.states] == [cfg.T]
            assert all(state.values.base is None for state in res.states)
            earlier.append([weakref.ref(state.values) for state in res.states])
        return res

    monkeypatch.setattr("neurofield.analysis.solve", solve_and_watch)
    gc.disable()
    try:
        run_study()
    finally:
        gc.enable()
    assert len(earlier) == solves


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_space_study_peaks_at_its_largest_solve():
    """The study at N = 12, 24 and 48 peaks within 5% of its N = 48 solve
    run alone (measured 0.5% above; 13% above while the loop held each
    result through the next solve)."""
    def config(N):
        return SolverConfig(h_t=0.01, T=0.1, n=N // 4, k=4, m=12, eps_inner=1e-14)

    solve(example2(lam=5.0), config(12))  # what the first solve of a process allocates
    alone = _traced_peak(lambda: solve(example2(lam=5.0), config(48)))
    study = _traced_peak(lambda: space_convergence_study(example2(lam=5.0), [12, 24, 48], [12]))
    assert study <= 1.05 * alone


def test_roundoff_floor_flag():
    study = SpaceStudy(problem_name="demo", norm="max",
                       errors={(24, 12): 2e-10, (48, 12): 5e-14},
                       configs=[SolverConfig(h_t=0.01, T=0.1, n=N // 4, k=4, m=12)
                                for N in (24, 48)])
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


def test_solver_settings_share_m_only_among_rank_reduced_configs():
    direct = SolverConfig(h_t=0.01, T=0.02, m=8, rank_reduction=False)
    reduced = SolverConfig(h_t=0.01, T=0.02, m=8)
    assert "m" not in solver_settings([direct])
    assert solver_settings([reduced])["m"] == 8
    # a key one config lacks is not shared, nor is a value they differ in
    mixed = solver_settings([reduced, direct])
    assert "m" not in mixed and "rank_reduction" not in mixed
    assert mixed["ht"] == 0.01 and mixed["N"] == 24


@pytest.mark.parametrize("study,differs", [(time_convergence_study, {"rank_reduction"}),
                                           (space_convergence_study, set())],
                         ids=["time", "space"])
def test_study_defaults_are_the_solver_defaults(study, differs):
    """A study's default for a SolverConfig field is that field's default,
    except the ones its docstring gives a reason to differ: the time study
    runs without rank reduction."""
    config = {f.name: f.default for f in dataclasses.fields(SolverConfig)
              if f.default is not dataclasses.MISSING}
    shared = {name: param.default for name, param in inspect.signature(study).parameters.items()
              if name in config and param.default is not inspect.Parameter.empty}
    assert shared.keys() - differs
    assert {name: shared[name] for name in shared.keys() - differs} == \
        {name: config[name] for name in shared.keys() - differs}
    assert all(shared[name] != config[name] for name in differs)
