"""Tests for the time stepper: bootstrap, implicit two-step levels, the
rank-reduced operator path, delay bookkeeping and the diagnostics."""

import dataclasses
import logging
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from neurofield import problems as problems_module
from neurofield import solver as solver_module
from neurofield.analysis import error_norm, time_convergence_study
from neurofield.chebyshev import build_cheb_operator, coeffs_from_samples, eval_on_grid
from neurofield.problems import (
    ProblemSpec,
    compute_kernel_norms,
    example1,
    example2,
    example3,
    example4,
    example5,
    kernel_box_integral,
    kernel_norms_bytes,
)
from neurofield.quadrature import Rectangle, _composite_axis, build_gauss_rule, build_grid
from neurofield.solver import (
    AxisFactors,
    DelayedPairs,
    PairTable,
    SolverConfig,
    build_delay_table,
    lift_to_grid,
    solve,
    step_bound,
    time_level,
)

UNIT_BOX = Rectangle(-1.0, 1.0, -1.0, 1.0)


def make_grid(N=8, k=4):
    return build_grid(UNIT_BOX, N // k, build_gauss_rule(k))


def decay_problem(c=1.0):
    """No coupling, no input: the field equation reduces to c V' = -V."""
    return ProblemSpec(
        name="decay", domain=UNIT_BOX, c=c,
        kernel=lambda r: np.zeros_like(r),
        firing_rate=lambda u: np.asarray(u, dtype=float),
        firing_rate_slope_max=1.0,
        input_current=lambda x1, x2, t: np.zeros_like(np.asarray(x1, dtype=float)),
        initial=lambda x1, x2, t: np.ones_like(np.asarray(x1, dtype=float)),
        exact=lambda x1, x2, t: np.full_like(np.asarray(x1, dtype=float), math.exp(-t / c)),
    )


def linear_delay_problem(v=1.0):
    """Constant kernel, linear rate, no input and initial data V0(x, t) = t,
    so a delayed integrand reads minus its own lag time from the history."""
    return ProblemSpec(
        name="linear-delay", domain=UNIT_BOX, c=1.0, v=v,
        kernel=lambda r: np.ones_like(r),
        firing_rate=lambda u: np.asarray(u, dtype=float),
        firing_rate_slope_max=1.0,
        input_current=lambda x1, x2, t: np.zeros_like(np.asarray(x1, dtype=float)),
        initial=lambda x1, x2, t: np.full_like(np.asarray(x1, dtype=float), t),
    )


def grid_table(problem, grid, h):
    """The pair table of the direct path: the evaluation axes are the grid's,
    and without the norms' separability verdict every problem gets the
    pair table."""
    return build_delay_table(problem, grid, (grid.x1, grid.x2), h)


def solver_table(problem, grid, axes, h):
    """The table solve builds: with the verdict of the kernel norms."""
    return build_delay_table(problem, grid, axes, h, compute_kernel_norms(problem, grid).separable)


def apply_table(problem, table, history):
    """The whole operator on a history window: the frozen sum plus the live
    sum on row 0, the two parts the march applies."""
    return table.frozen_sum(problem, history) + table.live_sum(problem, history[0])


def node_distances(grid):
    p1, p2 = grid.flat_points()
    return np.hypot(p1[:, None] - p1[None, :], p2[:, None] - p2[None, :])


# --- configuration ----------------------------------------------------------

def test_config_validation():
    SolverConfig(h_t=0.01, T=0.1)
    with pytest.raises(ValueError):
        SolverConfig(h_t=0.0, T=0.1)
    with pytest.raises(ValueError):
        SolverConfig(h_t=-0.01, T=0.1)
    with pytest.raises(ValueError):
        SolverConfig(h_t=0.01, T=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(h_t=0.03, T=0.1)  # T not a multiple of h_t
    with pytest.raises(ValueError):
        SolverConfig(h_t=0.01, T=0.1, eps_inner=0.0)


@pytest.mark.parametrize("setting, message", [
    ({"n": 0}, "subinterval count n must be a positive integer, got 0"),
    ({"n": 2.5}, "subinterval count n must be a positive integer, got 2.5"),
    ({"k": 0}, r"rule order k must be an integer in \[1, 32\], got 0"),
    ({"m": 1}, "interpolation order m must be an integer >= 2, got 1"),
    ({"m": 100}, "interpolation order m=100 exceeds grid resolution N=24"),
], ids=["n-zero", "n-fraction", "k-zero", "m-one", "m-above-N"])
def test_grid_settings_are_checked_by_solve_before_any_other_work(monkeypatch, setting,
                                                                  message):
    """n, k and m make a config; solve rejects them when it builds the grid
    and the interpolation operator, before the kernel norms."""
    def no_norms(*args):
        raise AssertionError("compute_kernel_norms called")

    monkeypatch.setattr(solver_module, "compute_kernel_norms", no_norms)
    cfg = SolverConfig(h_t=0.01, T=0.02, **setting)
    with pytest.raises(ValueError, match=message):
        solve(example1(), cfg)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_config_rejects_a_non_finite_eps_inner(eps):
    """An infinite tolerance stops every level after one inner iteration:
    example 1 at h_t = 0.04 ended 9.6e-5 away from its converged state,
    with no warning."""
    with pytest.raises(ValueError, match="eps_inner must be positive and finite"):
        SolverConfig(h_t=0.04, T=0.2, eps_inner=eps)
    with pytest.raises(ValueError, match="eps_inner"):
        solve(example1(), SolverConfig(h_t=0.04, T=0.2, eps_inner=eps))


def test_config_rejects_a_non_bool_rank_reduction(monkeypatch):
    """A truthy or falsy non-bool such as "no" once ran rank-reduced and was
    recorded as given; validation now rejects it before the grid is built."""
    def no_grid(*args):
        raise AssertionError("build_grid called")

    monkeypatch.setattr(solver_module, "build_grid", no_grid)
    for bad in ("no", 0, 1, None):
        with pytest.raises(ValueError, match=f"rank_reduction must be a bool, "
                                             f"got {re.escape(repr(bad))}"):
            solve(example1(), SolverConfig(h_t=0.01, T=0.02, rank_reduction=bad))
    for good in (True, False, np.bool_(True)):
        SolverConfig(h_t=0.01, T=0.02, rank_reduction=good)


def test_config_num_steps():
    assert SolverConfig(h_t=0.01, T=0.1).num_steps == 10
    assert SolverConfig(h_t=0.1, T=0.0).num_steps == 0
    with pytest.raises(ValueError, match="not an integer multiple"):
        SolverConfig(h_t=0.03, T=0.1)


def test_time_level_rule():
    assert time_level(0.1, 0.01) == 10  # 0.1 / 0.01 is 10.000000000000002
    assert time_level(0.3, 0.1) == 3
    assert time_level(0.0, 0.02) == 0
    assert time_level(-0.02, 0.01) == -2
    assert time_level(0.0349, 0.01) is None
    assert time_level(0.1 + 5e-11, 0.01) == 10  # inside 1e-9 * max(1, |t|, h)
    assert time_level(0.1 + 5e-9, 0.01) is None
    assert time_level(3000.0 + 1e-7, 1.5) == 2000  # the tolerance scales with |t|
    for bad in (math.inf, -math.inf, math.nan):
        assert time_level(bad, 0.01) is None
        assert time_level(0.1, bad) is None
    # t / h overflows to inf: no finite level, rather than an OverflowError
    assert time_level(1e300, 1e-300) is None
    assert time_level(1.0, 5e-324) is None
    for step in (0.0, -0.0, -0.01):  # no step grid without a positive step
        assert time_level(0.0, step) is None
        assert time_level(-0.02, step) is None


# --- history ---------------------------------------------------------------

def _reference_march(problem, config):
    """The delayed scheme with the grid levels kept in a dict keyed by level
    index, every level older than the delay reach dropped, on the table
    solve builds: the kernel norms' separable verdict and the run's
    num_steps pick its form and its fold.  The update is formed on the
    run's evaluation axes, the grid's or the m x m Chebyshev points, by
    plain expressions into new arrays, and its lift is the grid level; the
    last two updates are kept as they are, unlifted.  Each level's frozen
    sum goes into its own f_i and the next level's predictor.  Returns
    every level's grid field and each two-step level's inner-iteration
    count."""
    grid = build_grid(problem.domain, config.n, build_gauss_rule(config.k))
    if config.rank_reduction:
        cheb = build_cheb_operator(config.m, grid)
        axes, points = (cheb.points1, cheb.points2), cheb.flat_sample_points()
        lift = lambda u: lift_to_grid(cheb, u)
    else:
        axes, points, lift = (grid.x1, grid.x2), grid.flat_points(), lambda u: u
    table = build_delay_table(problem, grid, axes, config.h_t,
                              compute_kernel_norms(problem, grid).separable,
                              num_steps=config.num_steps)
    h, c, depth = config.h_t, problem.c, table.history_rows
    p1, p2 = grid.flat_points()
    levels = {l: problem.initial(p1, p2, l * h) for l in range(1 - depth, 1)}

    def frozen(U, level):
        rows = np.array([U] + [levels[level - l] for l in range(1, depth)])
        return table.frozen_sum(problem, rows)

    def euler(I, u, level, F):
        return u + (h / c) * (I - u + F + table.live_sum(problem, levels[level]))

    u_prev2 = problem.initial(*points, 0.0)
    F = frozen(levels[0], 0)
    u_prev = euler(problem.input_current(*points, 0.0), u_prev2, 0, F)
    levels[1] = lift(u_prev)
    F = frozen(levels[1], 1)
    states, iterations = [levels[0], levels[1]], []
    del levels[1 - depth]
    lam = 2.0 * h / (2.0 * h + 3.0 * c)
    for i in range(2, config.num_steps + 1):
        I_i = problem.input_current(*points, i * h)
        U = lift(euler(I_i, u_prev, i - 1, F))
        F = frozen(U, i)
        f_i = lam * (I_i + F + (2.0 * c / h) * u_prev - (0.5 * c / h) * u_prev2)
        for count in range(1, solver_module._MAX_INNER + 1):
            u = lam * table.live_sum(problem, U) + f_i
            U_next = lift(u)
            converged = np.max(np.abs(U_next - U)) < config.eps_inner
            U = U_next
            if converged:
                break
        levels[i], u_prev, u_prev2 = U, u, u_prev
        del levels[i - depth]
        assert sorted(levels) == list(range(i + 1 - depth, i + 1))
        states.append(U)
        iterations.append(count)
    return states, iterations


def test_history_put_get_prune():
    """One history array shifted once per level holds the same levels, in
    the same order, as a dict of levels that drops the oldest each level:
    each march runs 8 levels past the k_max + 2 = 4 rows the delay reaches,
    with n > k_max, so that nothing folds.  Direct, and rank-reduced, where
    the update lives on the Chebyshev points and the levels on the grid."""
    cases = [(example4(v=4.0), SolverConfig(h_t=0.25, T=3.0, n=1, k=4, rank_reduction=False)),
             (example4(v=4.0), SolverConfig(h_t=0.25, T=3.0, n=2, k=4, m=6)),
             (example5(v=4.0), SolverConfig(h_t=0.25, T=3.0, n=2, k=4, m=6))]
    for p, cfg in cases:
        res = solve(p, cfg)
        P = (cfg.m if cfg.rank_reduction else res.grid.points_per_axis) ** 2
        assert res.frozen_pairs == P * res.grid.total_points  # nothing folded
        states, _ = _reference_march(p, cfg)
        assert len(states) == len(res.states) == 13
        for state, U in zip(res.states, states):
            assert np.array_equal(state.values, U)


@pytest.mark.parametrize("problem,cfg,form", [
    (example3(), SolverConfig(h_t=0.05, T=0.5, n=2, k=4, rank_reduction=False), "AxisFactors"),
    (dataclasses.replace(example2(), firing_rate=np.tanh),
     SolverConfig(h_t=0.02, T=0.2, n=3, k=4, m=8, eps_inner=1e-14), "AxisFactors"),
    (dataclasses.replace(example3(), kernel=lambda r: np.exp(-r)),
     SolverConfig(h_t=0.05, T=0.5, n=2, k=4, rank_reduction=False), "PairTable"),
    (example4(v=1.0), SolverConfig(h_t=0.05, T=0.3, n=3, k=4, m=6), "DelayedPairs"),
    (example4(v=0.01), SolverConfig(h_t=0.1, T=0.2, n=1, k=4, m=4), "DelayedPairs"),
], ids=["example3-direct", "example2-tanh-reduced", "exp-kernel-direct", "example4-folded",
        "example4-folded-to-fixed"])
def test_solve_matches_the_reference_march_on_the_table_it_builds(problem, cfg, form):
    """solve forms each level's predictor, f_i and iterates in place; the
    reference march forms them by plain expressions into new arrays on the
    same table, so both do the same IEEE operations and must agree bit for
    bit, state by state and in every level's inner-iteration count.  The
    cases are shaped like the benchmark's: the axis factors direct and with
    the lift, the pair table, and a folded delayed table.  At v = 0.01 the
    fold keeps no pair at all, and the whole operator is in ``fixed``."""
    res = solve(problem, cfg)
    assert res.table_form == form
    if form == "DelayedPairs":
        assert res.frozen_pairs < cfg.m ** 2 * res.grid.total_points  # folded
    states, iterations = _reference_march(problem, cfg)
    assert iterations == [d.inner_iterations for d in res.diagnostics]
    assert len(states) == len(res.states)
    for state, U in zip(res.states, states):
        assert np.array_equal(state.values, U)


@pytest.mark.parametrize("P1,P2,N1,N2", [(1, 1, 4, 4), (2, 5, 4, 8), (12, 12, 12, 12),
                                         (12, 12, 48, 48), (32, 32, 32, 32)])
def test_products_are_those_of_the_matmul_operator(P1, P2, N1, N2):
    """The undelayed live sums and the lift call ndarray.dot, the BLAS calls
    of the @ operator without the matmul ufunc's set-up: each gives the @
    expression's values bit for bit, on square, rectangular and one-row
    factors."""
    rng = np.random.default_rng(P1 + 7 * N2)
    p = example3()  # linear rate: the sums read the field itself
    field = rng.standard_normal(N1 * N2)
    weights = rng.standard_normal((P1 * P2, N1 * N2))
    assert PairTable(weights).live_sum(p, field).tobytes() == (weights @ field).tobytes()
    A1, A2 = rng.standard_normal((P1, N1)), rng.standard_normal((P2, N2))
    assert (AxisFactors(A1, A2).live_sum(p, field).tobytes()
            == (A1 @ field.reshape(N1, N2) @ A2.T).ravel().tobytes())
    for m in {min(max(P1, 2), N1), N1}:
        op = build_cheb_operator(m, make_grid(N=N1))
        samples = rng.standard_normal(m * m)
        assert (lift_to_grid(op, samples).tobytes()
                == (op.L1 @ samples.reshape(m, m) @ op.L2).ravel().tobytes())


class _NotAddable:
    """A stand-in for a frozen part that no array operation accepts."""

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("the march added an undelayed table's frozen part")


@pytest.mark.parametrize("problem,cfg,form", [
    (example3(), SolverConfig(h_t=0.05, T=0.5, n=2, k=4, rank_reduction=False), "AxisFactors"),
    (example1(), SolverConfig(h_t=0.05, T=0.5, n=2, k=4, m=6), "AxisFactors"),
    (dataclasses.replace(example3(), kernel=lambda r: np.exp(-r)),
     SolverConfig(h_t=0.05, T=0.5, n=2, k=4, rank_reduction=False), "PairTable"),
], ids=["AxisFactors-direct", "AxisFactors-reduced", "PairTable"])
def test_an_undelayed_march_adds_no_frozen_part(monkeypatch, problem, cfg, form):
    """An undelayed table's frozen part is 0.0.  The march still asks for it
    once per level, but adds it to neither the predictor nor f_i: with it
    replaced by an object that fails any array operation, solve gives the
    states and inner-iteration counts of the reference march, which adds
    the 0.0 as the formulas read."""
    states, iterations = _reference_march(problem, cfg)
    for table_form in (AxisFactors, PairTable):
        monkeypatch.setattr(table_form, "frozen_sum", lambda self, problem, history: _NotAddable())
    res = solve(problem, cfg)
    assert res.table_form == form
    assert iterations == [d.inner_iterations for d in res.diagnostics]
    assert len(states) == len(res.states)
    for state, U in zip(res.states, states):
        assert np.array_equal(state.values, U)


@pytest.mark.parametrize("problem,separable,form", [
    (example3(), False, "PairTable"),
    (example3(), True, "AxisFactors"),
    (dataclasses.replace(example3(), v=1.0), False, "DelayedPairs"),
])
def test_live_sum_returns_an_array_the_caller_owns(problem, separable, form):
    """Each table form's live_sum returns a new array, sharing no memory
    with its argument or with the table's arrays, even under example 3's
    linear rate, which returns its argument: the march scales and shifts
    the sum in place."""
    grid = make_grid(N=8)
    table = build_delay_table(problem, grid, (grid.x1, grid.x2), 0.1, separable)
    assert type(table).__name__ == form
    assert table.fixed is None  # no form but a folded DelayedPairs has a fixed sum
    field = np.linspace(-1.0, 1.0, grid.total_points)
    assert problem.rate_values(field) is field
    out = table.live_sum(problem, field)
    arrays = [a for v in vars(table).values()
              for a in ((v,) if isinstance(v, np.ndarray) else
                        (v.data, v.indices, v.indptr) if sparse.issparse(v) else ())]
    assert arrays and not any(np.shares_memory(out, a) for a in [field, *arrays])


@pytest.mark.parametrize("rank_reduction", [False, True], ids=["direct", "reduced"])
def test_an_input_array_the_problem_keeps_is_left_unchanged(rank_reduction):
    """An input_current that returns one array it keeps, at every time,
    finds it unchanged after the solve: the march forms the Euler
    predictor and f_i in place, but in arrays of its own."""
    kept = {}

    def input_current(x1, x2, t):
        shape = (np.size(x1), np.size(x2))
        return kept.setdefault(shape, np.full(shape, 0.3))

    res = solve(dataclasses.replace(example1(), input_current=input_current),
                SolverConfig(h_t=0.05, T=0.2, n=2, k=4, m=4, rank_reduction=rank_reduction))
    assert len(res.diagnostics) == 3
    assert [a.shape for a in kept.values()] == [(4, 4) if rank_reduction else (8, 8)]
    assert all(np.all(a == 0.3) for a in kept.values())


def test_history_negative_levels():
    """The history starts from the initial data at t = -l h_t in row l: with
    V0(x, t) = t every pair reads minus its travel time |x - y| / v."""
    p = linear_delay_problem(v=1.0)
    h = 0.1
    res = solve(p, SolverConfig(h_t=h, T=h, n=2, k=4, rank_reduction=False))
    w = res.grid.flat_weights()
    expected = -h * (node_distances(res.grid) / p.v) @ w
    assert np.max(np.abs(res.states[1].values - expected)) < 1e-14


def test_history_stack_rows():
    """The operator reads row l of the history as the field l levels back."""
    grid = make_grid(N=8)
    p = linear_delay_problem(v=1.0)
    h = 0.1
    table = grid_table(p, grid, h)
    rows = -np.arange(table.history_rows, dtype=float)[:, None] * np.ones(64)
    out = apply_table(p, table, rows)
    # linear interpolation between rows j and j + 1 gives minus the lag in steps
    expected = -(node_distances(grid) / (p.v * h)) @ grid.flat_weights()
    assert np.max(np.abs(out - expected)) < 1e-12


# --- pair table and operator application ------------------------------------

def test_delay_table_undelayed_shapes():
    grid = make_grid(N=8)
    p = example1()
    table = grid_table(p, grid, 0.01)
    assert type(table) is PairTable
    assert table.history_rows == 1
    assert table.weights.shape == (64, 64)
    op = build_cheb_operator(4, grid)
    table_rr = build_delay_table(p, grid, (op.points1, op.points2), 0.01)
    assert table_rr.weights.shape == (16, 64)


def test_delay_table_weights_are_kernel_times_weights():
    grid = make_grid(N=8)
    p = example1()
    table = grid_table(p, grid, 0.01)
    expected = p.kernel(node_distances(grid)) * grid.flat_weights()[None, :]
    assert np.array_equal(table.weights, expected)


# --- axis factors of a separable kernel -------------------------------------

def eval_axes(grid, rank_reduction):
    if not rank_reduction:
        return grid.x1, grid.x2
    op = build_cheb_operator(6, grid)
    return op.points1, op.points2


@pytest.mark.parametrize("domain", [UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0)],
                         ids=["square", "rectangle"])
@pytest.mark.parametrize("rank_reduction", [False, True], ids=["direct", "rank-reduced"])
def test_axis_factors_match_the_pair_table(domain, rank_reduction):
    """A1 @ S @ A2.T is the pair table's quadrature sum to 1e-13, on random
    fields through a tanh rate."""
    grid = build_grid(domain, 3, build_gauss_rule(4))
    axes = eval_axes(grid, rank_reduction)
    p = example1(lam=2.0, sigma=1.5, domain=domain)
    fast = solver_table(p, grid, axes, 0.01)
    ref = build_delay_table(p, grid, axes, 0.01)
    assert isinstance(fast, AxisFactors) and isinstance(ref, PairTable)
    assert fast.shape == ref.shape == (axes[0].size * axes[1].size, 144)
    assert fast.pair_count == ref.weights.size
    rng = np.random.default_rng(7)
    for _ in range(3):
        history = rng.standard_normal((1, 144))
        want = apply_table(p, ref, history)
        got = apply_table(p, fast, history)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("make", [example1, example2, example3, lambda: example5(v=math.inf)],
                         ids=["example1", "example2", "example3", "example5-inf"])
@pytest.mark.parametrize("rank_reduction", [False, True], ids=["direct", "rank-reduced"])
def test_separable_examples_hold_no_pair_table(make, rank_reduction):
    """The undelayed Gaussian examples take the axis factors: no array of
    the table is P x N^2 wide, and the run reports their few bytes."""
    cfg = SolverConfig(h_t=0.01, T=0.0, n=4, k=4, m=6, rank_reduction=rank_reduction)
    res = solve(make(), cfg)
    axes = eval_axes(res.grid, rank_reduction)
    table = solver_table(res.problem, res.grid, axes, cfg.h_t)
    arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    assert [a.shape for a in arrays] == [(axes[0].size, 16), (axes[1].size, 16)]
    assert res.table_bytes == table.nbytes == 8 * (axes[0].size + axes[1].size) * 16
    assert res.table_form == "AxisFactors"


def test_delayed_and_plain_kernels_keep_the_pair_table():
    grid = make_grid(N=8)
    for p, form in ((example4(v=1.0), DelayedPairs), (example5(v=1.0), DelayedPairs),
                    (decay_problem(), PairTable)):
        table = solver_table(p, grid, (grid.x1, grid.x2), 0.1)
        assert type(table) is form and table.shape == (64, 64)


def test_swapped_kernel_picks_its_own_form():
    """A kernel swapped in by replace is judged on its own values: a
    Gaussian gets the axis factors, exp(-r) and the zero kernel the pair
    table, and 1/r, infinite at r = 0, raises."""
    grid = make_grid(N=8)
    cfg = SolverConfig(h_t=0.01, T=0.01, n=2, k=4, m=4)
    factor_bytes, pair_bytes = 8 * 2 * 4 * 8, 8 * 16 * 64
    for kernel, form, nbytes in ((lambda r: np.exp(-2.0 * r * r), AxisFactors, factor_bytes),
                                 (lambda r: np.exp(-r), PairTable, pair_bytes),
                                 (lambda r: np.zeros_like(r), PairTable, pair_bytes)):
        p = dataclasses.replace(example1(), kernel=kernel)
        table = solver_table(p, grid, (grid.x1, grid.x2), 0.01)
        assert type(table) is form
        assert solve(p, cfg).table_bytes == nbytes
    p = dataclasses.replace(example1(),
                            kernel=lambda r: np.divide(1.0, r, out=np.full_like(r, np.inf),
                                                       where=r > 0))
    with pytest.raises(ValueError, match="non-finite"):
        solver_table(p, grid, (grid.x1, grid.x2), 0.01)
    with pytest.raises(ValueError, match="non-finite"):
        solve(p, cfg)
    # a verdict given by hand does not get past the factors' own check
    with pytest.raises(ValueError, match="non-finite"):
        build_delay_table(p, grid, (grid.x1, grid.x2), 0.01, separable=True)


@pytest.mark.parametrize("domain", [UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0)],
                         ids=["square", "rectangle"])
@pytest.mark.parametrize("rank_reduction", [False, True], ids=["direct", "rank-reduced"])
@pytest.mark.parametrize("kernel", [lambda r: np.exp(-r * r),
                                    lambda r: 2.0 * np.exp(-3.0 * r * r)],
                         ids=["exp(-r^2)", "2exp(-3r^2)"])
def test_undeclared_gaussians_take_the_axis_factors(kernel, rank_reduction, domain, monkeypatch):
    """A Gaussian written by the user, with nothing declared about it, is
    found separable and applied from the two axis factors; one that is
    scaled has K(0) = 2 and so factors K / sqrt(2).  Both match the pair
    table to 1e-13 on random fields, and a whole run matches it too."""
    p = ProblemSpec(name="user", domain=domain, c=1.0, kernel=kernel, firing_rate=np.tanh,
                    firing_rate_slope_max=1.0,
                    input_current=lambda x1, x2, t: 0.1 * x1 + x2 * t,
                    initial=lambda x1, x2, t: np.cos(x1) * np.sin(x2))
    grid = build_grid(domain, 3, build_gauss_rule(4))
    assert compute_kernel_norms(p, grid).separable
    axes = eval_axes(grid, rank_reduction)
    fast = solver_table(p, grid, axes, 0.01)
    ref = build_delay_table(p, grid, axes, 0.01)
    assert isinstance(fast, AxisFactors) and isinstance(ref, PairTable)
    rng = np.random.default_rng(11)
    for _ in range(3):
        history = rng.standard_normal((1, 144))
        want = apply_table(p, ref, history)
        got = apply_table(p, fast, history)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    cfg = SolverConfig(h_t=0.01, T=0.05, n=3, k=4, m=6, rank_reduction=rank_reduction)
    res = solve(p, cfg)
    assert res.table_bytes == fast.nbytes == 8 * (axes[0].size + axes[1].size) * 12
    # the same run with the verdict withheld, so on the pair table
    monkeypatch.setattr(solver_module, "build_delay_table",
                        lambda problem, grid, axes, h_t, separable, **fold:
                        build_delay_table(problem, grid, axes, h_t, **fold))
    ref_res = solve(p, cfg)
    assert ref_res.table_bytes == ref.nbytes
    for a, b in zip(res.states, ref_res.states):
        assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(np.abs(b.values))


# --- the callable contract ----------------------------------------------------

def without_verdict(problem, grid, axes, h_t, separable, **fold):
    """build_delay_table with the separability verdict withheld, so an
    undelayed kernel gets the pair table and a fold reads every pair."""
    return build_delay_table(problem, grid, axes, h_t, **fold)


@pytest.mark.parametrize("value", [1.0, 0.5])
@pytest.mark.parametrize("form,problem,rank_reduction", [
    ("AxisFactors", example3(), False),
    ("AxisFactors", example3(), True),
    ("PairTable", example3(), True),
    ("DelayedPairs", example4(v=1.0), True),
    ("DelayedPairs", example5(v=1.0), False),
], ids=["AxisFactors-direct", "AxisFactors-rank-reduced", "PairTable", "DelayedPairs-folded",
        "DelayedPairs-unfolded"])
def test_a_scalar_kernel_runs_as_its_array_twin(form, problem, rank_reduction, value,
                                                monkeypatch):
    """A kernel may return a scalar, which stands for its value at every
    distance, or a read-only view: the kernel norms, K(0) of the axis
    factors and the pair and delayed tables all read it through
    ProblemSpec.kernel_values, so a run gives bit for bit the states, table
    size and work of the kernel that returns a new array of the value at
    every distance.  Example 4's constant history is folded, example 5's is
    not."""
    cfg = SolverConfig(h_t=0.05, T=0.2, n=2, k=4, m=4, rank_reduction=rank_reduction)
    if form == "PairTable":
        monkeypatch.setattr(solver_module, "build_delay_table", without_verdict)
    *runs, twin = [solve(dataclasses.replace(problem, kernel=kernel), cfg)
                   for kernel in (lambda r: value, lambda r: np.broadcast_to(value, r.shape),
                                  lambda r: np.full_like(r, value))]
    pairs = (16 if rank_reduction else 64) * 64
    assert twin.table_form == form
    if problem.name == "example4":
        assert 0 < twin.frozen_pairs < pairs
    elif problem.name == "example5":
        assert twin.frozen_pairs == pairs
    for res in runs:
        assert res.table_form == form and res.frozen_pairs == twin.frozen_pairs
        assert res.table_bytes == twin.table_bytes
        assert res.total_integrand_evals == twin.total_integrand_evals
        for a, b in zip(res.states, twin.states):
            assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("rate,shape", [(lambda u: 0.0, ()),
                                        (lambda u: np.tanh(u)[None], (1, 16))],
                         ids=["scalar", "extra-axis"])
@pytest.mark.parametrize("problem", [example1(), example4(v=1.0), example5(v=1.0)],
                         ids=["example1", "example4", "example5"])
def test_a_firing_rate_of_another_shape_fails_before_the_table(problem, rate, shape,
                                                               monkeypatch):
    """S must return its argument's shape.  One that does not is rejected
    with both shapes named, before the history scan and the table build,
    instead of failing in a reshape or a matrix product of the first level."""
    monkeypatch.setattr(solver_module, "build_delay_table", refuse("build_delay_table"))
    monkeypatch.setattr(solver_module, "_constant_history", refuse("_constant_history"))
    cfg = SolverConfig(h_t=0.05, T=0.2, n=2, k=4, m=4)
    with pytest.raises(ValueError, match=re.escape(f"firing_rate returned shape {shape} for "
                                                   f"field values of shape (16,)")):
        solve(dataclasses.replace(problem, firing_rate=rate), cfg)


@pytest.mark.parametrize("problem,cfg,rows", [
    (example4(v=1.0), SolverConfig(h_t=0.05, T=0.2, n=2, k=4, m=4), 5),
    (example5(v=1.0), SolverConfig(h_t=0.05, T=0.2, n=2, k=4, m=4), 58),
    (example5(v=1.0), SolverConfig(h_t=0.045, T=0.09, n=2, k=4, rank_reduction=False), 64),
], ids=["example4-folded", "example5-unfolded", "example5-square-window"])
def test_a_firing_rate_that_transposes_gives_the_plain_rates_states(problem, cfg, rows):
    """The solver evaluates S on flat vectors only, the delayed table's
    frozen sum included, which reads its window of history rows as one
    flat view.  So a rate that transposes a 2-D argument changes nothing,
    bit for bit, even where the window is square (rows = N^2), where a
    2-D window would pass the shape check and scramble the rates."""
    grid = build_grid(problem.domain, cfg.n, build_gauss_rule(cfg.k))
    # the history rows do not depend on the evaluation axes: the grid's serve
    table = build_delay_table(problem, grid, (grid.x1, grid.x2), cfg.h_t,
                              num_steps=cfg.num_steps)
    assert (table.history_rows, grid.total_points) == (rows, 64)
    rate = lambda u: np.asarray(u, dtype=float).T
    plain = solve(problem, cfg)
    transposed = solve(dataclasses.replace(problem, firing_rate=rate), cfg)
    for a, b in zip(plain.states, transposed.states, strict=True):
        assert np.array_equal(a.values, b.values)


def test_the_firing_rate_shape_is_checked_once_per_solve():
    """The check tries S once per solve: beyond it, S is called once per
    operator application of the axis factors, not once more per iteration."""
    shapes = []

    def rate(u):
        shapes.append(np.shape(u))
        return np.tanh(u)

    res = solve(dataclasses.replace(example1(), firing_rate=rate),
                SolverConfig(h_t=0.05, T=0.2, n=2, k=4, m=4))
    assert res.table_form == "AxisFactors"
    applies = 1 + sum(d.kappa_applies for d in res.diagnostics)
    assert len(shapes) == 1 + applies
    assert shapes[0] == (16,)


def test_lift_matches_coefficient_round_trip():
    """The two-matmul lift is eval_on_grid(coeffs_from_samples(.)) to 1e-13."""
    rng = np.random.default_rng(3)
    for domain in (UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0)):
        grid = build_grid(domain, 6, build_gauss_rule(4))
        for m in (4, 12):
            op = build_cheb_operator(m, grid)
            M = rng.standard_normal((m, m))
            want = eval_on_grid(op, coeffs_from_samples(op, M)).ravel()
            got = lift_to_grid(op, M.ravel())
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_apply_operator_zero_kernel():
    grid = make_grid(N=8)
    p = decay_problem()
    table = grid_table(p, grid, 0.01)
    out = apply_table(p, table, np.ones((1, 64)))
    assert np.array_equal(out, np.zeros(64))


def test_apply_operator_constant_rate_matches_closed_form():
    """With S frozen to 0.7 the operator is 0.7 times the kernel mass."""
    grid = make_grid(N=24)
    p = dataclasses.replace(example1(),
                            firing_rate=lambda u: np.full_like(np.asarray(u, float), 0.7))
    table = grid_table(p, grid, 0.01)
    out = apply_table(p, table, np.zeros((1, 576)))
    p1, p2 = grid.flat_points()
    expected = 0.7 * kernel_box_integral(1.0, p1, p2)
    assert np.max(np.abs(out - expected)) < 1e-8


def test_apply_operator_counts_integrand_terms():
    """Every operator application of a run adds m^2 N^2 terms to its count:
    one for the Euler step, then one per application of each level."""
    cfg = SolverConfig(h_t=0.01, T=0.01, n=2, k=4, m=4)
    assert solve(example1(), cfg).total_integrand_evals == 16 * 64
    res = solve(example1(), dataclasses.replace(cfg, T=0.02))
    applies = 1 + res.diagnostics[0].kappa_applies
    assert res.total_integrand_evals == applies * 16 * 64


def test_overflow_raises_without_numpy_warnings():
    """A state that overflows stops the run with the stepper's own error;
    numpy's overflow and invalid-value warnings stay quiet."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="non-finite increment"):
            solve(example1(c=1e-300), SolverConfig(h_t=0.01, T=0.02, n=2, k=4, m=4))


def test_apply_operator_delay_reads_history_levels():
    """With v h below the smallest off-diagonal node distance, every cross
    pair lags at least one level and must read stored history."""
    grid = make_grid(N=8)
    p = example4(v=1.0)
    h = 0.05
    table = grid_table(p, grid, h)
    off_diag = ~np.eye(64, dtype=bool)
    assert np.all(table.then.indices.reshape(64, 64)[off_diag] // 64 >= 1)
    history = np.random.default_rng(0).standard_normal((table.history_rows, 64))
    history[0] = 0.0
    out_a = apply_table(p, table, history)
    history[0] = 5.0
    out_b = apply_table(p, table, history)
    # only the self pair (p, p) reads the current iterate: with the linear
    # rate the shift is exactly 5 K(0) w_p, one node's quadrature weight
    diff = np.abs(out_b - out_a)
    expected = 5.0 * grid.flat_weights()
    assert diff == pytest.approx(expected, rel=1e-12)


# --- frozen and live parts of the delayed operator ---------------------------

def pair_lags(problem, grid, axes, h):
    """Kernel weights, level offsets j and 1 - delta of every pair, from
    flat distances: the lag is (j + 1 - delta) h."""
    e1, e2 = np.meshgrid(*axes, indexing="ij")
    p1, p2 = grid.flat_points()
    d = np.hypot(e1.ravel()[:, None] - p1[None, :], e2.ravel()[:, None] - p2[None, :])
    kw = problem.kernel(d) * grid.flat_weights()[None, :]
    steps = d / (problem.v * h)
    j = np.minimum(np.floor(steps).astype(np.int64), int(math.floor(problem.tau_max / h)))
    return kw, j, steps - j


def per_pair_sums(problem, grid, axes, h, history):
    """The delayed operator pair by pair, as (frozen, live): the rates of
    rows j and j + 1 interpolated with delta and weighted by the kernel,
    with the live part the pairs with j = 0 reading row 0, and the frozen
    part everything else."""
    kw, j, frac = pair_lags(problem, grid, axes, h)
    delta = 1.0 - frac
    s = problem.firing_rate(history)
    cols = np.arange(grid.total_points)[None, :]
    now = kw * delta * s[j, cols]
    live = np.where(j == 0, now, 0.0).sum(axis=1)
    frozen = (np.where(j == 0, 0.0, now) + kw * (1.0 - delta) * s[j + 1, cols]).sum(axis=1)
    return frozen, live


def split_case(case, grid):
    """Transmission speed, evaluation axes and time step of one case."""
    if case == "direct":
        return 1.0, (grid.x1, grid.x2), 0.1
    op = build_cheb_operator(4, grid)
    axes = (op.points1, op.points2)
    if case == "all-live":  # v h above the domain diameter: k_max = 0
        return 100.0, axes, 0.1
    if case == "none-live":  # v h below every point-to-node distance
        e1, e2 = np.meshgrid(*axes, indexing="ij")
        p1, p2 = grid.flat_points()
        d = np.hypot(e1.ravel()[:, None] - p1, e2.ravel()[:, None] - p2)
        return 1.0, axes, 0.5 * float(np.min(d))
    return 1.0, axes, 0.1


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["direct", "rank-reduced", "all-live", "none-live"])
def test_split_operator_matches_full_gather(case):
    """The frozen sum, the live sum and the whole operator each agree with
    their per-pair sums, which interpolate the rate, to 1e-13 relative on
    random history, on the square and a rectangle off the origin, with a
    linear and a tanh rate; the frozen sum does not depend on the finite
    values of row 0.  With every pair live, ``now`` is empty."""
    for domain in (UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0)):
        grid = build_grid(domain, 2, build_gauss_rule(4))
        v, axes, h = split_case(case, grid)
        for rate in (example4().firing_rate, np.tanh):
            p = dataclasses.replace(example4(v=v, domain=domain), firing_rate=rate)
            table = build_delay_table(p, grid, axes, h)
            live, pairs = table.live.nnz, table.pair_count
            if case == "all-live":
                assert live == pairs and table.now.nnz == 0 and table.history_rows == 2
            elif case == "none-live":
                assert live == 0
            else:
                assert 0 < live < pairs
            rng = np.random.default_rng(7)
            history = rng.standard_normal((table.history_rows, grid.total_points))
            frozen_ref, live_ref = per_pair_sums(p, grid, axes, h, history)
            frozen = table.frozen_sum(p, history)
            assert_close(frozen, frozen_ref)
            assert_close(table.live_sum(p, history[0]), live_ref)
            assert_close(apply_table(p, table, history), frozen_ref + live_ref)
            history[0] = rng.standard_normal(grid.total_points)
            assert np.array_equal(table.frozen_sum(p, history), frozen)


@pytest.mark.parametrize("N, m", [(48, 4), (96, 11), (96, 12)])
def test_frozen_sum_equals_the_per_pair_sum_on_large_tables(N, m):
    """On tables of up to 1.3 million pairs and 143 history rows the frozen
    sum agrees with its per-pair sum to 1e-13 relative, with a tanh rate on
    random history, and does not depend on the finite values of row 0."""
    p = dataclasses.replace(example4(v=1.0), firing_rate=np.tanh)
    grid = make_grid(N=N)
    op = build_cheb_operator(m, grid)
    axes = (op.points1, op.points2)
    table = build_delay_table(p, grid, axes, 0.02)
    rng = np.random.default_rng(7)
    history = rng.standard_normal((table.history_rows, grid.total_points))
    frozen = table.frozen_sum(p, history)
    assert_close(frozen, per_pair_sums(p, grid, axes, 0.02, history)[0])
    history[0] = rng.standard_normal(grid.total_points)
    assert np.array_equal(table.frozen_sum(p, history), frozen)


def one_shot_table(problem, grid, axes, h):
    """Reference: (near, far, j) of every pair, w delta and w (1 - delta)
    by the same float operations as build_delay_table, and the pairs'
    level offsets."""
    kw, j, frac = pair_lags(problem, grid, axes, h)
    far = kw * frac
    return kw - far, far, j


def test_delay_table_offsets_and_fractions():
    """``now`` and ``then`` share one index array, j N^2 + q for the pair's
    level offset j and node q, and one indptr; ``then`` holds w (1 - delta)
    and ``now`` w delta, 0 for the pairs with j = 0.  The lag
    (j + 1 - delta) h is the travel time of every pair, and the table holds
    20 B per pair with int32 indices, plus its live pairs and indptrs."""
    grid = make_grid(N=8)
    p = example4(v=1.0)
    h = 0.1
    table = grid_table(p, grid, h)
    assert type(table) is DelayedPairs
    k_max = table.history_rows - 2
    assert k_max == int(math.floor(p.tau_max / h)) == 28
    now, then = table.now, table.then
    assert now.shape == then.shape == (64, 29 * 64)
    assert np.shares_memory(now.indices, then.indices)
    assert np.shares_memory(now.indptr, then.indptr)
    assert now.indices.dtype == now.indptr.dtype == np.int32
    # the flat index j * N^2 + q names history row j at node q
    j, q = np.divmod(then.indices.reshape(64, 64), 64)
    assert np.array_equal(q, np.broadcast_to(np.arange(64), (64, 64)))
    assert np.all(j >= 0) and np.all(j <= k_max)
    near, far, j_ref = one_shot_table(p, grid, (grid.x1, grid.x2), h)
    assert np.array_equal(j, j_ref)
    assert np.array_equal(then.data.reshape(64, 64), far)
    assert np.array_equal(now.data.reshape(64, 64), np.where(j == 0, 0.0, near))
    # delta in (0, 1], and lag (j + 1 - delta) h equals the travel time
    # d / v for every pair
    w = p.kernel(node_distances(grid)) * grid.flat_weights()[None, :]
    assert np.all(far >= 0.0) and np.all(far < w)
    steps = node_distances(grid) / (p.v * h)
    assert np.max(np.abs((j + far / w) - steps)) < 1e-12
    # self pairs have zero travel time: level offset 0, full weight in row 0
    diag = np.arange(64)
    assert np.all(j[diag, diag] == 0) and np.all(far[diag, diag] == 0.0)
    assert np.array_equal(table.live.diagonal(), w[diag, diag])
    assert table.nbytes == 20 * 64 * 64 + 4 * 65 + 12 * table.live.nnz + 4 * 65


def test_live_list_holds_the_pairs_of_lag_under_one_step():
    """The live matrix holds w delta at column q for every pair with j = 0,
    and nothing else; those pairs weigh 0 in ``now``."""
    grid = make_grid(N=8)
    p = example4(v=1.0)
    h = 0.1
    table = grid_table(p, grid, h)
    near, far, j = one_shot_table(p, grid, (grid.x1, grid.x2), h)
    live = j == 0
    assert 0 < np.count_nonzero(live) < live.size
    assert table.live.shape == (64, 64)
    assert np.array_equal(table.live.toarray(), np.where(live, near, 0.0))
    assert table.live.nnz == np.count_nonzero(live)
    assert np.all(table.now.data.reshape(64, 64)[live] == 0.0)
    assert np.array_equal(table.now.data.reshape(64, 64)[~live], near[~live])


def general_form(problem, grid, axes, h_t, separable=False, num_steps=None):
    """Reference: the delayed table in its general form from one_shot_table's
    arrays, with ``now`` all 0 where a pair is live and a live matrix of
    its own arrays, even when every pair is live, and no pair folded into
    a constant history."""
    near, far, j = one_shot_table(problem, grid, axes, h_t)
    P, Q = near.shape
    live = j == 0
    index = (j * Q + np.arange(Q)).ravel()
    indptr = np.arange(0, P * Q + 1, Q)
    rows, cols = np.nonzero(live)
    live_indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=P))])
    k_max = math.floor(problem.tau_max / h_t)
    shape = (P, (k_max + 1) * Q)
    return DelayedPairs(
        now=sparse.csr_array((np.where(live, 0.0, near).ravel(), index, indptr), shape=shape),
        then=sparse.csr_array((far.ravel(), index, indptr), shape=shape),
        live=sparse.csr_array((near[rows, cols], cols, live_indptr), shape=(P, Q)))


def test_all_live_table_is_the_live_list_alone(monkeypatch):
    """Example 4 at v = 1e9, direct at N = 24: every lag is under one step.
    ``now`` is empty, and the live matrix holds every pair's w delta on the
    index array and indptr of ``then``: at most 24 B per pair.  The run
    gives the states of a run on the general form, an all-zero ``now`` and
    a live matrix of its own (32 B per pair), and its peak is the table and
    a few pair-sized build temporaries."""
    p = example4(v=1e9)
    cfg = SolverConfig(h_t=0.01, T=0.1, n=6, k=4, rank_reduction=False)
    grid = make_grid(N=24)
    table = build_delay_table(p, grid, (grid.x1, grid.x2), cfg.h_t)
    near = one_shot_table(p, grid, (grid.x1, grid.x2), cfg.h_t)[0]
    assert table.history_rows == 2 and table.now.nnz == 0
    assert np.array_equal(table.live.toarray(), near)
    assert np.shares_memory(table.live.indices, table.then.indices)
    assert np.shares_memory(table.live.indptr, table.then.indptr)
    tracemalloc.start()
    try:
        res = solve(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = res.grid.total_points ** 2
    assert res.table_form == "DelayedPairs" and res.table_bytes <= 24 * pairs
    assert peak < 20e6

    monkeypatch.setattr(solver_module, "build_delay_table", general_form)
    ref = solve(p, cfg)
    assert ref.table_bytes >= 32 * pairs
    for a, b in zip(res.states, ref.states):
        assert np.max(np.abs(a.values - b.values)) <= 1e-15


def test_index_width_follows_the_history_columns():
    """Indices are int32 while (k_max + 1) N^2 columns fit in it and int64
    beyond: at v = 1e-7, tau_max / h_t = 2.8e8 levels of N^2 = 64 nodes,
    with every pair's flat index j N^2 + q intact."""
    grid = make_grid(N=8)
    h = 0.1
    for v, itype in ((1.0, np.int32), (1e-7, np.int64)):
        p = example4(v=v)
        table = grid_table(p, grid, h)
        assert table.then.indices.dtype == table.then.indptr.dtype == itype
        j = one_shot_table(p, grid, (grid.x1, grid.x2), h)[2]
        assert np.array_equal(table.then.indices, (j * 64 + np.arange(64)).ravel())
        assert table.then.shape[1] == (table.history_rows - 1) * 64
    assert table.then.shape[1] > np.iinfo(np.int32).max


@pytest.mark.parametrize("form,problem", [
    (AxisFactors, example1()),
    (PairTable, dataclasses.replace(example3(), kernel=lambda r: np.exp(-r))),
    (DelayedPairs, example4(v=1.0)),
], ids=["AxisFactors", "PairTable", "DelayedPairs"])
def test_delayed_solve_computes_the_frozen_sum_once_per_level(monkeypatch, form, problem):
    """Every table form is asked for its frozen part at most once per
    history window, num_steps + 1 times, however many inner iterations
    run, and never in a run of no steps."""
    calls = []
    frozen_sum = form.frozen_sum

    def counted(*args):
        calls.append(args)
        return frozen_sum(*args)

    monkeypatch.setattr(form, "frozen_sum", counted)
    assert solve(problem, SolverConfig(h_t=0.1, T=0.0, n=2, k=4, m=4)).table_form == \
        form.__name__
    assert calls == []
    cfg = SolverConfig(h_t=0.1, T=0.5, n=2, k=4, m=4)
    res = solve(problem, cfg)
    assert 0 < len(calls) <= cfg.num_steps + 1
    applies = 1 + sum(d.kappa_applies for d in res.diagnostics)
    assert applies > 2 * (cfg.num_steps + 1)


def test_delayed_solve_peak_memory_is_the_table_history_and_states():
    """A delayed solve allocates little beyond an unfolded table (20 B per
    pair), its whole history and the states it keeps: no whole-table
    temporary in the frozen sum and no copy of the history in the level
    shift.  Folding the constant history makes the table itself smaller
    than the build's transient, so the bound is the unfolded table's."""
    p = example4(v=1.0)
    cfg = SolverConfig(h_t=0.02, T=0.1, n=12, k=4, m=12)
    tracemalloc.start()
    try:
        res = solve(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row_bytes = res.grid.total_points * 8
    table_bytes = 20 * cfg.m ** 2 * res.grid.total_points
    history_bytes = (math.floor(p.tau_max / cfg.h_t) + 2) * row_bytes
    states_bytes = len(res.states) * row_bytes
    assert res.table_bytes < table_bytes
    assert peak < table_bytes + history_bytes + states_bytes + 2**20


def test_undelayed_march_holds_few_grid_vectors_beyond_its_levels():
    """Example 3 direct at N = 96: the run peaks at 9 grid vectors above
    its levels and its table.  The march lets each level's input, predictor
    and f_i go before the next begins (measured 8.2 vectors; 10.4 when the
    predictor and f_i outlive their level)."""
    cfg = SolverConfig(h_t=0.01, T=0.2, n=24, k=4, rank_reduction=False)
    tracemalloc.start()
    try:
        res = solve(example3(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vector = res.grid.total_points * 8
    levels_bytes = (cfg.num_steps + 1) * vector
    assert (peak - levels_bytes - res.table_bytes) / vector <= 9


@pytest.mark.parametrize("problem,rank_reduction", [
    (example3(), False),
    (example4(v=1.0), True),
], ids=["direct", "delayed"])
def test_solve_steps_each_two_step_level_through_the_module(problem, rank_reduction,
                                                            monkeypatch):
    """solve reaches every two-step level through the module attribute
    bdf2_step, which a tracer may rebind: num_steps - 1 calls, in level
    order, and none in a run of one step or of none."""
    levels = []
    bdf2_step = solver_module.bdf2_step

    def counted(*args):
        levels.append(args[-1])
        return bdf2_step(*args)

    monkeypatch.setattr(solver_module, "bdf2_step", counted)
    for T in (0.0, 0.1, 0.5):
        levels.clear()
        cfg = SolverConfig(h_t=0.1, T=T, n=2, k=4, m=4, rank_reduction=rank_reduction)
        res = solve(problem, cfg)
        assert levels == list(range(2, cfg.num_steps + 1))
        assert [d.level for d in res.diagnostics] == levels


@pytest.mark.parametrize("problem,config", [
    (example1(), SolverConfig(h_t=1e-10, T=1e10, n=1, k=1, rank_reduction=False)),
    (example4(v=1e-9), SolverConfig(h_t=0.1, T=0.1)),
], ids=["1e20-levels", "2.8e10-history-rows"])
def test_run_beyond_physical_memory_fails_before_allocating(problem, config):
    """1e20 levels of one node, or tau_max / h_t = 2.8e10 levels of history
    at N = 24 (1.3e14 B), raise ValueError instead of allocating them, and
    before the initial data are read for the history scan."""
    problem = dataclasses.replace(problem, initial=refuse("initial"))
    with pytest.raises(ValueError, match=r"the run needs \d+ B .* above the \d+ B of physical"):
        solve(problem, config)


def test_memory_check_compares_the_table_and_levels_with_physical_memory(monkeypatch):
    """The run fits exactly when the bound of its kernel norms, and apart
    from it its table with its three levels (0, 1 and 2) and their six
    records (a diagnostics record and a state per level), take no more
    bytes than the machine has.  At N = 8 the norms' bound is the larger,
    so the table and levels decide only with that bound taken as 0."""
    p, cfg = example1(), SolverConfig(h_t=0.05, T=0.1, n=2, k=4, m=4)
    needed = solve(p, cfg).table_bytes + 3 * 64 * 8 + 6 * solver_module._RECORD_BYTES
    norms = kernel_norms_bytes(build_grid(p.domain, 2, build_gauss_rule(4)))
    assert norms > needed

    def fits_exactly(memory, what):
        monkeypatch.setattr(solver_module, "_physical_memory", lambda: memory - 1)
        with pytest.raises(ValueError, match=f"needs {memory} B for {what}, above the "
                                             f"{memory - 1} B of physical memory"):
            solve(p, cfg)
        monkeypatch.setattr(solver_module, "_physical_memory", lambda: memory)
        assert len(solve(p, cfg).states) == 3

    fits_exactly(norms, "its kernel norms")
    monkeypatch.setattr(solver_module, "kernel_norms_bytes", lambda grid: 0)
    fits_exactly(needed, "its operator table, 3 grid levels and 6 level records")


@pytest.mark.parametrize("refused", ["levels", "norms"])
def test_memory_check_precedes_the_kernel_norms(refused, monkeypatch):
    """A run whose levels alone, or the bound of whose kernel norms, exceed
    physical memory is refused before compute_kernel_norms runs, so it
    cannot die inside them."""
    p, cfg = example1(), SolverConfig(h_t=0.05, T=0.1, n=2, k=4, m=4)
    grid = build_grid(p.domain, 2, build_gauss_rule(4))
    needed, what = {"levels": (3 * 64 * 8 + 6 * solver_module._RECORD_BYTES,
                               "3 grid levels and 6 level records"),
                    "norms": (kernel_norms_bytes(grid), "its kernel norms")}[refused]
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: needed - 1)
    monkeypatch.setattr(solver_module, "compute_kernel_norms", refuse("compute_kernel_norms"))
    with pytest.raises(ValueError, match=f"needs {needed} B for {what}, above the "
                                         f"{needed - 1} B of physical memory"):
        solve(p, cfg)


def refuse(name):
    """A callable that fails the test if anything calls it."""
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refused


def test_delayed_memory_check_precedes_the_history_scan_and_the_build(monkeypatch):
    """A delayed run checks its levels, down to level -(k_max + 1), and its
    table at 20 B per pair with int32 indices against physical memory
    before it reads the initial history or builds the table; a run that
    fits exactly goes on."""
    p, cfg = example4(v=1.0), SolverConfig(h_t=0.1, T=0.2, n=2, k=4, m=4)
    rows = 2 + 28 + 2  # num_steps + k_max + 2
    needed = 20 * 16 * 64 + rows * 64 * 8 + 6 * solver_module._RECORD_BYTES
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: needed - 1)
    monkeypatch.setattr(solver_module, "build_delay_table", refuse("build_delay_table"))
    with pytest.raises(ValueError, match=f"needs {needed} B .* {rows} grid levels and 6 level "
                                         f"records, above the "
                                         f"{needed - 1} B of physical memory"):
        solve(dataclasses.replace(p, initial=refuse("initial")), cfg)
    monkeypatch.undo()
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: needed)
    assert len(solve(p, cfg).states) == 3


# --- keeping only some levels -----------------------------------------------

# (problem, config, table form): every form, and a direct delayed run of
# 50 steps whose 18-row buffer (k_max = 7, history_rows H = 9) wraps 5 times
KEEP_CASES = {
    "PairTable": (dataclasses.replace(example3(), kernel=lambda r: np.exp(-r)),
                  SolverConfig(h_t=0.01, T=0.2, n=4, k=4, m=8), "PairTable"),
    "AxisFactors": (example1(), SolverConfig(h_t=0.01, T=0.2, n=6, k=4, m=12), "AxisFactors"),
    "folded": (example4(v=1.0), SolverConfig(h_t=0.02, T=0.2, n=6, k=4, m=12), "DelayedPairs"),
    "unfolded": (example5(v=1.0), SolverConfig(h_t=0.05, T=0.3, n=3, k=4, m=8), "DelayedPairs"),
    "wrapping": (example4(v=20.0), SolverConfig(h_t=0.02, T=1.0, n=2, k=4,
                                                rank_reduction=False), "DelayedPairs"),
}


@pytest.mark.parametrize("case", KEEP_CASES)
def test_kept_states_are_the_rows_of_a_full_run(case):
    """With ``keep`` at its default, as T alone or as a few times in any
    order, the states are the matching levels of a run that keeps every
    level, bit for bit, in time order, and the diagnostics and counters
    are the same: the level buffer changes what is held, not what is
    computed.  A kept state is a copy that owns its values."""
    problem, cfg, form = KEEP_CASES[case]
    full = solve(problem, cfg)
    assert full.table_form == form
    T, mid = cfg.T, cfg.num_steps // 2 * cfg.h_t
    for keep in (None, (T,), (T, 0.0, mid, T)):
        res = solve(problem, cfg, keep=keep)
        expected = full.states if keep is None else [full.state_at(t) for t in (0.0, mid, T)
                                                     if t in keep]
        assert [s.time for s in res.states] == [s.time for s in expected]
        for state, ref in zip(res.states, expected):
            assert np.array_equal(state.values, ref.values)
            assert keep is None or state.values.base is None
        assert res.diagnostics == full.diagnostics
        assert res.record().keys() == full.record().keys()
        assert {k: v for k, v in res.record().items() if k != "level_bytes"} == \
            {k: v for k, v in full.record().items() if k != "level_bytes"}


def test_level_bytes_size_the_buffer_and_the_kept_copies():
    """A run keeping every level holds num_steps + history_rows grid rows;
    one told to keep some holds at most 2 history_rows rows plus a copy of
    each kept level.  The wrapping case's buffer is 18 rows for 50 steps
    and 9 history rows, so its window moves to the bottom every 9 levels,
    5 times."""
    problem, cfg, _ = KEEP_CASES["wrapping"]
    row = 64 * 8
    H = math.floor(problem.tau_max / cfg.h_t) + 2
    assert (cfg.num_steps, H) == (50, 9)
    assert solve(problem, cfg).level_bytes == (50 + H) * row
    res = solve(problem, cfg, keep=(cfg.T, 0.5))
    assert res.level_bytes == (2 * H + 2) * res.grid.total_points * 8
    assert res.record()["level_bytes"] == res.level_bytes
    assert (cfg.num_steps - 1) // H == 5  # H levels between moves
    # an undelayed run reads one row besides the new one: a buffer of 2
    p, short = example1(), SolverConfig(h_t=0.05, T=0.1, n=2, k=4, m=4)
    assert [solve(p, short, keep=keep).level_bytes for keep in (None, (), (0.1,))] == \
        [3 * row, 2 * row, 3 * row]


def test_keep_times_are_checked_before_the_kernel_norms(monkeypatch):
    """A keep time that is not a stored level raises SolverConfig.stored_level's
    ValueError before the norms run."""
    monkeypatch.setattr(solver_module, "compute_kernel_norms", refuse("compute_kernel_norms"))
    cfg = SolverConfig(h_t=0.05, T=0.1, n=2, k=4, m=4)
    for bad in (0.075, 0.15, -0.05, math.nan):
        with pytest.raises(ValueError, match=r"is not a stored level \(h_t=0.05, T=0.1\)"):
            solve(example1(), cfg, keep=(0.1, bad))


def test_state_at_a_time_not_kept_names_the_kept_times():
    res = solve(example1(), SolverConfig(h_t=0.05, T=0.2, n=2, k=4, m=4), keep=(0.2, 0.05))
    assert res.state_at(0.05) is res.states[0] and res.state_at(0.2) is res.states[1]
    with pytest.raises(ValueError, match=r"time 0.1 was not kept; the run kept the times "
                                         r"\[0.05, 0.2\]"):
        res.state_at(0.1)
    with pytest.raises(ValueError, match="is not a stored level"):
        res.state_at(0.3)


def test_memory_check_counts_the_buffer_and_the_kept_levels(monkeypatch):
    """A 100-step undelayed run needs 101 grid levels and 202 records (a
    diagnostics record and a state per level) when it keeps every level,
    and with keep=(T,) a 2-row buffer, one copy and 102 records.  With
    physical memory set to the table and those 3 rows and 102 records,
    the full run is refused and the kept one goes on."""
    p, cfg = example1(), SolverConfig(h_t=0.01, T=1.0, n=2, k=4, m=4)
    record = solver_module._RECORD_BYTES
    monkeypatch.setattr(solver_module, "kernel_norms_bytes", lambda grid: 0)
    needed = solve(p, cfg, keep=()).table_bytes + 3 * 64 * 8 + 102 * record
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: needed)
    with pytest.raises(ValueError, match=f"needs {51712 + 202 * record} B for 101 grid levels "
                                         f"and 202 level records"):
        solve(p, cfg)
    assert [s.time for s in solve(p, cfg, keep=(1.0,)).states] == [1.0]
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: needed - 1)
    with pytest.raises(ValueError, match=f"needs {needed} B for its operator table, 3 grid "
                                         f"levels and 102 level records"):
        solve(p, cfg, keep=(1.0,))


def test_a_long_kept_run_is_refused_for_its_records(monkeypatch):
    """Example 1 over 10,000 steps on one node, keeping only T's state,
    holds 24 B of grid levels and about 136 B of records per step (traced):
    with 1 MB of physical memory it is refused before the kernel norms
    run, where its rows alone would admit it to hold 1.36 MB."""
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: 10**6)
    monkeypatch.setattr(solver_module, "compute_kernel_norms", refuse("compute_kernel_norms"))
    cfg = SolverConfig(h_t=1e-4, T=1.0, n=1, k=1, rank_reduction=False)
    with pytest.raises(ValueError, match=r"needs \d+ B for 3 grid levels and 10002 level "
                                         r"records, above the 1000000 B"):
        solve(example1(), cfg, keep=(1.0,))


@pytest.mark.parametrize("keep", [None, (2.0,)], ids=["every-level", "keep-T"])
@pytest.mark.parametrize("rank_reduction", [False, True], ids=["direct", "rank-reduced"])
def test_memory_check_bounds_what_a_run_holds(keep, rank_reduction, monkeypatch):
    """The bytes the memory check counts for a run's levels and records
    bound what its result holds, and by less than twice: example 1 over
    2,000 steps on one node (direct) or four per axis (rank-reduced, whose
    integrand counts pass Python's small-int cache), keeping every level
    or only T's state."""
    cfg = SolverConfig(h_t=0.001, T=2.0, n=1, k=4 if rank_reduction else 1, m=4,
                       rank_reduction=rank_reduction)
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: 0)
    records = 4002 if keep is None else 2002
    with pytest.raises(ValueError, match=f"grid levels and {records} level records") as refused:
        solve(example1(), cfg, keep=keep)
    counted = int(re.search(r"needs (\d+) B", str(refused.value)).group(1))
    monkeypatch.undo()
    solve(example1(), dataclasses.replace(cfg, T=0.0))  # what the first solve allocates
    tracemalloc.start()
    try:
        res = solve(example1(), cfg, keep=keep)
        held = tracemalloc.get_traced_memory()[0]
        del res
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert counted / 2 < held <= counted


def test_long_run_keeping_its_last_state_peaks_near_its_set_up():
    """Example 1 over 2,000 steps at N = 96, keeping the state at T: the
    run peaks within 8 grid vectors of a run of no steps on the same grid
    (measured 5.8, the 2,000 levels' diagnostics among them), where keeping
    every level took 2,009 more."""
    p = example1()
    cfg = SolverConfig(h_t=0.001, T=2.0, n=24, k=4, m=4)
    set_up = SolverConfig(h_t=0.001, T=0.0, n=24, k=4, m=4)
    solve(p, set_up)  # what the first solve of a process allocates

    def traced_peak(config):
        tracemalloc.start()
        try:
            res = solve(p, config, keep=(config.T,))
            return res, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = traced_peak(set_up)[1]
    res, peak = traced_peak(cfg)
    assert [s.time for s in res.states] == [2.0]
    assert (peak - base) / (res.grid.total_points * 8) <= 8


def test_per_level_records_hold_no_instance_dict():
    """StepDiagnostics and FieldState declare slots, so no instance has a
    __dict__, and a 2,000-level run that keeps only T's state holds its
    diagnostics in at most 170 B per level: the objects, the numbers
    Python does not cache, and the list's slots (measured 162, and 204
    with an instance dict)."""
    res = solve(example1(), SolverConfig(h_t=0.01, T=0.03))
    for record in (res.diagnostics[0], res.states[0]):
        assert not hasattr(record, "__dict__")
    cfg = SolverConfig(h_t=0.001, T=2.0, n=1, k=4, m=4)
    tracemalloc.start()
    try:
        res = solve(example1(), cfg, keep=(cfg.T,))
        levels = len(res.diagnostics)
        held = tracemalloc.get_traced_memory()[0]
        res.diagnostics.clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert levels == cfg.num_steps - 1
    assert held / levels <= 170


# --- folding a constant initial history ------------------------------------

def unfolded(problem, grid, axes, h_t, separable=False, num_steps=None):
    """build_delay_table with the run's length withheld, so nothing folds."""
    return build_delay_table(problem, grid, axes, h_t, separable)


def solve_unfolded(problem, config, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "build_delay_table", unfolded)
        return solve(problem, config)


@pytest.mark.parametrize("domain", [UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0)],
                         ids=["square", "rectangle"])
@pytest.mark.parametrize("rank_reduction,N", [(True, 24), (False, 16)],
                         ids=["rank-reduced-24", "direct-16"])
def test_folded_table_matches_the_unfolded_one(domain, rank_reduction, N, monkeypatch):
    """Example 4's history is constant in time, so a run of n <= k_max steps
    folds its pairs at level offsets j >= n into one vector.  On windows
    whose rows n and deeper hold that history, with random rows above it,
    the folded frozen sum and whole operator match the unfolded table's to
    1e-13 relative, with the linear rate and tanh, and the live sums are
    equal.  The states of the whole run match the unfolded run's to 1e-13."""
    p = example4(v=1.0, domain=domain)
    cfg = SolverConfig(h_t=0.02, T=0.1, n=N // 4, k=4, m=6, rank_reduction=rank_reduction)
    assert cfg.T < p.tau_max
    grid = build_grid(domain, cfg.n, build_gauss_rule(cfg.k))
    axes = eval_axes(grid, rank_reduction)
    n, Q = cfg.num_steps, grid.total_points
    h0 = p.initial(grid.x1[:, None], grid.x2[None, :], 0.0).ravel()
    rng = np.random.default_rng(5)
    for rate in (p.firing_rate, np.tanh):
        q = dataclasses.replace(p, firing_rate=rate)
        ref = build_delay_table(q, grid, axes, cfg.h_t)
        fold = build_delay_table(q, grid, axes, cfg.h_t, num_steps=n)
        assert ref.history_rows - 2 == math.floor(p.tau_max / cfg.h_t) > n
        assert fold.history_rows == n + 1 and fold.shape == ref.shape
        assert 0 < fold.frozen_pairs < ref.frozen_pairs == ref.pair_count
        assert fold.nbytes < ref.nbytes
        for _ in range(3):
            window = np.tile(h0, (ref.history_rows, 1))
            window[:n] = rng.standard_normal((n, Q))
            assert_close(fold.frozen_sum(q, window), ref.frozen_sum(q, window))
            assert np.array_equal(fold.live_sum(q, window[0]), ref.live_sum(q, window[0]))
            assert_close(apply_table(q, fold, window), apply_table(q, ref, window))
    res = solve(p, cfg)
    ref_res = solve_unfolded(p, cfg, monkeypatch)
    assert res.frozen_pairs == fold.frozen_pairs and res.table_bytes == fold.nbytes
    assert ref_res.frozen_pairs == ref.pair_count
    assert res.total_integrand_evals == ref_res.total_integrand_evals
    for a, b in zip(res.states, ref_res.states):
        assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(np.abs(b.values))


def kernel_sizes(monkeypatch):
    """The sizes of the distance arrays that ProblemSpec.kernel_values is
    given, from now until the patch is undone."""
    sizes = []
    kernel_values = ProblemSpec.kernel_values

    def counted(self, r):
        sizes.append(r.size)
        return kernel_values(self, r)

    monkeypatch.setattr(ProblemSpec, "kernel_values", counted)
    return sizes


def assert_same_matrices(got, want):
    assert got.shape == want.shape and got.history_rows == want.history_rows
    for name in ("now", "then", "live"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part)), (name, part)


def near_and_whole(problem, grid, axes, h, n, monkeypatch):
    """The fold of a constant history for n steps, built with the
    separability verdict, from the near pairs, and without it, from every
    pair, and the sizes of the kernel evaluations of the first."""
    with monkeypatch.context() as patch:
        sizes = kernel_sizes(patch)
        near = build_delay_table(problem, grid, axes, h, True, num_steps=n)
    whole = build_delay_table(problem, grid, axes, h, num_steps=n)
    assert near.history_rows == whole.history_rows == max(n, 1) + 1
    return near, whole, sizes


@pytest.mark.parametrize("domain", [UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0)],
                         ids=["square", "rectangle"])
@pytest.mark.parametrize("rank_reduction,N", [(True, 24), (False, 16)],
                         ids=["rank-reduced-24", "direct-16"])
def test_near_build_matches_the_whole_build(domain, rank_reduction, N, monkeypatch):
    """Example 4's Gaussian separates, so its fold evaluates the kernel on
    the pairs near each point alone and takes the far sum from the axis
    factors.  Its three matrices are the whole build's bit for bit, with
    the linear rate and tanh.  ``fixed``, and the frozen sum and whole
    operator on windows whose rows n and deeper hold the history, match
    the whole build's to 1e-13 relative; so do the states of the whole run,
    with the same frozen pairs, table bytes and integrand count."""
    p = example4(v=1.0, domain=domain)
    cfg = SolverConfig(h_t=0.02, T=0.1, n=N // 4, k=4, m=6, rank_reduction=rank_reduction)
    grid = build_grid(domain, cfg.n, build_gauss_rule(cfg.k))
    assert compute_kernel_norms(p, grid).separable
    axes = eval_axes(grid, rank_reduction)
    n, Q = cfg.num_steps, grid.total_points
    h0 = p.initial(grid.x1[:, None], grid.x2[None, :], 0.0).ravel()
    rng = np.random.default_rng(5)
    for rate in (p.firing_rate, np.tanh):
        q = dataclasses.replace(p, firing_rate=rate)
        near, whole, sizes = near_and_whole(q, grid, axes, cfg.h_t, n, monkeypatch)
        assert max(sizes) < near.pair_count // 4
        assert_same_matrices(near, whole)
        assert_close(near.fixed, whole.fixed)
        for _ in range(3):
            window = np.tile(h0, (near.history_rows, 1))
            window[:n] = rng.standard_normal((n, Q))
            assert_close(near.frozen_sum(q, window), whole.frozen_sum(q, window))
            assert_close(apply_table(q, near, window), apply_table(q, whole, window))
    res = solve(p, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "build_delay_table", without_verdict)
        ref = solve(p, cfg)
    assert res.frozen_pairs == ref.frozen_pairs == near.frozen_pairs
    assert res.table_bytes == ref.table_bytes
    assert res.total_integrand_evals == ref.total_integrand_evals
    for a, b in zip(res.states, ref.states):
        assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(np.abs(b.values))


def speed_at_the_reach(grid, h, n):
    """A speed v at which nodes 0 and 1 of the first axis, on one grid
    line, lie at the float distance u = x1_1 - x1_0 == n * (v * h), with
    the lag u / (v h) still rounding below n: a pair kept at distance R in
    floats whose true distance exceeds R, as x1_0 - R rounds above x1_0."""
    x = grid.x1
    u = x[1] - x[0]
    assert Fraction(u) < Fraction(x[1]) - Fraction(x[0])
    v = np.nextafter(u / (n * h), -np.inf)
    for _ in range(80):
        v = np.nextafter(v, np.inf)
        if n * (v * h) == u and u / (v * h) < n:
            return float(v)
    raise AssertionError("no speed puts the pair at the reach")


@pytest.mark.parametrize("case", ["n-equals-k_max", "n-is-1", "sharp-kernel", "pair-at-R"])
def test_near_build_matches_the_whole_build_at_its_edges(case, monkeypatch):
    """The near build keeps the whole build's matrices bit for bit and its
    ``fixed`` to 1e-13 relative:
    - at n = k_max, where R spans both axes and every pair is near;
    - at n = 1;
    - for exp(-30 r^2) at R = 0.5, whose far sum is 5e-4 of the whole sum,
      so A1 S A2^T minus the near sum would leave it 7e-13 off;
    - for a pair kept at distance R, on a domain that starts just below 0,
      whose near nodes a bisection for R unpadded would miss."""
    h, n, v, lam, domain = 0.02, 25, 1.0, 1.0, UNIT_BOX
    grid = make_grid(N=24)
    axes = eval_axes(grid, True)
    if case == "n-equals-k_max":
        grid, h, n = make_grid(N=8), 1.0, 2
        axes = (grid.x1, grid.x2)
    elif case == "n-is-1":
        n = 1
    elif case == "sharp-kernel":
        lam = 30.0
    else:
        domain = Rectangle(-0.05, 2.0, -1.0, 1.0)
        grid, h, n = build_grid(domain, 2, build_gauss_rule(4)), 0.1, 3
        axes, v = (grid.x1, grid.x2), speed_at_the_reach(grid, h, n)
    p = example4(lam=lam, v=v, domain=domain)
    assert compute_kernel_norms(p, grid).separable
    near, whole, sizes = near_and_whole(p, grid, axes, h, n, monkeypatch)
    # only where every pair is near does the kernel see them all at once
    assert (max(sizes) == near.pair_count) == (case == "n-equals-k_max")
    if case == "n-equals-k_max":
        assert math.floor(p.tau_max / h) == n
    assert_same_matrices(near, whole)
    assert_close(near.fixed, whole.fixed)
    if case == "sharp-kernel":
        h0 = p.initial(grid.x1[:, None], grid.x2[None, :], 0.0).ravel()
        whole_sum = apply_table(p, near, np.tile(h0, (near.history_rows, 1)))
        assert np.max(near.fixed) < 1e-3 * np.max(whole_sum)


def test_near_build_cuts_the_kernel_values_and_the_peak(monkeypatch):
    """At the delay benchmark's settings (example 4 at v = 1, N = 48,
    m = 12, h_t = 0.02 and 25 steps) the fold makes fewer than 15% of its
    331,776 pairs' kernel values, the factors' included, and peaks below
    2.5 MB, where hypot and the kernel on every pair peaked at 8 MB."""
    p = example4(v=1.0)
    grid = make_grid(N=48)
    op = build_cheb_operator(12, grid)
    axes = (op.points1, op.points2)
    separable = compute_kernel_norms(p, grid).separable
    with monkeypatch.context() as patch:
        sizes = kernel_sizes(patch)
        table = build_delay_table(p, grid, axes, 0.02, separable, num_steps=25)
    assert table.pair_count == 331776 and table.frozen_pairs == 41816
    assert sum(sizes) < 0.15 * table.pair_count
    tracemalloc.start()
    try:
        build_delay_table(p, grid, axes, 0.02, separable, num_steps=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_a_fold_that_does_not_separate_reads_every_pair(monkeypatch):
    """exp(-r) does not separate, so its fold evaluates the kernel on every
    pair in one call.  Its matrices hold the reference's values of the pairs
    at j < n, ``fixed`` is the reference's sum over the others, both bit
    for bit, and the run's states are those of a run on that reference
    table, bit for bit."""
    p = dataclasses.replace(example4(v=1.0), kernel=lambda r: np.exp(-r))
    cfg = SolverConfig(h_t=0.02, T=0.1, n=4, k=4, m=6)
    grid = build_grid(p.domain, cfg.n, build_gauss_rule(cfg.k))
    assert not compute_kernel_norms(p, grid).separable
    axes = eval_axes(grid, True)
    n, Q = cfg.num_steps, grid.total_points
    h0 = p.initial(grid.x1[:, None], grid.x2[None, :], 0.0).ravel()
    with monkeypatch.context() as patch:
        sizes = kernel_sizes(patch)
        table = build_delay_table(p, grid, axes, cfg.h_t, False, num_steps=n)
    assert sizes == [table.pair_count]
    near, far, j = one_shot_table(p, grid, axes, cfg.h_t)
    kw = pair_lags(p, grid, axes, cfg.h_t)[0]
    kept = j < n
    index = (j * Q + np.arange(Q))[kept]
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(kept, axis=1))])
    shape = (kw.shape[0], n * Q)
    live = j == 0
    rows, cols = np.nonzero(live)
    ref = DelayedPairs(
        now=sparse.csr_array((np.where(live, 0.0, near)[kept], index, indptr), shape=shape),
        then=sparse.csr_array((far[kept], index, indptr), shape=shape),
        live=sparse.csr_array((near[rows, cols], cols, np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=kw.shape[0]))])), shape=(kw.shape[0], Q)),
        fixed=np.where(kept, 0.0, kw) @ p.firing_rate(h0))
    assert_same_matrices(table, ref)
    assert np.array_equal(table.fixed, ref.fixed)
    res = solve(p, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "build_delay_table", lambda *args, **kwargs: ref)
        ref_res = solve(p, cfg)
    for a, b in zip(res.states, ref_res.states):
        assert np.array_equal(a.values, b.values)


def differs_at_the_deepest_level(problem, h, k_max):
    """The problem's initial data, doubled at level -(k_max + 1) alone."""
    initial = problem.initial

    def deep(x1, x2, t):
        values = initial(x1, x2, t)
        return 2.0 * values if t < -(k_max + 0.5) * h else values

    return dataclasses.replace(problem, initial=deep)


@pytest.mark.parametrize("case", ["example5", "n-above-k_max", "deepest-level-differs"])
def test_nothing_folds_without_a_constant_history_in_reach(case, monkeypatch):
    """No pair folds, and the run is bit for bit the run on the unfolded
    table, when the history varies in time (example 5), when the run takes
    k_max + 1 steps (T = 3 h_t, the first multiple of h_t past tau_max), or
    when the history differs from level 0 at level -(k_max + 1) alone.  The
    unfolded table holds pairs at j = k_max, which a wrong fold would
    move."""
    cfg = SolverConfig(h_t=1.0, T=2.0, n=2, k=4, rank_reduction=False)
    p = example4(v=1.0, c=10.0)
    k_max = math.floor(p.tau_max / cfg.h_t)
    if case == "example5":
        p = example5(v=1.0, c=10.0)
    elif case == "n-above-k_max":
        cfg = dataclasses.replace(cfg, T=(k_max + 1) * cfg.h_t)
    else:
        p = differs_at_the_deepest_level(p, cfg.h_t, k_max)
    res = solve(p, cfg)
    ref = solve_unfolded(p, cfg, monkeypatch)
    pairs = res.grid.total_points ** 2
    assert np.max(grid_table(p, res.grid, cfg.h_t).then.indices) // res.grid.total_points == k_max
    assert res.frozen_pairs == ref.frozen_pairs == pairs
    assert res.table_bytes == ref.table_bytes
    for a, b in zip(res.states, ref.states):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("case", ["n-equals-k_max", "scalar-initial"])
def test_a_constant_history_folds_at_its_edges(case, monkeypatch):
    """At n = k_max the pairs at j = k_max read levels 0 and -1 at most, and
    fold.  An initial state given as a scalar is broadcast to the grid
    before it is compared, and folds too.  Both runs seed the same level 0
    as the unfolded runs and match their states to 1e-13."""
    cfg = SolverConfig(h_t=1.0, T=2.0, n=2, k=4, rank_reduction=False)
    p = example4(v=1.0, c=10.0)
    assert math.floor(p.tau_max / cfg.h_t) == cfg.num_steps
    if case == "scalar-initial":
        p = dataclasses.replace(p, initial=lambda x1, x2, t: 0.3)
    res = solve(p, cfg)
    ref = solve_unfolded(p, cfg, monkeypatch)
    assert 0 < res.frozen_pairs < ref.frozen_pairs
    assert np.array_equal(res.states[0].values, ref.states[0].values)
    for a, b in zip(res.states, ref.states):
        assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(np.abs(b.values))


def test_near_pairs_reads_every_pair_only_when_its_runs_span_the_grid(monkeypatch):
    """A separable fold whose near runs span both axes takes every pair
    from _whole_pairs, with the folded rates: acceptance criterion 5's
    delayed solve, whose T = 2 reaches across the domain.  At the
    benchmark's delay_n48 settings the runs are narrower and _near_pairs
    gathers its candidates, never calling _whole_pairs."""
    calls = []
    whole = solver_module._whole_pairs

    def spy(problem, grid, axes, step, reach, rates, itype):
        calls.append((grid, reach, rates))
        return whole(problem, grid, axes, step, reach, rates, itype)

    monkeypatch.setattr(solver_module, "_whole_pairs", spy)
    p = example4(v=1.0)
    res = solve(p, SolverConfig(h_t=0.1, T=2.0))
    assert res.table_form == "DelayedPairs" and res.separable
    [(grid, reach, rates)] = calls
    assert reach == 20
    h0 = np.broadcast_to(p.initial(grid.x1[:, None], grid.x2[None, :], 0.0),
                         (grid.x1.size, grid.x2.size))
    assert np.array_equal(rates, p.rate_values(h0.ravel()))
    calls.clear()
    res = solve(p, SolverConfig(h_t=0.02, T=0.5, n=12, k=4, m=12))
    assert calls == [] and 0 < res.frozen_pairs < res.grid.total_points * 144


def test_full_span_fold_builds_within_28_bytes_per_pair():
    """_near_pairs hands a fold whose runs span both axes to _whole_pairs
    for memory above all: example 4's direct fold at N = 24, h_t = 0.1
    over 20 steps (331,776 pairs) peaks at 24.8 B per pair that way and at
    36.2 through the gathers."""
    p = example4(v=1.0)
    grid = build_grid(p.domain, 6, build_gauss_rule(4))
    tracemalloc.start()
    try:
        table = build_delay_table(p, grid, (grid.x1, grid.x2), 0.1, separable=True,
                                  num_steps=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.fixed is not None  # folded
    assert peak <= 28 * grid.total_points ** 2


def test_lift_identity_without_operator():
    """Without rank reduction the evaluation points are the grid nodes and
    the lift is the identity: the first level is the Euler formula at the
    nodes, bit for bit."""
    p = example1()
    h = 0.01
    res = solve(p, SolverConfig(h_t=h, T=h, n=2, k=4, rank_reduction=False))
    p1, p2 = res.grid.flat_points()
    U0 = res.states[0].values
    kap = apply_table(p, grid_table(p, res.grid, h), U0[None, :])
    expected = U0 + (h / p.c) * (p.input_current(p1, p2, 0.0) - U0 + kap)
    assert np.array_equal(res.states[1].values, expected)


def recording(problem):
    """The problem with input_current and initial wrapped to record the
    shapes of the coordinates each call receives."""
    shapes = set()

    def wrap(f):
        def recorded(x1, x2, t):
            shapes.add((np.shape(x1), np.shape(x2)))
            return f(x1, x2, t)
        return recorded

    return dataclasses.replace(problem, input_current=wrap(problem.input_current),
                               initial=wrap(problem.initial)), shapes


@pytest.mark.parametrize("problem,config,axis_lengths", [
    (example1(), SolverConfig(h_t=0.01, T=0.03, n=2, k=4, rank_reduction=False), {8}),
    (example1(), SolverConfig(h_t=0.01, T=0.03, n=2, k=4, m=4), {8, 4}),
    (example4(v=1.0), SolverConfig(h_t=0.1, T=0.3, n=2, k=4, m=4), {8, 4}),
], ids=["direct", "rank-reduced", "delayed"])
def test_solve_calls_the_problem_on_axes(problem, config, axis_lengths):
    """solve hands input_current and initial a column and a row, the grid's
    axes for the history and the evaluation axes for the update, never a
    flat list of N^2 or m^2 coordinates."""
    wrapped, shapes = recording(problem)
    solve(wrapped, config)
    assert shapes == {((n, 1), (1, n)) for n in axis_lengths}


@pytest.mark.parametrize("rank_reduction", [False, True])
def test_callables_may_read_one_axis_or_return_a_scalar(rank_reduction):
    """An initial state that reads x1 only and a scalar input run bit for
    bit like the same problem written with full-shape results."""
    def full(values, x1, x2):
        return np.broadcast_to(values, np.broadcast(x1, x2).shape).copy()

    common = dict(name="narrow", domain=UNIT_BOX, c=1.0, kernel=lambda r: np.exp(-r * r),
                  firing_rate=np.tanh, firing_rate_slope_max=1.0)
    narrow = ProblemSpec(**common, input_current=lambda x1, x2, t: 0.25 * math.cos(t),
                         initial=lambda x1, x2, t: 0.4 * x1 + 0.1,
                         exact=lambda x1, x2, t: 0.0)
    wide = ProblemSpec(**common,
                       input_current=lambda x1, x2, t: full(0.25 * math.cos(t), x1, x2),
                       initial=lambda x1, x2, t: full(0.4 * x1 + 0.1, x1, x2))
    cfg = SolverConfig(h_t=0.01, T=0.03, n=2, k=4, m=4, rank_reduction=rank_reduction)
    a, b = solve(narrow, cfg), solve(wide, cfg)
    for sa, sb in zip(a.states, b.states, strict=True):
        assert np.array_equal(sa.values, sb.values)
    # a scalar exact solution is broadcast over the grid too
    last = a.states[-1]
    assert error_norm(a.grid, last, narrow.exact) == np.max(np.abs(last.values))


def test_lift_constant_field():
    grid = make_grid(N=8)
    op = build_cheb_operator(4, grid)
    lifted = lift_to_grid(op, np.full(16, 2.5))
    assert lifted == pytest.approx(np.full(64, 2.5), abs=1e-13)


def plain_constant_history(problem, grid, h, rows):
    """The history scan as the plain expression np.all(initial == h0)."""
    x1, x2 = grid.x1[:, None], grid.x2[None, :]
    h0 = np.empty((grid.x1.size, grid.x2.size))
    h0[...] = problem.initial(x1, x2, 0.0)
    try:
        for l in range(1, rows):
            if not np.all(problem.initial(x1, x2, -l * h) == h0):
                return None
    except ArithmeticError:
        return None
    return h0


def nan_at_one_node(problem):
    """The problem's initial data with NaN at the first node at every time."""
    initial = problem.initial

    def nan(x1, x2, t):
        values = np.array(np.broadcast_to(initial(x1, x2, t), (x1.size, x2.size)))
        values[0, 0] = math.nan
        return values

    return dataclasses.replace(problem, initial=nan)


def overflows_at_the_deepest_level(problem, h, k_max):
    """The problem's initial data, raising OverflowError at level -(k_max + 1)."""
    initial = problem.initial

    def deep(x1, x2, t):
        return initial(x1, x2, t) * (math.exp(1e4) if t < -(k_max + 0.5) * h else 1.0)

    return dataclasses.replace(problem, initial=deep)


@pytest.mark.parametrize("case,folds", [
    ("constant", True), ("varying", False), ("nan", False), ("scalar", True),
    ("overflowing", False),
])
def test_the_history_scan_decides_and_builds_as_the_plain_scan(case, folds, monkeypatch):
    """_constant_history compares into one boolean buffer; its fold decision,
    its h0 and the table built on it are bit for bit those of the plain
    np.all scan, on a constant history (example 4), one that varies in time
    (example 5), one with NaN at one node, which equals nothing, a scalar
    broadcast to the grid, and one that overflows at the deepest level."""
    h, num_steps = 1.0, 2
    p = example5(v=1.0, c=10.0) if case == "varying" else example4(v=1.0, c=10.0)
    k_max = math.floor(p.tau_max / h)
    assert num_steps <= k_max  # the run is short enough to fold
    if case == "nan":
        p = nan_at_one_node(p)
    elif case == "scalar":
        p = dataclasses.replace(p, initial=lambda x1, x2, t: 0.3)
    elif case == "overflowing":
        p = overflows_at_the_deepest_level(p, h, k_max)
    grid = build_grid(p.domain, 2, build_gauss_rule(4))
    axes = (grid.x1, grid.x2)
    h0 = solver_module._constant_history(p, grid, h, k_max + 2)
    ref = plain_constant_history(p, grid, h, k_max + 2)
    assert (h0 is not None) == (ref is not None) == folds
    if folds:
        assert h0.tobytes() == ref.tobytes()
    table = build_delay_table(p, grid, axes, h, num_steps=num_steps)
    monkeypatch.setattr(solver_module, "_constant_history", plain_constant_history)
    ref_table = build_delay_table(p, grid, axes, h, num_steps=num_steps)
    assert (table.fixed is not None) == (ref_table.fixed is not None) == folds
    assert table.history_rows == ref_table.history_rows
    for name in ("now", "then", "live"):
        a, b = getattr(table, name), getattr(ref_table, name)
        for part in ("data", "indices", "indptr"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes()
    if folds:
        assert table.fixed.tobytes() == ref_table.fixed.tobytes()


# --- a square domain's one axis -----------------------------------------------

def grid_with_its_second_axis_built(n=6, k=4):
    """The unit box's grid, whose second axis is its first, and the same
    grid with its second axis evaluated on its own side."""
    rule = build_gauss_rule(k)
    grid = build_grid(UNIT_BOX, n, rule)
    x2, w2 = _composite_axis(UNIT_BOX.a2, UNIT_BOX.b2, n, rule)
    return grid, dataclasses.replace(grid, x2=x2, w2=w2)


def count_calls(monkeypatch, module, name):
    """Wrap module.name in a spy; returns the list its calls append to."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_a_square_grid_builds_its_operator_once_per_axis():
    """On the square the Chebyshev operator's second axis is its first,
    ``P2 is P1`` and ``points2 is points1``, and every array of the
    operator is bit for bit that of the grid with its second axis built."""
    grid, built = grid_with_its_second_axis_built()
    assert grid.x2 is grid.x1 and built.x2 is not built.x1
    op, ref = build_cheb_operator(8, grid), build_cheb_operator(8, built)
    assert op.P2 is op.P1 and op.points2 is op.points1
    assert ref.P2 is not ref.P1 and ref.points2 is not ref.points1
    for f in dataclasses.fields(op):
        got, want = getattr(op, f.name), getattr(ref, f.name)
        if f.name == "m":
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert f.name in ("C", "L1", "L2") or not got.flags.writeable


@pytest.mark.parametrize("problem", [example1(), example5(v=1.0),
                                     dataclasses.replace(example3(), kernel=lambda r: np.exp(-r))],
                         ids=["gaussian", "delayed", "exp"])
def test_a_square_grid_groups_its_distances_once(problem, monkeypatch):
    """compute_kernel_norms groups one axis's distances when the grid's axes
    are one array, and two when the second is built on its own; the norms
    are the same bit for bit."""
    calls = count_calls(monkeypatch, problems_module, "_axis_distance_groups")
    grid, built = grid_with_its_second_axis_built()
    norms = compute_kernel_norms(problem, grid)
    assert len(calls) == 1
    ref = compute_kernel_norms(problem, built)
    assert len(calls) == 3
    assert dataclasses.astuple(norms) == dataclasses.astuple(ref)
    assert norms.k_max.hex() == ref.k_max.hex()
    assert norms.l2_estimate.hex() == ref.l2_estimate.hex()


@pytest.mark.parametrize("domain,groupings", [
    (UNIT_BOX, 1), (Rectangle(0.0, 1.0, 0.0, 2.0), 2), (Rectangle(0, 2, -1, 1), 2),
], ids=["square", "rectangle", "shifted-equal-sides"])
@pytest.mark.parametrize("rank_reduction", [True, False], ids=["reduced", "direct"])
def test_a_solve_groups_the_distances_once_per_distinct_axis(domain, groupings,
                                                            rank_reduction, monkeypatch):
    """A solve on the square groups its axis distances once, and shares the
    Chebyshev basis; on a rectangle, or on equal sides shifted apart,
    nothing is shared."""
    calls = count_calls(monkeypatch, problems_module, "_axis_distance_groups")
    real, built = solver_module.build_cheb_operator, []
    monkeypatch.setattr(solver_module, "build_cheb_operator",
                        lambda m, grid: built.append(real(m, grid)) or built[-1])
    cfg = SolverConfig(h_t=0.05, T=0.1, n=2, k=4, m=4, rank_reduction=rank_reduction)
    res = solve(example1(domain=domain), cfg)
    assert len(calls) == groupings
    assert (res.grid.x2 is res.grid.x1) == (groupings == 1)
    assert len(built) == rank_reduction
    for op in built:
        assert (op.P2 is op.P1) == (op.points2 is op.points1) == (groupings == 1)


# --- step bounds ------------------------------------------------------------

def bounds_on(problem, grid):
    return step_bound(problem, compute_kernel_norms(problem, grid))


def test_step_bounds_example1():
    grid = make_grid(N=24)
    bounds = bounds_on(example1(), grid)
    # 3 c / (2 K_max S_max |Omega|) with K_max = 1, S_max = 1, |Omega| = 4
    assert bounds.bound_max == pytest.approx(0.375, abs=1e-15)
    assert bounds.bound_l2 == pytest.approx(0.3737596357584938, abs=1e-10)


def test_step_bounds_scale_with_slope():
    grid = make_grid(N=24)
    b1 = bounds_on(example1(sigma=1.0), grid)
    b2 = bounds_on(example1(sigma=2.0), grid)
    assert b2.bound_max == pytest.approx(b1.bound_max / 2.0, rel=1e-12)
    assert b2.bound_l2 == pytest.approx(b1.bound_l2 / 2.0, rel=1e-12)


def test_step_bounds_zero_kernel_unbounded():
    grid = make_grid(N=8)
    bounds = bounds_on(decay_problem(), grid)
    assert bounds.bound_max == math.inf
    assert bounds.bound_l2 == math.inf


# --- bootstrap step ---------------------------------------------------------

def test_euler_bootstrap_pure_decay():
    res = solve(decay_problem(), SolverConfig(h_t=0.01, T=0.01, n=2, k=4,
                                              rank_reduction=False))
    assert res.states[1].values == pytest.approx(np.full(64, 0.99), abs=1e-15)


def test_euler_bootstrap_error_scale():
    """One Euler step carries a local error of about h^2 / 2 here."""
    res = solve(example1(), SolverConfig(h_t=0.01, T=0.01))
    err = error_norm(res.grid, res.states[1], example1().exact)
    assert 2e-5 < err < 1e-4  # measured 4.98e-5


# --- two-step scheme --------------------------------------------------------

def test_scheme_reduces_to_scalar_recurrence_without_coupling():
    """With K = 0 and I = 0 every grid point follows the scalar recurrence
    (3 + 2 h) u_i = 4 u_{i-1} - u_{i-2} after an Euler start."""
    h = 0.1
    res = solve(decay_problem(), SolverConfig(h_t=h, T=1.0, n=2, k=4,
                                              rank_reduction=False))
    u = [s.values for s in res.states]
    for vals in u:
        assert np.ptp(vals) == 0.0  # stays spatially constant
    seq = [float(vals[0]) for vals in u]
    assert seq[0] == 1.0
    assert seq[1] == pytest.approx(1.0 - h, abs=1e-15)
    for i in range(2, len(seq)):
        assert (3.0 + 2.0 * h) * seq[i] - 4.0 * seq[i - 1] + seq[i - 2] == \
            pytest.approx(0.0, abs=1e-13)
    # and the whole run tracks exp(-t) at second order
    assert abs(seq[-1] - math.exp(-1.0)) < 1e-2


def test_linear_in_time_solution_is_exact_up_to_space_error():
    """The solution V = t is reproduced through the bootstrap and all
    two-step levels; what remains is the quadrature floor."""
    p = example2()
    res = solve(p, SolverConfig(h_t=0.01, T=0.1, eps_inner=1e-14))
    err = error_norm(res.grid, res.states[-1], p.exact)
    assert err < 1e-12  # measured 4.49e-13 at N=24


def test_time_stepping_second_order_on_example1():
    p = example1()
    errs = {}
    for h in (0.02, 0.01):
        res = solve(p, SolverConfig(h_t=h, T=0.1, rank_reduction=False))
        errs[h] = error_norm(res.grid, res.states[-1], p.exact)
    assert errs[0.01] == pytest.approx(7.751e-5, rel=0.25)
    assert 3.4 < errs[0.02] / errs[0.01] < 4.3


def test_inner_loop_divergence_raises():
    # a linear rate keeps the iteration map expansive at large steps; a
    # saturating rate would flatten out and sneak back under the threshold
    p = ProblemSpec(
        name="stiff",
        domain=Rectangle(-1.0, 1.0, -1.0, 1.0),
        c=1.0,
        kernel=lambda d: np.ones_like(d),
        firing_rate=lambda u: u,
        firing_rate_slope_max=1.0,
        input_current=lambda x1, x2, t: np.zeros_like(x1),
        initial=lambda x1, x2, t: np.ones_like(x1),
    )
    cfg = SolverConfig(h_t=5.0, T=10.0)
    with pytest.raises(RuntimeError, match="did not reach"):
        solve(p, cfg)


def test_nonconvergence_error_lists_the_increments(monkeypatch):
    monkeypatch.setattr(solver_module, "_MAX_INNER", 2)
    cfg = SolverConfig(h_t=0.1, T=0.2, eps_inner=1e-300)
    with pytest.raises(RuntimeError, match="did not reach") as info:
        solve(example1(), cfg)
    listed = re.search(r"increments: (.*)$", str(info.value)).group(1).split(", ")
    first, second = (float(x) for x in listed)
    # a contracting loop that simply stopped early
    assert first > second > 0


def test_non_finite_increment_stops_the_loop_at_once(monkeypatch):
    """c = 1e-300 overflows the first inner iteration: the loop stops there,
    naming t and the non-finite increment, instead of running _MAX_INNER NaN
    iterations and blaming the step bounds."""
    applies = []
    live_sum = AxisFactors.live_sum
    monkeypatch.setattr(AxisFactors, "live_sum",
                        lambda *args: applies.append(1) or live_sum(*args))
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match=r"t=0\.02 reached a non-finite increment "
                                               r"in iteration 1$"):
            solve(example1(c=1e-300), SolverConfig(h_t=0.01, T=0.02, n=2, k=4, m=4))
    # the Euler step, the level's predictor and one inner iteration
    assert len(applies) == 3


@pytest.mark.parametrize("problem", [example3(), example4(v=1.0)],
                         ids=["undelayed", "delayed"])
def test_a_nan_in_the_initial_state_fails_at_t0(problem):
    """A NaN at one node of the initial state fails the record of level 0,
    before any step, undelayed and delayed alike (NaN equals nothing, so
    the delayed history does not fold)."""
    initial = problem.initial

    def holed(x1, x2, t):  # a new full tensor per call, as example 3's bump is
        values = initial(x1, x2, t)
        values[0, 0] = np.nan
        return values

    with pytest.raises(RuntimeError, match=r"non-finite field values at t=0$"):
        solve(dataclasses.replace(problem, initial=holed),
              SolverConfig(h_t=0.1, T=0.2, n=2, k=4, m=4))


@pytest.mark.parametrize("parameters,t", [({"v": 1e-3}, "-709.8"), ({"c": 0.003}, "-2.2")],
                         ids=["slow", "fast-decay"])
def test_a_history_that_overflows_fails_at_its_time(parameters, t):
    """Example 5's history exp(-t / c) bump overflows math.exp at the first
    seeded level with -t / c > 709.78; solve names that time in a ValueError."""
    with pytest.raises(ValueError, match=rf"initial data overflow at t={t}, a level the run seeds"):
        solve(example5(**parameters), SolverConfig(h_t=0.1, T=0.1, n=1, k=2, m=2))


def test_a_nan_in_the_history_below_level_0_fails_at_its_time():
    """A history that is NaN at one level below -h_t is not folded (NaN
    equals nothing) and fails its seeding, naming that level's time, not
    the march after it."""
    initial = example4(v=1.0).initial

    def holed(x1, x2, t):
        return initial(x1, x2, t) + (np.nan if time_level(t, 0.1) == -3 else 0.0)

    with pytest.raises(ValueError, match=r"initial data are not finite at t=-0\.3,"):
        solve(dataclasses.replace(example4(v=1.0), initial=holed),
              SolverConfig(h_t=0.1, T=0.2, n=2, k=4, m=4))


def test_step_above_bound_warns_but_converges():
    # 0.375 < h = 0.4 < 0.5, so the bound trips while the inner loop still
    # contracts (slowly); the warning is recorded on the result
    cfg = SolverConfig(h_t=0.4, T=0.8, eps_inner=1e-8)
    res = solve(example1(), cfg)
    assert any("bound" in w for w in res.warnings)
    assert len(res.states) == 3
    assert res.diagnostics[0].inner_iterations > 10


def test_solve_zero_horizon():
    res = solve(example1(), SolverConfig(h_t=0.01, T=0.0))
    assert len(res.states) == 1
    assert res.states[0].time == 0.0
    assert res.states[0].values == pytest.approx(np.ones(576))
    assert res.diagnostics == []


def test_state_at():
    res = solve(example1(), SolverConfig(h_t=0.01, T=0.05))
    assert res.state_at(0.03).time == pytest.approx(0.03)
    assert res.state_at(0.0).time == 0.0
    for bad in (0.015, -0.01, 0.06):
        with pytest.raises(ValueError):
            res.state_at(bad)
    assert [s.time for s in res.states] == pytest.approx(0.01 * np.arange(6))


def test_rank_reduction_on_off_agree():
    p = example1()
    on = solve(p, SolverConfig(h_t=0.01, T=0.1, rank_reduction=True))
    off = solve(p, SolverConfig(h_t=0.01, T=0.1, rank_reduction=False))
    diff = np.max(np.abs(on.states[-1].values - off.states[-1].values))
    assert diff < 1e-9  # measured 9.5e-13


def test_solve_delayed_direct_path():
    """Delay without rank reduction, pinned to the values of the two-history
    stepper this solver replaced."""
    res = solve(example4(v=1.0), SolverConfig(h_t=0.1, T=0.5, rank_reduction=False))
    assert float(np.max(np.abs(res.state_at(0.5).values))) == pytest.approx(
        0.7077656819704597, rel=1e-12)
    assert [d.inner_iterations for d in res.diagnostics] == [4, 4, 4, 4]
    assert res.total_integrand_evals == 6967296


def test_example5_time_convergence_is_second_order():
    """The delayed problem with a closed form converges at second order
    through the rank-reduced operator: criterion 4's band on every halving
    at t = 0.5 (measured 4.06, 4.02, 4.01)."""
    study = time_convergence_study(example5(), [0.1, 0.05, 0.025, 0.0125], T=0.5,
                                   n=6, k=4, m=12, rank_reduction=True)
    ratios = [study.ratio(a, b, 0.5) for a, b in zip(study.steps, study.steps[1:])]
    assert len(ratios) == 3
    assert all(3.7 <= r <= 4.2 for r in ratios), ratios


def power_rate_example5(p=2.0, v=0.5, lam=1.0, mu=1.0, c=1.0):
    """Example 5 with the nonlinear rate S(u) = u^p: the lagged solution's
    p-th power carries exp(p r / (c v)), which the kernel
    exp(-lam r^2 - p r / (c v)) cancels, so the delayed integral is
    e^{-pt/c} times the box integral of exp(-lam r^2) against the bump^p,
    the bump with p mu, and the exact solution is example 5's."""
    base = example5(lam=lam, mu=mu, c=c, v=v)
    return dataclasses.replace(
        base, name="example5-power",
        kernel=lambda r: np.exp(-lam * r * r - p * r / (c * v)),
        firing_rate=lambda u: np.asarray(u, dtype=float) ** p,
        firing_rate_slope_max=p,
        input_current=lambda x1, x2, t: -math.exp(-p * t / c) * kernel_box_integral(
            lam, x1, x2, base.domain, mu=p * mu))


def test_nonlinear_delayed_closed_form_converges_at_second_order():
    """S(u) = u^2 at v = 0.5, rank-reduced at N = 24: criterion 4's band on
    every halving at t = 0.5 (measured 4.06, 4.08, 4.04)."""
    study = time_convergence_study(power_rate_example5(), [0.1, 0.05, 0.025, 0.0125],
                                   T=0.5, n=6, k=4, m=12, rank_reduction=True)
    ratios = [study.ratio(a, b, 0.5) for a, b in zip(study.steps, study.steps[1:])]
    assert len(ratios) == 3
    assert all(3.7 <= r <= 4.2 for r in ratios), ratios


@pytest.mark.parametrize("rank_reduction", [False, True])
def test_example5_at_infinite_speed_is_example3(rank_reduction):
    """v = inf is example 3 bit for bit; v = 1e12 runs the delayed path
    with k_max = 0, every pair live, and lands within 1e-12 of it."""
    cfg = SolverConfig(h_t=0.05, T=0.2, n=2, k=4, m=4, rank_reduction=rank_reduction)
    ref = solve(example3(), cfg)
    same = solve(example5(v=math.inf), cfg)
    near = solve(example5(v=1e12), cfg)
    assert near.problem.has_delay
    assert int(math.floor(near.problem.tau_max / cfg.h_t)) == 0
    scale = max(float(np.max(np.abs(s.values))) for s in ref.states)
    for r, s, n in zip(ref.states, same.states, near.states, strict=True):
        assert np.array_equal(s.values, r.values)
        assert np.max(np.abs(n.values - r.values)) <= 1e-12 * scale


def test_solve_delayed_problem_lags_undelayed():
    delayed = solve(example4(v=1.0), SolverConfig(h_t=0.1, T=0.5))
    undelayed = solve(example3(), SolverConfig(h_t=0.1, T=0.5))
    nd = float(np.max(np.abs(delayed.states[-1].values)))
    nu = float(np.max(np.abs(undelayed.states[-1].values)))
    assert nd > nu  # the delay slows the decay
    assert nd - nu > 1e-3


def test_counters_rank_reduction_on():
    cfg = SolverConfig(h_t=0.01, T=0.05)
    res = solve(example1(), cfg)
    per_apply = 12 * 12 * 24 * 24
    applies = 1  # bootstrap
    for diag in res.diagnostics:
        assert diag.kappa_applies == diag.inner_iterations + 1
        assert diag.integrand_evals == diag.kappa_applies * per_apply
        applies += diag.kappa_applies
    assert res.total_integrand_evals == applies * per_apply


def test_counters_rank_reduction_off():
    cfg = SolverConfig(h_t=0.01, T=0.03, rank_reduction=False)
    res = solve(example1(), cfg)
    per_apply = 24**4
    for diag in res.diagnostics:
        assert diag.integrand_evals == diag.kappa_applies * per_apply


def test_diagnostics_fields():
    res = solve(example1(), SolverConfig(h_t=0.01, T=0.05))
    assert [d.level for d in res.diagnostics] == [2, 3, 4, 5]
    for diag in res.diagnostics:
        if diag.contraction_estimate is not None:
            # observed contraction stays at or below the a priori constant
            assert diag.contraction_estimate < res.contraction_bound + 0.05
    assert res.contraction_bound == pytest.approx(
        (0.02 / 3.02) * 1.0 * 1.0 * 4.0, rel=1e-12)
    # step bounds and the stability margin are per run
    assert res.bounds.bound_max == pytest.approx(0.375, abs=1e-15)
    assert res.stability_margin == pytest.approx(
        (0.02 / 3.0) * (1.0 + res.contraction_bound), rel=1e-12)


def test_debug_log_has_one_line_per_two_step_level(caplog):
    with caplog.at_level(logging.DEBUG, logger="neurofield.solver"):
        res = solve(example1(), SolverConfig(h_t=0.01, T=0.05))
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(lines) == len(res.diagnostics) == 4
    for line, diag in zip(lines, res.diagnostics):
        assert line.startswith(f"level {diag.level} t={diag.level * 0.01:g}: "
                               f"{diag.inner_iterations} inner iterations, last increment ")
