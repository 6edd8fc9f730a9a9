"""Tests for the time stepper: bootstrap, implicit two-step levels, the
rank-reduced operator path, delay bookkeeping and the diagnostics."""

import dataclasses
import math
import re

import numpy as np
import pytest

from neurofield import solver as solver_module
from neurofield.analysis import error_norm, time_convergence_study
from neurofield.chebyshev import build_cheb_operator
from neurofield.problems import (
    ProblemSpec,
    compute_kernel_norms,
    example1,
    example2,
    example3,
    example4,
    example5,
    kernel_box_integral,
)
from neurofield.quadrature import Rectangle, build_gauss_rule, build_grid
from neurofield.solver import (
    SolverConfig,
    apply_integral_operator,
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
    """The pair table of the direct path: the evaluation axes are the grid's."""
    return build_delay_table(problem, grid, (grid.x1, grid.x2), h)


def node_distances(grid):
    p1, p2 = grid.flat_points()
    return np.hypot(p1[:, None] - p1[None, :], p2[:, None] - p2[None, :])


# --- configuration ----------------------------------------------------------

def test_config_validation():
    SolverConfig(h_t=0.01, T=0.1).validate()
    with pytest.raises(ValueError):
        SolverConfig(h_t=0.0, T=0.1).validate()
    with pytest.raises(ValueError):
        SolverConfig(h_t=-0.01, T=0.1).validate()
    with pytest.raises(ValueError):
        SolverConfig(h_t=0.01, T=-1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(h_t=0.03, T=0.1).validate()  # T not a multiple of h_t
    with pytest.raises(ValueError):
        SolverConfig(h_t=0.01, T=0.1, eps_inner=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(h_t=0.01, T=0.1, max_inner=0).validate()


def test_config_num_steps():
    assert SolverConfig(h_t=0.01, T=0.1).num_steps == 10
    assert SolverConfig(h_t=0.1, T=0.0).num_steps == 0
    assert SolverConfig(h_t=0.03, T=0.1).num_steps is None


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
    for step in (0.0, -0.0, -0.01):  # no step grid without a positive step
        assert time_level(0.0, step) is None
        assert time_level(-0.02, step) is None


# --- history ---------------------------------------------------------------

def _reference_march(problem, config):
    """The delayed direct-path scheme with the levels kept in a dict keyed
    by level index, every level older than the delay reach dropped."""
    grid = build_grid(problem.domain, config.n, build_gauss_rule(config.k))
    table = grid_table(problem, grid, config.h_t)
    h, c, depth = config.h_t, problem.c, table.k_max + 2
    p1, p2 = grid.flat_points()
    levels = {l: problem.initial(p1, p2, l * h) for l in range(1 - depth, 1)}

    def kappa(U, level):
        rows = np.array([U] + [levels[level - l] for l in range(1, depth)])
        return apply_integral_operator(problem, table, rows)

    U0 = levels[0]
    levels[1] = U0 + (h / c) * (problem.input_current(p1, p2, 0.0) - U0 + kappa(U0, 0))
    del levels[1 - depth]
    lam = 2.0 * h / (2.0 * h + 3.0 * c)
    for i in range(2, config.num_steps + 1):
        I_i = problem.input_current(p1, p2, i * h)
        f_i = lam * (I_i + (2.0 * c / h) * levels[i - 1] - (0.5 * c / h) * levels[i - 2])
        U = levels[i - 1] + (h / c) * (I_i - levels[i - 1] + kappa(levels[i - 1], i - 1))
        for _ in range(config.max_inner):
            U_next = lam * kappa(U, i) + f_i
            converged = np.max(np.abs(U_next - U)) < config.eps_inner
            U = U_next
            if converged:
                break
        levels[i] = U
        del levels[i - depth]
        assert len(levels) == depth
    return levels


def test_history_put_get_prune():
    """One history array shifted once per level holds the same levels, in
    the same order, as a dict of levels that drops the oldest each level:
    the march runs 8 levels past the k_max + 2 = 4 rows the delay reaches."""
    p = example4(v=4.0)
    cfg = SolverConfig(h_t=0.25, T=3.0, n=1, k=4, rank_reduction=False)
    res = solve(p, cfg)
    levels = _reference_march(p, cfg)
    assert sorted(levels) == [9, 10, 11, 12]
    for i, U in levels.items():
        assert np.array_equal(res.states[i].values, U)


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
    out = apply_integral_operator(p, table, rows)
    # linear interpolation between rows j and j + 1 gives minus the lag in steps
    expected = -(node_distances(grid) / (p.v * h)) @ grid.flat_weights()
    assert np.max(np.abs(out - expected)) < 1e-12


def test_history_rejects_bad_depth():
    grid = make_grid(N=8)
    table = grid_table(example1(), grid, 0.01)
    assert table.history_rows == 1
    with pytest.raises(ValueError):
        apply_integral_operator(example1(), table, np.ones((0, 64)))
    with pytest.raises(ValueError):
        apply_integral_operator(example1(), table, np.ones(64))


# --- pair table and operator application ------------------------------------

def test_delay_table_undelayed_shapes():
    grid = make_grid(N=8)
    table = grid_table(example1(), grid, 0.01)
    assert not table.has_delay
    assert table.k_max == 0
    assert table.kernel_weights.shape == (64, 64)
    op = build_cheb_operator(4, grid)
    table_rr = build_delay_table(example1(), grid, (op.points1, op.points2), 0.01)
    assert table_rr.kernel_weights.shape == (16, 64)


def test_delay_table_weights_are_kernel_times_weights():
    grid = make_grid(N=8)
    p = example1()
    table = grid_table(p, grid, 0.01)
    expected = p.kernel(node_distances(grid)) * grid.flat_weights()[None, :]
    assert np.array_equal(table.kernel_weights, expected)


def test_delay_table_offsets_and_fractions():
    grid = make_grid(N=8)
    p = example4(v=1.0)
    h = 0.1
    table = grid_table(p, grid, h)
    assert table.has_delay
    assert table.k_max == int(math.floor(p.tau_max / h))
    assert table.k_max == 28
    assert table.history_rows == 30
    steps = node_distances(grid) / (p.v * h)
    # the flat index j * N^2 + q names history row j at node q
    j, q = np.divmod(table.delay_index, 64)
    assert np.array_equal(q, np.broadcast_to(np.arange(64), (64, 64)))
    delta = table.delay_fractions
    assert np.all(j >= 0) and np.all(j <= table.k_max)
    assert np.all(delta > 0.0) and np.all(delta <= 1.0)
    # lag (j + 1 - delta) h equals the travel time d / v for every pair
    assert np.max(np.abs((j + 1.0 - delta) - steps)) < 1e-12
    # self pairs have zero travel time: level offset 0, full weight
    diag = np.arange(64)
    assert np.all(j[diag, diag] == 0)
    assert delta[diag, diag] == pytest.approx(np.ones(64))


def test_apply_operator_zero_kernel():
    grid = make_grid(N=8)
    p = decay_problem()
    table = grid_table(p, grid, 0.01)
    out = apply_integral_operator(p, table, np.ones((1, 64)))
    assert np.array_equal(out, np.zeros(64))


def test_apply_operator_constant_rate_matches_closed_form():
    """With S frozen to 0.7 the operator is 0.7 times the kernel mass."""
    grid = make_grid(N=24)
    p = dataclasses.replace(example1(),
                            firing_rate=lambda u: np.full_like(np.asarray(u, float), 0.7))
    table = grid_table(p, grid, 0.01)
    out = apply_integral_operator(p, table, np.zeros((1, 576)))
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


def test_apply_operator_delayed_needs_history():
    grid = make_grid(N=8)
    p = example4(v=1.0)
    table = grid_table(p, grid, 0.1)
    with pytest.raises(ValueError, match="30 grid rows"):
        apply_integral_operator(p, table, np.ones((1, 64)))
    # the flat indices assume rows of N^2 = 64 nodes
    with pytest.raises(ValueError, match="of 64 nodes"):
        apply_integral_operator(p, table, np.ones((30, 63)))


def test_apply_operator_delay_reads_history_levels():
    """With v h below the smallest off-diagonal node distance, every cross
    pair lags at least one level and must read stored history."""
    grid = make_grid(N=8)
    p = example4(v=1.0)
    h = 0.05
    table = grid_table(p, grid, h)
    off_diag = ~np.eye(64, dtype=bool)
    assert np.all(table.delay_index[off_diag] // 64 >= 1)
    history = np.random.default_rng(0).standard_normal((table.history_rows, 64))
    history[0] = 0.0
    out_a = apply_integral_operator(p, table, history)
    history[0] = 5.0
    out_b = apply_integral_operator(p, table, history)
    # only the self pair (p, p) reads the current iterate: with the linear
    # rate the shift is exactly 5 K(0) w_p, one node's quadrature weight
    diff = np.abs(out_b - out_a)
    expected = 5.0 * grid.flat_weights()
    assert diff == pytest.approx(expected, rel=1e-12)


# --- frozen and live parts of the delayed operator ---------------------------

def full_gather(problem, grid, axes, h, history):
    """The delayed operator as one 2-D gather over every pair, with its own
    table built from flat distances: rows j and j + 1 interpolated with
    delta, then a row sum of kernel weights times rates."""
    e1, e2 = np.meshgrid(*axes, indexing="ij")
    p1, p2 = grid.flat_points()
    d = np.hypot(e1.ravel()[:, None] - p1[None, :], e2.ravel()[:, None] - p2[None, :])
    kw = problem.kernel(d) * grid.flat_weights()[None, :]
    steps = d / (problem.v * h)
    j = np.minimum(np.floor(steps).astype(np.int64), int(math.floor(problem.tau_max / h)))
    delta = 1.0 - (steps - j)
    cols = np.arange(grid.total_points)[None, :]
    lagged = delta * history[j, cols] + (1.0 - delta) * history[j + 1, cols]
    return np.einsum("pq,pq->p", kw, problem.firing_rate(lagged))


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


@pytest.mark.parametrize("case", ["direct", "rank-reduced", "all-live", "none-live"])
def test_split_operator_matches_full_gather(case):
    """Frozen plus live sums agree with one gather over all pairs to 1e-13
    relative on random history with a tanh rate, and the frozen sum does
    not depend on the finite values of row 0."""
    grid = make_grid(N=8)
    v, axes, h = split_case(case, grid)
    p = dataclasses.replace(example4(v=v), firing_rate=np.tanh)
    table = build_delay_table(p, grid, axes, h)
    live, pairs = table.live_rows.size, table.kernel_weights.size
    if case == "all-live":
        assert table.k_max == 0 and live == pairs
    elif case == "none-live":
        assert live == 0
    else:
        assert 0 < live < pairs
    rng = np.random.default_rng(7)
    history = rng.standard_normal((table.history_rows, grid.total_points))
    reference = full_gather(p, grid, axes, h, history)
    out = apply_integral_operator(p, table, history)
    assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference))
    frozen = solver_module._frozen_sum(p, table, history)
    assert np.array_equal(apply_integral_operator(p, table, history, frozen), out)
    history[0] = rng.standard_normal(grid.total_points)
    assert np.array_equal(solver_module._frozen_sum(p, table, history), frozen)


def test_live_list_holds_the_pairs_of_lag_under_one_step():
    """The live list is every pair with j = 0, carrying its kernel weight,
    node and fraction; those pairs weigh 0 in the dense table."""
    grid = make_grid(N=8)
    p = example4(v=1.0)
    h = 0.1
    table = grid_table(p, grid, h)
    j = table.delay_index // 64
    live = np.nonzero(j == 0)
    assert np.array_equal(np.stack(live), np.stack([table.live_rows, table.live_index]))
    full = p.kernel(node_distances(grid)) * grid.flat_weights()[None, :]
    assert np.array_equal(table.live_weights, full[live])
    assert np.array_equal(table.live_fractions, table.delay_fractions[live])
    assert np.all(table.kernel_weights[live] == 0.0)
    assert np.array_equal(table.kernel_weights[j > 0], full[j > 0])


def test_delayed_solve_computes_the_frozen_sum_once_per_level(monkeypatch):
    """A delayed run forms the frozen part at most once per history
    alignment, num_steps + 1 times, however many inner iterations run."""
    calls = []
    frozen_sum = solver_module._frozen_sum

    def counted(*args):
        calls.append(args)
        return frozen_sum(*args)

    monkeypatch.setattr(solver_module, "_frozen_sum", counted)
    cfg = SolverConfig(h_t=0.1, T=0.5, n=2, k=4, m=4)
    res = solve(example4(v=1.0), cfg)
    assert 0 < len(calls) <= cfg.num_steps + 1
    applies = 1 + sum(d.kappa_applies for d in res.diagnostics)
    assert applies > 2 * (cfg.num_steps + 1)


def test_lift_identity_without_operator():
    """Without rank reduction the evaluation points are the grid nodes and
    the lift is the identity: the first level is the Euler formula at the
    nodes, bit for bit."""
    p = example1()
    h = 0.01
    res = solve(p, SolverConfig(h_t=h, T=h, n=2, k=4, rank_reduction=False))
    p1, p2 = res.grid.flat_points()
    U0 = res.states[0].values
    kap = apply_integral_operator(p, grid_table(p, res.grid, h), U0[None, :])
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
    cfg = SolverConfig(h_t=5.0, T=10.0, max_inner=30)
    with pytest.raises(RuntimeError, match="did not reach"):
        solve(p, cfg)


def test_nonconvergence_error_lists_the_increments():
    cfg = SolverConfig(h_t=0.1, T=0.2, max_inner=2, eps_inner=1e-300)
    with pytest.raises(RuntimeError, match="did not reach") as info:
        solve(example1(), cfg)
    listed = re.search(r"increments: (.*)$", str(info.value)).group(1).split(", ")
    first, second = (float(x) for x in listed)
    # a contracting loop that simply stopped early
    assert first > second > 0


def test_step_above_bound_warns_but_converges():
    # 0.375 < h = 0.4 < 0.5, so the bound trips while the inner loop still
    # contracts (slowly); the warning is recorded on the result
    cfg = SolverConfig(h_t=0.4, T=0.8, eps_inner=1e-8, max_inner=300)
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
    assert res.times == pytest.approx(0.01 * np.arange(6))


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
        assert diag.time == pytest.approx(diag.level * 0.01)
        if not math.isnan(diag.contraction_estimate):
            # observed contraction stays at or below the a priori constant
            assert diag.contraction_estimate < res.contraction_bound + 0.05
    assert res.contraction_bound == pytest.approx(
        (0.02 / 3.02) * 1.0 * 1.0 * 4.0, rel=1e-12)
    # step bounds and the stability margin are per run
    assert res.bounds.bound_max == pytest.approx(0.375, abs=1e-15)
    assert res.stability_margin == pytest.approx(
        (0.02 / 3.0) * (1.0 + res.contraction_bound), rel=1e-12)
