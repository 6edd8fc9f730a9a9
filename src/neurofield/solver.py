"""Time stepping for the neural field equation.

The scheme: a single explicit Euler step to produce the first level, then
the implicit two-step backward differentiation formula

    c (3 U_i - 4 U_{i-1} + U_{i-2}) / (2 h_t) = I_i - U_i + kappa(U_i)

solved at each level by fixed-point iteration

    U[nu] = lam * kappa(U[nu-1]) + f_i,     lam = 2 h_t / (2 h_t + 3 c)
    f_i   = lam * (I_i + (2 c / h_t) U_{i-1} - (c / (2 h_t)) U_{i-2})

started from an Euler predictor.  kappa is the quadrature approximation of
the connectivity integral.

The update is carried in an evaluation space: the tensor product of two
axes, where kappa, I and f are formed, and a lift that maps values there
to the N^2 grid, where the quadrature reads the field.  Without rank
reduction the axes are the grid's and the lift is the identity.  With it
they are m Chebyshev points per axis and the lift is interpolation, so
each iteration costs m^2 N^2 integrand terms instead of N^4.  Lifting
the updated solution rather than kappa alone matters: the interpolation
error of the two sides of the update cancels wherever the solution itself
is smooth, so the lift does not pollute the spatial convergence of the
quadrature.

With a finite transmission speed the integrand reads the field at
t_i - |y - x| / v.  Writing that lag as (j + 1 - delta) * h_t with integer
j and delta in (0, 1], the value is linearly interpolated as
delta * U_{i-j} + (1 - delta) * U_{i-j-1}; pairs with j = 0 reference the
current iterate, which keeps the scheme implicit.  The grid history is one
array whose row l holds the field l levels back, with row 0 the current
iterate: k_max + 2 rows for delayed problems and a single row otherwise.

The delayed operator is a frozen part plus a live part.  The frozen part
sums the pairs with j >= 1: they read history rows 1 and deeper only,
which stay put for a whole level, so it is one flat gather per history
alignment, computed when first needed and reused by every inner iteration
of the level and by the next level's Euler predictor.  The live part sums
the pairs with j = 0, which read the current iterate in row 0; they are a
short list (the self pairs and the few whose travel time is under one
step), so each inner iteration costs one small gather and a bincount.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .chebyshev import ChebOperator, build_cheb_operator, coeffs_from_samples, eval_on_grid
from .problems import KernelNorms, ProblemSpec, compute_kernel_norms
from .quadrature import SpatialGrid, build_gauss_rule, build_grid, tensor_values

__all__ = [
    "SolverConfig",
    "FieldState",
    "DelayTable",
    "StepBounds",
    "StepDiagnostics",
    "SolveResult",
    "time_level",
    "build_delay_table",
    "apply_integral_operator",
    "lift_to_grid",
    "step_bound",
    "solve",
]

logger = logging.getLogger(__name__)

_TIME_ALIGN_RTOL = 1e-9


def time_level(t: float, h: float) -> Optional[int]:
    """The level index of time t on the step grid of h, or None off that grid.

    t is level round(t / h) when |round(t / h) * h - t| <= 1e-9 * max(1, |t|, h).
    A non-finite t or h lies on no step grid, and neither does any t for a
    step h <= 0.
    """
    if not (math.isfinite(t) and math.isfinite(h) and h > 0):
        return None
    idx = int(round(t / h))
    if abs(idx * h - t) > _TIME_ALIGN_RTOL * max(1.0, abs(t), h):
        return None
    return idx


@dataclass
class SolverConfig:
    """Numerical parameters of one run.

    h_t is the time step, T the final time (T / h_t must be an integer),
    n and k fix the composite quadrature grid (N = n * k points per axis),
    m the interpolation order of the rank-reduced integral operator.
    eps_inner and max_inner control the fixed-point loop.  rank_reduction
    True applies the operator at the m x m Chebyshev points and lifts the
    result to the grid; False evaluates the integral directly at every grid
    point.
    """

    h_t: float
    T: float
    n: int = 6
    k: int = 4
    m: int = 12
    eps_inner: float = 1e-10
    max_inner: int = 50
    rank_reduction: bool = True

    def validate(self) -> None:
        if not (math.isfinite(self.h_t) and self.h_t > 0):
            raise ValueError(f"time step h_t must be positive and finite, got {self.h_t}")
        if not (math.isfinite(self.T) and self.T >= 0):
            raise ValueError(f"final time T must be nonnegative, got {self.T}")
        if self.num_steps is None:
            raise ValueError(f"final time T={self.T} is not an integer multiple of h_t={self.h_t}")
        if not self.eps_inner > 0:
            raise ValueError("eps_inner must be positive")
        if self.max_inner < 1:
            raise ValueError("max_inner must be at least 1")

    @property
    def num_steps(self) -> Optional[int]:
        """T / h_t rounded, or None when T is not a multiple of h_t."""
        return time_level(self.T, self.h_t)


@dataclass
class FieldState:
    """Field values on the flat N^2 grid at one time level."""

    values: np.ndarray
    time: float


@dataclass
class DelayTable:
    """Precomputed pairing of evaluation points with grid nodes.

    kernel_weights[p, q] holds K(|z_p - y_q|) times the quadrature weight
    of node q, where z_p runs row-major over the tensor product of the
    evaluation axes (Chebyshev points, or the grid's own axes when rank
    reduction is off).

    For delayed problems delay_index[p, q] = j * N^2 + q is the pair's
    entry in the flattened history (row j, node q), for its level offset j,
    and delay_fractions[p, q] its interpolation weight delta; both are None
    for undelayed problems.  The live pairs, those with j = 0, have weight
    0 in kernel_weights and sit in the live list instead: pair i of it
    adds live_weights[i] times the rate of the field at live_index[i],
    interpolated with live_fractions[i], to evaluation point live_rows[i].
    """

    kernel_weights: np.ndarray
    delay_index: Optional[np.ndarray]
    delay_fractions: Optional[np.ndarray]
    k_max: int
    live_rows: Optional[np.ndarray] = None
    live_index: Optional[np.ndarray] = None
    live_weights: Optional[np.ndarray] = None
    live_fractions: Optional[np.ndarray] = None

    @property
    def has_delay(self) -> bool:
        return self.delay_index is not None

    @property
    def history_rows(self) -> int:
        """Grid levels the operator reads: the iterate, plus k_max + 1 older
        levels for delayed problems."""
        return self.k_max + 2 if self.has_delay else 1


def build_delay_table(problem: ProblemSpec, grid: SpatialGrid,
                      axes: tuple[np.ndarray, np.ndarray], h_t: float) -> DelayTable:
    """Evaluate kernel weights (and delay indices) for every pair of a grid
    node and a point of the tensor product of ``axes``, from the per-axis
    differences of the coordinates.

    The delay arithmetic runs in place: the distances become the lag in
    steps and then delta, and the level offsets become flat indices.
    """
    e1, e2 = axes
    D1 = e1[:, None] - grid.x1[None, :]
    D2 = e2[:, None] - grid.x2[None, :]
    d = np.hypot(D1[:, None, :, None], D2[None, :, None, :]).reshape(e1.size * e2.size, -1)
    kv = np.asarray(problem.kernel(d), dtype=float)
    if not np.all(np.isfinite(kv)):
        raise ValueError("kernel produced a non-finite value while building the pair table")
    kw = kv * grid.flat_weights()[None, :]
    if not problem.has_delay:
        return DelayTable(kernel_weights=kw, delay_index=None, delay_fractions=None, k_max=0)
    k_max = int(math.floor(problem.tau_max / h_t))
    steps = np.divide(d, problem.v * h_t, out=d)
    j = steps.astype(np.int64)  # the floor, as steps >= 0
    np.minimum(j, k_max, out=j)
    steps -= j
    delta = np.subtract(1.0, steps, out=steps)
    live_rows, live_index = np.nonzero(j == 0)
    live_weights = kw[live_rows, live_index]
    kw[live_rows, live_index] = 0.0
    j *= kw.shape[1]
    j += np.arange(kw.shape[1])
    return DelayTable(kernel_weights=kw, delay_index=j, delay_fractions=delta, k_max=k_max,
                      live_rows=live_rows, live_index=live_index, live_weights=live_weights,
                      live_fractions=delta[live_rows, live_index])


def _lagged_rates(problem: ProblemSpec, history: np.ndarray, index: np.ndarray,
                  fractions: np.ndarray) -> np.ndarray:
    """S(delta * U_j + (1 - delta) * U_{j+1}) per pair, from the pairs' flat
    history indices: row j + 1 is the same index N^2 entries further on."""
    flat = history.ravel()
    lagged = flat.take(index)
    lagged *= fractions
    later = flat[history.shape[1]:].take(index)
    later *= 1.0 - fractions
    lagged += later
    return np.asarray(problem.firing_rate(lagged), dtype=float)


def _frozen_sum(problem: ProblemSpec, table: DelayTable, history: np.ndarray) -> np.ndarray:
    """The delayed quadrature sum over the pairs with j >= 1.  For finite
    values of row 0 it depends on rows 1 and deeper only: the live pairs,
    the only ones that read row 0, carry weight 0 here."""
    s = _lagged_rates(problem, history, table.delay_index, table.delay_fractions)
    return np.einsum("pq,pq->p", table.kernel_weights, s)


def _live_sum(problem: ProblemSpec, table: DelayTable, history: np.ndarray) -> np.ndarray:
    """The delayed quadrature sum over the live pairs, which read row 0."""
    s = _lagged_rates(problem, history, table.live_index, table.live_fractions)
    return np.bincount(table.live_rows, weights=table.live_weights * s,
                       minlength=table.kernel_weights.shape[0])


def apply_integral_operator(problem: ProblemSpec, table: DelayTable, history: np.ndarray,
                            frozen: Optional[np.ndarray] = None) -> np.ndarray:
    """Quadrature sum of K * S(field) at every evaluation point of the table.

    ``history[l]`` is the grid field l levels back, row 0 being the current
    iterate; it needs ``table.history_rows`` rows.  Undelayed problems read
    row 0 only.  For delayed problems the per-pair field values are linearly
    interpolated between rows j and j + 1, and the sum is the frozen part
    plus the live part.  ``frozen``, when given, is taken as the frozen part
    of this history's rows 1 and deeper instead of being summed again; the
    stepper passes the one it keeps for the current level.  Returns a
    vector with one entry per evaluation point.
    """
    nodes = table.kernel_weights.shape[1]
    if history.ndim != 2 or history.shape[0] < table.history_rows or history.shape[1] != nodes:
        raise ValueError(f"the operator needs a history of {table.history_rows} grid rows "
                         f"of {nodes} nodes, got shape {history.shape}")
    if not table.has_delay:
        s = np.asarray(problem.firing_rate(history[0]), dtype=float)
        return table.kernel_weights @ s
    if frozen is None:
        frozen = _frozen_sum(problem, table, history)
    return frozen + _live_sum(problem, table, history)


def lift_to_grid(cheb_op: ChebOperator, samples: np.ndarray) -> np.ndarray:
    """Interpolate values at the m^2 Chebyshev points onto the flat grid,
    through the coefficient transform and grid evaluation."""
    M = samples.reshape(cheb_op.m, cheb_op.m)
    return eval_on_grid(cheb_op, coeffs_from_samples(cheb_op, M)).ravel()


@dataclass
class StepBounds:
    """Admissible time-step bounds derived from the kernel size.

    bound_l2 comes from the contraction estimate built on the L2 norm of
    the kernel over domain x domain; bound_max from the pointwise kernel
    maximum times the domain area (the sum of all quadrature weights).
    Steps below either bound make the fixed-point iteration a contraction.
    """

    bound_l2: float
    bound_max: float


def step_bound(problem: ProblemSpec, norms: KernelNorms) -> StepBounds:
    """Compute both admissible-step bounds from the kernel norms on a grid."""
    area = problem.domain.area
    smax = problem.firing_rate_slope_max
    denom_l2 = 2.0 * math.sqrt(area) * norms.l2_estimate * smax
    denom_max = 2.0 * norms.k_max * smax * area
    bound_l2 = 3.0 * problem.c / denom_l2 if denom_l2 > 0 else math.inf
    bound_max = 3.0 * problem.c / denom_max if denom_max > 0 else math.inf
    return StepBounds(bound_l2=bound_l2, bound_max=bound_max)


@dataclass
class StepDiagnostics:
    """Per-step record of the fixed-point loop and its operator cost.

    ``integrand_evals`` is the size of the quadrature sums of the step's
    ``kappa_applies`` operator applications, P N^2 each for P evaluation
    points (the paper's cost model), also on delayed runs, where an inner
    iteration recomputes only the live pairs.
    """

    level: int
    time: float
    inner_iterations: int
    contraction_estimate: float
    kappa_applies: int
    integrand_evals: int


@dataclass
class _Stepper:
    """The scheme's state between levels, in one evaluation space.

    ``u_prev`` and ``u_prev2`` are the two newest levels on the evaluation
    ``axes``; ``lift`` maps values there to the grid.  ``history``
    is the grid history (see apply_integral_operator); each level shifts it
    once and writes every iterate into row 0.  ``frozen`` is the frozen
    part of the delayed operator for the current alignment of rows 1 and
    deeper, None until an application needs it; only _begin_level moves
    those rows, so only it clears the sum.  ``integrand_evals`` counts the
    kernel-times-firing-rate terms of all operator applications, P N^2 per
    application whether or not the frozen part was reused.
    """

    problem: ProblemSpec
    config: SolverConfig
    table: DelayTable
    axes: tuple[np.ndarray, np.ndarray]
    lift: Callable[[np.ndarray], np.ndarray]
    history: np.ndarray
    u_prev: np.ndarray
    u_prev2: Optional[np.ndarray] = None
    frozen: Optional[np.ndarray] = None
    integrand_evals: int = 0

    def _input(self, t: float) -> np.ndarray:
        return tensor_values(self.problem.input_current, *self.axes, t)

    def _kappa(self) -> np.ndarray:
        self.integrand_evals += self.table.kernel_weights.size
        if self.table.has_delay and self.frozen is None:
            self.frozen = _frozen_sum(self.problem, self.table, self.history)
        return apply_integral_operator(self.problem, self.table, self.history, self.frozen)

    def _begin_level(self, u: np.ndarray) -> np.ndarray:
        """Shift the history one level deeper and put the lift of u in row 0."""
        self.history[1:] = self.history[:-1]
        self.history[0] = self.lift(u)
        self.frozen = None
        return self.history[0]

    def euler_step(self) -> None:
        """U_1 = U_0 + (h_t / c) (I_0 - U_0 + kappa(U_0)), starting the two-step scheme."""
        u0 = self.u_prev
        kap = self._kappa()
        u1 = u0 + (self.config.h_t / self.problem.c) * (self._input(0.0) - u0 + kap)
        self._begin_level(u1)
        self.u_prev, self.u_prev2 = u1, u0

    def bdf2_step(self, level: int) -> StepDiagnostics:
        """Advance one implicit two-step level by fixed-point iteration.

        Raises RuntimeError if the inner loop does not reach eps_inner within
        max_inner iterations, which is the symptom of a time step above the
        admissible bounds; its message lists the increment of every iteration.
        """
        cfg, c = self.config, self.problem.c
        h = cfg.h_t
        t_i = level * h
        u_prev, u_prev2 = self.u_prev, self.u_prev2
        I_i = self._input(t_i)
        lam = 2.0 * h / (2.0 * h + 3.0 * c)
        f_i = lam * (I_i + (2.0 * c / h) * u_prev - (0.5 * c / h) * u_prev2)

        evals_before = self.integrand_evals
        # Euler predictor from the previous level as the initial iterate
        u = u_prev + (h / c) * (I_i - u_prev + self._kappa())
        U = self._begin_level(u)
        increments: list[float] = []
        for _ in range(cfg.max_inner):
            u = lam * self._kappa() + f_i
            U_next = self.lift(u)
            inc = float(np.max(np.abs(U_next - U)))
            increments.append(inc)
            U[:] = U_next
            if inc < cfg.eps_inner:
                break
        else:
            raise RuntimeError(
                f"fixed-point iteration at t={t_i:g} did not reach {cfg.eps_inner:g} "
                f"within {cfg.max_inner} iterations; the time step likely violates "
                f"the admissible bounds; increments: "
                f"{', '.join(f'{d:.3e}' for d in increments)}")
        self.u_prev, self.u_prev2 = u, u_prev

        # observed contraction: worst consecutive-increment ratio above the
        # roundoff floor, nan when the loop finished in a single iteration
        floor = 1e-12 * max(1.0, float(np.max(np.abs(U))))
        ratios = [b / a for a, b in zip(increments, increments[1:]) if a > floor]
        return StepDiagnostics(
            level=level, time=t_i, inner_iterations=len(increments),
            contraction_estimate=max(ratios) if ratios else math.nan,
            kappa_applies=len(increments) + 1,
            integrand_evals=self.integrand_evals - evals_before)


@dataclass
class SolveResult:
    """States at every time level plus the run's diagnostics."""

    problem: ProblemSpec
    config: SolverConfig
    grid: SpatialGrid
    cheb_op: Optional[ChebOperator]
    kernel_norms: KernelNorms
    bounds: StepBounds
    contraction_bound: float
    stability_margin: float
    states: list[FieldState]
    diagnostics: list[StepDiagnostics]
    warnings: list[str] = field(default_factory=list)
    wall_time: float = 0.0
    total_integrand_evals: int = 0

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    def state_at(self, t: float) -> FieldState:
        """The stored state at time t, which must lie on the step grid."""
        idx = time_level(t, self.config.h_t)
        if idx is None or not 0 <= idx < len(self.states):
            raise ValueError(f"time {t!r} is not a stored level "
                             f"(h_t={self.config.h_t}, T={self.config.T})")
        return self.states[idx]


def solve(problem: ProblemSpec, config: SolverConfig) -> SolveResult:
    """Run the full scheme from t = 0 to t = T.

    Builds the grid, the evaluation axes and the pair table, seeds the
    history from the initial data (down to level -(k_max + 1) for delayed
    problems), takes one Euler step and then two-step levels up to T.
    Step-size bounds are checked up front; a step above a bound only logs a
    warning, but the run fails hard if the inner iteration stops converging
    or a state goes non-finite.
    """
    t_start = time.perf_counter()
    config.validate()
    h, c = config.h_t, problem.c
    grid = build_grid(problem.domain, config.n, build_gauss_rule(config.k))
    if config.rank_reduction:
        cheb_op = build_cheb_operator(config.m, grid)
        axes = (cheb_op.points1, cheb_op.points2)
        lift = functools.partial(lift_to_grid, cheb_op)
    else:
        cheb_op = None
        axes = (grid.x1, grid.x2)
        lift = np.asarray  # identity: the samples already sit on the grid
    norms = compute_kernel_norms(problem, grid)
    bounds = step_bound(problem, norms)
    lam = 2.0 * h / (2.0 * h + 3.0 * c)
    L1 = lam * norms.k_max * problem.firing_rate_slope_max * problem.domain.area
    margin = (2.0 * h / (3.0 * c)) * (1.0 + L1)

    warnings: list[str] = []
    for label, bound in (("L2", bounds.bound_l2), ("max", bounds.bound_max)):
        if h >= bound:
            warnings.append(
                f"time step h_t={h:g} exceeds the admissible {label} bound {bound:g}; "
                f"the inner iteration may diverge")
    if margin >= 1.0:
        warnings.append(f"stability margin {margin:g} is not below 1 at h_t={h:g}")
    for msg in warnings:
        logger.warning(msg)

    table = build_delay_table(problem, grid, axes, h)
    history = np.empty((table.history_rows, grid.total_points))
    for l in range(table.history_rows):
        history[l] = tensor_values(problem.initial, grid.x1, grid.x2, -l * h)
    u0 = tensor_values(problem.initial, *axes, 0.0)
    stepper = _Stepper(problem, config, table, axes, lift, history, u0)

    def record(level: int) -> FieldState:
        values = history[0].copy()
        if not np.all(np.isfinite(values)):
            raise RuntimeError(f"non-finite field values at t={level * h:g}")
        return FieldState(values=values, time=level * h)

    states = [record(0)]
    diagnostics: list[StepDiagnostics] = []
    for i in range(1, config.num_steps + 1):
        if i == 1:
            stepper.euler_step()
        else:
            diagnostics.append(stepper.bdf2_step(i))
        states.append(record(i))

    return SolveResult(
        problem=problem, config=config, grid=grid, cheb_op=cheb_op,
        kernel_norms=norms, bounds=bounds, contraction_bound=L1,
        stability_margin=margin, states=states, diagnostics=diagnostics,
        warnings=warnings, wall_time=time.perf_counter() - t_start,
        total_integrand_evals=stepper.integrand_evals)
