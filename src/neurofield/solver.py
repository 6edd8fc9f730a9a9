"""Time stepping for the neural field equation.

The scheme: a single explicit Euler step to produce the first level, then
the implicit two-step backward differentiation formula

    c (3 U_i - 4 U_{i-1} + U_{i-2}) / (2 h_t) = I_i - U_i + kappa(U_i)

solved at each level by fixed-point iteration

    U[nu] = lam * kappa(U[nu-1]) + f_i,     lam = 2 h_t / (2 h_t + 3 c)
    f_i   = lam * (I_i + (2 c / h_t) U_{i-1} - (c / (2 h_t)) U_{i-2})

started from an Euler predictor.  kappa is the quadrature approximation of
the connectivity integral.

solve marches in one loop.  Level i takes the Euler value
U_{i-1} + (h_t / c) (I - U_{i-1} + kappa(U_{i-1})) from the current
history window, with I = I(0) at i = 1 and I(t_i) after that, moves the
window up one row and writes that value's lift there.  Level 1 is that
value; every later level builds f_i and starts bdf2_step's fixed-point
iteration from it.  Every vector the march forms is built in place, with
the IEEE operations of the formulas above in their order, so the states
are bit for bit those of the plain expressions: the predictor accumulates
into a new I - U_{i-1}, f_i into the input I itself, and each iterate
into its own live sum (u = live sum; u *= lam; u += f_i).  The increment
|U_next - U| is formed in the window's row U itself, just before the row
takes U_next, so an iteration allocates nothing beyond the live sum and
the lift, and the lift's output is let go before the next operator
application.  That rests on ownership: tensor_values returns a new copy
of what input_current returned, and every table form's live_sum a new
array (_Table), so the march writes into no array of the problem's or the
table's.  The predictor is let go before the iteration and f_i after it,
so no temporary outlives its level.

An iteration dispatches little beyond its arithmetic, too.  Beside the
live sum and the lift, whose products go through ndarray.dot (the BLAS
calls of the @ operator without the matmul ufunc's set-up), it makes six
numpy calls on the row: the two updates, the increment's subtract, abs
and np.maximum.reduce (np.max's value without its Python wrapper), and
the copy into the row.  Its Python calls are the table's live_sum,
ProblemSpec.rate_values, the firing rate and, rank-reduced, lift_to_grid.
An undelayed table's frozen part is 0.0 (history_rows 1).  The march asks
for it once per level, as of any table, but adds it to neither the
predictor nor f_i.  That changes no value: adding 0.0 could only turn a
-0.0 into 0.0.

The update is carried in an evaluation space: the tensor product of two
axes, where kappa, I and f are formed, and a lift that maps values there
to the N^2 grid, where the quadrature reads the field.  Without rank
reduction the axes are the grid's and the lift is the identity.  With it
they are m Chebyshev points per axis and the lift is interpolation, so
each iteration costs m^2 N^2 integrand terms instead of N^4.  Lifting
the updated solution rather than kappa alone matters: the interpolation
error of the two sides of the update cancels wherever the solution itself
is smooth, so the lift does not pollute the spatial convergence of the
quadrature.  The lift is two precomputed matrix products.

build_delay_table picks the operator table's form, which sums its own pairs:
PairTable, the P x N^2 kernel weights of an undelayed kernel; AxisFactors,
two per-axis factors for one that separates; DelayedPairs for delays.

An undelayed problem whose kernel separates by axes needs no pair table.
KernelNorms.separable checks, on the kernel values that the norms stream
through block by block, that K(hypot(d1, d2)) K(0) == K(d1) K(d2) on the
grid's axis distances; then, with k = K / sqrt(K(0)), the quadrature sum
over the nodes (x1_a, x2_b) of k(|e1_p - x1_a|) k(|e2_q - x2_b|) w1_a w2_b
S_ab is A1 @ S @ A2.T, with

    A1[p, a] = k(|e1_p - x1_a|) w1_a,     A2[q, b] = k(|e2_q - x2_b|) w2_b,

which costs O(m N^2) per application rank-reduced and O(N^3) direct, and
holds two m x N (direct: N x N) factors instead of the P x N^2 table.
Every Gaussian takes this path with nothing declared; exp(-r) does not.

With a finite transmission speed the integrand reads the field at
t_i - |y - x| / v.  Writing that lag as (j + 1 - delta) * h_t with integer
j and delta in (0, 1], the firing rate there is linearly interpolated as
delta * S(U_{i-j}) + (1 - delta) * S(U_{i-j-1}); pairs with j = 0 reference
the current iterate, which keeps the scheme implicit.  Interpolating the
rate rather than the field is second order too, and the two agree for a
linear S; for example 4 with S = tanh(3u) the states move by 4.7e-6 at
h_t = 0.04, about 300 times below that run's own time error.  The grid
levels sit in one buffer, newest first, down to the deepest level the
table reads: -(k_max + 1) unless a constant history is folded (below).
The grid history is a window onto it whose row l holds the field l
levels back, with row 0 the current iterate: the table's history_rows H,
k_max + 2 for an unfolded delayed table and a single row without delay.
Each level moves the window one row up.  By default the buffer holds
every level of the run, num_steps + H rows, and the window never reaches
its top.  A run told which levels to keep holds
B = min(num_steps + H, 2 H) rows: when the window reaches row 0, its H
rows are copied to the bottom and the march goes on there, so the window
stays one contiguous block, at a copy of H rows per H levels; without
delay that is two rows and one row copy per level.  No vector the march
carries between levels is a row (u_prev and u_prev2 live on the
evaluation axes), so a row may be overwritten as soon as it leaves the
window.

The delayed operator is then linear in the rates s = S(history), flattened
row by row: three sparse matrices (DelayedPairs).  ``now`` holds w delta
and ``then`` w (1 - delta) at column j N^2 + q, read on s[:-N^2] and on
s[N^2:], so at rows j and j + 1; they share one index array and one
indptr, 20 B per pair with int32 indices.  The frozen part
now @ s[:-N^2] + then @ s[N^2:], with the live pairs (j = 0) at 0 in
``now``, reads rows 1 and deeper only, which stay put for a whole level:
it is summed where the window moves, once per level, into the level's
f_i, and reused by the next level's Euler predictor; S is evaluated once
for it on the window's rows as one flat vector (ProblemSpec.rate_values,
as every sum evaluates S), a view with no copy for a linear S.  The live
part, ``live`` @ S(row 0), is all that an inner iteration applies.  It
holds w delta at column q for the pairs with j = 0: the self pairs and
the few whose travel time is under one step, or every pair, on ``then``'s
index array, when no lag reaches one step.

A run of n steps sums the frozen part on the windows of levels 0 .. n,
so a pair at level offset j >= max(n, 1) only ever reads levels <= 0,
the initial history.  build_delay_table, told the run's n, scans that
history when max(n, 1) <= k_max: if the initial data give the same grid
field h0, value for value, at t = 0, -h_t, ..., -(k_max + 1) h_t
(example 4, whose history is constant in time), those pairs are folded
into one vector, ``fixed`` = sum of w S(h0) over them, and the matrices
keep only the pairs with j < max(n, 1), on the max(n, 1) + 1 rows they
reach, which are all the history rows the run then holds; solve seeds
them all with the initial data at t = 0.  The frozen part is
now @ s[:-N^2] + then @ s[N^2:] + fixed, with S evaluated on those rows
alone; example 4 at N = 48, h_t = 0.02 and T = 0.5 keeps 12.6% of its
pairs.  Such a folded table is exact only on windows whose rows max(n, 1)
and deeper hold h0, as every window of its run does.  Nothing is folded
when the history varies (example 5) or n > k_max.

A fold of a kernel that separates builds only the pairs it keeps.  The
nodes within R = max(n, 1) v h_t of a point lie in one run of each axis,
so hypot and the lag are evaluated on the boxes of those runs, and the
kernel on the pairs kept: example 4 above tests 82,944 candidates and
makes 42,969 kernel values, the factors' among them, for 331,776 pairs.
``fixed`` is then the factor product A1 S(h0) A2^T minus the near sum,
summed from the factors over the far pairs themselves, so without the
cancellation of that difference.  Any other table evaluates hypot and
the kernel on every pair.
"""

from __future__ import annotations

import functools
import logging
import math
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional

import numpy as np
from scipy import sparse

from .chebyshev import ChebOperator, build_cheb_operator
from .problems import KernelNorms, ProblemSpec, compute_kernel_norms, kernel_norms_bytes
from .quadrature import SpatialGrid, build_gauss_rule, build_grid, tensor_values

__all__ = [
    "SolverConfig",
    "FieldState",
    "PairTable",
    "AxisFactors",
    "DelayedPairs",
    "StepBounds",
    "StepDiagnostics",
    "SolveResult",
    "time_level",
    "build_delay_table",
    "lift_to_grid",
    "bdf2_step",
    "step_bound",
    "solve",
]

logger = logging.getLogger(__name__)

_TIME_ALIGN_RTOL = 1e-9
# the cap on a level's fixed-point iterations: reaching it signals a time
# step above the admissible bounds
_MAX_INNER = 50
# the bytes the memory check counts per record a run holds, its list slot
# included: a level's StepDiagnostics, and a kept state's FieldState with
# its array object (at most 165 and 192 B, traced at N = 1 and 4)
_RECORD_BYTES = 200


def _physical_memory() -> int:
    """Bytes of physical memory of the machine, as the operating system reports it."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(needed: int, what: str) -> None:
    """ValueError if ``needed`` bytes, for ``what``, exceed physical memory."""
    available = _physical_memory()
    if needed > available:
        raise ValueError(f"the run needs {needed} B for {what}, above the {available} B of "
                         f"physical memory")


def time_level(t: float, h: float) -> Optional[int]:
    """The level index of time t on the step grid of h, or None off that grid.

    t is level round(t / h) when |round(t / h) * h - t| <= 1e-9 * max(1, |t|, h).
    A non-finite t or h lies on no step grid, and neither does any t for a
    step h <= 0 or a t / h that overflows.
    """
    if not (math.isfinite(t) and math.isfinite(h) and h > 0 and math.isfinite(t / h)):
        return None
    idx = int(round(t / h))
    if abs(idx * h - t) > _TIME_ALIGN_RTOL * max(1.0, abs(t), h):
        return None
    return idx


@dataclass(frozen=True)
class SolverConfig:
    """Numerical parameters of one run.

    h_t is the time step, T the final time (T / h_t must be an integer),
    n and k fix the composite quadrature grid (N = n * k points per axis),
    m the interpolation order of the rank-reduced integral operator.
    eps_inner is the fixed-point loop's tolerance.  rank_reduction True
    applies the operator at the m x m Chebyshev points and lifts the result
    to the grid; False evaluates the integral directly at every grid point.
    h_t, T, eps_inner and rank_reduction are checked when the config is
    made: ValueError for one out of range or a T that is not a multiple of
    h_t.  solve checks n and k when it builds the grid, and m, for a
    rank-reduced run, when it builds the interpolation operator: ValueError
    before any other work.
    """

    h_t: float
    T: float
    n: int = 6
    k: int = 4
    m: int = 12
    eps_inner: float = 1e-10
    rank_reduction: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h_t) and self.h_t > 0):
            raise ValueError(f"time step h_t must be positive and finite, got {self.h_t}")
        if not (math.isfinite(self.T) and self.T >= 0):
            raise ValueError(f"final time T must be nonnegative, got {self.T}")
        if time_level(self.T, self.h_t) is None:
            raise ValueError(f"final time T={self.T} is not an integer multiple of h_t={self.h_t}")
        if not (math.isfinite(self.eps_inner) and self.eps_inner > 0):
            raise ValueError(f"eps_inner must be positive and finite, got {self.eps_inner}")
        if not isinstance(self.rank_reduction, (bool, np.bool_)):
            raise ValueError(f"rank_reduction must be a bool, got {self.rank_reduction!r}")

    @property
    def num_steps(self) -> int:
        """T / h_t, the number of steps of the run."""
        return time_level(self.T, self.h_t)

    def stored_level(self, t: float) -> int:
        """The level of time t among 0 .. num_steps; ValueError if it is none."""
        idx = time_level(t, self.h_t)
        if idx is None or not 0 <= idx <= self.num_steps:
            raise ValueError(f"time {t!r} is not a stored level (h_t={self.h_t}, T={self.T})")
        return idx


@dataclass(slots=True)
class FieldState:
    """Field values on the flat N^2 grid at one time level."""

    values: np.ndarray
    time: float


class _Table:
    """What the forms of the operator table share.  Each has its own arrays,
    ``shape`` (P, N^2: evaluation points by grid nodes), ``live_sum``, the
    sum over the pairs that read the current grid iterate, and
    ``frozen_sum``, the sum over the others, which read history rows 1 and
    deeper only: 0.0 for an undelayed table, whose pairs are all live.
    live_sum returns a new array, sharing no memory with its argument or
    the table's arrays, which the caller may overwrite.  ``fixed`` is None
    but on a folded DelayedPairs, whose history rows all hold one field."""

    history_rows = 1
    fixed: Optional[np.ndarray] = None

    @property
    def pair_count(self) -> int:
        """P N^2, the number of terms of one quadrature sum, in any form."""
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        """Bytes held by the table's arrays, dense ones and the data, indices
        and indptr of sparse ones, counting a buffer they share once."""
        arrays = [a for v in vars(self).values()
                  for a in ((v,) if isinstance(v, np.ndarray) else
                            (v.data, v.indices, v.indptr) if sparse.issparse(v) else ())]
        return sum({a.__array_interface__["data"][0]: a.nbytes for a in arrays}.values())

    @property
    def frozen_pairs(self) -> int:
        """The pairs one frozen sum reads."""
        return 0

    def frozen_sum(self, problem: ProblemSpec, history: np.ndarray) -> float | np.ndarray:
        return 0.0


@dataclass
class PairTable(_Table):
    """The pair table of an undelayed kernel: weights[p, q] holds
    K(|z_p - y_q|) times the quadrature weight of node q, where z_p runs
    row-major over the tensor product of the evaluation axes (Chebyshev
    points, or the grid's own axes when rank reduction is off)."""

    weights: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def live_sum(self, problem: ProblemSpec, field: np.ndarray) -> np.ndarray:
        return self.weights.dot(problem.rate_values(field))


@dataclass
class AxisFactors(_Table):
    """The pair table of an undelayed kernel that separates by axes, as the
    two factors A1 and A2 whose Kronecker product it is (module docstring)."""

    A1: np.ndarray
    A2: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.A1.shape[0] * self.A2.shape[0], self.A1.shape[1] * self.A2.shape[1])

    def live_sum(self, problem: ProblemSpec, field: np.ndarray) -> np.ndarray:
        s = problem.rate_values(field).reshape(self.A1.shape[1], -1)
        return self.A1.dot(s).dot(self.A2.T).ravel()


@dataclass
class DelayedPairs(_Table):
    """The pairs of a delayed kernel as three sparse matrices on the firing
    rates of the history's rows, flattened (module docstring).  For the pair
    of evaluation point p and node q at level offset j < r, ``now`` holds
    w delta and ``then`` w (1 - delta), both in row p at column j N^2 + q,
    on the rates of rows 0 .. r - 1 and of rows 1 .. r; ``live`` holds
    w delta in row p at column q, on the rates of row 0, for the pairs with
    j = 0, which weigh 0 in ``now``.

    Without ``fixed``, r = k_max + 1, with k_max = floor(tau_max / h_t),
    and the matrices hold every pair.  A table that build_delay_table
    folded for a run of n steps on a constant history h0 has r = max(n, 1),
    and ``fixed`` holds, per evaluation point, the sum of w S(h0) over its
    pairs with j >= r.  It is exact only on windows whose rows r and
    deeper hold h0 (module docstring).  history_rows is r + 1."""

    now: sparse.csr_array
    then: sparse.csr_array
    live: sparse.csr_array
    fixed: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.live.shape

    @property
    def history_rows(self) -> int:
        return self.now.shape[1] // self.shape[1] + 1

    @property
    def frozen_pairs(self) -> int:
        """The pairs left in the matrices: every pair of an unfolded table."""
        return self.then.nnz

    def frozen_sum(self, problem: ProblemSpec, history: np.ndarray) -> np.ndarray:
        """The quadrature sum over every pair but the live pairs' reads of
        row 0.  For finite values of row 0 it depends on rows 1 and deeper
        only: the entries of ``now`` that read row 0 are 0."""
        s = problem.rate_values(history[:self.history_rows].ravel())
        nodes = self.shape[1]
        out = self.now @ s[:-nodes] + self.then @ s[nodes:]
        if self.fixed is not None:
            out += self.fixed
        return out

    def live_sum(self, problem: ProblemSpec, field: np.ndarray) -> np.ndarray:
        return self.live @ problem.rate_values(field)


def _history_depth(problem: ProblemSpec, h_t: float, nodes: int) -> int:
    """k_max = floor(tau_max / h_t), 0 without delay; ValueError if k_max + 2
    history rows of ``nodes`` values are too many to index in int64."""
    depth = problem.tau_max / h_t
    if not (math.isfinite(depth)
            and (math.floor(depth) + 2) * nodes <= np.iinfo(np.int64).max):
        raise ValueError(f"delay depth tau_max / h_t = {depth:g} steps at v={problem.v:g}, "
                         f"h_t={h_t:g} is too deep to index the history")
    return math.floor(depth)


def _index_type(columns: int, pairs: int) -> type:
    """int32 where a table's columns and pair count fit in it, else int64."""
    return np.int32 if max(columns, pairs) <= np.iinfo(np.int32).max else np.int64


def _table_bound(problem: ProblemSpec, grid: SpatialGrid, axes: tuple[np.ndarray, np.ndarray],
                 k_max: int, separable: bool) -> int:
    """Bytes of the table build_delay_table makes unfolded: exact
    for an undelayed kernel, with or without ``separable``; for a delayed
    one 20 B per pair (24 with int64 indices), ``now`` and ``then`` on one
    index array, leaving out the few live pairs and the indptrs."""
    P, Q = axes[0].size * axes[1].size, grid.total_points
    if not problem.has_delay:
        return 8 * ((axes[0].size * grid.x1.size + axes[1].size * grid.x2.size)
                    if separable else P * Q)
    return (16 + np.dtype(_index_type((k_max + 1) * Q, P * Q)).itemsize) * P * Q


def _axis_factors(problem: ProblemSpec, grid: SpatialGrid,
                  axes: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """A1 and A2 of a kernel that separates, on the evaluation ``axes``
    (module docstring)."""
    root_k0 = math.sqrt(problem.kernel_values(np.zeros(1))[0])
    return tuple(problem.kernel_values(np.abs(e[:, None] - x[None, :])) / root_k0 * w[None, :]
                 for e, x, w in zip(axes, (grid.x1, grid.x2), (grid.w1, grid.w2)))


def _whole_pairs(problem: ProblemSpec, grid: SpatialGrid, axes: tuple[np.ndarray, np.ndarray],
                 step: float, reach: int, rates: Optional[np.ndarray], itype: type):
    """Every pair's lag in steps (distance / step) and kernel weight: hypot
    and the kernel on all P x N^2 pairs at once.

    Returns (lags, weights, nodes, per-row counts, far sum).  Without
    ``rates`` every pair is kept, as P x N^2 arrays on one row of nodes,
    and there is no far sum.  With them (S(h0), flat) the pairs at
    lag >= reach are summed on the rates into the far sum and dropped; the
    kept pairs come p-major and node-ascending.
    """
    (e1, e2), Q = axes, grid.total_points
    P = e1.size * e2.size
    d = np.hypot((e1[:, None] - grid.x1)[:, None, :, None],
                 (e2[:, None] - grid.x2)[None, :, None, :]).reshape(P, Q)
    kw = problem.kernel_values(d)
    kw *= grid.flat_weights()[None, :]
    lag = np.divide(d, step, out=d)
    del d  # the lag holds its storage, which a fold frees early
    if rates is None:
        return lag, kw, np.arange(Q, dtype=itype), np.full(P, Q), None
    # by a mask, not flat indices, with each whole array let go once its
    # kept part is copied: the build peaks at most 1 B per pair above
    # an unfolded one, when nearly every pair is kept
    kept = lag < reach  # j < reach, j being the floor of lag
    lag = lag[kept]
    kept_kw = kw[kept]
    kw[kept] = 0.0
    far = kw @ rates
    kw = kept_kw
    node = np.broadcast_to(np.arange(Q, dtype=itype), (P, Q))[kept]
    return lag, kw, node, np.count_nonzero(kept, axis=1), far


def _near_pairs(problem: ProblemSpec, grid: SpatialGrid, axes: tuple[np.ndarray, np.ndarray],
                step: float, reach: int, rates: np.ndarray, itype: type):
    """What _whole_pairs returns with ``rates``, for a kernel that
    separates: the kernel only on the pairs kept, and the far sum from the
    axis factors.

    Both grid axes ascend, so the nodes within R = reach * step of an
    evaluation coordinate, R padded by a few ulps of the coordinates, form
    one run of its axis, found by bisection.  Each run is widened to the
    axis's widest, inside the axis, so the candidates make one block, held
    as (P1, w1, P2, w2) and read as (P1, P2, w1, w2): p-major and
    node-ascending.  hypot and the lag test run on the block, and the
    kernel on the pairs kept, so each value kept is _whole_pairs' own.
    Where the runs span both axes the block is every pair, which
    _whole_pairs reads without the gathers, in less memory and time.  Read
    through them at full span, example 4's direct build at N = 24,
    h_t = 0.1, n = 20 (331,776 pairs) peaked at 36.2 B per pair against
    24.8 (12.0 against 8.24 MB, traced), as the candidates' lags, their
    kept mask and the rates taken on them are all held beside the
    distances.  It took 1.10-1.29 times as long, with the same matrices
    (medians of 30 alternating calls, one BLAS thread, 2 cores):
    3.0 -> 3.8 ms at N = 24, m = 12, h_t = 0.1, n = 20; 11.5 -> 12.8 ms at
    N = 48, m = 12, h_t = 0.02, n = 100; 195 -> 230 ms direct at that N,
    h_t and n; 9.7 -> 11.5 ms direct at N = 24, h_t = 0.1, n = k_max.

    The far sum is A1 S A2^T minus the near sum on S = S(h0), summed with
    no subtraction, which near k_max would leave it to rounding: the
    factors masked to the runs sum the pairs outside the box of a point's
    two runs, and the factors' entries on the block its candidates beyond R.
    """
    radius, grid_axes = reach * step, (grid.x1, grid.x2)
    runs = []
    for e, x in zip(axes, grid_axes):
        bound = radius + 8 * np.finfo(float).eps * (radius + np.max(np.abs(e)))
        lo = np.searchsorted(x, e - bound)
        width = int(np.max(np.searchsorted(x, e + bound, side="right") - lo))
        runs.append(np.minimum(lo, x.size - width)[:, None] + np.arange(width))
    if all(run.shape[1] == x.size for run, x in zip(runs, grid_axes)):
        return _whole_pairs(problem, grid, axes, step, reach, rates, itype)
    diffs, inside = [], []
    for e, x, run in zip(axes, grid_axes, runs):
        diffs.append(e[:, None] - x[run])
        inside.append(np.zeros((e.size, x.size), dtype=bool))
        np.put_along_axis(inside[-1], run, True, axis=1)
    (r1, r2), (in1, in2) = runs, inside
    A1, A2 = _axis_factors(problem, grid, axes)
    S = rates.reshape(grid.x1.size, grid.x2.size)
    d = np.hypot(diffs[0][:, :, None, None], diffs[1][None, None, :, :])  # (P1, w1, P2, w2)
    box = np.divide(d, step)  # the lags, then S at the candidates
    kept = box < reach  # _whole_pairs' test
    np.take(S[r1], r2, axis=2, out=box, mode="clip")  # clip takes unbuffered
    box[kept] = 0.0
    far = (np.where(in1, 0.0, A1) @ S @ A2.T + np.where(in1, A1, 0.0) @ S @ np.where(in2, 0.0, A2).T
           + np.einsum("pi,piqk,qk->pq", np.take_along_axis(A1, r1, axis=1), box,
                       np.take_along_axis(A2, r2, axis=1), optimize=True))
    del box
    kept = kept.transpose(0, 2, 1, 3)
    d = d.transpose(0, 2, 1, 3)[kept]
    kw = problem.kernel_values(d)  # before the nodes: the build peaks in the kernel
    lag = np.divide(d, step, out=d)
    del d
    node = ((r1 * grid.x2.size).astype(itype)[:, None, :, None]
            + r2.astype(itype)[None, :, None, :])[kept]
    kw *= np.take(grid.flat_weights(), node)
    return lag, kw, node, np.count_nonzero(kept, axis=(2, 3)).ravel(), far.ravel()


def build_delay_table(problem: ProblemSpec, grid: SpatialGrid,
                      axes: tuple[np.ndarray, np.ndarray], h_t: float,
                      separable: bool = False, num_steps: Optional[int] = None) -> _Table:
    """The operator table of every pair of a grid node and a point of the
    tensor product of ``axes``, from the per-axis coordinate differences.

    The one place that picks the table's form: a delayed problem gets
    DelayedPairs; an undelayed one AxisFactors with ``separable``
    (KernelNorms.separable of this problem and grid), else a PairTable.
    The check saw exactly the distances of a direct run, not the
    Chebyshev-to-grid ones of a rank-reduced run.  ValueError if
    tau_max / h_t levels of history are too many to index in int64.

    ``num_steps`` is the length of the run the table serves.  Given it,
    for a delayed problem with r = max(num_steps, 1) <= k_max, the initial
    data are scanned (_constant_history) and, if they give one grid field
    h0 at every level <= 0 the delay reaches, the pairs at level offsets
    j >= r are folded into DelayedPairs.fixed and the matrices keep the
    others, on r N^2 columns (module docstring).  Otherwise, and without
    ``num_steps``, the table is unfolded, the same bit for bit.

    A pair source gives the kept pairs' lags in steps, kernel weights,
    nodes and per-row counts, and the far sum.  _whole_pairs evaluates
    hypot and the kernel (ProblemSpec.kernel_values) on every pair in one
    call: for a PairTable, an unfolded table and the fold of a kernel that
    does not separate.  A fold with ``separable`` reads _near_pairs: hypot
    on the pairs near each point, the kernel on the pairs kept, and
    ``fixed`` as the factor product A1 S(h0) A2^T minus the near sum.  Both
    keep the same pairs with the same values, and their ``fixed`` agree to
    rounding.  The delay arithmetic runs in place on the pairs kept: the
    lag becomes 1 - delta and then w (1 - delta), the kernel weights become
    w delta, and the level offsets become flat indices, int32 wherever the
    columns and the pair count fit in it.  The live pairs are cut from
    ``now``'s first N^2 columns.
    """
    if not problem.has_delay and separable:
        return AxisFactors(*_axis_factors(problem, grid, axes))
    k_max = _history_depth(problem, h_t, grid.total_points)
    P, Q = axes[0].size * axes[1].size, grid.total_points
    reach, rates = k_max + 1, None
    if num_steps is not None and max(num_steps, 1) <= k_max:
        h0 = _constant_history(problem, grid, h_t, k_max + 2)
        if h0 is not None:
            reach, rates = max(num_steps, 1), problem.rate_values(h0.ravel())
    itype = _index_type(reach * Q, P * Q)
    source = _near_pairs if separable and rates is not None else _whole_pairs
    lag, kw, node, counts, fixed = source(problem, grid, axes, problem.v * h_t, reach, rates,
                                          itype)
    if not problem.has_delay:  # the lag is 0 at v = inf
        return PairTable(kw)
    indptr = np.zeros(P + 1, dtype=itype)
    np.cumsum(counts, out=indptr[1:])
    j = lag.astype(itype)  # the floor, as lag >= 0
    np.minimum(j, k_max, out=j)
    is_live = j == 0
    lag -= j  # 1 - delta
    then = np.multiply(lag, kw, out=lag)
    near = np.subtract(kw, then, out=kw)  # w delta
    j *= Q
    j += node
    near, index, then = near.ravel(), j.ravel(), then.ravel()
    shape = (P, reach * Q)
    if is_live.all():  # no pair kept lags one step: ``now`` is empty, ``live`` every pair
        now = sparse.csr_array(shape)
        live = sparse.csr_array((near, index, indptr), shape=(P, Q))
    else:  # cut the live pairs (j = 0) before zeroing them in ``now``
        now = sparse.csr_array((near, index, indptr), shape=shape)
        live = now[:, :Q]
        now.data[is_live.ravel()] = 0.0
    return DelayedPairs(now=now, then=sparse.csr_array((then, index, indptr), shape=shape),
                        live=live, fixed=fixed)


def lift_to_grid(cheb_op: ChebOperator, samples: np.ndarray) -> np.ndarray:
    """Interpolate values at the m^2 Chebyshev points onto the flat grid:
    L1 @ M @ L2, the coefficient transform and grid evaluation in one."""
    M = samples.reshape(cheb_op.m, cheb_op.m)
    return cheb_op.L1.dot(M).dot(cheb_op.L2).ravel()


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


@dataclass(slots=True)
class StepDiagnostics:
    """Per-step record of the fixed-point loop and its operator cost.  The
    level's time is level * h_t.

    ``integrand_evals`` is ``kappa_applies`` times the table's pair_count:
    P N^2 terms per operator application for P evaluation points, the
    paper's cost model, however the table's form computes the sum.
    ``contraction_estimate`` is None when the loop gave no increment ratio.
    """

    level: int
    inner_iterations: int
    contraction_estimate: Optional[float]
    kappa_applies: int
    integrand_evals: int


def bdf2_step(problem: ProblemSpec, config: SolverConfig, table: _Table,
              lift: Callable[[np.ndarray], np.ndarray], U: np.ndarray, f_i: np.ndarray,
              lam: float, level: int) -> tuple[np.ndarray, StepDiagnostics]:
    """Solve one implicit two-step level by fixed-point iteration.

    U is the level's grid row of the history window, holding the lift of
    its Euler predictor; each increment and then each iterate is written
    into it.  f_i, which is only read, holds every constant of the level,
    the frozen sum of its window among them if the table has one, so an
    iteration is lam times the live sum plus f_i, with solve's
    lam = 2 h_t / (2 h_t + 3 c).
    Returns the solution on the evaluation
    axes and the level's diagnostics.
    Raises RuntimeError if the inner loop does not reach eps_inner within
    _MAX_INNER iterations, which is the symptom of a time step above the
    admissible bounds; its message lists the increment of every iteration.
    A non-finite increment stops the loop at once with a RuntimeError.
    """
    t_i = level * config.h_t
    increments: list[float] = []
    for _ in range(_MAX_INNER):
        u = table.live_sum(problem, U)
        u *= lam
        u += f_i
        U_next = lift(u)
        # |U_next - U| is formed in U itself, which takes U_next next
        inc = float(np.maximum.reduce(np.abs(np.subtract(U_next, U, out=U), out=U)))
        if not math.isfinite(inc):
            raise RuntimeError(f"fixed-point iteration at t={t_i:g} reached a non-finite "
                               f"increment in iteration {len(increments) + 1}")
        increments.append(inc)
        U[:] = U_next
        del U_next  # not kept across the next operator application
        if inc < config.eps_inner:
            break
    else:
        raise RuntimeError(
            f"fixed-point iteration at t={t_i:g} did not reach {config.eps_inner:g} "
            f"within {_MAX_INNER} iterations; the time step likely violates "
            f"the admissible bounds; increments: "
            f"{', '.join(f'{d:.3e}' for d in increments)}")
    logger.debug("level %d t=%g: %d inner iterations, last increment %.3e",
                 level, t_i, len(increments), increments[-1])

    # observed contraction: worst consecutive-increment ratio above the
    # roundoff floor, None when the loop finished in a single iteration
    ratios = []
    if len(increments) > 1:
        floor = 1e-12 * max(1.0, float(np.maximum.reduce(np.abs(U))))
        ratios = [b / a for a, b in zip(increments, increments[1:]) if a > floor]
    return u, StepDiagnostics(
        level=level, inner_iterations=len(increments),
        contraction_estimate=max(ratios) if ratios else None,
        kappa_applies=len(increments) + 1,
        integrand_evals=(len(increments) + 1) * table.pair_count)


@dataclass
class SolveResult:
    """The kept states plus the run's diagnostics.

    ``states`` holds the levels solve was asked to keep, in time order:
    by default every level, as rows of the run's one level buffer, so
    holding any one keeps every level alive, with a delayed run's
    history_rows - 1 rows of initial data; with ``keep``, a copy of each
    kept level, which holds nothing else of the run.
    ``total_integrand_evals`` counts every operator application of the run
    as StepDiagnostics does, ``table_bytes`` sizes the table's arrays and
    ``table_form`` names its form (build_delay_table).  ``level_bytes``
    sizes the level buffer plus the kept copies.  ``separable`` is
    the kernel norms' verdict, which picks AxisFactors for an undelayed
    kernel, and ``frozen_pairs`` the pairs one frozen sum reads: 0 without
    delay, fewer than the pair count where a constant history was folded.
    """

    problem: ProblemSpec
    config: SolverConfig
    grid: SpatialGrid
    bounds: StepBounds
    contraction_bound: float
    stability_margin: float
    states: list[FieldState]
    diagnostics: list[StepDiagnostics]
    warnings: list[str] = field(default_factory=list)
    total_integrand_evals: int = 0
    table_bytes: int = 0
    level_bytes: int = 0
    table_form: str = ""
    separable: bool = False
    frozen_pairs: int = 0

    def record(self) -> dict:
        """The run-level fields by name, in field order: every field but
        the inputs (problem, config, grid) and the states.  The one
        definition of what a manifest records of a solve."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("problem", "config", "grid", "states")}

    def state_at(self, t: float) -> FieldState:
        """The state at time t (SolverConfig.stored_level); ValueError if
        the run did not keep it."""
        time = self.config.stored_level(t) * self.config.h_t
        for state in self.states:
            if state.time == time:
                return state
        raise ValueError(f"time {t!r} was not kept; the run kept the times "
                         f"{[state.time for state in self.states]}")


def _constant_history(problem: ProblemSpec, grid: SpatialGrid, h: float,
                      rows: int) -> Optional[np.ndarray]:
    """The initial data's grid field if it is the same, value for value, at
    t = 0, -h, ..., -(rows - 1) h, else None.  The times are evaluated one
    at a time, up to the first that differs from t = 0; each is compared
    as it broadcasts to the grid, and NaN equals nothing.  A time at which
    the initial data raise ArithmeticError differs too: solve's seeding
    then names it.

    solve's memory check runs first, and the scan then makes at most
    rows = k_max + 2 calls to ``initial``: the count an unfolded seeding
    of the same run makes, over levels the check has admitted.  So the
    scan at most doubles the seeding's calls, and a folded run then seeds
    from one call.  Run before the check, it would need a bound of its
    own."""
    x1, x2 = grid.x1[:, None], grid.x2[None, :]
    h0 = np.empty((grid.x1.size, grid.x2.size))
    h0[...] = problem.initial(x1, x2, 0.0)
    same = np.empty(h0.shape, dtype=bool)  # one buffer for every comparison
    try:
        for l in range(1, rows):
            np.equal(problem.initial(x1, x2, -l * h), h0, out=same)
            if not np.logical_and.reduce(same, axis=None):  # np.all without its wrapper
                return None
    except ArithmeticError:
        return None
    return h0


def _buffer_rows(num_steps: int, history_rows: int, keep: bool) -> int:
    """The rows of a run's level buffer (module docstring): every level,
    num_steps + history_rows, or with ``keep`` at most 2 history_rows, so
    the window moves to the bottom every history_rows levels."""
    rows = num_steps + history_rows
    return min(rows, 2 * history_rows) if keep else rows


def solve(problem: ProblemSpec, config: SolverConfig,
          keep: Optional[Iterable[float]] = None) -> SolveResult:
    """Run the full scheme from t = 0 to t = T.

    Builds the grid, the evaluation axes, the operator table and a buffer
    of grid levels, seeded from the initial data down to the deepest row
    the table reads for delayed problems, then takes one Euler step and
    two-step levels.  ``keep`` names the times whose states the result
    holds, each a stored level (SolverConfig.stored_level, checked before
    any other work but the grid's); the buffer then holds only the levels
    the march reads, the kept states are copied out of it, and it is let
    go on return.  By default every level is kept, as rows of one buffer
    of every level.  The table is built for the run's num_steps, so a
    delayed problem whose history is constant over the k_max + 2 levels
    the delay reaches gets a folded table (build_delay_table), whose rows
    are all seeded with the initial data at t = 0; any other table's rows
    are seeded one level at a time, and a level below 0 at which the
    initial data raise ArithmeticError (math.exp overflowing, say) or are
    not finite raises ValueError naming its time.  Step-size bounds are
    checked up front; a step above a bound only logs a warning.  The run
    raises ValueError before the kernel norms if the levels alone (the
    buffer's rows, counted for an unfolded table, plus the kept copies,
    and _RECORD_BYTES for each level's diagnostics and each state held),
    or a bound of the norms' working set (kernel_norms_bytes), exceed the
    machine's physical memory; before it reads the history if the levels
    and a bound of the table (_table_bound) together exceed it; or if
    the firing rate, tried once on the initial state, does not return its
    argument's shape; every later evaluation of S checks that shape too
    (ProblemSpec.rate_values).  It fails hard if the inner iteration stops
    converging or a state goes non-finite, at any level, kept or not.
    """
    h, c = config.h_t, problem.c
    grid = build_grid(problem.domain, config.n, build_gauss_rule(config.k))
    if config.rank_reduction:
        cheb_op = build_cheb_operator(config.m, grid)
        axes = (cheb_op.points1, cheb_op.points2)
        lift = functools.partial(lift_to_grid, cheb_op)
    else:
        axes = (grid.x1, grid.x2)
        lift = np.asarray  # identity: the samples already sit on the grid
    kept = None if keep is None else {config.stored_level(t) for t in keep}
    copies = 0 if kept is None else len(kept)
    num_steps = config.num_steps
    k_max = _history_depth(problem, h, grid.total_points)
    row_bytes = grid.total_points * 8
    rows = _buffer_rows(num_steps, k_max + 2 if problem.has_delay else 1,
                        kept is not None) + copies
    records = num_steps + 1 + (num_steps + 1 if kept is None else copies)
    held = rows * row_bytes + records * _RECORD_BYTES
    what = f"{rows} grid levels and {records} level records"
    _check_memory(held, what)
    _check_memory(kernel_norms_bytes(grid), "its kernel norms")
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

    _check_memory(_table_bound(problem, grid, axes, k_max, norms.separable) + held,
                  f"its operator table, {what}")
    u0 = tensor_values(problem.initial, *axes, 0.0)
    problem.rate_values(u0)  # a rate of another shape fails here, before the table
    table = build_delay_table(problem, grid, axes, h, norms.separable, num_steps=num_steps)
    H = table.history_rows
    B = _buffer_rows(num_steps, H, kept is not None)
    levels = np.empty((B, grid.total_points))
    top = B - H  # the first row of the current window, which holds its newest level
    seed = levels[top:].reshape(H, grid.x1.size, grid.x2.size)
    states: list[FieldState] = []

    def record(row: int, level: int) -> None:
        values = levels[row]
        if not np.logical_and.reduce(np.isfinite(values)):
            raise RuntimeError(f"non-finite field values at t={level * h:g}")
        if kept is None:
            states.append(FieldState(values=values, time=level * h))
        elif level in kept:
            states.append(FieldState(values=values.copy(), time=level * h))

    x1, x2 = grid.x1[:, None], grid.x2[None, :]
    seed[0] = problem.initial(x1, x2, 0.0)
    record(top, 0)
    if table.fixed is not None:  # folded: every level <= 0 holds t = 0's field
        seed[1:] = seed[0]
    else:
        for l in range(1, H):
            t = -l * h
            try:
                seed[l] = problem.initial(x1, x2, t)
            except ArithmeticError as exc:
                raise ValueError(f"the initial data overflow at t={t:g}, a level the run "
                                 f"seeds: {exc}") from exc
            if not np.isfinite(seed[l]).all():
                raise ValueError(f"the initial data are not finite at t={t:g}, a level the "
                                 f"run seeds")
    diagnostics: list[StepDiagnostics] = []
    applies = min(num_steps, 1)
    u_prev, u_prev2 = u0, None
    # overflow ends in a non-finite increment or state, on which the march raises
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, num_steps + 1):
            if top == 0:  # only with keep: carry the window to the bottom
                levels[B - H:] = levels[:H]
                top = B - H
            row = top - 1  # level i's row, above the current window
            if i == 1:  # each later window's frozen part is summed where it moves
                frozen = table.frozen_sum(problem, levels[row + 1:])
            I = tensor_values(problem.input_current, *axes, i * h if i > 1 else 0.0)
            # u_prev + (h / c) * (I - u_prev + frozen + live), formed in place
            u = I - u_prev
            if H > 1:  # an undelayed table's frozen part is 0.0: nothing to add
                u += frozen
            u += table.live_sum(problem, levels[row + 1])
            u *= h / c
            u += u_prev
            levels[row] = lift(u)
            frozen = table.frozen_sum(problem, levels[row:])
            if i > 1:
                del u  # the iteration starts from the window's row
                # f_i = lam * (I + frozen + (2 c / h) u_prev - (c / (2 h)) u_prev2), in I
                if H > 1:
                    I += frozen
                I += (2.0 * c / h) * u_prev
                I -= (0.5 * c / h) * u_prev2
                I *= lam
                u, diag = bdf2_step(problem, config, table, lift, levels[row], I, lam, i)
                del I
                diagnostics.append(diag)
                applies += diag.kappa_applies
            u_prev, u_prev2 = u, u_prev
            record(row, i)
            top = row

    return SolveResult(
        problem=problem, config=config, grid=grid, bounds=bounds, contraction_bound=L1,
        stability_margin=margin, states=states, diagnostics=diagnostics, warnings=warnings,
        total_integrand_evals=applies * table.pair_count, table_bytes=table.nbytes,
        level_bytes=levels.nbytes + copies * row_bytes, table_form=type(table).__name__,
        separable=norms.separable, frozen_pairs=table.frozen_pairs)
