"""Error measurement and convergence studies.

Errors against a known solution are taken either in the grid max norm or
in the quadrature-weighted L2 norm.  The two study drivers rerun the
solver over a list of time steps (fixed grid) or a list of grid
resolutions (fixed time step) and tabulate errors, consecutive-error
ratios and the implied order log2(ratio).

Measured errors below 1e-13 sit at the rounding floor of the scheme, so
such rows are flagged as roundoff-dominated rather than used to assert an
order.  In the time study, levels i <= 2 are produced or directly
influenced by the bootstrap step and are marked accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .problems import ProblemSpec
from .quadrature import SpatialGrid, apply_quadrature, build_gauss_rule, tensor_values
from .solver import FieldState, SolverConfig, solve, time_level

__all__ = [
    "NORMS",
    "ROUNDOFF_FLOOR",
    "ReportRow",
    "ConvergenceReport",
    "TimeStudy",
    "SpaceStudy",
    "field_norm",
    "error_norm",
    "solver_settings",
    "time_convergence_study",
    "space_convergence_study",
]

ROUNDOFF_FLOOR = 1e-13

NORMS = ("max", "l2")  # the first is the default
# the inner tolerance of every study solve, far below SolverConfig's 1e-10:
# the fixed-point residual must not pass for a discretisation error
_STUDY_EPS_INNER = 1e-14


def field_norm(grid: SpatialGrid, values: np.ndarray, norm: str = NORMS[0]) -> float:
    """Grid max norm or quadrature-weighted L2 norm of a flat field."""
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}, expected one of {NORMS}")
    values = np.asarray(values, dtype=float)
    if norm == "max":
        return float(np.max(np.abs(values)))
    return math.sqrt(max(apply_quadrature(grid, values * values), 0.0))


def error_norm(grid: SpatialGrid, state: FieldState,
               exact: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
               norm: str = NORMS[0]) -> float:
    """Norm of the difference between a stored state and the exact solution."""
    diff = state.values - tensor_values(exact, grid.x1, grid.x2, state.time)
    return field_norm(grid, diff, norm)


def _settings(cfg: SolverConfig) -> dict:
    out = {"ht": cfg.h_t, "T": cfg.T, "n": cfg.n, "k": cfg.k, "m": cfg.m,
           "N": cfg.n * cfg.k, "eps_inner": cfg.eps_inner, "rank_reduction": cfg.rank_reduction}
    if not cfg.rank_reduction:
        del out["m"]  # the direct operator reads no interpolation order
    return out


def solver_settings(configs: Sequence[SolverConfig]) -> dict:
    """The settings that every one of ``configs`` shares, under the keys
    that reports and manifests show (N = n * k, the points per axis); ``m``
    only where every config reduces rank."""
    settings = [_settings(cfg) for cfg in configs]
    return {key: value for key, value in settings[0].items()
            if all(s.get(key) == value for s in settings)}


@dataclass
class ReportRow:
    """One line of a convergence table."""

    param: str
    error: float
    ratio: Optional[float] = None
    order: Optional[float] = None
    flags: tuple[str, ...] = ()


@dataclass
class ConvergenceReport:
    """Flat error-versus-resolution table with ratios and implied orders."""

    title: str
    norm: str
    fixed: dict = field(default_factory=dict)
    rows: list[ReportRow] = field(default_factory=list)

    def to_text(self) -> str:
        fixed = ", ".join(f"{k}={v}" for k, v in self.fixed.items())
        lines = [self.title + (f"  ({fixed})" if fixed else ""),
                 f"norm: {self.norm}"]
        header = f"{'param':>12}  {'error':>12}  {'ratio':>8}  {'order':>6}  notes"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            ratio = f"{row.ratio:8.2f}" if row.ratio is not None else " " * 8
            order = f"{row.order:6.2f}" if row.order is not None else " " * 6
            notes = ",".join(row.flags)
            lines.append(f"{row.param:>12}  {row.error:12.3e}  {ratio}  {order}  {notes}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["param,error,ratio,order"]
        for row in self.rows:
            ratio = f"{row.ratio:.16e}" if row.ratio is not None else ""
            order = f"{row.order:.16e}" if row.order is not None else ""
            lines.append(f"{row.param},{row.error:.16e},{ratio},{order}")
        return "\n".join(lines) + "\n"


def _report_rows(entries: Sequence[tuple[str, float, Sequence[str]]]) -> list[ReportRow]:
    """Rows from (param, error, extra flags) in table order: the ratio to
    the previous error, the order log2(ratio), and the roundoff flag."""
    rows: list[ReportRow] = []
    prev_err: Optional[float] = None
    for param, err, extra in entries:
        ratio = order = None
        if prev_err is not None and err > 0.0:
            ratio = prev_err / err
            order = math.log2(ratio) if ratio > 0 else None
        flags = (*extra, "roundoff-dominated") if err < ROUNDOFF_FLOOR else tuple(extra)
        rows.append(ReportRow(param=param, error=err, ratio=ratio, order=order, flags=flags))
        prev_err = err
    return rows


@dataclass
class TimeStudy:
    """Errors of several time steps on one grid, aligned on shared levels.

    ``configs`` are the solver configurations the study ran, one per step
    (coarsest first), and its only record of their settings: ``steps``
    and the report time T are read from them.  ``errors[h]`` maps an
    integer multiple of the finest step to the error at that physical
    time, absent where a coarser step has no level.  ``ratio(coarse,
    fine, t)`` is the usual error quotient at a time both steps reach.
    """

    problem_name: str
    norm: str
    errors: dict[float, dict[int, float]]
    configs: list[SolverConfig]

    @property
    def steps(self) -> list[float]:
        return [cfg.h_t for cfg in self.configs]

    def error_at(self, step: float, t: float) -> Optional[float]:
        """The error of ``step`` at time t, None where that step has no level.

        Raises ValueError when the study did not run ``step`` or when t is
        not a level of the finest step.
        """
        if step not in self.errors:
            raise ValueError(f"step {step!r} is not one of the steps the study ran: "
                             f"{', '.join(map(repr, self.steps))}")
        finest = self.configs[-1].h_t
        key = time_level(t, finest)
        if key is None:
            raise ValueError(f"time {t!r} is not a level of the finest step {finest!r}")
        return self.errors[step].get(key)

    def ratio(self, coarse: float, fine: float, t: float) -> Optional[float]:
        e_c = self.error_at(coarse, t)
        e_f = self.error_at(fine, t)
        if e_c is None or e_f is None or e_f == 0.0:
            return None
        return e_c / e_f

    def report(self) -> ConvergenceReport:
        """Rows over the step sizes at T, which every step reaches."""
        t = self.configs[-1].T
        entries = []
        for h in self.steps:
            extra = ["bootstrap-affected"] if time_level(t, h) <= 2 else []
            entries.append((f"{h:g}", self.error_at(h, t), extra))
        return ConvergenceReport(
            title=f"time convergence of {self.problem_name} at t={t:g}",
            norm=self.norm, fixed=solver_settings(self.configs), rows=_report_rows(entries))

    def to_text(self) -> str:
        """Per-time table: one error column per step, ratio columns between
        neighbours, blanks where a step does not hit the time."""
        head = [f"{'t':>8}"]
        for h in self.steps:
            head.append(f"{'e(' + format(h, 'g') + ')':>13}")
        for a, b in zip(self.steps, self.steps[1:]):
            head.append(f"{format(a, 'g') + '/' + format(b, 'g'):>12}")
        fixed = ", ".join(f"{k}={v}" for k, v in solver_settings(self.configs).items())
        lines = [f"time convergence of {self.problem_name}  ({fixed}, norm {self.norm})",
                 "  ".join(head)]
        finest = self.configs[-1]
        for t in (i * finest.h_t for i in range(1, finest.num_steps + 1)):
            cells = [f"{t:8.4f}"]
            for h in self.steps:
                err = self.error_at(h, t)
                mark = "*" if err is not None and time_level(t, h) <= 2 else " "
                cells.append(f"{err:12.3e}{mark}" if err is not None else " " * 13)
            for a, b in zip(self.steps, self.steps[1:]):
                r = self.ratio(a, b, t)
                cells.append(f"{r:12.2f}" if r is not None else " " * 12)
            lines.append("  ".join(cells))
        lines.append("(* bootstrap-affected level)")
        return "\n".join(lines)


def time_convergence_study(problem: ProblemSpec, steps: Sequence[float], T: float,
                           n: int = SolverConfig.n, k: int = SolverConfig.k,
                           m: int = SolverConfig.m, norm: str = NORMS[0],
                           rank_reduction: bool = False) -> TimeStudy:
    """Solve at each step size on a fixed grid and collect errors in time.

    Each step must make a valid SolverConfig with T, which raises its own
    ValueError; T must be above 0 and the steps nested (every coarser step
    an integer multiple of every finer one), so that errors can be compared
    at shared levels.  A single step size is allowed and yields a
    ratio-free table.

    Rank reduction defaults to off here, unlike in ordinary runs: the
    study isolates the temporal error, and representing a non-polynomial
    solution by its degree m-1 interpolant adds a fixed spatial floor
    (about 8.6e-7 for a unit Gaussian at m=12) that skews the measured
    ratios once the time error approaches it.  At study-sized grids the
    direct evaluation costs a few milliseconds, so nothing is lost.

    Every solve iterates to the studies' inner tolerance _STUDY_EPS_INNER
    (1e-14) rather than the default 1e-10, whose fixed-point residual would
    read as a time error: example 2, exact in time, showed errors near 1e-11
    falling at a ratio of 19 per halving at the default.

    Each solve keeps every level, since the study compares them all.  The
    study keeps each solve's errors only and lets the solve go before the
    next one starts, so its memory peaks at its largest solve.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution to compare against")
    if not steps:
        raise ValueError("need at least one step size")
    steps = sorted(set(float(h) for h in steps), reverse=True)
    configs = [SolverConfig(h_t=h, T=T, n=n, k=k, m=m, eps_inner=_STUDY_EPS_INNER,
                            rank_reduction=rank_reduction) for h in steps]
    if configs[0].num_steps < 1:
        raise ValueError(f"the study needs at least one level after t = 0, got T={T!r}")
    finest = steps[-1]
    for h in steps:
        if time_level(h, finest) is None:
            raise ValueError(f"steps are not nested: {h!r} is not a multiple of {finest!r}")

    errors: dict[float, dict[int, float]] = {}
    for cfg in configs:
        res = solve(problem, cfg)
        mult = time_level(cfg.h_t, finest)
        errors[cfg.h_t] = {
            i * mult: error_norm(res.grid, res.states[i], problem.exact, norm)
            for i in range(1, len(res.states))
        }
        del res  # its levels would stay alive beside the next solve's
    return TimeStudy(problem_name=problem.name, norm=norm, errors=errors, configs=configs)


@dataclass
class SpaceStudy:
    """Errors over grid resolutions N for one or more interpolation orders.

    ``configs``, one per (N, m) pair with m <= N, are the study's only
    record of the settings it ran: ``N_values`` and ``m_values`` read them.
    """

    problem_name: str
    norm: str
    errors: dict[tuple[int, int], float]
    configs: list[SolverConfig]

    @property
    def N_values(self) -> list[int]:
        return sorted({cfg.n * cfg.k for cfg in self.configs})

    @property
    def m_values(self) -> list[int]:
        return sorted({cfg.m for cfg in self.configs})

    def error(self, N: int, m: int) -> Optional[float]:
        return self.errors.get((N, m))

    def report(self, m: int) -> ConvergenceReport:
        if m not in self.m_values:
            raise ValueError(f"the study ran no interpolation order m={m}")
        entries = [(str(N), self.errors[(N, m)], ()) for N in self.N_values
                   if (N, m) in self.errors]
        return ConvergenceReport(
            title=f"space convergence of {self.problem_name} with m={m}",
            norm=self.norm,
            fixed=solver_settings([cfg for cfg in self.configs if cfg.m == m]),
            rows=_report_rows(entries))

    def reports(self) -> dict[int, ConvergenceReport]:
        return {m: self.report(m) for m in self.m_values}

    def to_text(self) -> str:
        return "\n\n".join(self.report(m).to_text() for m in self.m_values)


def space_convergence_study(problem: ProblemSpec, N_values: Sequence[int],
                            m_values: Sequence[int], k: int = SolverConfig.k, h_t: float = 0.01,
                            T: float = 0.1, norm: str = NORMS[0]) -> SpaceStudy:
    """Errors at t = T while the grid is refined at fixed k and time step.

    Each N and m must be an integer, and each N a multiple of k (N = n * k
    subinterval structure).
    Pairs with m > N are skipped so that a shared m list can span several
    resolutions, but every N and every m must be in some pair with m <= N.
    The inner tolerance is _STUDY_EPS_INNER (1e-14), as in the time study,
    far below the default because the measured errors approach machine
    precision.  Each solve keeps only its state at T (solve's ``keep``), so
    it holds the levels its march reads rather than every level, and is let
    go once its error is taken, before the next one starts: the study's
    memory peaks at its largest solve.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution to compare against")
    for value in (*N_values, *m_values):
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"grid resolutions and interpolation orders must be integers, "
                             f"got {value!r}")
    N_values = sorted(set(int(N) for N in N_values))
    m_values = sorted(set(int(m) for m in m_values))
    if not N_values or not m_values:
        raise ValueError("need at least one grid resolution and one interpolation order")
    build_gauss_rule(k)  # rejects a bad rule order before N % k reads it
    for N in N_values:
        if N % k != 0:
            raise ValueError(f"grid resolution N={N} is not a multiple of the rule order k={k}")
    idle = [f"m={m} exceeds every grid resolution" for m in m_values if m > N_values[-1]]
    idle += [f"N={N} is below every interpolation order" for N in N_values if N < m_values[0]]
    if idle:
        raise ValueError("unused by any solve: " + "; ".join(idle))

    errors: dict[tuple[int, int], float] = {}
    configs = [SolverConfig(h_t=h_t, T=T, n=N // k, k=k, m=m, eps_inner=_STUDY_EPS_INNER)
               for N in N_values for m in m_values if m <= N]
    for cfg in configs:
        res = solve(problem, cfg, keep=(cfg.T,))
        errors[(cfg.n * cfg.k, cfg.m)] = error_norm(res.grid, res.state_at(cfg.T),
                                                    problem.exact, norm)
        del res  # its state at T would stay alive beside the next solve
    return SpaceStudy(problem_name=problem.name, norm=norm, errors=errors, configs=configs)
