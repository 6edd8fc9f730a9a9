"""The benchmark's workloads, their output checks and their trace targets.

Each workload is one call into the package's public entry points with a
fresh ProblemSpec, so per-instance caches (example 3's input integral) are
paid inside the call, as a user pays them.  ``nf`` is a namespace holding
the imported ``neurofield`` modules; functions are looked up through it at
call time, so a traced call goes through the wrappers of ``spans``.

Why these three:
- space_cli: ``converge-space`` through the CLI, N = 12..96 with m = 12.
  Nearly all of its time is the N^4 kernel-norm scan in set-up; the
  rank-reduced march is cheap and undelayed.  Only workload that goes
  through the ``cli`` and ``analysis`` layers.
- delay_n48: example 4 (v = 1) at h_t = 0.02, N = 48, up to T = 0.5.
  Dominated by the delayed operator application and the history gather;
  set-up is small.  T = 0.5 rather than 2: every step gathers from the
  same 143 history levels whatever T is, so the shorter march costs the
  same per step, and its 0.75 s calls give a run four times as many
  calls, each with its reference block, as 3 s calls would.
- direct_n32: example 3 at N = 32 without rank reduction.  The direct N^4
  path: kernel norms, the dense pair table and the dense matvec.  Skips
  the Chebyshev lift and the delay gather.  N = 32 rather than 64: at
  N = 64 the 134 MB pair table is streamed from memory on every step, and
  on a shared 2-core host its run medians spread by 20-40% as neighbours
  load the memory system; the 8 MB table at N = 32 keeps the spread near 2%.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spans import Target, Tracer, aggregate, already_instrumented

RTOL = 1e-9

SPACE_N = (12, 24, 48, 96)
# Bands of acceptance criterion 3 on the manifest's error ratios.
SPACE_RATIO_24_48 = (200.0, 340.0)
SPACE_RATIO_48_96_MIN = 100.0

# Results of the solver as it stood when the benchmark was written; a pure
# performance change must reproduce them to RTOL.
DELAY_T = 0.5
DELAY_MAX_NORMS = ((0.1, 0.9105575635879922), (0.2, 0.8425301608525433),
                   (0.3, 0.7911267767955534), (0.4, 0.7527697590524431),
                   (0.5, 0.724272795804176))
DIRECT_MAX_ERROR = 1.0965317204369995e-4
DIRECT_T = 0.5


def _delay_config(nf, T: float = DELAY_T):
    return nf.solver.SolverConfig(h_t=0.02, T=T, n=12, k=4, m=12)


def _direct_config(nf, T: float = DIRECT_T):
    return nf.solver.SolverConfig(h_t=0.01, T=T, n=8, k=4, rank_reduction=False)


def _space_argv(out: Path) -> list[str]:
    return ["converge-space", "--example", "2", "--lambda", "5",
            "--N", ",".join(map(str, SPACE_N)), "--m", "12", "--out", str(out)]


def _space_call(nf, workdir: Path):
    with contextlib.redirect_stdout(io.StringIO()):
        return nf.cli.main(_space_argv(workdir))


def _space_setup(nf, rng) -> None:
    # the configs the study solves: CLI default h_t = 0.01, k = 4, and the
    # study's own eps_inner = 1e-14
    problem = nf.problems.example2(lam=5.0)
    order = list(SPACE_N)
    rng.shuffle(order)
    for N in order:
        nf.solver.solve(problem, nf.solver.SolverConfig(
            h_t=0.01, T=0.0, n=N // 4, k=4, m=12, eps_inner=1e-14))


def _space_summary(rc, workdir: Path) -> dict:
    out = {"exit_code": rc,
           "bytes_written": sum(p.stat().st_size for p in workdir.iterdir() if p.is_file())}
    manifest = workdir / "manifest.json"
    if manifest.is_file():
        rows = json.loads(manifest.read_text())["rows"].get("12", [])
        ratios = {row["param"]: row["ratio"] for row in rows}
        out["ratio_24_48"] = ratios.get("48")
        out["ratio_48_96"] = ratios.get("96")
    return out


def check_space(out: dict) -> list[str]:
    problems = []
    if out.get("exit_code") != 0:
        problems.append(f"exit code {out.get('exit_code')}")
    lo, hi = SPACE_RATIO_24_48
    r1, r2 = out.get("ratio_24_48"), out.get("ratio_48_96")
    if r1 is None or not lo <= r1 <= hi:
        problems.append(f"N=24->48 ratio {r1} outside [{lo:g}, {hi:g}]")
    if r2 is None or not r2 > SPACE_RATIO_48_96_MIN:
        problems.append(f"N=48->96 ratio {r2} not above {SPACE_RATIO_48_96_MIN:g}")
    return problems


def _delay_call(nf, workdir: Path):
    return nf.solver.solve(nf.problems.example4(v=1.0), _delay_config(nf))


def _delay_setup(nf, rng) -> None:
    nf.solver.solve(nf.problems.example4(v=1.0), _delay_config(nf, T=0.0))


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


def _all_finite(result) -> bool:
    return all(bool(np.all(np.isfinite(s.values))) for s in result.states)


def _delay_summary(result, workdir: Path) -> dict:
    return {"finite": _all_finite(result),
            "max_norms": [(t, _max_abs(result.state_at(t).values)) for t, _ in DELAY_MAX_NORMS]}


def _close(value, reference: float) -> bool:
    return value is not None and abs(value - reference) <= RTOL * abs(reference)


def check_delay(out: dict) -> list[str]:
    problems = [] if out.get("finite") else ["non-finite field values"]
    got = dict(out.get("max_norms", []))
    for t, ref in DELAY_MAX_NORMS:
        if not _close(got.get(t), ref):
            problems.append(f"max norm at t={t:g} is {got.get(t)!r}, expected {ref!r}")
    return problems


def _direct_call(nf, workdir: Path):
    return nf.solver.solve(nf.problems.example3(), _direct_config(nf))


def _direct_setup(nf, rng) -> None:
    nf.solver.solve(nf.problems.example3(), _direct_config(nf, T=0.0))


def _direct_summary(result, workdir: Path) -> dict:
    state = result.state_at(DIRECT_T)
    p1, p2 = result.grid.flat_points()
    exact = result.problem.exact(p1, p2, state.time)
    return {"finite": _all_finite(result), "max_error": _max_abs(state.values - exact)}


def check_direct(out: dict) -> list[str]:
    problems = [] if out.get("finite") else ["non-finite field values"]
    if not _close(out.get("max_error"), DIRECT_MAX_ERROR):
        problems.append(f"max error at T={DIRECT_T:g} is {out.get('max_error')!r}, "
                        f"expected {DIRECT_MAX_ERROR!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    """``call`` runs it once and returns the raw result, ``summarize`` turns
    that into plain numbers outside the timed region, ``check`` lists what
    is wrong with them, ``setup`` solves the same configs with T = 0,
    ``reference`` names the unit of ``reference.UNITS`` its calls are
    measured in, and ``calls_per_setup`` is how many timed calls a run
    makes for each timed set-up."""

    name: str
    call: Callable
    summarize: Callable
    check: Callable[[dict], list[str]]
    setup: Callable
    reference: str
    calls_per_setup: int = 1


WORKLOADS = {w.name: w for w in (
    # set-up costs as much as a call here; two calls per set-up give the
    # calls' ratio to the reference more samples in a run
    Workload("space_cli", _space_call, _space_summary, check_space, _space_setup, "pairs", 2),
    Workload("delay_n48", _delay_call, _delay_summary, check_delay, _delay_setup, "gather"),
    Workload("direct_n32", _direct_call, _direct_summary, check_direct, _direct_setup, "dense"),
)}


# --- per-layer trace -------------------------------------------------------

def _solve_counts(tracer: Tracer, result) -> None:
    tracer.count("solver.integrand_evals", result.total_integrand_evals)
    tracer.count("solver.inner_iterations", sum(d.inner_iterations for d in result.diagnostics))


def _table_bytes(tracer: Tracer, table) -> None:
    tracer.peak("solver.table_bytes",
                sum(v.nbytes for v in vars(table).values() if hasattr(v, "nbytes")))


def _instrument_problem(tracer: Tracer, problem) -> None:
    for attr, counter in (("kernel", "problems.kernel.evals"),
                          ("firing_rate", "problems.firing_rate.evals")):
        fn = getattr(problem, attr, None)
        if fn is not None and not already_instrumented(fn):
            setattr(problem, attr, tracer.counting(fn, counter))
    fn = getattr(problem, "input_current", None)
    if fn is not None and not already_instrumented(fn):
        problem.input_current = tracer.wrap(fn, "problems.input_current")


def _bound_in(modules: tuple[str, ...], attr: str, span, on_result=None) -> list[Target]:
    return [Target(f"neurofield.{m}", attr, span, on_result) for m in modules]


# Every module that binds each name, defining module first.
TARGETS = [
    *_bound_in(("cli",), "main", "cli.main"),
    *_bound_in(("analysis", "cli"), "space_convergence_study", "analysis.space_convergence_study"),
    *_bound_in(("analysis",), "error_norm", "analysis.error_norm"),
    *_bound_in(("solver", "analysis", "cli"), "solve", "solver.solve", _solve_counts),
    *_bound_in(("quadrature", "solver"), "build_grid", "quadrature.build_grid"),
    *_bound_in(("chebyshev", "solver"), "build_cheb_operator", "chebyshev.build_cheb_operator"),
    *_bound_in(("problems", "solver"), "compute_kernel_norms", "problems.compute_kernel_norms"),
    *_bound_in(("solver",), "build_delay_table", "solver.build_delay_table", _table_bytes),
    *_bound_in(("solver",), "euler_bootstrap", "solver.euler_bootstrap"),
    *_bound_in(("solver",), "bdf2_step", "solver.bdf2_step"),
    *_bound_in(("solver",), "apply_integral_operator", "solver.apply_integral_operator"),
    *_bound_in(("solver",), "lift_to_grid", "solver.lift_to_grid"),
    *_bound_in(("solver.HistoryBuffer",), "stack", "solver.HistoryBuffer.stack"),
    *[t for n in range(1, 5)
      for t in _bound_in(("problems", "cli"), f"example{n}", None, _instrument_problem)],
]

TRACE_OVERHEAD = "bench.tracing_overhead.s"

# (name, unit).  ``<span>.s`` is inclusive time, ``<span>.self_s`` time not
# covered by child spans, ``<span>.calls`` the span count; the rest are
# counters.  B-computed: bytes summed from array sizes, not measured.
PER_LAYER = (
    ("problems.compute_kernel_norms.s", "s"),
    ("problems.kernel.evals", "count"),
    ("problems.input_current.s", "s"),
    ("problems.input_current.calls", "count"),
    ("problems.firing_rate.evals", "count"),
    ("solver.apply_integral_operator.s", "s"),
    ("solver.apply_integral_operator.calls", "count"),
    ("solver.integrand_evals", "count"),
    ("solver.HistoryBuffer.stack.s", "s"),
    ("solver.build_delay_table.s", "s"),
    ("solver.table_bytes", "B-computed"),
    ("solver.euler_bootstrap.s", "s"),
    ("solver.bdf2_step.self_s", "s"),
    ("solver.bdf2_step.calls", "count"),
    ("solver.inner_iterations", "count"),
    ("solver.solve.self_s", "s"),
    ("chebyshev.build_cheb_operator.s", "s"),
    ("solver.lift_to_grid.s", "s"),
    ("solver.lift_to_grid.calls", "count"),
    ("quadrature.build_grid.s", "s"),
    ("analysis.space_convergence_study.self_s", "s"),
    ("analysis.error_norm.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    (TRACE_OVERHEAD, "s"),
)


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER value of one traced call; 0 for a span never entered."""
    agg = aggregate(tracer.spans)
    out = {}
    for name, _ in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if span in agg:
            out[name] = agg[span][quantity]
        else:
            out[name] = tracer.counters.get(name, 0)
    return out
