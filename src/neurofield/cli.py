"""Command-line front end.

Four subcommands: ``run`` solves one problem and writes field snapshots,
``converge-time`` and ``converge-space`` drive the convergence studies,
``compare-delay`` runs a problem twice, with finite and infinite
transmission speed, and reports both fields.  Every command writes its
outputs into an existing directory given by --out: CSV files with a fixed
17-significant-digit format (so runs are bit-reproducible) plus a JSON
manifest recording every parameter that affects the numerics, the per-step
diagnostics and the wall time.

Parameters come from flags or from a plain key=value config file
(--config); flags override the file.  Defaults are chosen per subcommand
so that the bare commands regenerate the standard tables: converge-time
on examples 1 and 3 and converge-space on example 2 reproduce the
published error tables, compare-delay on example 4 reproduces the decay
comparison.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .analysis import field_norm, time_convergence_study, space_convergence_study
from .problems import ProblemSpec, example1, example2, example3, example4
from .solver import SolveResult, SolverConfig, solve

_FMT = "%.16e"


class CliError(Exception):
    """Configuration or runtime failure that should abort with exit 1."""


def _parse_float_list(text: str, what: str) -> list[float]:
    if not text.strip():
        return []
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"cannot parse {what} list {text!r}") from None


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"cannot parse {what} list {text!r}") from None


def _parse_bool(text: str, what: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise CliError(f"cannot parse {what} value {text!r} as a boolean")


# config-file key -> (namespace attribute, parser)
_FILE_KEYS = {
    "example": ("example", int),
    "lambda": ("lam", float),
    "sigma": ("sigma", float),
    "mu": ("mu", float),
    "c": ("c", float),
    "v": ("v", float),
    "ht": ("ht", float),
    "T": ("T", float),
    "n": ("n", int),
    "k": ("k", int),
    "m": ("m", str),
    "N": ("N", str),
    "norm": ("norm", str),
    "snapshots": ("snapshots", str),
    "steps": ("steps", str),
    "out": ("out", str),
    "rank-reduction": ("rank_reduction_file", str),
}


def _load_config_file(path: str, args: argparse.Namespace) -> None:
    """Fill unset namespace entries from key=value lines; flags win."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FILE_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        attr, conv = _FILE_KEYS[key]
        if not hasattr(args, attr):
            raise CliError(f"{path}:{lineno}: key {key!r} does not apply to this subcommand")
        if getattr(args, attr) is None:
            try:
                setattr(args, attr, conv(value))
            except ValueError:
                raise CliError(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--example", type=int, choices=[1, 2, 3, 4], default=None)
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="kernel decay rate")
    sub.add_argument("--sigma", type=float, default=None, help="firing-rate steepness")
    sub.add_argument("--mu", type=float, default=None, help="initial-bump decay rate")
    sub.add_argument("--c", type=float, default=None, help="membrane time constant")
    sub.add_argument("--v", type=float, default=None, help="transmission speed")
    sub.add_argument("--ht", type=float, default=None, help="time step")
    sub.add_argument("--T", type=float, default=None, help="final time")
    sub.add_argument("--n", type=int, default=None, help="subintervals per axis")
    sub.add_argument("--k", type=int, default=None, help="Gauss points per subinterval")
    sub.add_argument("--m", default=None, help="interpolation order")
    sub.add_argument("--norm", choices=["max", "l2"], default=None)
    sub.add_argument("--out", default=None, help="existing output directory")
    sub.add_argument("--config", default=None, help="key=value parameter file")
    sub.add_argument("--no-rank-reduction", dest="no_rank_reduction",
                     action="store_const", const=True, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurofield",
        description="Neural field equation solver and convergence studies")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="solve one problem and write snapshots")
    _add_common_flags(run)
    run.add_argument("--snapshots", default=None, help="comma-separated output times")

    ct = subs.add_parser("converge-time", help="error versus time step")
    _add_common_flags(ct)
    ct.add_argument("--steps", default=None, help="comma-separated step sizes")

    cs = subs.add_parser("converge-space", help="error versus grid resolution")
    _add_common_flags(cs)
    cs.add_argument("--N", default=None, help="comma-separated points-per-axis values")

    cd = subs.add_parser("compare-delay", help="finite versus infinite speed")
    _add_common_flags(cd)
    cd.add_argument("--snapshots", default=None, help="comma-separated output times")
    return parser


def _resolve(args: argparse.Namespace, name: str, default):
    value = getattr(args, name)
    return default if value is None else value


def _resolve_problem(args: argparse.Namespace, default_example: int,
                     need_finite_v: bool = False) -> tuple[ProblemSpec, dict]:
    example = _resolve(args, "example", default_example)
    lam = _resolve(args, "lam", 1.0)
    sigma = _resolve(args, "sigma", 1.0)
    mu = _resolve(args, "mu", 1.0)
    c = _resolve(args, "c", 1.0)
    v = _resolve(args, "v", 1.0 if example == 4 or need_finite_v else math.inf)
    params = {"example": example, "lambda": lam, "sigma": sigma, "mu": mu,
              "c": c, "v": v}
    try:
        if example == 1:
            problem = example1(lam, sigma, c)
        elif example == 2:
            if args.c is not None and args.c != 1.0:
                raise CliError("example 2 fixes c=1; drop the --c flag")
            problem = example2(lam, sigma)
        elif example == 3:
            problem = example3(lam, mu, c)
        else:
            problem = example4(lam, mu, c, v)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return problem, params


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out is None:
        raise CliError("no output directory given (--out)")
    out = Path(args.out)
    if not out.is_dir():
        raise CliError(f"output directory {out} does not exist")
    return out


def _snapshot_csv(result: SolveResult, t: float) -> str:
    try:
        state = result.state_at(t)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    p1, p2 = result.grid.flat_points()
    lines = ["x1,x2,V"]
    for a, b, value in zip(p1, p2, state.values):
        lines.append(f"{_FMT % a},{_FMT % b},{_FMT % value}")
    return "\n".join(lines) + "\n"


def _diag_dicts(result: SolveResult) -> list[dict]:
    return [dataclasses.asdict(d) for d in result.diagnostics]


def _solver_params(cfg: SolverConfig) -> dict:
    return {"ht": cfg.h_t, "T": cfg.T, "n": cfg.n, "k": cfg.k, "m": cfg.m,
            "N": cfg.n * cfg.k, "eps_inner": cfg.eps_inner,
            "max_inner": cfg.max_inner, "rank_reduction": cfg.rank_reduction}


def _shared_solver_params(configs: list[SolverConfig]) -> dict:
    """The solver settings that every config a study ran agrees on."""
    params = [_solver_params(cfg) for cfg in configs]
    return {key: value for key, value in params[0].items()
            if all(p[key] == value for p in params)}


def _run_stability(result: SolveResult) -> dict:
    return {"step_bounds": dataclasses.asdict(result.bounds),
            "stability_margin": result.stability_margin}


def _write_all(out: Path, files: dict[str, str], manifest: dict) -> None:
    """Write every output at once, after all computation has succeeded."""
    for name, content in files.items():
        (out / name).write_text(content)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _solve_checked(problem: ProblemSpec, cfg: SolverConfig) -> SolveResult:
    try:
        return solve(problem, cfg)
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc)) from None


def cmd_run(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    problem, params = _resolve_problem(args, default_example=1)
    cfg = SolverConfig(h_t=_resolve(args, "ht", 0.01), T=_resolve(args, "T", 0.1),
                       **_solver_flags(args))
    snapshots = _parse_float_list(_resolve(args, "snapshots", ""), "snapshot")
    result = _solve_checked(problem, cfg)
    files = {f"snapshot_t{t:g}.csv": _snapshot_csv(result, t) for t in snapshots}
    manifest = {
        "command": "run", "problem": problem.name,
        "parameters": {**params, **_solver_params(cfg), "norm": _resolve(args, "norm", "max")},
        "snapshots": snapshots,
        "warnings": result.warnings,
        **_run_stability(result),
        "diagnostics": _diag_dicts(result),
        "total_integrand_evals": result.total_integrand_evals,
        "wall_time": result.wall_time,
    }
    _write_all(out, files, manifest)
    print(f"wrote {len(files)} snapshot(s) and manifest.json to {out}")
    return 0


def _parse_single_m(args: argparse.Namespace) -> Optional[int]:
    if args.m is None:
        return None
    try:
        return int(args.m)
    except (TypeError, ValueError):
        raise CliError(f"expected a single interpolation order, got {args.m!r}") from None


def _resolve_rank(args: argparse.Namespace) -> Optional[bool]:
    if args.no_rank_reduction:
        return False
    file_value = getattr(args, "rank_reduction_file", None)
    if file_value is not None:
        return _parse_bool(file_value, "rank-reduction")
    return None


def _given(**values) -> dict:
    """The values that flags or the config file set (the others are None),
    so that the library's defaults fill in the rest."""
    return {key: value for key, value in values.items() if value is not None}


def _solver_flags(args: argparse.Namespace) -> dict:
    return _given(n=args.n, k=args.k, m=_parse_single_m(args),
                  rank_reduction=_resolve_rank(args))


def cmd_converge_time(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    problem, params = _resolve_problem(args, default_example=1)
    example = params["example"]
    default_steps = "0.01,0.005,0.0025" if example == 3 else "0.02,0.01"
    default_T = 0.05 if example == 3 else 0.1
    steps = _parse_float_list(_resolve(args, "steps", default_steps), "step")
    t0 = time.perf_counter()
    try:
        study = time_convergence_study(problem, steps, T=_resolve(args, "T", default_T),
                                       **_solver_flags(args), **_given(norm=args.norm))
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc)) from None
    report = study.report()
    files = {"report.csv": report.to_csv(),
             "report.txt": study.to_text() + "\n"}
    manifest = {
        "command": "converge-time", "problem": problem.name,
        "parameters": {**params, **_shared_solver_params(study.configs),
                       "steps": study.steps, "norm": study.norm},
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "wall_time": time.perf_counter() - t0,
    }
    _write_all(out, files, manifest)
    print(study.to_text())
    return 0


def cmd_converge_space(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    problem, params = _resolve_problem(args, default_example=2)
    N_values = _parse_int_list(_resolve(args, "N", "12,24,48,96"), "N")
    m_values = _parse_int_list(str(_resolve(args, "m", "12,24")), "m")
    if _resolve_rank(args) is False:
        raise CliError("the space study measures the rank-reduced operator; "
                       "--no-rank-reduction does not apply")
    t0 = time.perf_counter()
    try:
        study = space_convergence_study(problem, N_values, m_values,
                                        **_given(k=args.k, h_t=args.ht, T=args.T,
                                                 norm=args.norm))
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc)) from None
    files = {"report.txt": study.to_text() + "\n"}
    rows = {}
    for m, report in study.reports().items():
        files[f"report_m{m}.csv"] = report.to_csv()
        rows[str(m)] = [dataclasses.asdict(r) for r in report.rows]
    manifest = {
        "command": "converge-space", "problem": problem.name,
        "parameters": {**params, **_shared_solver_params(study.configs),
                       "N": study.N_values, "m": study.m_values, "norm": study.norm},
        "rows": rows,
        "wall_time": time.perf_counter() - t0,
    }
    _write_all(out, files, manifest)
    print(study.to_text())
    return 0


def cmd_compare_delay(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    problem, params = _resolve_problem(args, default_example=4, need_finite_v=True)
    if not math.isfinite(params["v"]) or params["v"] <= 0:
        raise CliError("compare-delay needs a finite positive transmission speed (--v)")
    delayed = dataclasses.replace(problem, v=params["v"], exact=None)
    undelayed = dataclasses.replace(problem, v=math.inf, exact=None)
    cfg = SolverConfig(h_t=_resolve(args, "ht", 0.1), T=_resolve(args, "T", 2.0),
                       **_solver_flags(args))
    snapshots = _parse_float_list(_resolve(args, "snapshots", "0.5,1,1.5,2"), "snapshot")
    res_d = _solve_checked(delayed, cfg)
    res_u = _solve_checked(undelayed, cfg)
    norm = _resolve(args, "norm", "max")
    files: dict[str, str] = {}
    summary = ["t,delayed,undelayed"]
    lines = []
    for t in snapshots:
        files[f"snapshot_t{t:g}_delayed.csv"] = _snapshot_csv(res_d, t)
        files[f"snapshot_t{t:g}_undelayed.csv"] = _snapshot_csv(res_u, t)
        nd = field_norm(res_d.grid, res_d.state_at(t).values, norm)
        nu = field_norm(res_u.grid, res_u.state_at(t).values, norm)
        summary.append(f"{_FMT % t},{_FMT % nd},{_FMT % nu}")
        lines.append(f"t={t:g}: delayed {norm}-norm {nd:.6e}, undelayed {nu:.6e}")
    files["summary.csv"] = "\n".join(summary) + "\n"
    manifest = {
        "command": "compare-delay", "problem": problem.name,
        "parameters": {**params, **_solver_params(cfg), "norm": norm},
        "snapshots": snapshots,
        "warnings": res_d.warnings + res_u.warnings,
        **_run_stability(res_d),
        "diagnostics": {"delayed": _diag_dicts(res_d), "undelayed": _diag_dicts(res_u)},
        "wall_time": res_d.wall_time + res_u.wall_time,
    }
    _write_all(out, files, manifest)
    for line in lines:
        print(line)
    return 0


_COMMANDS = {
    "run": cmd_run,
    "converge-time": cmd_converge_time,
    "converge-space": cmd_converge_space,
    "compare-delay": cmd_compare_delay,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not hasattr(args, "rank_reduction_file"):
        args.rank_reduction_file = None
    try:
        if args.config is not None:
            _load_config_file(args.config, args)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
