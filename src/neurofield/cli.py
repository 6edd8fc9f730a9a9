"""Command-line front end.

Four subcommands: ``run`` solves one problem and writes field snapshots,
``converge-time`` and ``converge-space`` drive the convergence studies,
``compare-delay`` runs a problem twice, with finite and infinite
transmission speed, and reports both fields.  Every command writes its
outputs into an existing directory given by --out: CSV files with a fixed
17-significant-digit format (so runs are bit-reproducible) plus a JSON
manifest recording the problem's own parameters, the solver configuration
that ran, the per-step diagnostics and the wall time.

Settings come from flags or from a plain key=value config file
(--config) whose keys are the flag names; flags override the file.  Both
are defined once, in ``_SETTINGS``, so a file value passes the same type
and choice checks as its flag.  A subcommand takes only the settings it
reads (``_COMMANDS``); another one is an error, as a flag or a key.
Problem parameters have no defaults here: the example's constructor
supplies those not given, and one the example does not take is an error.
The other defaults are chosen per subcommand so that the bare commands
regenerate the standard tables: converge-time on examples 1 and 3 and
converge-space on example 2 reproduce the published error tables,
compare-delay on example 4 reproduces the decay comparison.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from .analysis import field_norm, time_convergence_study, space_convergence_study
from .problems import ProblemSpec, example1, example2, example3, example4, example5
from .solver import SolveResult, SolverConfig, solve

_FMT = "%.16e"


class CliError(Exception):
    """Configuration or runtime failure that should abort with exit 1."""


def _parse_list(text: str, what: str, convert: Callable[[str], float]) -> list:
    try:
        return [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"cannot parse {what} list {text!r}") from None


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Every setting, keyed by its config-file key, with its add_argument
# keywords.  The flag is --key unless "flag" names another one; a file value
# is converted by "file_type" (else "type") and checked against the same
# choices as the flag.
_SETTINGS: dict[str, dict] = {
    "example": {"type": int, "choices": [1, 2, 3, 4, 5], "help": "paper example"},
    "lambda": {"dest": "lam", "type": float, "help": "kernel decay rate"},
    "sigma": {"type": float, "help": "firing-rate steepness"},
    "mu": {"type": float, "help": "initial-bump decay rate"},
    "c": {"type": float, "help": "membrane time constant"},
    "v": {"type": float, "help": "transmission speed"},
    "ht": {"type": float, "help": "time step"},
    "T": {"type": float, "help": "final time"},
    "n": {"type": int, "help": "subintervals per axis"},
    "k": {"type": int, "help": "Gauss points per subinterval"},
    "m": {"help": "interpolation order"},
    "norm": {"choices": ["max", "l2"]},
    "out": {"help": "existing output directory"},
    "rank-reduction": {"flag": "--no-rank-reduction", "dest": "rank_reduction",
                       "action": "store_const", "const": False, "file_type": _parse_bool,
                       "help": "evaluate the integral directly at every grid point"},
    "snapshots": {"help": "comma-separated output times"},
    "steps": {"help": "comma-separated step sizes"},
    "N": {"help": "comma-separated points-per-axis values"},
}

# The problem parameters; which of them an example takes is read off its
# constructor.
_PARAMETER_KEYS = ("lambda", "sigma", "mu", "c", "v")
_COMMON_KEYS = ("example", *_PARAMETER_KEYS, "T", "k", "m", "out")


def _dest(key: str) -> str:
    return _SETTINGS[key].get("dest", key)


def _command_keys(command: str) -> tuple[str, ...]:
    return _COMMON_KEYS + _COMMANDS[command][2]


def _load_config_file(path: str, args: argparse.Namespace) -> None:
    """Fill unset settings from key=value lines; flags win."""
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
        if key not in _SETTINGS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key not in _command_keys(args.command):
            raise CliError(f"{path}:{lineno}: key {key!r} does not apply to this subcommand")
        spec = _SETTINGS[key]
        try:
            parsed = spec.get("file_type", spec.get("type", str))(value)
            if parsed not in spec.get("choices", [parsed]):
                raise ValueError
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
        if getattr(args, _dest(key)) is None:
            setattr(args, _dest(key), parsed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurofield",
        description="Neural field equation solver and convergence studies")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for key in _command_keys(command):
            keywords = {name: value for name, value in _SETTINGS[key].items()
                        if name not in ("flag", "file_type")}
            sub.add_argument(_SETTINGS[key].get("flag", "--" + key), default=None, **keywords)
        sub.add_argument("--config", default=None, help="key=value settings file")
    return parser


def _resolve(args: argparse.Namespace, name: str, default):
    value = getattr(args, name)
    return default if value is None else value


def _given(**values) -> dict:
    """The values that flags or the config file set (the others are None),
    so that the library's defaults fill in the rest."""
    return {key: value for key, value in values.items() if value is not None}


def _takes(constructor, name: str) -> bool:
    # a wrapper that forwards **kwargs passes any keyword on
    params = inspect.signature(constructor).parameters.values()
    return any(p.name == name or p.kind is p.VAR_KEYWORD for p in params)


def _resolve_problem(args: argparse.Namespace, default_example: int,
                     keys: tuple[str, ...] = _PARAMETER_KEYS) -> tuple[ProblemSpec, dict]:
    """Build the chosen example from the parameter flags in ``keys`` that
    the user set.

    The example's constructor fills in every parameter not given, so its
    defaults are the only ones; a given flag the example does not take is
    an error.  The returned manifest parameters are the example number and
    the problem's own record of the values it was built with.
    """
    example = _resolve(args, "example", default_example)
    constructor = {1: example1, 2: example2, 3: example3, 4: example4,
                   5: example5}[example]
    given = _given(**{_dest(key): getattr(args, _dest(key)) for key in keys})
    for key in keys:
        if _dest(key) in given and not _takes(constructor, _dest(key)):
            raise CliError(f"--{key} does not apply to example {example}")
    try:
        problem = constructor(**given)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return problem, {"example": example, **problem.parameters}


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
    snapshots = _parse_list(_resolve(args, "snapshots", ""), "snapshot", float)
    result = _solve_checked(problem, cfg)
    files = {f"snapshot_t{t:g}.csv": _snapshot_csv(result, t) for t in snapshots}
    manifest = {
        "command": "run", "problem": problem.name,
        "parameters": {**params, **_solver_params(cfg)},
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


def _solver_flags(args: argparse.Namespace) -> dict:
    return _given(n=args.n, k=args.k, m=_parse_single_m(args),
                  rank_reduction=args.rank_reduction)


def cmd_converge_time(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    problem, params = _resolve_problem(args, default_example=1)
    example = params["example"]
    default_steps = "0.01,0.005,0.0025" if example == 3 else "0.02,0.01"
    default_T = 0.05 if example == 3 else 0.1
    steps = _parse_list(_resolve(args, "steps", default_steps), "step", float)
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
    N_values = _parse_list(_resolve(args, "N", "12,24,48,96"), "N", int)
    m_values = _parse_list(_resolve(args, "m", "12,24"), "m", int)
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
    # the speed is this command's own setting, applied to any example
    problem, params = _resolve_problem(args, default_example=4,
                                       keys=("lambda", "sigma", "mu", "c"))
    if params["example"] == 5:
        # its kernel holds the speed, so it has no undelayed twin to compare
        raise CliError("compare-delay does not apply to example 5: its kernel "
                       "is built for one transmission speed (use run --v)")
    v = _resolve(args, "v", 1.0)
    if not math.isfinite(v) or v <= 0:
        raise CliError("compare-delay needs a finite positive transmission speed (--v)")
    delayed = dataclasses.replace(problem, v=v, exact=None)
    undelayed = dataclasses.replace(problem, v=math.inf, exact=None)
    cfg = SolverConfig(h_t=_resolve(args, "ht", 0.1), T=_resolve(args, "T", 2.0),
                       **_solver_flags(args))
    snapshots = _parse_list(_resolve(args, "snapshots", "0.5,1,1.5,2"), "snapshot", float)
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
        "parameters": {**params, "v": v, **_solver_params(cfg), "norm": norm},
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


# subcommand -> (handler, help, the settings it takes besides _COMMON_KEYS).
# converge-time takes its steps from --steps, converge-space its n from N / k
# and always runs the rank-reduced operator, so neither takes those settings.
_COMMANDS = {
    "run": (cmd_run, "solve one problem and write snapshots",
            ("ht", "n", "rank-reduction", "snapshots")),
    "converge-time": (cmd_converge_time, "error versus time step",
                      ("n", "rank-reduction", "norm", "steps")),
    "converge-space": (cmd_converge_space, "error versus grid resolution",
                       ("ht", "norm", "N")),
    "compare-delay": (cmd_compare_delay, "finite versus infinite speed",
                      ("ht", "n", "rank-reduction", "norm", "snapshots")),
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            _load_config_file(args.config, args)
        return _COMMANDS[args.command][0](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
