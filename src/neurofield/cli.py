"""Command-line front end.

Four subcommands: ``run`` solves one problem and writes field snapshots,
``converge-time`` and ``converge-space`` drive the convergence studies,
``compare-delay`` runs a problem twice, with finite and infinite
transmission speed, and reports both fields.  Every command writes its
outputs into an existing directory given by --out: CSV files with a fixed
17-significant-digit format (so runs are bit-reproducible) plus a JSON
manifest recording the problem's own parameters, the solver settings all
its solves shared (``analysis.solver_settings``) and the wall time of the
whole command.  ``run`` and ``compare-delay`` also record each solve as
``SolveResult.record()`` gives it, the one definition of a solve's record.

Each ``cmd_*`` function maps the parsed settings to the files it would
write, the manifest and the message for stdout, and raises on failure;
``main`` alone checks --out, times the command, writes the files and
prints.  A ``CliError``, or a ``ValueError`` or ``RuntimeError`` from the
library, ends the command with ``error: <message>`` on stderr, exit
status 1 and no files written.

Settings come from flags or from a plain key=value config file
(--config) whose keys are the flag names; flags override the file.  An
on/off setting is one key and two flags, --key and --no-key.  Both
are defined once, in ``_SETTINGS``, so a file value passes the same type
and choice checks as its flag.  A subcommand takes only the settings it
reads (``_COMMANDS``); another one is an error, as a flag or a key, and
so is an m for solves without rank reduction, which read none.
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

from .analysis import (NORMS, field_norm, solver_settings, space_convergence_study,
                       time_convergence_study)
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


# Every setting, keyed by its config-file key, with the add_argument
# keywords of its flag --key (an on/off setting also has --no-key).  A file
# value is converted by "file_type" (else "type") and checked against the
# same choices as the flag.
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
    "norm": {"choices": NORMS},
    "out": {"help": "existing output directory"},
    "rank-reduction": {"dest": "rank_reduction", "action": argparse.BooleanOptionalAction,
                       "file_type": _parse_bool, "help": "apply the operator in reduced rank"},
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


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  Given one subcommand's name, only
    that subparser gets its flags; the top-level usage, help and errors
    read none of them, so they are the same either way."""
    parser = argparse.ArgumentParser(
        prog="neurofield",
        description="Neural field equation solver and convergence studies")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        for key in _command_keys(name):
            keywords = {kw: value for kw, value in _SETTINGS[key].items()
                        if kw != "file_type"}
            sub.add_argument("--" + key, default=None, **keywords)
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
    problem = constructor(**given)
    return problem, {"example": example, **problem.parameters}


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out is None:
        raise CliError("no output directory given (--out)")
    out = Path(args.out)
    if not out.is_dir():
        raise CliError(f"output directory {out} does not exist")
    return out


def _snapshot_csv(result: SolveResult, t: float) -> str:
    p1, p2 = result.grid.flat_points()
    lines = ["x1,x2,V"]
    for a, b, value in zip(p1, p2, result.state_at(t).values):
        lines.append(f"{_FMT % a},{_FMT % b},{_FMT % value}")
    return "\n".join(lines) + "\n"


def _snapshot_stem(t: float) -> str:
    return f"snapshot_t{t:g}"


def _check_snapshots(cfg: SolverConfig, snapshots: list[float]) -> None:
    """Raise before any solve if a snapshot time is not one of the run's
    levels, or if two times would write one file: the file names keep six
    significant digits, so equal times and times closer than that clash."""
    stems: dict[str, float] = {}
    for t in snapshots:
        cfg.stored_level(t)
        stem = _snapshot_stem(t)
        if stem in stems:
            raise CliError(f"snapshot times {stems[stem]!r} and {t!r} both name their "
                           f"files {stem}")
        stems[stem] = t


def _write_all(out: Path, files: dict[str, str], manifest: dict) -> None:
    """Write every output at once, after all computation has succeeded."""
    for name, content in files.items():
        (out / name).write_text(content)
    text = json.dumps(manifest, indent=2, default=dataclasses.asdict)
    (out / "manifest.json").write_text(text + "\n")


# A command's outcome: the files to write besides manifest.json, the
# manifest without its wall time, and the text for stdout.
_Outcome = tuple[dict[str, str], dict, str]


def cmd_run(args: argparse.Namespace) -> _Outcome:
    problem, params = _resolve_problem(args, default_example=1)
    cfg = SolverConfig(h_t=_resolve(args, "ht", 0.01), T=_resolve(args, "T", 0.1),
                       **_solver_flags(args, SolverConfig))
    snapshots = _parse_list(_resolve(args, "snapshots", ""), "snapshot", float)
    _check_snapshots(cfg, snapshots)
    result = solve(problem, cfg, keep=snapshots)
    files = {f"{_snapshot_stem(t)}.csv": _snapshot_csv(result, t) for t in snapshots}
    manifest = {
        "command": "run", "problem": problem.name,
        "parameters": {**params, **solver_settings([cfg])},
        "snapshots": snapshots,
        **result.record(),
    }
    return files, manifest, f"wrote {len(files)} snapshot(s) and manifest.json to {Path(args.out)}"


def _parse_single_m(args: argparse.Namespace) -> Optional[int]:
    if args.m is None:
        return None
    try:
        return int(args.m)
    except (TypeError, ValueError):
        raise CliError(f"expected a single interpolation order, got {args.m!r}") from None


def _solver_flags(args: argparse.Namespace, target: Callable) -> dict:
    """The solver settings given, as keywords for ``target`` (SolverConfig
    or a study), whose own rank_reduction default stands where none is
    given.  Solves without rank reduction read no interpolation order, so
    --m given to them is an error."""
    flags = _given(n=args.n, k=args.k, m=_parse_single_m(args),
                   rank_reduction=args.rank_reduction)
    default = inspect.signature(target).parameters["rank_reduction"].default
    if "m" in flags and not flags.get("rank_reduction", default):
        raise CliError("--m does not apply without rank reduction")
    return flags


def cmd_converge_time(args: argparse.Namespace) -> _Outcome:
    problem, params = _resolve_problem(args, default_example=1)
    example = params["example"]
    default_steps = "0.01,0.005,0.0025" if example == 3 else "0.02,0.01"
    default_T = 0.05 if example == 3 else 0.1
    steps = _parse_list(_resolve(args, "steps", default_steps), "step", float)
    study = time_convergence_study(problem, steps, T=_resolve(args, "T", default_T),
                                   **_solver_flags(args, time_convergence_study),
                                   **_given(norm=args.norm))
    report, text = study.report(), study.to_text()
    files = {"report.csv": report.to_csv(), "report.txt": text + "\n"}
    manifest = {
        "command": "converge-time", "problem": problem.name,
        "parameters": {**params, **solver_settings(study.configs),
                       "steps": study.steps, "norm": study.norm},
        "rows": report.rows,
    }
    return files, manifest, text


def cmd_converge_space(args: argparse.Namespace) -> _Outcome:
    problem, params = _resolve_problem(args, default_example=2)
    N_values = _parse_list(_resolve(args, "N", "12,24,48,96"), "N", int)
    m_values = _parse_list(_resolve(args, "m", "12,24"), "m", int)
    study = space_convergence_study(problem, N_values, m_values,
                                    **_given(k=args.k, h_t=args.ht, T=args.T, norm=args.norm))
    text = study.to_text()
    files = {"report.txt": text + "\n"}
    rows = {}
    for m, report in study.reports().items():
        files[f"report_m{m}.csv"] = report.to_csv()
        rows[str(m)] = report.rows
    manifest = {
        "command": "converge-space", "problem": problem.name,
        "parameters": {**params, **solver_settings(study.configs),
                       "N": study.N_values, "m": study.m_values, "norm": study.norm},
        "rows": rows,
    }
    return files, manifest, text


def cmd_compare_delay(args: argparse.Namespace) -> _Outcome:
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
                       **_solver_flags(args, SolverConfig))
    snapshots = _parse_list(_resolve(args, "snapshots", "0.5,1,1.5,2"), "snapshot", float)
    _check_snapshots(cfg, snapshots)
    res_d = solve(delayed, cfg, keep=snapshots)
    res_u = solve(undelayed, cfg, keep=snapshots)
    norm = _resolve(args, "norm", NORMS[0])
    files: dict[str, str] = {}
    summary = ["t,delayed,undelayed"]
    lines = []
    for t in snapshots:
        files[f"{_snapshot_stem(t)}_delayed.csv"] = _snapshot_csv(res_d, t)
        files[f"{_snapshot_stem(t)}_undelayed.csv"] = _snapshot_csv(res_u, t)
        nd = field_norm(res_d.grid, res_d.state_at(t).values, norm)
        nu = field_norm(res_u.grid, res_u.state_at(t).values, norm)
        summary.append(f"{_FMT % t},{_FMT % nd},{_FMT % nu}")
        lines.append(f"t={t:g}: delayed {norm}-norm {nd:.6e}, undelayed {nu:.6e}")
    files["summary.csv"] = "\n".join(summary) + "\n"
    manifest = {
        "command": "compare-delay", "problem": problem.name,
        "parameters": {**params, "v": v, **solver_settings([cfg]), "norm": norm},
        "snapshots": snapshots,
        "solves": {"delayed": res_d.record(), "undelayed": res_u.record()},
    }
    return files, manifest, "\n".join(lines)


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
    argv = sys.argv[1:] if argv is None else argv
    # only the named subcommand's flags are needed to parse its arguments;
    # without one (none given, help, an unknown name) every command is built
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        if args.config is not None:
            _load_config_file(args.config, args)
        out = _out_dir(args)
        t0 = time.perf_counter()
        files, manifest, message = _COMMANDS[args.command][0](args)
        manifest["wall_time"] = time.perf_counter() - t0
    except (CliError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_all(out, files, manifest)
    if message:  # compare-delay without snapshots prints nothing
        print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
