"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload delay_n48 --seed 1 --seconds 30 --trace 0

Runs from a source checkout: ``neurofield`` is imported from the ``src/``
directory next to this one and from nowhere else; without it the run exits
with code 2 before measuring anything.  One process, one caller, closed
loop: each call starts when the previous one has returned.

--trace 0 prints the end-to-end metrics:
  wall_ref     wall time of one workload call in reference units: the mean
               time of the timed calls over the mean time of one unit of
               the workload's own reference computation (``reference``),
               run in a block around every call (half before, half after)
               that lasts half as long as the call, so that a host that
               slows or speeds up over the run moves both and not their
               ratio;
  setup_s      median time of the workload's solves with T = 0 (everything
               before the first time step), in seconds;
  peak_mem_mb  tracemalloc peak of one call, in a pass of its own that also
               serves as warm-up.
After that pass and one plain warm-up call, calls and set-ups alternate
(``calls_per_setup`` calls to a set-up) until --seconds have passed, in an
order shuffled by --seed; the inputs themselves are fixed.  The calls'
own wall times, in seconds, are in the statistics on the line before the
result.

--trace 1 makes one warm-up call, then alternates untraced and traced
calls in the same way and prints the per-layer metrics of
``workloads.PER_LAYER`` (medians over the traced calls) and the tracing
overhead: the median, over blocks, of traced minus untraced wall time.

Every call's output is checked; a failed check or an exception counts as a
failed operation.  The line before the last holds the environment and the
sample statistics; the same record, with the spans of traced calls, is
written to benchmarks/out/.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The reference block around each call lasts about REF_SHARE of the call.
REF_SHARE = 0.5
REF_CALIBRATION_UNITS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _one_blas_thread() -> None:
    """One BLAS thread; must run before numpy is imported.

    The benchmark is a single caller on a few shared cores: a second BLAS
    thread would make every BLAS call wait for the slower of two cores
    that neighbours load independently.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _import_package() -> SimpleNamespace:
    init = ROOT / "src" / "neurofield" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no neurofield sources at {init.parent}")
    sys.path.insert(0, str(init.parent.parent))
    mods = {m: importlib.import_module(f"neurofield.{m}")
            for m in ("cli", "solver", "problems", "analysis")}
    loaded = Path(sys.modules["neurofield"].__file__).resolve()
    if loaded != init.resolve():
        raise ImportError(f"neurofield imported from {loaded}, not from {init}")
    return SimpleNamespace(**mods)


def _blas_threads(np):
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _environment(np, nproc: int, seed: int) -> dict:
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np),
            "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "git_commit": _git_commit(), "seed": seed}


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))
            print("check failed: " + self.failures[-1], file=sys.stderr)


def _checked_call(wl, nf, tally: Tally, around=None):
    """One workload call timed from outside, then checked.

    ``around`` is a context manager entered just around the call.  Returns
    (seconds, output summary), or None if the call raised or failed its
    check.
    """
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        gc.collect()
        try:
            with around or contextlib.nullcontext():
                t0 = time.perf_counter()
                raw = wl.call(nf, workdir)
                elapsed = time.perf_counter() - t0
            summary = wl.summarize(raw, workdir)
            problems = wl.check(summary)
        except Exception as exc:  # a failing call is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        tally.record(problems)
    return None if problems else (elapsed, summary)


def _checked_setup(wl, nf, rng, tally: Tally):
    gc.collect()
    try:
        t0 = time.perf_counter()
        wl.setup(nf, rng)
        elapsed = time.perf_counter() - t0
        problems = []
    except Exception as exc:  # a failing set-up is counted, not fatal
        problems = [f"{type(exc).__name__}: {exc}"]
    tally.record(problems)
    return None if problems else elapsed


@contextlib.contextmanager
def _traced_memory(peaks: list):
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def _blocks(deadline: float, rng: random.Random, kinds: tuple[str, ...]):
    """Yield the kinds in blocks, order shuffled per block, while a block
    as long as the last one still ends before ``deadline``."""
    last = 0.0
    first = True
    while first or time.perf_counter() + last <= deadline:
        first = False
        start = time.perf_counter()
        order = list(kinds)
        rng.shuffle(order)
        yield from order
        last = time.perf_counter() - start


def _stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "min": min(values), "max": max(values)}


def _untraced(wl, nf, args, rng, tally):
    import reference

    peaks: list[int] = []
    if _checked_call(wl, nf, tally, _traced_memory(peaks)) is None:
        peaks.clear()  # the peak of a failed call is not a measurement
    warm = _checked_call(wl, nf, tally)
    if warm is None:
        return None, {}
    per_unit = reference.time_units(wl.reference, REF_CALIBRATION_UNITS) / REF_CALIBRATION_UNITS
    half = max(1, round(REF_SHARE * warm[0] / per_unit / 2))
    units = 2 * half
    deadline = time.perf_counter() + args.seconds
    walls, refs, setups = [], [], []
    for kind in _blocks(deadline, rng, ("wall",) * wl.calls_per_setup + ("setup",)):
        if kind == "wall":
            # half the block before the call and half after, so that the
            # block is centred on the call and a steady drift cancels
            ref = reference.time_units(wl.reference, half)
            got = _checked_call(wl, nf, tally)
            ref += reference.time_units(wl.reference, half)
            if got is not None:
                walls.append(got[0])
                refs.append(ref)
        else:
            got = _checked_setup(wl, nf, rng, tally)
            if got is not None:
                setups.append(got)
    if not (walls and setups and peaks):
        return None, {}
    metrics = {"wall_ref": {"value": reference.in_units(walls, refs, [units] * len(refs)),
                            "unit": "ref-unit"},
               "setup_s": {"value": statistics.median(setups), "unit": "s"},
               "peak_mem_mb": {"value": peaks[0] / 1e6, "unit": "MB"}}
    samples = {"wall_s": walls, "ref_block_s": refs, "setup_s": setups}
    return metrics, {"samples": samples, "ref_units_per_block": units,
                     "stats": {name: _stats(v) for name, v in samples.items()}}


def _traced(wl, nf, args, rng, tally):
    from spans import Tracer, aggregate, instrumented
    from workloads import PER_LAYER, TARGETS, TRACE_OVERHEAD, layer_values

    deadline = time.perf_counter() + args.seconds
    _checked_call(wl, nf, tally)
    # one entry per block in each list, None where the call failed
    plain, traced = [], []
    values, spans, absent, top_self = [], [], set(), None
    for kind in _blocks(deadline, rng, ("plain", "traced")):
        if kind == "plain":
            got = _checked_call(wl, nf, tally)
            plain.append(None if got is None else got[0])
            continue
        tracer = Tracer()
        got = _checked_call(wl, nf, tally, instrumented(tracer, TARGETS))
        absent.update(tracer.absent)
        traced.append(None if got is None else got[0])
        if got is None:
            continue
        tracer.count("cli.bytes_written", got[1].get("bytes_written", 0))
        values.append(layer_values(tracer))
        spans.append([asdict(s) for s in tracer.spans])
        if top_self is None:
            rows = aggregate(tracer.spans)
            top_self = sorted(([name, row["self_s"]] for name, row in rows.items()),
                              key=lambda r: -r[1])[:6]
    # overhead from pairs in the same block, which share the machine's state
    pairs = [t - p for p, t in zip(plain, traced) if p is not None and t is not None]
    if not pairs:
        return None, {}
    metrics = {}
    for name, unit in PER_LAYER:
        value = (statistics.median(pairs) if name == TRACE_OVERHEAD
                 else statistics.median(v[name] for v in values))
        metrics[name] = {"value": value, "unit": unit}
    return metrics, {"untraced_wall_s": _stats([p for p in plain if p is not None]),
                     "traced_wall_s": _stats([t for t in traced if t is not None]),
                     "absent": sorted(absent), "top_self_s": top_self, "spans": spans}


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = len(os.sched_getaffinity(0))
    _one_blas_thread()
    try:
        nf = _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    tally = Tally()
    run = _traced if args.trace else _untraced
    metrics, detail = run(wl, nf, args, rng, tally)
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "environment": _environment(np, nproc, args.seed),
              "failures": tally.failures, **detail}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    if metrics is None:
        print(f"error: no successful {wl.name} call to measure", file=sys.stderr)
        return 1
    record.pop("spans", None)
    record.pop("samples", None)
    print(json.dumps(record))
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
