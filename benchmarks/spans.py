"""In-memory span recording around the package's functions, from outside.

A traced workload call replaces selected module attributes with wrappers
that record a span (name, start, end, parent) per call, runs, and puts the
originals back.  Each function is wrapped where the calling module looks it
up (``neurofield.solver.compute_kernel_norms``, not only the defining
module), because ``from x import f`` binds a separate name in the caller.
A target whose attribute no longer exists is reported as absent, so a later
refactor that removes a function does not break the trace.

Self time of a span is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

_MARK = "__bench_instrumented__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Span list and named counters of one traced call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._open: list[int] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, fn: Callable, span: Optional[str],
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``span`` (None: no span) and passing
        its result to ``on_result(tracer, result)``."""

        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                record = Span(span, time.perf_counter(), float("nan"),
                              self._open[-1] if self._open else None)
                self.spans.append(record)
                self._open.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record.end = time.perf_counter()
                    self._open.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def counting(self, fn: Callable, counter: str) -> Callable:
        """``fn`` adding the element count of its first argument to ``counter``."""

        def wrapper(x, *args, **kwargs):
            self.count(counter, getattr(x, "size", 1))
            return fn(x, *args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper


@dataclass(frozen=True)
class Target:
    """Attribute ``attr`` of the object at dotted path ``owner`` to wrap."""

    owner: str
    attr: str
    span: Optional[str]
    on_result: Optional[Callable] = None


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


@contextmanager
def instrumented(tracer: Tracer, targets: list[Target]) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block.

    Targets that do not exist are skipped and listed, as ``owner.attr``, in
    ``tracer.absent``.  The original attributes are restored on exit.
    """
    saved: list[tuple[object, str, object]] = []
    missing = object()
    try:
        for t in targets:
            owner = _resolve(t.owner)
            original = getattr(owner, t.attr, None) if owner is not None else None
            if original is None:
                tracer.absent.append(f"{t.owner}.{t.attr}")
                continue
            saved.append((owner, t.attr, vars(owner).get(t.attr, missing)))
            setattr(owner, t.attr, tracer.wrap(original, t.span, t.on_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def already_instrumented(fn: Callable) -> bool:
    return getattr(fn, _MARK, False)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [(s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total inclusive seconds ``s``, ``self_s`` and ``calls``."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += s.end - s.start
        row["self_s"] += own
        row["calls"] += 1
    return out
