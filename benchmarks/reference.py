"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same call can take half as long again from one
minute to the next, as neighbours load the cores, caches and memory, and a
pure-Python loop slows as much as the package does.  The benchmark
therefore runs a block of reference units around every timed workload
call, half before and half after it, so that the calls and the units sample the same states of
the host, and reports the calls' time in multiples of the units' time:
a slower host slows both and their ratio stays put, while a change to the
package moves the calls and not the units.

Each workload has its own unit, a frozen copy of the kind of work its
call spends most of its time on, at the same array sizes, on fixed
inputs, so that the unit's working set sits in the same caches and feels
a neighbour as much as the call does:
- ``pairs``: pair distances and a Gaussian kernel over one chunk of the
  N = 96 pair scan, then the weighted sum of squares (space_cli);
- ``gather``: the row-by-row copy of the history stack, the delayed
  gather with linear interpolation between history levels, a tanh and
  the row-wise weighted sum, at m = 12 and N = 48 with 143 history levels
  (delay_n48);
- ``dense``: the N = 32 pair table and a few dense matrix-vector products
  with it (direct_n32).
Units import nothing from the package, so no change to the package moves
them.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20150827)

_PAIR_E = _rng.random((2, 512))
_PAIR_P = _rng.random((2, 96 * 96))
_PAIR_W = _rng.random(96 * 96)

_GATHER_LEVELS, _GATHER_E, _GATHER_P = 143, 144, 48 * 48
_GATHER_HIST = _rng.random((_GATHER_LEVELS, _GATHER_P))
_GATHER_ROWS = {level: row.copy() for level, row in enumerate(_GATHER_HIST)}
_GATHER_J = _rng.integers(0, _GATHER_LEVELS - 1, (_GATHER_E, _GATHER_P))
_GATHER_DELTA = _rng.random((_GATHER_E, _GATHER_P))
_GATHER_COLS = np.arange(_GATHER_P)[None, :]
_GATHER_W = _rng.random((_GATHER_E, _GATHER_P))

_DENSE_P = _rng.random((2, 32 * 32))
_DENSE_W = _rng.random(32 * 32)
_DENSE_X = _rng.random(32 * 32)


def _pairs() -> float:
    d = np.hypot(_PAIR_E[0][:, None] - _PAIR_P[0][None, :],
                 _PAIR_E[1][:, None] - _PAIR_P[1][None, :])
    kv = np.exp(-5.0 * d * d)
    return float(np.max(np.abs(kv))) + float(_PAIR_W[:512] @ (kv * kv) @ _PAIR_W)


def _gather() -> float:
    # the history stack is copied row by row from a dict, as the solver's
    # history buffer does before every delayed application
    hist = np.empty_like(_GATHER_HIST)
    for level in range(_GATHER_LEVELS):
        hist[level] = _GATHER_ROWS[level]
    j = _GATHER_J
    lagged = (_GATHER_DELTA * hist[j, _GATHER_COLS]
              + (1.0 - _GATHER_DELTA) * hist[j + 1, _GATHER_COLS])
    return float(np.einsum("pq,pq->p", _GATHER_W, np.tanh(lagged)).sum())


def _dense() -> float:
    p1, p2 = _DENSE_P
    d = np.hypot(p1[:, None] - p1[None, :], p2[:, None] - p2[None, :])
    kw = np.exp(-d * d) * _DENSE_W[None, :]
    x = _DENSE_X
    for _ in range(4):
        x = np.tanh(kw @ x)
    return float(x.sum())


UNITS = {"pairs": _pairs, "gather": _gather, "dense": _dense}


def time_units(name: str, units: int) -> float:
    """Wall time of ``units`` consecutive runs of the unit ``name``."""
    unit = UNITS[name]
    t0 = time.perf_counter()
    for _ in range(units):
        unit()
    return time.perf_counter() - t0


def in_units(call_seconds: list[float], ref_seconds: list[float], ref_units: list[int]) -> float:
    """Mean call time over mean unit time, both pooled over the run.

    Pooling integrates the host's fast and slow spells over the whole run
    in both the numerator and the denominator, which a ratio of medians
    does not: with the host flipping between two speeds, a median jumps
    between them.
    """
    mean_call = sum(call_seconds) / len(call_seconds)
    mean_unit = sum(ref_seconds) / sum(ref_units)
    return mean_call / mean_unit
