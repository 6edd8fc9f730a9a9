"""Problem definitions for the neural field solver.

A problem bundles the ingredients of the field equation

    c * dV/dt(x, t) = I(x, t) - V(x, t) + integral over the domain of
                      K(|x - y|) * S(V(y, t - |y - x| / v)) dy

on a rectangular domain: decay time constant c, connectivity kernel K as a
function of distance, firing-rate function S, external input I, initial
state V0 and transmission speed v (infinite v switches the delay off).

Five ready-made problems are provided.  Examples 1-3 are one family of
manufactured solutions, used for convergence measurements: pick the exact
solution V(x, t) = a(t) g(x), with g a Gaussian bump or 1 and the kernel a
Gaussian, and take the input that makes it solve the equation
(_product_solution).  Example 4 adds a finite transmission speed to
example 3 and has no closed form.  Example 5 builds a delay-compensated
kernel on example 3, under which example 3's solution still holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

import numpy as np
from scipy.special import erf

from .quadrature import Rectangle, SpatialGrid

__all__ = [
    "ProblemSpec",
    "KernelNorms",
    "example1",
    "example2",
    "example3",
    "example4",
    "example5",
    "kernel_box_integral",
    "compute_kernel_norms",
    "kernel_norms_bytes",
]

DEFAULT_DOMAIN = Rectangle(-1.0, 1.0, -1.0, 1.0)


@dataclass
class ProblemSpec:
    """Complete description of one neural field problem.

    ``kernel`` maps distance arrays to connectivity values: it may return
    anything that broadcasts to its argument (a scalar, say), and every
    value must be finite; the solver reads it only through kernel_values.
    ``firing_rate`` maps field values to rates and must return an array of
    its argument's shape; the solver reads it only through rate_values,
    which checks that shape on every call, and only on flat vectors, a
    window of history rows included.  ``input_current``, ``initial``
    and the optional known solution ``exact`` map ``(x1, x2, t)`` to field
    values: they get two axes, a column ``x1[:, None]`` and a row
    ``x2[None, :]``, and may return anything that broadcasts to the full
    tensor (a scalar, say).
    ``initial`` must accept any t <= 0 so delayed problems can read their
    history.
    ``firing_rate_slope_max`` bounds |S'| and feeds the step-size
    diagnostics; ``v`` is the transmission speed, ``math.inf`` for an
    undelayed problem; c and firing_rate_slope_max are finite and positive.
    Whether the kernel separates by axes is read off its values on the grid
    (KernelNorms.separable), not declared.
    """

    name: str
    domain: Rectangle
    c: float
    kernel: Callable[[np.ndarray], np.ndarray]
    firing_rate: Callable[[np.ndarray], np.ndarray]
    firing_rate_slope_max: float
    input_current: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    v: float = math.inf
    exact: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None
    parameters: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 < self.c < math.inf:
            raise ValueError(f"time constant c must be positive and finite, got {self.c}")
        if not self.v > 0:
            raise ValueError(f"transmission speed v must be positive, got {self.v}")
        if not 0 < self.firing_rate_slope_max < math.inf:
            raise ValueError(f"firing_rate_slope_max must be positive and finite, "
                             f"got {self.firing_rate_slope_max}")

    def kernel_values(self, r: np.ndarray) -> np.ndarray:
        """K at the distances r, as a writable float array of r's shape: the
        kernel's own array when it is one, else a broadcast copy.
        ValueError if a value is not finite."""
        kv = np.asarray(self.kernel(r), dtype=float)
        if kv.shape != r.shape or not kv.flags.writeable:
            kv = np.broadcast_to(kv, r.shape).copy()
        if not np.all(np.isfinite(kv)):
            raise ValueError(f"kernel {self.name!r} produced a non-finite value")
        return kv

    def rate_values(self, u: np.ndarray) -> np.ndarray:
        """S at the field values u, as a float array of u's shape.
        ValueError, naming both shapes, if the rate returns another shape."""
        s = np.asarray(self.firing_rate(u), dtype=float)
        if s.shape != u.shape:
            raise ValueError(f"firing_rate returned shape {s.shape} for field values of "
                             f"shape {u.shape}; it must return its argument's shape")
        return s

    @property
    def has_delay(self) -> bool:
        return math.isfinite(self.v)

    @property
    def tau_max(self) -> float:
        """Largest transmission delay between two points of the domain."""
        return 0.0 if not self.has_delay else self.domain.diameter / self.v


def kernel_box_integral(lam: float, x1, x2, domain: Rectangle = DEFAULT_DOMAIN,
                        mu: float = 0.0) -> np.ndarray:
    """Integral of exp(-lam * |x - y|^2) * exp(-mu * |y|^2) over y in the domain.

    Both factors separate per axis.  Completing the square in y, with
    s = lam + mu and x0 = (lam / s) x,

        lam (x - y)^2 + mu y^2 = s (y - x0)^2 + (lam mu / s) x^2,

    so each axis factor is an error-function difference:

        int_a^b exp(-lam (x - y)^2 - mu y^2) dy
            = 0.5 * sqrt(pi / s) * exp(-(lam mu / s) x^2)
              * (erf(sqrt(s) (b - x0)) + erf(sqrt(s) (x0 - a)))

    and the result is pi / (4 s) times the product of the two bracketed
    factors.  At mu = 0 the weight factor is exactly 1 and x0 exactly x.

    The factors of both axes are formed in one pass over one vector, x1's
    coordinates then x2's, each with its own axis's bounds: one erf call
    for all 2 (x1.size + x2.size) arguments and one exp for the weights.
    Every element takes the IEEE operations of the formula above, in its
    order, so the values are those of evaluating it axis by axis.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    s = lam + mu
    r = math.sqrt(s)
    n1, n2 = x1.size, x2.size
    x = np.empty(n1 + n2)
    x[:n1], x[n1:] = x1.ravel(), x2.ravel()
    x0 = (lam / s) * x
    # each point's own axis bounds, b in row hi and a in row lo; then b - x0 and x0 - a
    z = np.array((domain.b1, domain.b2, domain.a1, domain.a2), dtype=float)
    z = z.repeat((n1, n2, n1, n2)).reshape(2, -1)
    hi, lo = z
    np.subtract(hi, x0, out=hi)
    np.subtract(x0, lo, out=lo)
    z *= r
    erf(z, out=z)
    f = np.exp(-(lam * mu / s) * x * x)
    f *= hi + lo
    return (math.pi / (4.0 * s)) * f[:n1].reshape(x1.shape) * f[n1:].reshape(x2.shape)


def _product_solution(name: str, lam: float, c: float, domain: Rectangle, *,
                      a: Callable[[float], float],
                      drive: Optional[Callable[[float], float]],
                      rate: Callable[[np.ndarray], np.ndarray],
                      scalar_rate: Callable[[float], float], slope: float,
                      mu: Optional[float] = None, parameters: dict) -> ProblemSpec:
    """The problem with the Gaussian kernel exp(-lam r^2) whose exact
    solution is V(x, t) = a(t) g(x): g(x) = exp(-mu |x|^2), or g = 1 for
    mu None.

    The firing rate S must satisfy S(a g) = s(a) g, with ``scalar_rate`` s:
    tanh with g = 1, or the linear rate.  The integral term is then
    s(a(t)) kernel_box_integral(lam, x, mu), and the input

        I(x, t) = (c a' + a)(t) g(x) - s(a(t)) kernel_box_integral(lam, x, mu)

    makes V solve the equation.  ``drive`` is c a' + a, added as a scalar
    and so only with g = 1, or None where it vanishes (a = exp(-t / c)).
    The input divides by lam (+ mu) and takes its root, so that must be
    finite and positive.  The history at every t <= 0 is V(x, 0).
    """
    rate_sum = lam if mu is None else lam + mu
    if not (math.isfinite(rate_sum) and rate_sum > 0):
        raise ValueError(f"the closed-form input needs a finite positive "
                         f"{'lambda' if mu is None else 'lambda + mu'}, got {rate_sum}")
    weight = 0.0 if mu is None else mu

    def g(x1, x2, t=None):  # t unused: g is the history where a(0) = 1
        x1 = np.asarray(x1, dtype=float)
        if mu is None:  # ones in x1's shape, not a full grid
            return np.ones_like(x1)
        x2 = np.asarray(x2, dtype=float)
        return np.exp(-mu * (x1 * x1 + x2 * x2))

    def input_current(x1, x2, t):
        s = scalar_rate(a(t))
        mass = kernel_box_integral(lam, x1, x2, domain, mu=weight)
        return -s * mass if drive is None else drive(t) - s * mass

    a0 = a(0.0)  # no product per call where a(0) = 1: the history scan calls it often
    initial = g if a0 == 1.0 else lambda x1, x2, t: a0 * g(x1, x2)
    return ProblemSpec(
        name=name, domain=domain, c=c, kernel=lambda r: np.exp(-lam * r * r),
        firing_rate=rate, firing_rate_slope_max=slope, input_current=input_current,
        initial=initial, exact=lambda x1, x2, t: a(t) * g(x1, x2), parameters=parameters)


def example1(lam: float = 1.0, sigma: float = 1.0, c: float = 1.0,
             domain: Rectangle = DEFAULT_DOMAIN) -> ProblemSpec:
    """Gaussian kernel, tanh firing rate, spatially uniform exact solution
    V(x, t) = exp(-t / c)."""
    return _product_solution(
        "example1", lam, c, domain, a=lambda t: math.exp(-t / c), drive=None,
        rate=lambda u: np.tanh(sigma * u), scalar_rate=lambda u: math.tanh(sigma * u),
        slope=sigma, parameters={"lambda": lam, "sigma": sigma, "c": c})


def example2(lam: float = 1.0, sigma: float = 1.0,
             domain: Rectangle = DEFAULT_DOMAIN) -> ProblemSpec:
    """Gaussian kernel, tanh firing rate, exact solution V = t, c = 1.

    The solution is linear in time, so both the two-step scheme and its
    bootstrap step reproduce it exactly and any measured error is purely
    spatial.  The time constant is pinned to 1, so the drive c a' + a is
    1 + t.
    """
    c = 1.0
    return _product_solution(
        "example2", lam, c, domain, a=lambda t: t, drive=lambda t: c + t,
        rate=lambda u: np.tanh(sigma * u), scalar_rate=lambda u: math.tanh(sigma * u),
        slope=sigma, parameters={"lambda": lam, "sigma": sigma, "c": c})


def example3(lam: float = 1.0, mu: float = 1.0, c: float = 1.0,
             domain: Rectangle = DEFAULT_DOMAIN) -> ProblemSpec:
    """Gaussian kernel, linear firing rate, Gaussian-bump exact solution
    V(x, t) = exp(-t / c) exp(-mu |x|^2).

    The input's integral of the kernel against the bump is the weighted
    kernel_box_integral, one erf pair per coordinate on the solver's two
    axes, so it is evaluated afresh at every step.  lam = 0 (a constant
    kernel) is allowed as long as lam + mu > 0.
    """
    return _product_solution(
        "example3", lam, c, domain, a=lambda t: math.exp(-t / c), drive=None,
        rate=lambda u: np.asarray(u, dtype=float), scalar_rate=lambda u: u,
        slope=1.0, mu=mu, parameters={"lambda": lam, "mu": mu, "c": c})


def example4(lam: float = 1.0, mu: float = 1.0, c: float = 1.0, v: float = 1.0,
             domain: Rectangle = DEFAULT_DOMAIN) -> ProblemSpec:
    """The third problem with a finite transmission speed.

    The input and initial state are unchanged (the history is constant in
    time), the delay makes the solution lag the undelayed one, and no
    closed-form solution is attached.
    """
    if not (v > 0 and math.isfinite(v)):
        raise ValueError(f"example4 needs a finite positive transmission speed, got {v}")
    return replace(example3(lam=lam, mu=mu, c=c, domain=domain), name="example4", v=v,
                   exact=None, parameters={"lambda": lam, "mu": mu, "c": c, "v": v})


def example5(lam: float = 1.0, mu: float = 1.0, c: float = 1.0, v: float = 1.0,
             domain: Rectangle = DEFAULT_DOMAIN) -> ProblemSpec:
    """The third problem's solution under a transmission delay.

    The kernel is exp(-lam r^2 - r / (c v)).  The lagged solution
    V(y, t - r / v) = exp(-t / c) exp(r / (c v)) bump(y) carries the
    inverse of the extra factor, so the delayed integral equals the third
    problem's undelayed one and its input and exact solution hold
    unchanged.  The history for t <= 0 is the exact solution.  v = inf
    gives the third problem's kernel values and initial state bit for bit;
    only then does the kernel separate by axes, as r / (c v) does not.
    """
    base = example3(lam=lam, mu=mu, c=c, domain=domain)
    return replace(base, name="example5", v=v,
                   kernel=lambda r: np.exp(-lam * r * r - r / (c * v)),
                   initial=base.exact,
                   parameters={"lambda": lam, "mu": mu, "c": c, "v": v})


@dataclass
class KernelNorms:
    """Discrete kernel magnitudes used by the step-size diagnostics.

    ``k_max`` is the largest |K| over the grid's merged axis distances
    (compute_kernel_norms).  For a kernel largest at zero distance it is
    K(0), the max over all ordered grid-point pairs bit for bit; for any
    other it may read about an ulp below that max, which can sit at a
    float some ulps of distance from the one evaluated.
    ``l2_estimate`` approximates the L2 norm of K(|x - y|) over
    domain x domain by the tensor quadrature on the same grid; it is summed
    in row blocks over merged axis distances, so its last digits depend on
    the block size and the merge.
    ``separable``: K(0) > 0 and K(hypot(d1, d2)) K(0) == K(d1) K(d2) to
    1e-13 k_max^2 on every pair of the grid's merged axis distances, as for
    any Gaussian a exp(-lam r^2) and not for exp(-r).
    """

    k_max: float
    l2_estimate: float
    separable: bool


# Sorted node-pair distances of one axis that lie closer than this fraction
# of its largest distance are one true distance split by rounding.  Within
# one true distance the floats spread by at most 4.4e-16 of the axis
# length; distinct true distances on the composite grids sit at least
# 2.5e-3 of it apart at N = 96 and 1.2e-3 at N = 192.
_MERGE_TOL = 1e-13
# Bytes of one temporary of a row block: a block's few temporaries then fit
# in a 2 MB L2 cache.
_BLOCK_BYTES = 128 * 1024
# Row blocks the norms' pass holds at once: a block's distances and three
# temporaries of the kernel's own, as example 5's kernel makes.  The pass's
# own arrays, K with its magnitudes or with its separability gap, take two.
_NORM_BLOCKS = 4


def _row_blocks(rows: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices covering range(rows), each of about _BLOCK_BYTES of
    rows of row_bytes bytes and of at least one row."""
    size = max(1, _BLOCK_BYTES // row_bytes)
    for lo in range(0, rows, size):
        yield slice(lo, min(lo + size, rows))


def _axis_distance_groups(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The node-pair distances |x_a - x_c| of one axis merged into true
    distances, with the summed w_a * w_c of the pairs at each.

    A merged distance starts wherever the sorted floats of all N^2 pairs
    step by more than _MERGE_TOL times the largest one; its smallest float
    stands for it and is a distance of the full pair scan.  Returns these
    representatives, ascending, and the merged weights.
    """
    d = np.abs(x[:, None] - x[None, :]).ravel()
    order = np.argsort(d)
    floats = d[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(floats) > _MERGE_TOL * floats[-1]) + 1))
    return floats[starts], np.add.reduceat(np.outer(w, w).ravel()[order], starts)


def kernel_norms_bytes(grid: SpatialGrid) -> int:
    """A bound, known before they run, on the bytes compute_kernel_norms
    holds at once on ``grid``, for a kernel of at most three block-sized
    temporaries at once (_NORM_BLOCKS).

    An axis of N nodes has N^2 node pairs and, as |x_a - x_c| equals
    |x_c - x_a|, at most M = N (N - 1) / 2 + 1 merged distances.
    _axis_distance_groups holds five arrays of 8 B per pair (the distances,
    their sort order, the sorted floats, the weight products and their
    sorted copy) and two of at most M (the starts and the representatives),
    beside the other axis's merged distances and weights: 40 N^2 + 32 M
    bytes, which also cover the six arrays of M the pass keeps (both axes'
    distances and weights, the column sums and K on the second axis
    alone).  The pass adds _NORM_BLOCKS row blocks, each of at most
    max(_BLOCK_BYTES, one row) and never more than all M^2 values.
    """
    nodes = max(grid.x1.size, grid.x2.size)
    merged = nodes * (nodes - 1) // 2 + 1
    block = 8 * min(merged * merged, max(_BLOCK_BYTES // 8, merged))
    return 40 * nodes * nodes + 32 * merged + _NORM_BLOCKS * block


def compute_kernel_norms(problem: ProblemSpec, grid: SpatialGrid) -> KernelNorms:
    """Kernel max, L2 estimate and separability over all N^4 grid-point
    pairs, from N^2 axis pairs.

    The pair (x1_a, x2_b), (x1_c, x2_d) sits at distance
    hypot(|x1_a - x1_c|, |x2_b - x2_d|) and carries the weight
    w1_a w1_c w2_b w2_d.  So each axis's node pairs are grouped by distance
    (_axis_distance_groups), with the group weights W1 and W2 summed, once
    for both axes where they coincide (a square domain's grid, on which
    ``grid.x2 is grid.x1`` and ``grid.w2 is grid.w1``), and the kernel
    is evaluated once per pair of merged axis distances,
    K[i, j] = K(hypot(d1_i, d2_j)): k_max = max |K| and
    l2_estimate = sqrt(W1 @ K^2 @ W2).  Rounding splits one true distance
    into a few floats some ulps apart (670 floats for 212 distances per
    axis at N = 96), and the merge evaluates K once for all of them.  The
    smallest distance on each axis is 0, so K(0) and K on each axis alone
    sit in row 0 and column 0, and separability costs no more kernel
    values.

    Each merged distance is represented by its smallest float, itself a
    distance of the full pair scan, so k_max is a value of the scan and at
    most its max.  Distance 0 is a single float, so for a kernel largest
    at r = 0 k_max is the scan's bit for bit; elsewhere the scan's max may
    sit at another float of a merged distance, some ulps of distance away,
    where K differs by about an ulp.

    K is never held whole: it is evaluated in row blocks (_row_blocks),
    and the pass carries the running max |K|, the largest separability
    gap and the W1-weighted column sums of K^2.  Max is order-free, so
    k_max and separable are those of one whole-matrix pass over the
    merged distances.  l2_estimate, summed block by block and then
    against W2, differs from that pass only in summation order, and from
    the full pair scan also by K's change over a few ulps of distance
    (6.5e-16 relative on the shipped kernels).
    """
    d1, W1 = _axis_distance_groups(grid.x1, grid.w1)
    if grid.x2 is grid.x1 and grid.w2 is grid.w1:  # a square domain's one axis
        d2, W2 = d1, W1
    else:
        d2, W2 = _axis_distance_groups(grid.x2, grid.w2)
    k_max, gap_max, col = 0.0, 0.0, np.zeros(d2.size)
    for rows in _row_blocks(d1.size, d2.nbytes):
        kv = problem.kernel_values(np.hypot(d1[rows, None], d2[None, :]))
        if rows.start == 0:  # d1 = 0: K(0) and K on the second axis alone
            k0, row0 = kv[0, 0], kv[0].copy()
        k_max = max(k_max, float(np.max(np.abs(kv))))
        if k0 > 0:  # |K(d1) K(d2) / K(0) - K(hypot(d1, d2))| in place, one temporary
            gap = np.multiply.outer(kv[:, 0] / k0, row0)
            gap -= kv
            gap_max = max(gap_max, float(np.max(np.abs(gap, out=gap))))
            del gap
        col += W1[rows] @ np.square(kv, out=kv)
        del kv  # no block is held while the next one's distances and kernel form
    separable = bool(k0 > 0 and gap_max <= 1e-13 * k_max * k_max / k0)
    return KernelNorms(k_max=k_max, l2_estimate=math.sqrt(float(col @ W2)),
                       separable=separable)
