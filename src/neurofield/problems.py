"""Problem definitions for the neural field solver.

A problem bundles the ingredients of the field equation

    c * dV/dt(x, t) = I(x, t) - V(x, t) + integral over the domain of
                      K(|x - y|) * S(V(y, t - |y - x| / v)) dy

on a rectangular domain: decay time constant c, connectivity kernel K as a
function of distance, firing-rate function S, external input I, initial
state V0 and transmission speed v (infinite v switches the delay off).

Five ready-made problems are provided.  The first three have closed-form
solutions and are used for convergence measurements; the fourth adds a
finite transmission speed to the third and has no closed form; the fifth
adds one to a kernel built so that the third's closed form still holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

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
]

DEFAULT_DOMAIN = Rectangle(-1.0, 1.0, -1.0, 1.0)


@dataclass
class ProblemSpec:
    """Complete description of one neural field problem.

    ``kernel`` maps distance arrays to connectivity values, ``firing_rate``
    field values to rates.  ``input_current``, ``initial`` and the optional
    known solution ``exact`` map ``(x1, x2, t)`` to field values: they get
    two axes, a column ``x1[:, None]`` and a row ``x2[None, :]``, and may
    return anything that broadcasts to the full tensor (a scalar, say).
    ``initial`` must accept any t <= 0 so delayed problems can read their
    history.
    ``firing_rate_slope_max`` bounds |S'| and feeds the step-size
    diagnostics; ``v`` is the transmission speed, ``math.inf`` for an
    undelayed problem.
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
        if not self.c > 0:
            raise ValueError(f"time constant c must be positive, got {self.c}")
        if not self.v > 0:
            raise ValueError(f"transmission speed v must be positive, got {self.v}")
        if not self.firing_rate_slope_max > 0:
            raise ValueError("firing_rate_slope_max must be positive")

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
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    s = lam + mu
    r = math.sqrt(s)

    def axis_factor(x: np.ndarray, a: float, b: float) -> np.ndarray:
        x0 = (lam / s) * x
        return np.exp(-(lam * mu / s) * x * x) * (erf(r * (b - x0)) + erf(r * (x0 - a)))

    f1 = axis_factor(x1, domain.a1, domain.b1)
    f2 = axis_factor(x2, domain.a2, domain.b2)
    return (math.pi / (4.0 * s)) * f1 * f2


def example1(lam: float = 1.0, sigma: float = 1.0, c: float = 1.0,
             domain: Rectangle = DEFAULT_DOMAIN) -> ProblemSpec:
    """Gaussian kernel, tanh firing rate, spatially uniform exact solution.

    The input is chosen so that V(x, t) = exp(-t / c) solves the equation:
    the integral term equals tanh(sigma * exp(-t/c)) times the kernel mass
    and the input cancels it exactly.
    """

    def input_current(x1, x2, t):
        mass = kernel_box_integral(lam, x1, x2, domain)
        return -math.tanh(sigma * math.exp(-t / c)) * mass

    return ProblemSpec(
        name="example1",
        domain=domain,
        c=c,
        kernel=lambda r: np.exp(-lam * r * r),
        firing_rate=lambda u: np.tanh(sigma * u),
        firing_rate_slope_max=sigma,
        input_current=input_current,
        initial=lambda x1, x2, t: np.ones_like(np.asarray(x1, dtype=float)),
        exact=lambda x1, x2, t: np.full_like(np.asarray(x1, dtype=float), math.exp(-t / c)),
        parameters={"lambda": lam, "sigma": sigma, "c": c},
    )


def example2(lam: float = 1.0, sigma: float = 1.0,
             domain: Rectangle = DEFAULT_DOMAIN) -> ProblemSpec:
    """Gaussian kernel, tanh firing rate, exact solution V = t, c = 1.

    The solution is linear in time, so both the two-step scheme and its
    bootstrap step reproduce it exactly and any measured error is purely
    spatial.  The time constant is pinned to 1 by the construction of the
    input.
    """
    c = 1.0

    def input_current(x1, x2, t):
        mass = kernel_box_integral(lam, x1, x2, domain)
        return c + t - math.tanh(sigma * t) * mass

    return ProblemSpec(
        name="example2",
        domain=domain,
        c=c,
        kernel=lambda r: np.exp(-lam * r * r),
        firing_rate=lambda u: np.tanh(sigma * u),
        firing_rate_slope_max=sigma,
        input_current=input_current,
        initial=lambda x1, x2, t: np.zeros_like(np.asarray(x1, dtype=float)),
        exact=lambda x1, x2, t: np.full_like(np.asarray(x1, dtype=float), float(t)),
        parameters={"lambda": lam, "sigma": sigma, "c": c},
    )


def example3(lam: float = 1.0, mu: float = 1.0, c: float = 1.0,
             domain: Rectangle = DEFAULT_DOMAIN) -> ProblemSpec:
    """Gaussian kernel, linear firing rate, Gaussian-bump exact solution.

    V(x, t) = exp(-t / c) * exp(-mu * |x|^2) solves the equation when the
    input cancels the integral of the kernel against the bump, taken over
    the full domain.  That integral is the weighted kernel_box_integral,
    in closed form; on the solver's two axes it costs one erf pair per
    coordinate, so it is evaluated afresh at every step.
    """

    def bump(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return np.exp(-mu * (x1 * x1 + x2 * x2))

    return ProblemSpec(
        name="example3",
        domain=domain,
        c=c,
        kernel=lambda r: np.exp(-lam * r * r),
        firing_rate=lambda u: np.asarray(u, dtype=float),
        firing_rate_slope_max=1.0,
        input_current=lambda x1, x2, t: -math.exp(-t / c) * kernel_box_integral(
            lam, x1, x2, domain, mu=mu),
        initial=lambda x1, x2, t: bump(x1, x2),
        exact=lambda x1, x2, t: math.exp(-t / c) * bump(x1, x2),
        parameters={"lambda": lam, "mu": mu, "c": c},
    )


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
    gives the third problem's kernel and initial state bit for bit.
    """
    base = example3(lam=lam, mu=mu, c=c, domain=domain)
    return replace(base, name="example5", v=v,
                   kernel=lambda r: np.exp(-lam * r * r - r / (c * v)),
                   initial=base.exact,
                   parameters={"lambda": lam, "mu": mu, "c": c, "v": v})


@dataclass
class KernelNorms:
    """Discrete kernel magnitudes used by the step-size diagnostics.

    ``k_max`` is the largest |K| over all ordered grid-point pairs
    (self-pairs included, so for a kernel peaked at zero distance this is
    K(0)).  ``l2_estimate`` approximates the L2 norm of K(|x - y|) over
    domain x domain by the tensor quadrature on the same grid.
    """

    k_max: float
    l2_estimate: float


def _axis_distance_groups(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of |x_a - x_c| over all node pairs of one axis,
    with the summed w_a * w_c of the pairs at each distance."""
    d, group = np.unique(np.abs(x[:, None] - x[None, :]).ravel(), return_inverse=True)
    return d, np.bincount(group, weights=np.outer(w, w).ravel())


def compute_kernel_norms(problem: ProblemSpec, grid: SpatialGrid) -> KernelNorms:
    """Kernel max and L2 estimate over all N^4 grid-point pairs, from N^2 axis pairs.

    The pair (x1_a, x2_b), (x1_c, x2_d) sits at distance
    hypot(|x1_a - x1_c|, |x2_b - x2_d|) and carries the weight
    w1_a w1_c w2_b w2_d.  So each axis's node pairs are grouped by the exact
    float value of their distance, with the group weights W1 and W2 summed,
    and the kernel is evaluated once per pair of distinct axis distances:
    k_max = max |K| and l2_estimate = sqrt(W1 @ K^2 @ W2).  The kernel sees
    exactly the distances of the full pair scan, so k_max is the scan's bit
    for bit and the L2 sum differs from it only in summation order.
    """
    d1, W1 = _axis_distance_groups(grid.x1, grid.w1)
    d2, W2 = _axis_distance_groups(grid.x2, grid.w2)
    kv = np.asarray(problem.kernel(np.hypot(d1[:, None], d2[None, :])), dtype=float)
    if not np.all(np.isfinite(kv)):
        raise ValueError("kernel produced a non-finite value on a grid-pair distance")
    return KernelNorms(k_max=float(np.max(np.abs(kv))),
                       l2_estimate=math.sqrt(float(W1 @ (kv * kv) @ W2)))
