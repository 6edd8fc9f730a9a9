"""Composite tensor-product Gauss-Legendre quadrature on rectangles.

The spatial discretisation used throughout this package: each axis of a
rectangular domain is split into ``n`` equal subintervals carrying a
``k``-point Gauss-Legendre rule, giving ``N = n * k`` points per axis and
``N**2`` points in the plane; the rule itself is numpy's ``leggauss``.
Two-dimensional quantities are stored as flat vectors in row-major order,
i.e. the value at ``(x1[a], x2[b])`` sits at flat index ``a * N + b``;
``tensor_values`` evaluates a function of ``(x1, x2, t)`` into that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "GaussRule",
    "Rectangle",
    "SpatialGrid",
    "build_gauss_rule",
    "build_grid",
    "apply_quadrature",
    "tensor_values",
]

_MAX_RULE_ORDER = 32


@dataclass
class GaussRule:
    """A k-point Gauss-Legendre rule on the reference interval [-1, 1].

    Attributes
    ----------
    k : int
        Number of nodes.  Exact for polynomials of degree <= 2k - 1.
    nodes : ndarray, shape (k,)
        Node abscissae in ascending order, all inside (-1, 1).
    weights : ndarray, shape (k,)
        Positive weights summing to 2.
    """

    k: int
    nodes: np.ndarray
    weights: np.ndarray


def build_gauss_rule(k: int) -> GaussRule:
    """Construct the k-point Gauss-Legendre rule on [-1, 1].

    Nodes and weights are numpy's ``np.polynomial.legendre.leggauss(k)``.

    Parameters
    ----------
    k : int
        Number of nodes, between 1 and 32.

    Returns
    -------
    GaussRule

    Raises
    ------
    ValueError
        If ``k`` is outside the supported range.
    """
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= _MAX_RULE_ORDER:
        raise ValueError(f"rule order k must be an integer in [1, {_MAX_RULE_ORDER}], got {k!r}")
    nodes, weights = np.polynomial.legendre.leggauss(int(k))
    return GaussRule(k=int(k), nodes=nodes, weights=weights)


@dataclass
class Rectangle:
    """Axis-aligned rectangle [a1, b1] x [a2, b2], with finite bounds and
    sides of positive length whose product, the area, is finite."""

    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self) -> None:
        if not (self.b1 > self.a1 and self.b2 > self.a2
                and np.all(np.isfinite([self.a1, self.b1, self.a2, self.b2, self.area]))):
            raise ValueError(f"{self} needs finite bounds, sides of positive length, finite area")

    @property
    def area(self) -> float:
        return (self.b1 - self.a1) * (self.b2 - self.a2)

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.b1 - self.a1, self.b2 - self.a2))


def _composite_axis(a: float, b: float, n: int, rule: GaussRule) -> tuple[np.ndarray, np.ndarray]:
    h = (b - a) / n
    edges = a + h * np.arange(n)
    # node s of subinterval i sits at edge_i + (h/2) (1 + xi_s)
    pts = (edges[:, None] + 0.5 * h * (1.0 + rule.nodes[None, :])).ravel()
    wts = np.tile(0.5 * h * rule.weights, n)
    return pts, wts


@dataclass
class SpatialGrid:
    """Composite Gauss-Legendre grid over a rectangle.

    Attributes
    ----------
    domain : Rectangle
    x1, x2 : ndarray, shape (N,)
        Node coordinates along each axis, ascending; ``points_per_axis``,
        N = n * k for n subintervals of a k-point rule, is ``x1.size``.
    w1, w2 : ndarray, shape (N,)
        Scaled per-axis weights; each sums to the side length, so the
        tensor-product weights sum to the domain area.

    build_grid makes the four arrays read-only, and on a square domain
    (a2, b2) == (a1, b1) it sets up one axis: ``x2 is x1`` and
    ``w2 is w1``.  That identity is what downstream set-up reads to
    evaluate a square's axis once (build_cheb_operator,
    compute_kernel_norms).
    """

    domain: Rectangle
    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    w1: np.ndarray = field(repr=False)
    w2: np.ndarray = field(repr=False)

    @property
    def points_per_axis(self) -> int:
        return self.x1.size

    @property
    def total_points(self) -> int:
        return self.points_per_axis ** 2

    def flat_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of all N^2 grid points in flat row-major order.

        Returns ``(p1, p2)`` with ``p1[a * N + b] == x1[a]`` and
        ``p2[a * N + b] == x2[b]``.
        """
        N = self.points_per_axis
        return np.repeat(self.x1, N), np.tile(self.x2, N)

    def flat_weights(self) -> np.ndarray:
        """Tensor-product weights in flat row-major order; sums to the area."""
        return (self.w1[:, None] * self.w2[None, :]).ravel()


def build_grid(domain: Rectangle, n: int, rule: GaussRule) -> SpatialGrid:
    """Assemble the composite tensor-product grid for ``domain``.

    Parameters
    ----------
    domain : Rectangle
    n : int
        Subintervals per axis, at least 1.
    rule : GaussRule

    Returns
    -------
    SpatialGrid
        With read-only axes; on a square domain the second axis is the
        first, one array each for the nodes and the weights.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subinterval count n must be a positive integer, got {n!r}")
    x1, w1 = _composite_axis(domain.a1, domain.b1, int(n), rule)
    if (domain.a2, domain.b2) == (domain.a1, domain.b1):
        x2, w2 = x1, w1
    else:
        x2, w2 = _composite_axis(domain.a2, domain.b2, int(n), rule)
    for axis in (x1, w1, x2, w2):
        axis.flags.writeable = False
    return SpatialGrid(domain=domain, x1=x1, x2=x2, w1=w1, w2=w2)


def apply_quadrature(grid: SpatialGrid, values: np.ndarray) -> float:
    """Quadrature sum of a flat length-N^2 value vector over the domain.

    ``values[a * N + b]`` is taken as the integrand sample at
    ``(x1[a], x2[b])``.
    """
    N = grid.points_per_axis
    values = np.asarray(values, dtype=float)
    if values.shape != (N * N,):
        raise ValueError(f"expected a flat vector of length {N * N}, got shape {values.shape}")
    return float(grid.w1 @ values.reshape(N, N) @ grid.w2)


def tensor_values(f: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
                  x1: np.ndarray, x2: np.ndarray, t: float) -> np.ndarray:
    """f(x1, x2, t) over the tensor product of two axes, as a new flat row-major vector.

    f is called once, on ``x1[:, None]`` and ``x2[None, :]``, and may return
    anything that broadcasts to ``(len(x1), len(x2))``: a scalar, say, or
    an array that reads one axis only.  The vector shares no memory with
    what f returned, so a caller may write into it.
    """
    values = np.asarray(f(x1[:, None], x2[None, :], t), dtype=float)
    shape = (len(x1), len(x2))
    return (values if values.shape == shape else np.broadcast_to(values, shape)).flatten()
