"""Chebyshev interpolation between a small tensor grid and the quadrature grid.

The integral operator is sampled at an m x m tensor product of Chebyshev
root points, converted to coefficients of a scaled Chebyshev basis, and the
interpolant is then read off at the N x N quadrature points.  The scaled
basis c_k(x) = delta_k * cos(k * arccos x), with delta_0 = 1/sqrt(m) and
delta_k = sqrt(2/m) for k >= 1, makes the node-evaluation matrix C
orthogonal, so the sample-to-coefficient map is a pair of matrix products
rather than a solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import SpatialGrid

__all__ = ["ChebOperator", "build_cheb_operator", "coeffs_from_samples", "eval_on_grid"]


def cheb_nodes(m: int) -> np.ndarray:
    """Roots of the degree-m Chebyshev polynomial, ascending in (-1, 1)."""
    j = np.arange(1, m + 1, dtype=float)
    return np.cos((2.0 * j - 1.0) * np.pi / (2.0 * m))[::-1].copy()


def _scaled_basis(m: int, x: np.ndarray) -> np.ndarray:
    """Rows i = 0..m-1 of c_i evaluated at the points x (shape (m, len(x)))."""
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    out = np.cos(np.outer(np.arange(m), theta))
    delta = np.full(m, np.sqrt(2.0 / m))
    delta[0] = np.sqrt(1.0 / m)
    return delta[:, None] * out


@dataclass
class ChebOperator:
    """Precomputed matrices for the sample/lift round trip on one grid.

    C is m x m with C[i, j] = c_i(p_j) at the Chebyshev roots p_j; it
    satisfies C @ C.T = I.  P1 and P2 are m x N with the basis evaluated at
    the grid's axis coordinates pulled back to [-1, 1].  points1/points2
    are the Chebyshev roots pushed forward to the physical axes, so the
    operator must be sampled at the tensor points (points1[i], points2[j])
    in row-major order.  All four are read-only, and for a square domain,
    whose grid has one axis (``grid.x2 is grid.x1``), they coincide:
    ``P2 is P1`` and ``points2 is points1``, each built once.  L1 = P1.T @ C
    (N x m) and L2 = C.T @ P2 (m x N) fold the coefficient transform into
    the grid evaluation: samples M lift to L1 @ M @ L2, the same as
    eval_on_grid(coeffs_from_samples(M)) up to rounding.
    """

    m: int
    C: np.ndarray = field(repr=False)
    P1: np.ndarray = field(repr=False)
    P2: np.ndarray = field(repr=False)
    points1: np.ndarray = field(repr=False)
    points2: np.ndarray = field(repr=False)
    L1: np.ndarray = field(repr=False)
    L2: np.ndarray = field(repr=False)

    def flat_sample_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical coordinates of the m^2 sample points, flat row-major."""
        q1 = np.repeat(self.points1, self.m)
        q2 = np.tile(self.points2, self.m)
        return q1, q2


def _to_reference(x: np.ndarray, a: float, b: float) -> np.ndarray:
    return (2.0 * x - (a + b)) / (b - a)


def build_cheb_operator(m: int, grid: SpatialGrid) -> ChebOperator:
    """Build the interpolation operator of order m for a grid.

    Requires 2 <= m <= N so the lift never manufactures resolution the
    quadrature grid cannot represent.
    """
    N = grid.points_per_axis
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"interpolation order m must be an integer >= 2, got {m!r}")
    if m > N:
        raise ValueError(f"interpolation order m={m} exceeds grid resolution N={N}")
    m = int(m)
    ref_nodes = cheb_nodes(m)
    C = _scaled_basis(m, ref_nodes)
    dom = grid.domain
    P1 = _scaled_basis(m, _to_reference(grid.x1, dom.a1, dom.b1))
    points1 = 0.5 * (dom.a1 + dom.b1) + 0.5 * (dom.b1 - dom.a1) * ref_nodes
    if grid.x2 is grid.x1:  # a square domain's one axis (build_grid)
        P2, points2 = P1, points1
    else:
        P2 = _scaled_basis(m, _to_reference(grid.x2, dom.a2, dom.b2))
        points2 = 0.5 * (dom.a2 + dom.b2) + 0.5 * (dom.b2 - dom.a2) * ref_nodes
    for axis in (P1, points1, P2, points2):
        axis.flags.writeable = False
    return ChebOperator(m=m, C=C, P1=P1, P2=P2, points1=points1, points2=points2,
                        L1=P1.T @ C, L2=C.T @ P2)


def coeffs_from_samples(op: ChebOperator, samples: np.ndarray) -> np.ndarray:
    """Coefficient matrix Lambda = C @ M @ C.T from tensor-point samples M.

    ``samples[i, j]`` must hold the value at ``(points1[i], points2[j])``.
    """
    M = np.asarray(samples, dtype=float)
    if M.shape != (op.m, op.m):
        raise ValueError(f"expected samples of shape ({op.m}, {op.m}), got {M.shape}")
    return op.C @ M @ op.C.T

def eval_on_grid(op: ChebOperator, coeffs: np.ndarray) -> np.ndarray:
    """Interpolant values at all grid points: T = P1.T @ Lambda @ P2.

    ``T[a, b]`` is the value at ``(grid.x1[a], grid.x2[b])``; ``T.ravel()``
    therefore matches the flat field layout.
    """
    L = np.asarray(coeffs, dtype=float)
    if L.shape != (op.m, op.m):
        raise ValueError(f"expected coefficients of shape ({op.m}, {op.m}), got {L.shape}")
    return op.P1.T @ L @ op.P2
