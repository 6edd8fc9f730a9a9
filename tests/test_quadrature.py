"""Tests for the composite tensor-product Gauss-Legendre quadrature."""

import math
import re

import numpy as np
import pytest
from scipy.special import roots_legendre

from neurofield.quadrature import (
    GaussRule,
    Rectangle,
    _composite_axis,
    apply_quadrature,
    build_gauss_rule,
    build_grid,
    tensor_values,
)

UNIT_BOX = Rectangle(-1.0, 1.0, -1.0, 1.0)


def test_rule_k1_is_midpoint():
    rule = build_gauss_rule(1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], abs=1e-15)


def test_rule_k2_closed_form():
    rule = build_gauss_rule(2)
    r = 1.0 / math.sqrt(3.0)
    assert rule.nodes == pytest.approx([-r, r], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 13, 21, 32])
def test_rule_invariants(k):
    rule = build_gauss_rule(k)
    assert rule.k == k
    assert rule.nodes.shape == (k,) and rule.weights.shape == (k,)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(np.abs(rule.nodes) < 1.0)
    assert np.all(rule.weights > 0)
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-13)
    # symmetry of nodes and weights about the origin
    assert rule.nodes == pytest.approx(-rule.nodes[::-1], abs=1e-14)
    assert rule.weights == pytest.approx(rule.weights[::-1], abs=1e-14)


@pytest.mark.parametrize("k", [3, 5, 8, 16, 32])
def test_rule_matches_reference_nodes(k):
    # scipy's rule is computed independently of numpy's leggauss
    rule = build_gauss_rule(k)
    ref_nodes, ref_weights = roots_legendre(k)
    assert rule.nodes == pytest.approx(ref_nodes, abs=1e-13)
    assert rule.weights == pytest.approx(ref_weights, abs=1e-13)


@pytest.mark.parametrize("k", [0, -1, 33, 2.5, "4"])
def test_rule_rejects_bad_order(k):
    with pytest.raises(ValueError):
        build_gauss_rule(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 3])
def test_monomial_exactness_to_degree_2k_minus_1(k, n):
    """A k-point rule integrates x^d exactly for every d <= 2k - 1."""
    grid = build_grid(UNIT_BOX, n, build_gauss_rule(k))
    p1, _ = grid.flat_points()
    for d in range(2 * k):
        exact = (2.0 / (d + 1)) * 2.0 if d % 2 == 0 else 0.0
        got = apply_quadrature(grid, p1**d)
        assert got == pytest.approx(exact, abs=1e-12), f"degree {d} at k={k}, n={n}"


def test_degree_2k_not_exact():
    # one point above the guaranteed degree the rule must miss
    grid = build_grid(UNIT_BOX, 1, build_gauss_rule(2))
    p1, _ = grid.flat_points()
    exact = (2.0 / 5.0) * 2.0
    assert abs(apply_quadrature(grid, p1**4) - exact) > 1e-3


def test_x6_with_k4_rule():
    grid = build_grid(UNIT_BOX, 1, build_gauss_rule(4))
    p1, _ = grid.flat_points()
    # int_{-1}^{1} x^6 dx = 2/7, times the length of the other axis
    assert apply_quadrature(grid, p1**6) == pytest.approx(2.0 / 7.0 * 2.0, abs=1e-13)


def test_grid_shapes_and_ordering():
    grid = build_grid(UNIT_BOX, 6, build_gauss_rule(4))
    assert grid.points_per_axis == 24
    assert grid.total_points == 576
    assert np.all(np.diff(grid.x1) > 0)
    assert np.all(grid.x1 > -1.0) and np.all(grid.x1 < 1.0)
    assert np.all(grid.w1 > 0)


def test_flat_layout_row_major():
    grid = build_grid(Rectangle(0.0, 1.0, -2.0, 0.0), 2, build_gauss_rule(3))
    N = grid.points_per_axis
    p1, p2 = grid.flat_points()
    for a, b in [(0, 0), (0, N - 1), (3, 2), (N - 1, N - 1)]:
        idx = a * N + b
        assert p1[idx] == grid.x1[a]
        assert p2[idx] == grid.x2[b]


@pytest.mark.parametrize("full", [True, False], ids=["full-shape", "broadcast"])
def test_tensor_values_returns_a_new_array(full):
    """The flat row-major tensor of f as a new array that shares no memory
    with what f returned, whether that is the full tensor or an array that
    broadcasts to it: the solver writes into it."""
    x1, x2 = np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 1.0, 4)
    held = np.add.outer(x1, x2) if full else 2.0 * x2[None, :]
    want = np.broadcast_to(held, (3, 4)).flatten()
    out = tensor_values(lambda a, b, t: held, x1, x2, 0.0)
    assert out.shape == (12,) and np.array_equal(out, want)
    assert not np.shares_memory(out, held)


@pytest.mark.parametrize("domain,n,k", [
    (UNIT_BOX, 6, 4),
    (Rectangle(0.0, 3.0, -1.0, 0.5), 2, 5),
    (Rectangle(-2.0, -1.0, 4.0, 7.0), 1, 1),
])
def test_weights_sum_to_area(domain, n, k):
    grid = build_grid(domain, n, build_gauss_rule(k))
    assert np.sum(grid.flat_weights()) == pytest.approx(domain.area, rel=1e-12)
    assert np.sum(grid.w1) == pytest.approx(domain.b1 - domain.a1, rel=1e-12)


@pytest.mark.parametrize("domain,shared", [
    (UNIT_BOX, True), (Rectangle(0.0, 2.0, 0.0, 2.0), True),
    (Rectangle(0.0, 1.0, 0.0, 2.0), False), (Rectangle(0.0, 2.0, -1.0, 1.0), False),
], ids=["unit-box", "square", "rectangle", "shifted-equal-sides"])
def test_a_square_domain_sets_up_one_read_only_axis(domain, shared):
    """On a square domain the second axis is the first, ``x2 is x1`` and
    ``w2 is w1``; on a rectangle, or on sides of equal length shifted
    apart, each axis is its own.  Either way each axis is read-only and
    bit for bit the axis built on its own side."""
    rule = build_gauss_rule(4)
    grid = build_grid(domain, 3, rule)
    assert grid.x2 is grid.x1 if shared else not np.shares_memory(grid.x2, grid.x1)
    assert grid.w2 is grid.w1 if shared else not np.shares_memory(grid.w2, grid.w1)
    sides = ((domain.a1, domain.b1), (domain.a2, domain.b2))
    for axis, side in zip(((grid.x1, grid.w1), (grid.x2, grid.w2)), sides):
        for got, want in zip(axis, _composite_axis(*side, 3, rule)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0.0


def test_apply_quadrature_constant_gives_area():
    domain = Rectangle(-1.0, 2.0, 0.0, 0.5)
    grid = build_grid(domain, 3, build_gauss_rule(4))
    ones = np.ones(grid.total_points)
    assert apply_quadrature(grid, ones) == pytest.approx(domain.area, rel=1e-13)


def test_apply_quadrature_odd_integrand_vanishes():
    grid = build_grid(UNIT_BOX, 2, build_gauss_rule(4))
    p1, p2 = grid.flat_points()
    assert apply_quadrature(grid, p1 * p2**2) == pytest.approx(0.0, abs=1e-14)


def test_apply_quadrature_x2y2():
    grid = build_grid(UNIT_BOX, 2, build_gauss_rule(4))
    p1, p2 = grid.flat_points()
    # int x^2 dx * int y^2 dy = (2/3)^2
    assert apply_quadrature(grid, p1**2 * p2**2) == pytest.approx(4.0 / 9.0, abs=1e-13)


def test_apply_quadrature_rejects_wrong_length():
    grid = build_grid(UNIT_BOX, 2, build_gauss_rule(2))
    with pytest.raises(ValueError):
        apply_quadrature(grid, np.ones(grid.total_points + 1))
    with pytest.raises(ValueError):
        apply_quadrature(grid, np.ones((4, 4)))


def test_build_grid_rejects_bad_subdivisions():
    rule = build_gauss_rule(2)
    for n in (0, -2, 1.5):
        with pytest.raises(ValueError):
            build_grid(UNIT_BOX, n, rule)


def test_rectangle_rejects_empty_sides():
    with pytest.raises(ValueError):
        Rectangle(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0, 2.0, -2.0)


@pytest.mark.parametrize("bounds", [(0.0, math.inf, 0.0, 1.0), (-math.inf, 0.0, 0.0, 1.0),
                                    (-1e308, 1e308, -1.0, 1.0), (-1e200, 1e200, -1e200, 1e200)],
                         ids=["infinite-side", "infinite-bound", "overflowing-side",
                              "overflowing-area"])
def test_rectangle_rejects_what_is_not_finite(bounds):
    """A rectangle with an infinite bound, or a side or area that overflows,
    fails at construction with the rectangle named, not later in the
    solver as a kernel that produced a non-finite value."""
    with pytest.raises(ValueError, match=re.escape(f"{Rectangle.__name__}(a1={bounds[0]!r}")):
        Rectangle(*bounds)


def test_rectangle_geometry():
    r = Rectangle(-1.0, 1.0, -1.0, 1.0)
    assert r.area == pytest.approx(4.0)
    assert r.diameter == pytest.approx(2.0 * math.sqrt(2.0))


def _bump_error(n: int, k: int) -> float:
    grid = build_grid(UNIT_BOX, n, build_gauss_rule(k))
    p1, p2 = grid.flat_points()
    vals = np.exp(-(p1**2 + p2**2))
    exact = (math.sqrt(math.pi) * math.erf(1.0)) ** 2
    return abs(apply_quadrature(grid, vals) - exact)


def test_halving_reduces_error_at_rule_order():
    """Halving the subintervals shrinks a smooth-integrand error by about 2^(2k).

    The first halving (n = 1 -> 2) is still pre-asymptotic for this
    integrand, so the factor is checked for n = 2 -> 4 and n = 4 -> 8.
    """
    k = 2
    lo, hi = 0.5 * 2.0 ** (2 * k), 2.0 * 2.0 ** (2 * k)
    for n in (2, 4):
        factor = _bump_error(n, k) / _bump_error(2 * n, k)
        assert lo <= factor <= hi, f"n={n}: factor {factor:.2f} outside [{lo}, {hi}]"


def test_composite_converges_for_gaussian():
    errors = [_bump_error(n, 4) for n in (1, 2, 4)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-8
