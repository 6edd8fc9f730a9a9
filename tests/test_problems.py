"""Tests for the bundled problems: closed-form inputs, exact solutions,
kernel norms, and the field equation residual of every exact solution."""

import math

import numpy as np
import pytest
from scipy.special import erf, roots_legendre

from neurofield.problems import (
    ProblemSpec,
    compute_kernel_norms,
    example1,
    example2,
    example3,
    example4,
    example5,
    kernel_box_integral,
)
from neurofield.quadrature import Rectangle, apply_quadrature, build_gauss_rule, build_grid

UNIT_BOX = Rectangle(-1.0, 1.0, -1.0, 1.0)


def fine_grid(domain=UNIT_BOX):
    return build_grid(domain, 16, build_gauss_rule(8))


def test_erf_matches_power_series():
    """Cross-check the imported erf against its Maclaurin series."""

    def series(x):
        term = x
        total = 0.0
        for k in range(40):
            total += term / (2 * k + 1)
            term *= -x * x / (k + 1)
        return (2.0 / math.sqrt(math.pi)) * total

    xs = np.linspace(-2.0, 2.0, 21)
    assert erf(xs) == pytest.approx([series(x) for x in xs], abs=1e-13)


def test_kernel_box_integral_center():
    # separable closed form: at the origin the integral is pi * erf(1)^2
    got = float(kernel_box_integral(1.0, 0.0, 0.0))
    assert got == pytest.approx(math.pi * float(erf(1.0)) ** 2, abs=1e-14)
    assert got == pytest.approx(2.230985141404134, abs=1e-12)


def test_kernel_box_integral_off_center():
    assert float(kernel_box_integral(1.0, 0.3, -0.5)) == pytest.approx(
        1.8819110463614845, abs=1e-12)


def test_kernel_box_integral_symmetry():
    assert float(kernel_box_integral(2.0, 0.4, -0.7)) == pytest.approx(
        float(kernel_box_integral(2.0, -0.4, 0.7)), rel=1e-14)


@pytest.mark.parametrize("lam,x1,x2", [(1.0, 0.0, 0.0), (5.0, 0.3, -0.5), (0.5, -0.9, 0.9)])
def test_kernel_box_integral_vs_quadrature(lam, x1, x2):
    grid = fine_grid()
    p1, p2 = grid.flat_points()
    vals = np.exp(-lam * ((p1 - x1) ** 2 + (p2 - x2) ** 2))
    assert float(kernel_box_integral(lam, x1, x2)) == pytest.approx(
        apply_quadrature(grid, vals), abs=1e-12)


def composite_axis_integral(lam, mu, x, a, b, n=512, k=16):
    """int_a^b exp(-lam (x - y)^2 - mu y^2) dy by a composite k-point Gauss
    sum on n subintervals, fine enough for lam up to several hundred."""
    nodes, weights = roots_legendre(k)
    h = (b - a) / n
    y = (a + h * np.arange(n)[:, None] + 0.5 * h * (1.0 + nodes)).ravel()
    w = np.tile(0.5 * h * weights, n)
    return np.exp(-lam * (x - y) ** 2 - mu * y * y) @ w


@pytest.mark.parametrize("domain", [UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0)])
@pytest.mark.parametrize("mu", [0.0, 1.0])
@pytest.mark.parametrize("lam", [1.0, 100.0, 300.0])
def test_kernel_box_integral_matches_composite_sum(lam, mu, domain):
    # interior points and points on and near the edges, where a sharp
    # kernel is cut off by the boundary
    t = np.array([0.0, 1e-3, 0.02, 0.3, 0.5, 0.77, 0.99, 1.0])
    x1 = domain.a1 + t * (domain.b1 - domain.a1)
    x2 = domain.a2 + t[::-1] * (domain.b2 - domain.a2)
    got = kernel_box_integral(lam, x1, x2, domain, mu=mu)
    for g, u, v in zip(got, x1, x2):
        ref = (composite_axis_integral(lam, mu, u, domain.a1, domain.b1)
               * composite_axis_integral(lam, mu, v, domain.a2, domain.b2))
        assert g == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_weighted_kernel_box_integral_center():
    got = float(kernel_box_integral(1.0, 0.0, 0.0, mu=1.0))
    assert got == pytest.approx(1.4311050108193526, abs=1e-12)


def test_weighted_kernel_box_integral_vs_quadrature():
    grid = fine_grid()
    p1, p2 = grid.flat_points()
    for x1, x2 in [(0.0, 0.0), (0.6, -0.2)]:
        vals = np.exp(-((p1 - x1) ** 2 + (p2 - x2) ** 2) - (p1**2 + p2**2))
        assert float(kernel_box_integral(1.0, x1, x2, mu=1.0)) == pytest.approx(
            apply_quadrature(grid, vals), abs=1e-12)


def test_weighted_integral_broadcasts():
    x = np.linspace(-1.0, 1.0, 5)
    out = kernel_box_integral(1.0, x, np.zeros(5), mu=1.0)
    assert out.shape == (5,)
    assert out[2] == pytest.approx(1.4311050108193526, abs=1e-12)


def test_problem_validation():
    kwargs = dict(name="p", domain=UNIT_BOX, kernel=lambda r: r,
                  firing_rate=lambda u: u, input_current=lambda a, b, t: a,
                  initial=lambda a, b, t: a)
    with pytest.raises(ValueError):
        ProblemSpec(c=0.0, firing_rate_slope_max=1.0, **kwargs)
    with pytest.raises(ValueError):
        ProblemSpec(c=1.0, v=-2.0, firing_rate_slope_max=1.0, **kwargs)
    with pytest.raises(ValueError):
        ProblemSpec(c=1.0, firing_rate_slope_max=0.0, **kwargs)


def test_delay_properties():
    p3 = example3()
    assert not p3.has_delay
    assert p3.tau_max == 0.0
    p4 = example4(v=2.0)
    assert p4.has_delay
    assert p4.tau_max == pytest.approx(2.0 * math.sqrt(2.0) / 2.0, rel=1e-14)


def test_example4_requires_finite_speed():
    with pytest.raises(ValueError):
        example4(v=math.inf)
    with pytest.raises(ValueError):
        example4(v=0.0)


def test_example5_delay_cancels_its_kernel_factor():
    """K5(r) V(y, t - r / v) = K3(r) V(y, t): example 5's delayed integrand
    is example 3's undelayed one, so example 3's input and solution hold."""
    p3, p5 = example3(lam=2.0, mu=0.5, c=1.5), example5(lam=2.0, mu=0.5, c=1.5, v=0.7)
    assert p5.has_delay and p5.exact is p5.initial
    y = np.array([0.2, -0.6, 0.9])
    for r in (0.0, 0.3, 1.9, 2.8):
        for t in (0.0, 0.25, 1.0):
            delayed = p5.kernel(np.float64(r)) * p5.exact(y, -y, t - r / p5.v)
            undelayed = p3.kernel(np.float64(r)) * p3.exact(y, -y, t)
            assert delayed == pytest.approx(undelayed, rel=1e-14)
            assert np.array_equal(p5.input_current(y, -y, t), p3.input_current(y, -y, t))


def test_example1_fields():
    p = example1()
    x = np.array([0.0, 0.5])
    y = np.array([0.0, -0.5])
    assert p.initial(x, y, 0.0) == pytest.approx([1.0, 1.0])
    assert p.exact(x, y, 0.0) == pytest.approx([1.0, 1.0])
    assert p.exact(x, y, 0.3) == pytest.approx(math.exp(-0.3), rel=1e-14)
    assert p.kernel(np.array([0.0])) == pytest.approx([1.0])
    assert p.firing_rate(np.array([0.7])) == pytest.approx([math.tanh(0.7)])
    # the input cancels the kernel mass scaled by the firing rate at t
    expected = -math.tanh(1.0) * float(kernel_box_integral(1.0, 0.5, -0.5))
    assert float(p.input_current(0.5, -0.5, 0.0)) == pytest.approx(expected, rel=1e-13)


def test_example2_fields():
    p = example2()
    assert p.c == 1.0
    x = np.array([-0.3, 0.8])
    assert p.initial(x, x, 0.0) == pytest.approx([0.0, 0.0])
    assert p.exact(x, x, 0.25) == pytest.approx([0.25, 0.25])
    # at t = 0 the firing term vanishes and the input is exactly c
    assert p.input_current(x, x, 0.0) == pytest.approx([1.0, 1.0], abs=1e-15)


def test_example3_fields():
    p = example3()
    assert float(p.exact(0.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert float(p.initial(0.5, -0.5, 0.0)) == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert p.firing_rate(np.array([-2.0, 0.3])) == pytest.approx([-2.0, 0.3])
    assert p.firing_rate_slope_max == 1.0


def test_example4_shares_fields_with_example3():
    p3 = example3()
    p4 = example4(v=1.0)
    x = np.array([0.2, -0.7])
    assert p4.initial(x, x, -1.5) == pytest.approx(p3.initial(x, x, 0.0))
    assert p4.input_current(x, x, 0.3) == pytest.approx(p3.input_current(x, x, 0.3))
    assert p4.exact is None


@pytest.mark.parametrize("make", [example1, example2, example3, example4, example5])
def test_input_on_axes_after_a_flat_call(make):
    """On one problem instance, the input on a column and a row, asked after
    a 1-D call on the same values, is the 1-D evaluation over all pairs."""
    p = make()
    x = np.array([-0.4, 0.1, 0.7])
    y = np.array([0.3, -0.8, 0.5])
    p.input_current(x, y, 0.2)
    on_axes = p.input_current(x[:, None], y[None, :], 0.2)
    X, Y = np.meshgrid(x, y, indexing="ij")
    assert on_axes.shape == (3, 3)
    assert np.array_equal(on_axes, p.input_current(X.ravel(), Y.ravel(), 0.2).reshape(3, 3))


def test_initial_defined_for_negative_times():
    for p in (example1(), example2(), example3(), example4(v=1.0), example5()):
        vals = p.initial(np.array([0.1]), np.array([-0.2]), -2.0)
        assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("make", [example1, example2, example3, example5])
def test_exact_matches_initial_at_t0(make):
    p = make()
    x = np.linspace(-0.9, 0.9, 7)
    assert p.exact(x, -x, 0.0) == pytest.approx(p.initial(x, -x, 0.0), rel=1e-14)


@pytest.mark.parametrize("make,kwargs", [
    (example1, {}), (example2, {}), (example3, {}),
    (example1, {"sigma": 3.0}), (example2, {"sigma": 5.0, "lam": 5.0}),
])
def test_slope_bound_holds_sampled(make, kwargs):
    """firing_rate_slope_max dominates |S'| sampled over a wide range."""
    p = make(**kwargs)
    u = np.linspace(-50.0, 50.0, 10_000)
    du = 1e-6
    slope = np.abs(p.firing_rate(u + du) - p.firing_rate(u - du)) / (2 * du)
    assert np.max(slope) <= p.firing_rate_slope_max * (1.0 + 1e-6)


def field_residual(problem, x1, x2, t, grid):
    """Residual of c dV/dt = I - V + int K(|x-y|) S(V(y,t)) dy for the
    problem's exact solution, with a centred difference in time."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    ex = problem.exact
    dt = 1e-5
    dV = (np.asarray(ex(x1, x2, t + dt)) - np.asarray(ex(x1, x2, t - dt))) / (2.0 * dt)
    p1, p2 = grid.flat_points()
    d = np.hypot(x1[:, None] - p1[None, :], x2[:, None] - p2[None, :])
    rates = np.asarray(problem.firing_rate(ex(p1, p2, t)), dtype=float)
    integral = (np.asarray(problem.kernel(d), dtype=float) * rates[None, :]) @ grid.flat_weights()
    rhs = np.asarray(problem.input_current(x1, x2, t), dtype=float) \
        - np.asarray(ex(x1, x2, t), dtype=float) + integral
    return problem.c * dV - rhs


@pytest.mark.parametrize("problem", [
    example1(), example2(), example3(),
    example1(lam=2.0, sigma=0.5, c=2.0),
    example3(lam=2.0, mu=0.5, c=2.0),
], ids=["ex1", "ex2", "ex3", "ex1-params", "ex3-params"])
def test_exact_solutions_satisfy_field_equation(problem):
    grid = fine_grid()
    probe = np.linspace(-0.9, 0.9, 5)
    x1 = np.repeat(probe, 5)
    x2 = np.tile(probe, 5)
    for t in (0.03, 0.1, 0.4):
        res = field_residual(problem, x1, x2, t, grid)
        assert np.max(np.abs(res)) < 1e-8, f"residual at t={t}"


def test_input_term_requires_full_domain_integral():
    """Replacing the input's precomputed integral with one taken over the
    positive quadrant only breaks the field equation by an O(1) amount;
    this pins the integration domain of the weighted kernel integral."""
    p = example3()
    quadrant = Rectangle(0.0, 1.0, 0.0, 1.0)

    def wrong_input(x1, x2, t):
        return -math.exp(-t) * kernel_box_integral(1.0, x1, x2, domain=quadrant, mu=1.0)

    import dataclasses
    wrong = dataclasses.replace(p, input_current=wrong_input)
    grid = fine_grid()
    res = field_residual(wrong, np.array([0.0]), np.array([0.0]), 0.1, grid)
    assert np.max(np.abs(res)) > 0.1


def test_kernel_norms_example1():
    grid = build_grid(UNIT_BOX, 6, build_gauss_rule(4))
    norms = compute_kernel_norms(example1(), grid)
    # the kernel peaks at zero distance, reached by the self pairs
    assert norms.k_max == 1.0
    assert norms.l2_estimate == pytest.approx(2.006637229507082, abs=1e-6)


def test_kernel_norms_grid_stability():
    p = example1()
    coarse = compute_kernel_norms(p, build_grid(UNIT_BOX, 3, build_gauss_rule(4)))
    fine = compute_kernel_norms(p, build_grid(UNIT_BOX, 6, build_gauss_rule(4)))
    assert coarse.l2_estimate == pytest.approx(fine.l2_estimate, rel=1e-6)


def test_kernel_norms_zero_kernel():
    import dataclasses
    p = dataclasses.replace(example1(), kernel=lambda r: np.zeros_like(r))
    norms = compute_kernel_norms(p, build_grid(UNIT_BOX, 2, build_gauss_rule(2)))
    assert norms.k_max == 0.0
    assert norms.l2_estimate == 0.0


def test_kernel_norms_reject_nonfinite_kernel():
    import dataclasses
    with np.errstate(divide="ignore"):
        p = dataclasses.replace(example1(), kernel=lambda r: 1.0 / r)
        with pytest.raises(ValueError):
            compute_kernel_norms(p, build_grid(UNIT_BOX, 2, build_gauss_rule(2)))


def brute_force_kernel_norms(kernel, grid):
    """Reference: the kernel on every one of the N^4 grid-point pairs."""
    p1, p2 = grid.flat_points()
    w = grid.flat_weights()
    kv = np.asarray(kernel(np.hypot(p1[:, None] - p1[None, :], p2[:, None] - p2[None, :])))
    return float(np.max(np.abs(kv))), math.sqrt(float(w @ (kv * kv) @ w))


@pytest.mark.parametrize("domain", [UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0)],
                         ids=["square", "offset"])
@pytest.mark.parametrize("kernel", [
    lambda r: np.exp(-r * r),
    lambda r: np.exp(-300.0 * r * r),
    lambda r: r * r * np.exp(-r * r),          # largest away from r = 0
    lambda r: (1.0 - r * r) * np.exp(-r * r),  # negative at long range
], ids=["gauss", "sharp", "ring", "signed"])
@pytest.mark.parametrize("n,k", [(3, 4), (6, 4), (4, 6)])
def test_kernel_norms_match_brute_force_scan(domain, kernel, n, k):
    import dataclasses
    grid = build_grid(domain, n, build_gauss_rule(k))
    norms = compute_kernel_norms(dataclasses.replace(example1(domain=domain), kernel=kernel), grid)
    k_max, l2 = brute_force_kernel_norms(kernel, grid)
    assert norms.k_max == k_max
    assert norms.l2_estimate == pytest.approx(l2, rel=1e-13, abs=0.0)


def test_kernel_norms_evaluate_far_fewer_than_all_pairs():
    import dataclasses
    seen = []

    def counting_kernel(r):
        seen.append(np.size(r))
        return np.exp(-r * r)

    grid = build_grid(UNIT_BOX, 24, build_gauss_rule(4))
    compute_kernel_norms(dataclasses.replace(example1(), kernel=counting_kernel), grid)
    assert 0 < sum(seen) < grid.points_per_axis ** 4 / 100
