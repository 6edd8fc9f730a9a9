"""Tests for the bundled problems: closed-form inputs, exact solutions,
kernel norms, and the field equation residual of every exact solution."""

import dataclasses
import math
import re
import tracemalloc

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
    kernel_norms_bytes,
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


def test_kernel_box_integral_takes_integer_bounds():
    """A rectangle of integer bounds gives the values of its float twin,
    bit for bit."""
    x1, x2 = np.linspace(0.0, 2.0, 5)[:, None], np.linspace(-1.0, 1.0, 4)[None, :]
    got = kernel_box_integral(1.0, x1, x2, Rectangle(0, 2, -1, 1), mu=1.0)
    want = kernel_box_integral(1.0, x1, x2, Rectangle(0.0, 2.0, -1.0, 1.0), mu=1.0)
    assert got.tobytes() == want.tobytes()


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


def per_axis_kernel_box_integral(lam, x1, x2, domain, mu):
    """The closed form evaluated axis by axis, one erf pair and one weight
    per axis: the reference kernel_box_integral's one pass must match."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    s = lam + mu
    r = math.sqrt(s)

    def axis_factor(x, a, b):
        x0 = (lam / s) * x
        return np.exp(-(lam * mu / s) * x * x) * (erf(r * (b - x0)) + erf(r * (x0 - a)))

    f1 = axis_factor(x1, domain.a1, domain.b1)
    f2 = axis_factor(x2, domain.a2, domain.b2)
    return (math.pi / (4.0 * s)) * f1 * f2


@pytest.mark.parametrize("domain", [UNIT_BOX, Rectangle(-0.5, 1.5, -2.0, 0.25)],
                         ids=["square", "rectangle"])
@pytest.mark.parametrize("mu", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("lam", [1.0, 5.0, 300.0])
def test_kernel_box_integral_matches_the_per_axis_form_bit_for_bit(lam, mu, domain):
    """Both axes in one pass give the per-axis values bit for bit, in the
    same shape and type: on the column and row that tensor_values passes,
    on flat point vectors of equal shape, and on scalar coordinates, the
    domain's corners and points outside it among them."""
    grid = build_grid(domain, 3, build_gauss_rule(4))
    p1, p2 = grid.flat_points()
    rng = np.random.default_rng(3)
    edges1 = np.array([domain.a1, domain.b1, 0.5 * (domain.a1 + domain.b1), domain.a1 - 0.7])
    edges2 = np.array([domain.b2, domain.a2, domain.b2 + 0.3, 0.5 * (domain.a2 + domain.b2)])
    cases = {
        "column-row": (grid.x1[:, None], grid.x2[None, :]),
        "flat": (p1, p2),
        "flat-edges": (edges1, edges2),
        "flat-random": tuple(rng.uniform(-3.0, 3.0, (2, 50))),
        "scalar": (0.3, -0.5),
        "scalar-corner": (domain.a1, domain.b2),
        "scalar-arrays": (np.float64(domain.b1), np.array(domain.a2)),
    }
    for name, (x1, x2) in cases.items():
        got = kernel_box_integral(lam, x1, x2, domain, mu=mu)
        want = per_axis_kernel_box_integral(lam, x1, x2, domain, mu)
        assert type(got) is type(want), name
        assert np.shape(got) == np.shape(want), name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


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


def test_kernel_values_is_a_finite_float_array_of_the_distances_shape():
    """The kernel's own array where it is a writable float array of the
    distances' shape; a writable float copy of anything else that
    broadcasts to them, a read-only view among them; and one ValueError for
    any non-finite value."""
    r = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    own = np.exp(-r)
    assert dataclasses.replace(example1(), kernel=lambda d: own).kernel_values(r) is own
    for value, want in ((1, np.ones((2, 3))), (0.5, np.full((2, 3), 0.5)),
                        (np.arange(3), np.tile(np.arange(3.0), (2, 1))),
                        (np.float32(2.0) * np.ones((2, 3), np.float32), np.full((2, 3), 2.0)),
                        (np.broadcast_to(0.25, (2, 3)), np.full((2, 3), 0.25))):
        kv = dataclasses.replace(example1(), kernel=lambda d: value).kernel_values(r)
        assert kv.dtype == np.float64 and kv.flags.writeable and np.array_equal(kv, want)
    for bad in (math.nan, math.inf, lambda d: np.where(d > 0.5, -np.inf, 1.0)):
        kernel = bad if callable(bad) else lambda d: bad
        with pytest.raises(ValueError, match="kernel 'example1' produced a non-finite value"):
            dataclasses.replace(example1(), kernel=kernel).kernel_values(r)


def test_rate_values_is_a_float_array_of_the_fields_shape():
    """The rate as a float array of its argument's shape, the argument
    itself for a linear rate that returns it; and one ValueError, naming
    both shapes, for a rate that returns a scalar or flattens or
    transposes a 2-D argument."""
    u = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    assert example3().rate_values(u) is u
    s = dataclasses.replace(example1(), firing_rate=lambda v: np.tanh(v).astype(np.float32))
    assert s.rate_values(u).dtype == np.float64 and s.rate_values(u).shape == (2, 3)
    for rate, shape in ((lambda v: 0.0, ()), (np.ravel, (6,)), (np.transpose, (3, 2))):
        with pytest.raises(ValueError, match=re.escape(f"firing_rate returned shape {shape} "
                                                       f"for field values of shape (2, 3)")):
            dataclasses.replace(example1(), firing_rate=rate).rate_values(u)


@pytest.mark.parametrize("field_name", ["c", "firing_rate_slope_max"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_problem_rejects_non_finite_constants(field_name, value):
    """An infinite time constant or slope bound fails at construction, not
    as NaN increments in the stepper."""
    with pytest.raises(ValueError, match=field_name):
        dataclasses.replace(example1(), **{field_name: value})


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


@pytest.mark.parametrize("make,kwargs,names", [
    (example1, {"lam": 0.0}, "lambda"),
    (example1, {"lam": -1.0}, "lambda"),
    (example1, {"lam": math.nan}, "lambda"),
    (example1, {"lam": math.inf}, "lambda"),
    (example2, {"lam": -0.5}, "lambda"),
    (example3, {"lam": 0.0, "mu": 0.0}, "lambda + mu"),
    (example3, {"lam": -2.0, "mu": 1.0}, "lambda + mu"),
    (example3, {"lam": 1.0, "mu": math.inf}, "lambda + mu"),
    (example4, {"lam": 0.0, "mu": 0.0}, "lambda + mu"),
    (example5, {"lam": -1.0, "mu": 0.5}, "lambda + mu"),
], ids=["ex1-zero", "ex1-negative", "ex1-nan", "ex1-inf", "ex2-negative",
        "ex3-zero-sum", "ex3-negative-sum", "ex3-infinite-mu", "ex4-zero-sum",
        "ex5-negative-sum"])
def test_closed_form_inputs_need_a_positive_decay_rate(make, kwargs, names):
    # the inputs divide by lambda + mu (mu = 0 for examples 1 and 2) and
    # take its square root
    with pytest.raises(ValueError, match=f"finite positive {re.escape(names)},"):
        make(**kwargs)


def test_example3_allows_a_constant_kernel():
    # lambda = 0 is the kernel 1; the bump weight alone keeps the input finite
    p = example3(lam=0.0, mu=1.0)
    assert p.kernel(np.array([0.0, 3.0])) == pytest.approx([1.0, 1.0])
    mass = kernel_box_integral(0.0, 0.0, 0.0, mu=1.0)
    assert float(mass) == pytest.approx(math.pi * erf(1.0) ** 2, rel=1e-14)
    assert np.all(np.isfinite(p.input_current(np.zeros(1), np.zeros(1), 0.5)))


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


SEPARABILITY_GRIDS = [build_grid(UNIT_BOX, 3, build_gauss_rule(4)),
                      build_grid(Rectangle(1.0, 2.0, -3.0, -1.0), 2, build_gauss_rule(6))]


@pytest.mark.parametrize("problem", [example1(lam=2.0), example2(lam=0.5), example3(lam=3.0),
                                     example4(lam=3.0), example5(lam=3.0, v=math.inf)],
                         ids=["example1", "example2", "example3", "example4", "example5-inf"])
def test_kernel_norms_find_the_gaussians_separable(problem):
    """The Gaussian kernels are found separable on the grids, and they are:
    kernel(hypot(d1, d2)) kernel(0) == kernel(|d1|) kernel(|d2|) on signed
    axis differences.  Example 4's delay keeps it on the pair table all the
    same (see the solver tests)."""
    for grid in SEPARABILITY_GRIDS:
        assert compute_kernel_norms(problem, grid).separable
    d = np.linspace(-2.5, 2.5, 41)
    d1, d2 = d[:, None], d[None, :]
    want = problem.kernel(np.hypot(d1, d2)) * problem.kernel(np.zeros(1))
    assert np.max(np.abs(problem.kernel(np.abs(d1)) * problem.kernel(np.abs(d2)) - want)) <= 1e-15


def test_example5_separates_only_without_delay():
    """A finite v adds exp(-r / (c v)), which does not separate by axes;
    v = inf gives the third problem's kernel values bit for bit."""
    for grid in SEPARABILITY_GRIDS:
        assert not compute_kernel_norms(example5(v=1.0), grid).separable
        assert not compute_kernel_norms(example5(v=1e12), grid).separable
        assert compute_kernel_norms(example5(lam=2.0, v=math.inf), grid).separable
    d = np.linspace(0.0, 3.0, 13)
    assert np.array_equal(example5(lam=2.0, v=math.inf).kernel(d), example3(lam=2.0).kernel(d))


@pytest.mark.parametrize("kernel,separable", [
    (lambda r: 2.0 * np.exp(-3.0 * r * r), True),   # scaled: K(0) = 2
    (lambda r: np.exp(0.5 * r * r), True),          # growing: largest away from r = 0
    (lambda r: np.ones_like(r), True),              # constant
    (lambda r: np.exp(-r), False),
    (lambda r: np.zeros_like(r), False),            # K(0) = 0
    (lambda r: -np.exp(-r * r), False),             # K(0) < 0: no real factor
    (lambda r: r * r * np.exp(-r * r), False),
    (lambda r: np.exp(-r * r) + 1e-12 * r, False),  # off by 1e-12, above the 1e-13 tolerance
], ids=["scaled", "growing", "constant", "exp", "zero", "negative", "ring", "perturbed"])
def test_kernel_norms_separability_matches_a_full_pair_scan(kernel, separable):
    """The verdict from the axis distances agrees with the separability
    condition checked on every one of the N^4 grid-point pairs."""
    for grid in SEPARABILITY_GRIDS:
        p = dataclasses.replace(example1(domain=grid.domain), kernel=kernel)
        assert compute_kernel_norms(p, grid).separable is separable
        p1, p2 = grid.flat_points()
        D1, D2 = np.abs(p1[:, None] - p1[None, :]), np.abs(p2[:, None] - p2[None, :])
        k0 = kernel(np.zeros(1))[0]
        gap = kernel(np.hypot(D1, D2)) * k0 - kernel(D1) * kernel(D2)
        k_max = np.max(np.abs(kernel(np.hypot(D1, D2))))
        assert (k0 > 0 and np.max(np.abs(gap)) <= 1e-13 * k_max ** 2) == separable


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


# far from the origin the coordinates' rounding (about 1e-10) exceeds the
# merge tolerance, so no two distances merge
@pytest.mark.parametrize("domain", [UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0),
                                    Rectangle(1e6, 1e6 + 2.0, -1.0, 1.0)],
                         ids=["square", "offset", "far"])
@pytest.mark.parametrize("kernel,peak_at_zero", [
    (lambda r: np.exp(-r * r), True),
    (lambda r: np.exp(-300.0 * r * r), True),
    (lambda r: r * r * np.exp(-r * r), False),         # largest away from r = 0
    (lambda r: (1.0 - r * r) * np.exp(-r * r), True),  # negative at long range
    (lambda r: np.exp(-r), True),
    (example5().kernel, True),
], ids=["gauss", "sharp", "ring", "signed", "exp", "example5"])
@pytest.mark.parametrize("n,k", [(3, 4), (6, 4), (4, 6)])
def test_kernel_norms_match_brute_force_scan(domain, kernel, peak_at_zero, n, k):
    """k_max is the scan's max bit for bit for a kernel largest at r = 0,
    which distance 0, a single float, holds.  A kernel largest elsewhere
    may peak at another float of a merged distance, some ulps away, which
    the merge does not evaluate: there k_max is within one ulp of it."""
    import dataclasses
    grid = build_grid(domain, n, build_gauss_rule(k))
    norms = compute_kernel_norms(dataclasses.replace(example1(domain=domain), kernel=kernel), grid)
    k_max, l2 = brute_force_kernel_norms(kernel, grid)
    if peak_at_zero:
        assert norms.k_max == k_max
    else:
        assert abs(norms.k_max - k_max) <= np.spacing(k_max)
    assert norms.l2_estimate == pytest.approx(l2, rel=1e-13, abs=0.0)


def test_kernel_norms_evaluate_far_fewer_than_all_pairs():
    """One kernel value per pair of merged axis distances: 212^2 at N = 96,
    where the 670 floats per axis that rounding splits them into would
    give 670^2."""
    import dataclasses
    seen = []

    def counting_kernel(r):
        seen.append(np.size(r))
        return np.exp(-r * r)

    grid = build_grid(UNIT_BOX, 24, build_gauss_rule(4))
    compute_kernel_norms(dataclasses.replace(example1(), kernel=counting_kernel), grid)
    assert 0 < sum(seen) <= 6 * grid.points_per_axis ** 2


def one_shot_kernel_norms(kernel, grid):
    """Reference: the norms from the whole matrix of kernel values on the
    distinct axis distances at once, K[i, j] = K(hypot(d1_i, d2_j))."""
    def groups(x, w):
        d, g = np.unique(np.abs(x[:, None] - x[None, :]).ravel(), return_inverse=True)
        return d, np.bincount(g, weights=np.outer(w, w).ravel())

    (d1, W1), (d2, W2) = groups(grid.x1, grid.w1), groups(grid.x2, grid.w2)
    kv = np.asarray(kernel(np.hypot(d1[:, None], d2[None, :])), dtype=float)
    k_max, k0 = float(np.max(np.abs(kv))), kv[0, 0]
    gap = np.multiply.outer(kv[:, 0] / k0, kv[0]) - kv if k0 > 0 else None
    separable = bool(k0 > 0 and np.max(np.abs(gap)) <= 1e-13 * k_max * k_max / k0)
    return k_max, math.sqrt(float(W1 @ (kv * kv) @ W2)), separable


@pytest.mark.parametrize("domain", [UNIT_BOX, Rectangle(1.0, 2.0, -3.0, -1.0)],
                         ids=["square", "offset"])
@pytest.mark.parametrize("kernel", [
    lambda r: np.exp(-r * r),
    lambda r: np.exp(-300.0 * r * r),
    lambda r: r * r * np.exp(-r * r),
    lambda r: (1.0 - r * r) * np.exp(-r * r),
    lambda r: np.exp(-r),
    lambda r: np.zeros_like(r),
], ids=["gauss", "sharp", "ring", "signed", "exp", "zero"])
def test_streamed_kernel_norms_match_one_whole_matrix(domain, kernel):
    """At N = 96 the norms run over many row blocks; k_max and separable are
    those of the whole matrix bit for bit, l2_estimate to 1e-13 relative."""
    grid = build_grid(domain, 24, build_gauss_rule(4))
    norms = compute_kernel_norms(dataclasses.replace(example1(domain=domain), kernel=kernel), grid)
    k_max, l2, separable = one_shot_kernel_norms(kernel, grid)
    assert norms.k_max == k_max
    assert norms.separable is separable
    assert norms.l2_estimate == pytest.approx(l2, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [6, 24], ids=["N24", "N96"])
@pytest.mark.parametrize("problem", [example1(), example5()], ids=["example1", "example5"])
def test_kernel_norms_bytes_bound_the_traced_peak(problem, n):
    """What solve counts for the kernel norms before running them bounds
    what they hold at their peak: on one row block at N = 24 and on many
    at N = 96, for example 5's kernel, whose temporaries the count sizes."""
    grid = build_grid(UNIT_BOX, n, build_gauss_rule(4))
    tracemalloc.start()
    try:
        compute_kernel_norms(problem, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kernel_norms_bytes(grid)


def test_kernel_norms_hold_no_matrix_of_kernel_values():
    """The N = 96 norms hold one row block of kernel values at a time: their
    peak stays near 1.5 MB, where the whole 670 x 670 matrix and its
    temporaries took 10.8 MB."""
    grid = build_grid(UNIT_BOX, 24, build_gauss_rule(4))
    problem = example2(lam=5.0)
    tracemalloc.start()
    try:
        compute_kernel_norms(problem, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6

