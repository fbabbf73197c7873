"""Tests for objective functions and the gradient checker."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize

from relex.errors import InputError
from relex.objective import (DEFAULT_CENTERS, DEFAULT_WEIGHTS, ObjectiveFunction,
                             build_gaussian_mixture,
                             check_gradient, double_well, benchmark_mixture,
                             quadratic)

# Frozen oracles (computed once by polished grid search / descent from every
# center and pinned here):
GLOBAL_MIN_POINT = np.array([3.99432782, 3.99311888])
GLOBAL_MIN_VALUE = -0.12392914196873872
U_AT_22 = -0.06538934287979307


class TestMixtureConstruction:
    def test_default_centers_are_the_5x5_grid(self):
        assert DEFAULT_CENTERS.shape == (25, 2)
        assert DEFAULT_CENTERS.min() == 0.0 and DEFAULT_CENTERS.max() == 4.0
        assert len({tuple(c) for c in DEFAULT_CENTERS}) == 25

    def test_default_weights_normalized_and_ascending(self):
        assert np.isclose(DEFAULT_WEIGHTS.sum(), 1.0)
        assert np.all(np.diff(DEFAULT_WEIGHTS) > 0)
        assert DEFAULT_WEIGHTS[0] == 1.0 / 325.0

    @pytest.mark.parametrize("args, match", [
        ((np.empty((0, 2)), np.empty(0), 0.1), "at least one center"),
        ((DEFAULT_CENTERS, DEFAULT_WEIGHTS[:-1], 0.1), "25 centers but 24 weights"),
        ((DEFAULT_CENTERS, -DEFAULT_WEIGHTS, 0.1), "weights must be nonnegative"),
        ((DEFAULT_CENTERS, 0.0 * DEFAULT_WEIGHTS, 0.1), "weight must be positive"),
        ((DEFAULT_CENTERS, DEFAULT_WEIGHTS, -0.1), "kappa must be positive"),
        ((DEFAULT_CENTERS, DEFAULT_WEIGHTS, 0.0), "kappa must be positive"),
        ((DEFAULT_CENTERS, DEFAULT_WEIGHTS, np.inf), "kappa must be positive and finite"),
        ((DEFAULT_CENTERS, DEFAULT_WEIGHTS, np.nan), "kappa must be positive and finite"),
        ((DEFAULT_CENTERS, DEFAULT_WEIGHTS, 0.1, -1.0), "confinement must be nonnegative"),
        ((DEFAULT_CENTERS, DEFAULT_WEIGHTS, 0.1, np.inf),
         "confinement must be nonnegative and finite"),
        ((DEFAULT_CENTERS, DEFAULT_WEIGHTS, 0.1, np.nan),
         "confinement must be nonnegative and finite"),
        # caught before the amplitude check, which would name kappa
        (([[np.nan, 0.0]], [1.0], 0.1), "^mixture centers must be finite$"),
        (([[np.inf, 0.0]], [1.0], 0.1), "^mixture centers must be finite$"),
        (([[0.0, 0.0], [1.0, 1.0]], [1.0, np.nan], 0.1), "^mixture weights must be finite$"),
        (([[0.0, 0.0], [1.0, 1.0]], [1.0, np.inf], 0.1), "^mixture weights must be finite$"),
    ])
    def test_validation_errors(self, args, match):
        with pytest.raises(InputError, match=match):
            build_gaussian_mixture(*args)

    @pytest.mark.parametrize("dim, match", [
        (2.5, "dimension must be an integer, got 2.5"),
        (0, "dimension must be >= 1, got 0"),
        (-1, "dimension must be >= 1, got -1"),
    ])
    def test_dimension_must_be_a_positive_integer(self, dim, match):
        # caught here, not later as a kernel shape error naming the bad dimension
        with pytest.raises(InputError, match=f"^{match}$"):
            quadratic(dim)

    def test_zero_column_centers_rejected(self):
        with pytest.raises(InputError, match="^dimension must be >= 1, got 0$"):
            build_gaussian_mixture(np.empty((3, 0)), np.ones(3), 0.1)

    def test_single_center_value(self):
        f = build_gaussian_mixture(np.array([[0.0, 0.0]]), np.array([1.0]), 0.5)
        # at the center: -1 / (2 pi kappa)
        assert np.isclose(f.eval(np.zeros(2)), -1.0 / (2 * np.pi * 0.5))
        assert np.allclose(f.grad(np.zeros(2)), 0.0)


class TestBenchmarkLandscape:
    def test_global_minimum_location_and_value(self):
        f = benchmark_mixture(0.1)
        assert np.isclose(f.eval(GLOBAL_MIN_POINT), GLOBAL_MIN_VALUE)
        assert np.allclose(f.grad(GLOBAL_MIN_POINT), 0.0, atol=1e-7)
        # the deepest well is the last (heaviest-weight) center
        res = minimize(lambda x: float(f.eval(x)), np.array([3.9, 3.9]),
                       jac=lambda x: f.grad(x))
        assert np.allclose(res.x, GLOBAL_MIN_POINT, atol=1e-4)

    def test_start_point_value(self):
        f = benchmark_mixture(0.1)
        assert np.isclose(f.eval(np.array([2.0, 2.0])), U_AT_22)
        # the start sits in a shallow basin well above the global minimum
        assert U_AT_22 > GLOBAL_MIN_VALUE + 0.05

    def test_narrow_kappa_keeps_25_basins(self):
        f = benchmark_mixture(0.1)
        mins = set()
        for c in DEFAULT_CENTERS:
            res = minimize(lambda x: float(f.eval(x)), c,
                           jac=lambda x: f.grad(x), tol=1e-12)
            mins.add(tuple(np.round(res.x, 5)))
        assert len(mins) == 25

    def test_wide_kappa_merges_basins(self):
        f = benchmark_mixture(0.3)
        mins = set()
        for c in DEFAULT_CENTERS:
            res = minimize(lambda x: float(f.eval(x)), c,
                           jac=lambda x: f.grad(x), tol=1e-12)
            mins.add(tuple(np.round(res.x, 3)))
        assert len(mins) == 1


class TestGradients:
    @pytest.mark.parametrize("factory", [
        lambda: benchmark_mixture(0.1),
        lambda: benchmark_mixture(0.3, confinement=0.5),
        double_well,
        lambda: quadratic(3),
        pytest.param(lambda: quadratic(1, scale=0.0), id="zero_potential"),
    ])
    def test_analytic_matches_central_difference(self, factory):
        f = factory()
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(-2.0, 5.0, size=f.dimension)
            assert check_gradient(f, p) < 1e-6

    def test_vectorized_eval_matches_pointwise(self):
        f = benchmark_mixture(0.1)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.0, 5.0, size=(40, 2))
        batch_u = f.eval(pts)
        batch_g = f.grad(pts)
        for i, p in enumerate(pts):
            assert np.isclose(batch_u[i], f.eval(p))
            assert np.allclose(batch_g[i], f.grad(p))

    def test_confinement_makes_dissipative(self):
        x = np.array([100.0, -100.0])
        # far away a pure mixture is flat, and the confinement dominates:
        # grad ~ 2 lambda x
        assert np.allclose(benchmark_mixture(0.1).grad(x), 0.0, atol=1e-8)
        f = benchmark_mixture(0.1, confinement=0.1)
        assert np.allclose(f.grad(x), 0.2 * x, atol=1e-8)

    def test_check_gradient_on_a_batch_is_the_max_over_its_points(self):
        # the differences shift each point's coordinate, never a whole row
        assert check_gradient(quadratic(2), np.array([[1.0, 2.0], [3.0, 4.0]])) < 1e-9
        for f in (benchmark_mixture(0.1), benchmark_mixture(0.3, confinement=0.5),
                  double_well(), quadratic(3)):
            pts = np.random.default_rng(5).uniform(-1.0, 5.0, (3, 4, f.dimension))
            want = max(check_gradient(f, p) for p in pts.reshape(-1, f.dimension))
            assert check_gradient(f, pts) == want
            assert check_gradient(f, pts[0]) == max(check_gradient(f, p) for p in pts[0])

    def test_check_gradient_rejects_bad_inputs(self):
        f = quadratic(2)
        with pytest.raises(InputError):
            check_gradient(f, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("point, shape", [(0.5, r"\(\)"), ([0.5, 0.2], r"\(2,\)"),
                                              (np.zeros((3, 2)), r"\(3, 2\)")])
    def test_check_gradient_rejects_a_point_of_another_dimension(self, point, shape):
        def value_and_grad(x):
            raise AssertionError("evaluated")
        f = ObjectiveFunction(1, value_and_grad)
        with pytest.raises(InputError, match=f"^point must have a last axis of size 1, "
                                             f"got shape {shape}$"):
            check_gradient(f, point)


def test_double_well_shape():
    f = double_well()
    x = np.array([[0.0], [1.0], [-1.0], [2.0]])
    assert np.allclose(f.eval(x), [1.0, 0.0, 0.0, 9.0])
    assert np.allclose(f.grad(np.array([1.0])), 0.0)
    assert np.allclose(f.grad(np.array([-1.0])), 0.0)
    assert f.eval(np.array([0.0])) > f.eval(np.array([1.0]))


def positions(d):
    """(n, R, d) positions as the kernel passes them, over the range where
    the mixture's components underflow and where they do not."""
    return st.tuples(st.integers(1, 6), st.integers(1, 2)).flatmap(
        lambda nr: st.lists(st.floats(-12.0, 12.0), min_size=nr[0] * nr[1] * d,
                            max_size=nr[0] * nr[1] * d).map(
            lambda v: np.reshape(v, nr + (d,))))


class TestValueAndGrad:
    """``value_and_grad`` maps (..., d) points to (...) values and (..., d)
    gradients."""

    FACTORIES = {
        "mixture": lambda: benchmark_mixture(0.1),
        "confined mixture": lambda: benchmark_mixture(0.05, confinement=0.3),
        "double well": double_well,
        "quadratic": lambda: quadratic(2),
        "zero": lambda: quadratic(2, scale=0.0),
    }

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @given(data=st.data())
    def test_shapes(self, name, data):
        f = self.FACTORIES[name]()
        x = data.draw(positions(f.dimension))
        values, grads = f.value_and_grad(x)
        assert values.shape == x.shape[:-1] and grads.shape == x.shape

    def test_fused_closure_is_kept(self):
        f = double_well()
        assert dataclasses.replace(f, dimension=1).value_and_grad is f.value_and_grad


def reference_mixture(centers, weights, kappa, confinement=0.0):
    """The mixture over (..., n, d) differences with numpy sums over the d
    and center axes: the form the centre-major mixture must reproduce
    bit for bit."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    amp = np.asarray(weights, dtype=float) / (2.0 * np.pi * kappa)

    def components(x):
        diff = x[..., None, :] - centers
        return diff, amp * np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * kappa))

    def eval_fn(x):
        x = np.asarray(x, dtype=float)
        u = -np.sum(components(x)[1], axis=-1)
        return u + confinement * np.sum(x * x, axis=-1) if confinement else u

    def grad_fn(x):
        x = np.asarray(x, dtype=float)
        diff, comps = components(x)
        g = np.sum(comps[..., None] * diff, axis=-2) / kappa
        return g + 2.0 * confinement * x if confinement else g
    return eval_fn, grad_fn


@st.composite
def mixtures_and_points(draw):
    d = draw(st.sampled_from([1, 2, 3, 8]))
    ncenters = draw(st.integers(1, 30))
    centers = draw(st.lists(st.floats(-5.0, 5.0), min_size=ncenters * d,
                            max_size=ncenters * d))
    weights = draw(st.lists(st.floats(0.0, 3.0), min_size=ncenters, max_size=ncenters))
    weights[draw(st.integers(0, ncenters - 1))] = 1.0
    spec = (np.reshape(centers, (ncenters, d)), weights, draw(st.floats(0.01, 2.0)),
            draw(st.sampled_from([0.0, 0.1])))
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 7)),),
                                 (draw(st.integers(1, 7)), 2)]))
    size = int(np.prod(lead, dtype=int)) * d
    x = np.reshape(draw(st.lists(st.floats(-8.0, 8.0), min_size=size, max_size=size)),
                   lead + (d,))
    return spec, x


def assert_matches_reference(spec, x):
    f = build_gaussian_mixture(*spec)
    ref_eval, ref_grad = reference_mixture(*spec)
    values, grads = f.value_and_grad(x)
    assert values.shape == x.shape[:-1] and grads.shape == x.shape
    for got, want in ((f.eval(x), ref_eval(x)), (f.grad(x), ref_grad(x)),
                      (values, ref_eval(x)), (grads, ref_grad(x))):
        # bytes, not np.array_equal, so the sign of a zero counts
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(mixtures_and_points())
def test_mixture_matches_the_difference_tensor_form_bitwise(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("spec", [
    (DEFAULT_CENTERS, DEFAULT_WEIGHTS, 0.1),
    (np.linspace(-4, 4, 7)[:, None], np.arange(1.0, 8.0), 0.3),
    (np.random.default_rng(3).uniform(-5, 5, (25, 3)), np.arange(1.0, 26.0), 0.2, 0.1),
    (np.random.default_rng(4).uniform(-5, 5, (12, 8)), np.ones(12), 0.5),
], ids=["benchmark", "d1", "d3", "d8"])
@pytest.mark.parametrize("points", [
    lambda rng, d: rng.uniform(-12.0, 16.0, (40, 2, d)),      # the protocol's pairs
    lambda rng, d: rng.uniform(-12.0, 16.0, (2000, d)),
    lambda rng, d: rng.uniform(0.0, 4.0, (d,)),               # one point: P = 1
    lambda rng, d: rng.uniform(0.0, 4.0, (1, d)),
    lambda rng, d: rng.uniform(0.0, 4.0, (1, 1, d)),
    lambda rng, d: rng.uniform(-12.0, 16.0, (80, 2, d))[::2],          # strided rows
    lambda rng, d: rng.uniform(-12.0, 16.0, (40, 2, 2 * d))[..., ::2],  # strided coordinates
], ids=["40x2", "2000", "point", "1xpoint", "1x1xpoint", "strided-rows", "strided-coords"])
def test_mixture_matches_the_difference_tensor_form_bitwise_at_fixed_shapes(spec, points):
    # the many-point sets reach far enough out that some components
    # underflow to subnormals and to zero
    x = points(np.random.default_rng(8), np.shape(spec[0])[1])
    assert_matches_reference(spec, x)


@pytest.mark.parametrize("x", [[0.0, -0.0], [[0.0, -0.0]], [[-0.0, -0.0], [0.0, -0.0]]],
                         ids=["point", "1xpoint", "2points"])
def test_mixture_gradient_has_no_negative_zero(x):
    # at a centre every gradient term is a signed zero; the reference's sums
    # start from +0.0, so -0.0 terms sum to +0.0 on every path
    spec = ([[0.0, 0.0]], [1.0], 1.0)
    x = np.array(x)
    assert_matches_reference(spec, x)
    assert not np.any(np.signbit(build_gaussian_mixture(*spec).grad(x)))


# exp arguments on both sides of the -746 clamp, between it and -745.13 (below
# which exp rounds to +0.0), and in the subnormal band above that
CLAMP_EXPONENTS = [-746.0, -745.9999999, -746.0000001, -745.5, -745.14, -745.1,
                   -744.0, -720.0, -708.5, -708.3, -800.0, -5000.0]


@pytest.mark.parametrize("spec", [
    ([[0.0, 0.0]], [1.0], 0.1),
    (DEFAULT_CENTERS, DEFAULT_WEIGHTS, 0.1),
    ([[0.0], [0.5]], [1.0, 3.0], 0.3),
], ids=["one-centre", "benchmark", "d1"])
def test_mixture_clamps_underflowing_exponents_bitwise(spec):
    # points on the first axis with these exponents against the centre at
    # the origin, on both sides of it, plus one whose squared distance is inf
    d = np.shape(spec[0])[1]
    kappa = spec[2]
    r = np.sqrt(-2.0 * kappa * np.array(CLAMP_EXPONENTS))
    x = np.zeros((2 * r.size + 2, d))
    x[:, 0] = np.concatenate((r, -r, [1e200, -1e200]))
    expo = -(r * r) / (2.0 * kappa)
    for lo, hi in ((-746.001, -746.0), (-746.0, -745.999), (-746.0, -745.1333),
                   (-745.13, -708.4)):
        assert np.any((lo <= expo) & (expo < hi))
    with np.errstate(under="ignore"):
        assert np.any((0 < np.exp(expo)) & (np.exp(expo) < np.finfo(float).tiny))
    with np.errstate(over="ignore"):        # the squared distance of 1e200
        assert_matches_reference(spec, x)
        assert_matches_reference(spec, x.reshape(-1, 2, d))
        assert_matches_reference(spec, x[0])
        values = build_gaussian_mixture(*spec).eval(x)
        assert values.tobytes() == reference_mixture(*spec)[0](x).tobytes()


def test_mixture_keeps_nan_coordinates():
    f = benchmark_mixture(0.1)
    ref_eval, ref_grad = reference_mixture(DEFAULT_CENTERS, DEFAULT_WEIGHTS, 0.1)
    x = np.array([[np.nan, 1.0], [40.0, 0.0], [1.0, 2.0]])
    values, grads = f.value_and_grad(x)
    for got, want in ((f.eval(x), ref_eval(x)), (f.grad(x), ref_grad(x)),
                      (values, ref_eval(x)), (grads, ref_grad(x))):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all(np.isnan(got[0])) and not np.any(np.isnan(got[1:]))


@pytest.mark.parametrize("shape", [(3,), (4, 1), (2, 2, 3), ()])
def test_mixture_rejects_points_of_another_dimension(shape):
    f = benchmark_mixture(0.1)
    for fn in (f.eval, f.grad, f.value_and_grad):
        with pytest.raises(InputError, match="last axis of size 2"):
            fn(np.zeros(shape))
