"""Tests for grids, divergences, the decay fit, and the Dirichlet swap term."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relex import replica
from relex.diagnostics import (N_BOOTSTRAP, PI_FLOOR, DecayFit, GridMeasure,
                               _max_boundary_cell, chi2_decay_experiment,
                               chi_square_divergence,
                               dirichlet_acceleration_term,
                               empirical_histogram, gibbs_density,
                               pair_gibbs_density, total_variation)
from relex.errors import InputError
from relex.harness import _best_so_far, _summarize
from relex.objective import ObjectiveFunction, double_well, quadratic
from relex.replica import pair_snapshots, pair_start, swap_rate
from relex.rng import STREAM_BOOTSTRAP, RngStream, pair_streams


class TestGibbsDensity:
    def test_flat_potential_is_uniform(self):
        pi = gibbs_density(quadratic(1, scale=0.0), 1.0, [[-1.0, 1.0]], 10)
        assert np.allclose(pi.mass, 0.1)
        assert np.isclose(pi.mass.sum(), 1.0)

    def test_gaussian_masses_match_closed_form(self):
        # U = x^2 / 2 at tau: Gibbs is N(0, tau); compare cell masses
        from scipy.stats import norm
        tau = 0.7
        pi = gibbs_density(quadratic(1, scale=0.5), tau, [[-8.0, 8.0]], 400)
        edges = np.linspace(-8.0, 8.0, 401)
        exact = np.diff(norm.cdf(edges, scale=np.sqrt(tau)))
        assert np.abs(pi.mass - exact).sum() < 1e-3

    def test_truncation_detected(self):
        with pytest.raises(InputError, match="boundary cells carry non-negligible Gibbs "
                                             "mass; enlarge the bounds"):
            gibbs_density(quadratic(1, scale=0.5), 1.0, [[-1.0, 1.0]], 20)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            gibbs_density(double_well(), 0.0, [[-3.0, 3.0]], 10)
        with pytest.raises(InputError):
            gibbs_density(double_well(), 1.0, [[-3.0, 3.0], [-3.0, 3.0]], 10)

    def test_temperature_too_small_for_the_grid_rejected(self):
        # (U - min U) / tau overflows: an error naming tau, and no RuntimeWarning first
        with pytest.raises(InputError, match=re.escape(
                "(U - min U) / tau is not finite on the Gibbs grid at tau = 4.94066e-324")):
            gibbs_density(double_well(), 5e-324, [[-3.0, 3.0]], 10)

    def test_2d_grid(self):
        pi = gibbs_density(quadratic(2, scale=0.5), 0.5, [[-6, 6], [-6, 6]], 50)
        assert pi.mass.shape == (50, 50)
        assert np.isclose(pi.mass.sum(), 1.0)
        # symmetry of the standard Gaussian
        assert np.allclose(pi.mass, pi.mass.T)

    @pytest.mark.parametrize("shape", [(1,), (5,), (4, 1), (3, 6), (2, 3, 4), (5, 5, 5)])
    def test_max_boundary_cell_reads_every_face_and_no_interior_cell(self, shape):
        mass = RngStream(1).uniform(shape)
        interior = (slice(1, -1),) * mass.ndim
        faces = mass.copy()
        faces[interior] = -np.inf
        mass[interior] += 10.0   # an interior peak never counts
        assert _max_boundary_cell(mass) == faces.max()


class TestPairGibbsDensity:
    def test_factorizes_exactly(self):
        f = double_well()
        pair = pair_gibbs_density(f, 0.1, 1.0, [[-3.0, 3.0]], 40)
        m1 = pair.mass.sum(axis=1)
        m2 = pair.mass.sum(axis=0)
        assert np.allclose(pair.mass, np.outer(m1, m2))
        marg1 = gibbs_density(f, 0.1, [[-3.0, 3.0]], 40)
        assert np.allclose(m1, marg1.mass)

    @pytest.mark.parametrize("tau1, tau2, name", [(5e-324, 1.0, "tau1"), (0.1, 5e-324, "tau2")])
    def test_temperature_too_small_for_the_grid_rejected(self, tau1, tau2, name):
        with pytest.raises(InputError, match=re.escape(
                f"(U - min U) / {name} is not finite on the Gibbs grid at {name} = 4.94066e-324")):
            pair_gibbs_density(double_well(), tau1, tau2, [[-3.0, 3.0]], 10)

    def test_requires_1d_objective(self):
        with pytest.raises(InputError):
            pair_gibbs_density(quadratic(2), 0.1, 1.0, [[-3, 3]], 10)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_takes_one_bounds_row(self, rows):
        with pytest.raises(InputError, match=f"^a pair grid takes one \\(lo, hi\\) bounds row "
                                             f"for both axes, got {rows} rows$"):
            pair_gibbs_density(double_well(), 0.1, 1.0, [[-3.0, 3.0]] * rows, 10)

    def test_evaluates_u_once_on_the_shared_centres(self):
        calls = []

        def value_and_grad(x):
            calls.append(np.array(x))
            return double_well().value_and_grad(x)
        pair = pair_gibbs_density(ObjectiveFunction(1, value_and_grad), 0.1, 1.0,
                                  [[-3.0, 3.0]], 12)
        assert len(calls) == 1 and np.array_equal(calls[0][:, 0], pair.centers(1))
        assert np.array_equal(pair.bounds, [[-3.0, 3.0], [-3.0, 3.0]])


BUILDERS = {
    "gibbs": lambda bounds, res: gibbs_density(double_well(), 0.5, bounds, res),
    "pair gibbs": lambda bounds, res: pair_gibbs_density(double_well(), 0.1, 1.0,
                                                         bounds, res),
    "histogram": lambda bounds, res: empirical_histogram(np.zeros((3, 1)), bounds, res),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("bounds, resolution, message", [
    ([[-3.0, 3.0]], 0, "resolution"),
    ([[-3.0, 3.0]], -2, "resolution"),
    ([[3.0, -3.0]], 10, "bounds"),
    ([[1.0, 1.0]], 10, "bounds"),
    ([[-np.inf, 3.0]], 10, "bounds"),
    ([[np.nan, 3.0]], 10, "bounds"),
])
def test_grid_builders_reject_bad_grids(builder, bounds, resolution, message):
    with pytest.raises(InputError, match=f"grid {message}"):
        BUILDERS[builder](bounds, resolution)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_grid_resolution_must_be_an_integer(builder):
    # truncating 12.7 would build 12 cells
    with pytest.raises(InputError, match="^grid resolution must be an integer, got 12.7$"):
        BUILDERS[builder]([[-3.0, 3.0]], 12.7)
    assert BUILDERS[builder]([[-3.0, 3.0]], np.int64(12)).resolution == 12


class TestGridMeasure:
    def test_resolution_is_the_mass_axis(self):
        gm = GridMeasure([[-1.0, 1.0], [0.0, 2.0]], np.full((4, 4), 1 / 16))
        assert gm.resolution == 4 and gm.ndim == 2
        assert np.array_equal(gm.centers(1), [0.25, 0.75, 1.25, 1.75])

    SHAPE = "^grid mass must have one equal, non-empty axis per bounds row, got shape "
    BOUNDS = r"^grid bounds must be finite \(lo, hi\) rows with lo < hi, got "
    MASS = "^grid mass must be finite and nonnegative in every cell$"

    @pytest.mark.parametrize("bounds, mass, message", [
        ([[-1.0, 1.0], [-1.0, 1.0]], np.full((10, 12), 1 / 120), SHAPE),
        ([[-1.0, 1.0]], 1.0, SHAPE),
        ([[-1.0, 1.0]], np.empty(0), SHAPE),
        ([[-1.0, 1.0]], np.full((3, 3), 1 / 9), SHAPE),
        ([[1.0, 0.0]], np.full(4, 0.25), BOUNDS + r"\[\[1\.0, 0\.0\]\]$"),
        ([[0.0, np.nan]], np.full(4, 0.25), BOUNDS + r"\[\[0\.0, nan\]\]$"),
        ([[0.0, 0.0]], np.full(4, 0.25), BOUNDS),
        ([[0.0, 1.0, 2.0]], np.full(4, 0.25), BOUNDS),
        ("ab", np.full(4, 0.25), "^grid bounds must be a number or a regular array of numbers"),
        ([[0.0, 1.0]], [0.5, 0.75, -0.25, 0.0], MASS),
        ([[0.0, 1.0]], [0.5, np.nan, 0.25, 0.25], MASS),
        ([[0.0, 1.0]], [0.5, np.inf, 0.25, 0.25], MASS),
        ([[0.0, 1.0]], [5.0, 0.0, 0.0, 0.0], r"^grid mass must sum to one, got 5\.0$"),
        ([[0.0, 1.0]], [0.25, 0.25, 0.25, 0.2], r"^grid mass must sum to one, got 0\.95"),
        ([[0.0, 1.0]], "ab", "^grid mass must be a number or a regular array of numbers"),
    ], ids=["unequal-axes", "0-d", "empty", "axes-beyond-the-bounds", "descending",
            "nan-bound", "empty-span", "three-columns", "text-bounds", "negative-cell",
            "nan-cell", "inf-cell", "sums-to-five", "sums-short", "text-mass"])
    def test_bounds_and_mass_are_checked(self, bounds, mass, message):
        with pytest.raises(InputError, match=message):
            GridMeasure(bounds, mass)
        if "grid bounds" in message:    # the rule gibbs_density and empirical_histogram apply
            with pytest.raises(InputError, match=message):
                empirical_histogram([[0.5]], bounds, 4)

    def test_bounds_have_a_row(self):
        # every row test passes on no rows; numpy's histogram and the mass check
        # would report the empty grid in their own terms
        message = r"^grid bounds must have at least one row, got shape \(0, 2\)$"
        with pytest.raises(InputError, match=message):
            empirical_histogram(np.empty((3, 0)), np.empty((0, 2)), 4)
        with pytest.raises(InputError, match=message):
            GridMeasure(np.empty((0, 2)), 1.0)

    @pytest.mark.parametrize("overflow", [-3.0, 1.5, np.nan, np.inf])
    def test_overflow_is_a_fraction(self, overflow):
        with pytest.raises(InputError, match=r"^grid overflow must be in \[0, 1\], got "):
            GridMeasure([[0.0, 1.0]], [0.5, 0.5], overflow=overflow)
        for fraction in (0.0, 0.25, 1.0):
            assert GridMeasure([[0.0, 1.0]], [0.5, 0.5], overflow=fraction).overflow == fraction

    def test_fields_cannot_be_set_past_the_shape_check(self):
        gm = GridMeasure([[-1.0, 1.0]], np.full(4, 1 / 4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            gm.mass = np.ones((3, 3))
        assert gm.resolution == 4 and gm.mass.shape == (4,)


class TestHistogramAndDivergences:
    def test_histogram_normalized_with_overflow(self):
        pts = np.array([[0.0], [0.5], [2.0]])   # one point out of bounds
        mu = empirical_histogram(pts, [[-1.0, 1.0]], 4)
        assert np.isclose(mu.mass.sum(), 1.0)
        assert np.isclose(mu.overflow, 1.0 / 3.0)

    def test_infinite_positions_overflow(self):
        mu = empirical_histogram([[0.1], [np.inf], [-np.inf], [0.2]], [[-1.0, 1.0]], 4)
        assert mu.overflow == 0.5 and mu.mass.sum() == 1.0

    def test_nan_position_rejected(self):
        with pytest.raises(InputError, match="^positions must be non-NaN$"):
            empirical_histogram([[0.1], [np.nan], [0.2]], [[-1.0, 1.0]], 4)

    def test_empty_inputs_raise(self):
        with pytest.raises(InputError, match="no positions to histogram"):
            empirical_histogram(np.empty((0, 1)), [[-1, 1]], 4)
        with pytest.raises(InputError, match="all positions fall outside the histogram bounds"):
            empirical_histogram(np.array([[5.0]]), [[-1, 1]], 4)

    def test_positions_are_a_table_of_points_that_match_the_bounds(self):
        # positions are (N, d): a flat vector is no table of points
        with pytest.raises(InputError, match=r"^positions must have 2 axes, got shape \(3,\)$"):
            empirical_histogram([0.1, 0.2, 0.3], [[-1, 1]], 4)
        with pytest.raises(InputError, match=r"^positions of shape \(1, 3\) have 3 "
                                             "coordinates, but the bounds have 1 rows$"):
            empirical_histogram([[0.1, 0.2, 0.3]], [[-1, 1]], 4)
        mu = empirical_histogram([[0.1, 0.2]], [[-1, 1], [-1, 1]], 4)
        assert mu.mass[2, 2] == 1.0

    def test_chi2_zero_iff_equal(self):
        pi = gibbs_density(double_well(), 0.5, [[-3, 3]], 30)
        # cells whose mass sits below the pi floor contribute O(floor) noise
        assert chi_square_divergence(pi, pi) < 1e-10
        assert total_variation(pi, pi) == 0.0

    def test_chi2_positive_and_floored(self):
        pi = gibbs_density(double_well(), 0.5, [[-3, 3]], 30)
        mu = GridMeasure(pi.bounds, np.roll(pi.mass, 3))
        assert chi_square_divergence(mu, pi) > 0.0
        assert 0.0 < total_variation(mu, pi) <= 1.0

    def test_grid_mismatch_raises(self):
        pi30 = gibbs_density(double_well(), 0.5, [[-3, 3]], 30)
        pi40 = gibbs_density(double_well(), 0.5, [[-3, 3]], 40)
        with pytest.raises(InputError, match="chi-square needs identical grids"):
            chi_square_divergence(pi30, pi40)
        with pytest.raises(InputError, match="total variation needs identical grids"):
            total_variation(pi30, pi40)

    def test_large_sample_tv_small(self):
        # samples drawn from the Gibbs law itself have small TV to it
        from scipy.stats import norm
        tau = 1.0
        pi = gibbs_density(quadratic(1, scale=0.5), tau, [[-8, 8]], 40)
        rng = np.random.default_rng(0)
        pts = rng.normal(0.0, np.sqrt(tau), size=(200_000, 1))
        mu = empirical_histogram(pts, [[-8, 8]], 40)
        assert total_variation(mu, pi) < 0.02


def swap_term_reference(f_test, f, tau1, tau2, a, pair_pi):
    """The swap term from its definition: a/2 * sum of s * (Delta f)^2 * pi, with
    s from ``swap_rate`` of U at the temperatures the pair grid was built at."""
    c = pair_pi.centers(0)
    u = np.asarray(f.eval(c[:, None]), dtype=float)
    s = swap_rate(u[:, None], u[None, :], tau1, tau2)
    x1, x2 = np.meshgrid(c, c, indexing="ij")
    diff = np.asarray(f_test(x2, x1), dtype=float) - np.asarray(f_test(x1, x2), dtype=float)
    return float(0.5 * a * np.sum(s * diff * diff * pair_pi.mass))


TEST_FUNCTIONS = [lambda x1, x2: x1, lambda x1, x2: x1 * x2 + x1,
                  lambda x1, x2: np.sin(3.0 * x1) - x2 ** 2, lambda x1, x2: x1 ** 3]


def on_grid(f_test, pair_pi):
    """The values f_test(x1, x2) on the cells of ``pair_pi``."""
    c = pair_pi.centers(0)
    return f_test(*np.meshgrid(c, c, indexing="ij"))


def one_cell(value, n=10):
    """Zero values on an n x n pair grid but for ``value`` in one cell."""
    h = np.zeros((n, n))
    h[2, 7] = value
    return h


class TestDirichletTerm:
    def test_flat_potential_closed_form(self):
        # s = 1 everywhere and pi is the discrete uniform over cell centers:
        # term = a/2 * E(x2 - x1)^2 = a * var, with the midpoint-grid variance
        # h^2 (n^2 - 1) / 12 for n cells of width h.
        n = 60
        pair = pair_gibbs_density(quadratic(1, scale=0.0), 0.1, 1.0, [[-3, 3]], n)
        val = dirichlet_acceleration_term(on_grid(lambda x1, x2: x1, pair), 1.0, pair)
        h = 6.0 / n
        var = h * h * (n * n - 1) / 12.0
        assert np.isclose(val, var, rtol=1e-12)

    def test_symmetric_f_and_zero_intensity_vanish(self):
        pair = pair_gibbs_density(double_well(), 0.1, 1.0, [[-3, 3]], 50)
        assert dirichlet_acceleration_term(on_grid(lambda a, b: a * b, pair), 1.0, pair) == 0.0
        assert dirichlet_acceleration_term(on_grid(lambda a, b: a, pair), 0.0, pair) == 0.0

    def test_scales_linearly_in_intensity(self):
        pair = pair_gibbs_density(double_well(), 0.1, 1.0, [[-3, 3]], 50)
        h = on_grid(lambda a, b: a, pair)
        v1 = dirichlet_acceleration_term(h, 1.0, pair)
        v3 = dirichlet_acceleration_term(h, 3.0, pair)
        assert np.isclose(v3, 3.0 * v1)
        assert v1 > 0.0

    def test_criterion_5_grid_equals_the_reference_exactly(self):
        pair = pair_gibbs_density(double_well(), 0.1, 1.0, [[-3.0, 3.0]], 200)
        val = dirichlet_acceleration_term(on_grid(lambda x1, x2: x1, pair), 1.0, pair)
        assert val == swap_term_reference(lambda x1, x2: x1, double_well(), 0.1, 1.0, 1.0,
                                          pair) == 0.34981380398579837

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(tau1=st.floats(0.05, 1.0), tau2=st.floats(0.05, 1.0), n=st.integers(8, 60),
           lo=st.floats(-3.5, -3.0), hi=st.floats(3.0, 3.5),
           f_test=st.sampled_from(TEST_FUNCTIONS))
    def test_min_of_the_grid_mass_is_the_swap_rate_times_the_mass(self, tau1, tau2, n, lo,
                                                                   hi, f_test):
        # s = min(1, pi(x2, x1) / pi(x1, x2)), so s * pi = min(pi, pi^T) up to
        # rounding; the reference evaluates f_test(x2, x1) where the term transposes
        pair = pair_gibbs_density(double_well(), tau1, tau2, [[lo, hi]], n)
        want = swap_term_reference(f_test, double_well(), tau1, tau2, 1.0, pair)
        got = dirichlet_acceleration_term(on_grid(f_test, pair), 1.0, pair)
        assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("a", [-1.0, np.nan, np.inf])
    def test_rejects_an_intensity_that_is_negative_or_not_finite(self, a):
        pair = pair_gibbs_density(double_well(), 0.1, 1.0, [[-3, 3]], 10)
        with pytest.raises(InputError, match="swap intensity must be nonnegative and finite"):
            dirichlet_acceleration_term(np.zeros((10, 10)), a, pair)

    def test_rejects_nonsquare_grid(self):
        gm = GridMeasure(np.array([[-3.0, 3.0], [-2.0, 2.0]]), np.full((10, 10), 0.01))
        with pytest.raises(InputError, match="pair grid must be square for the exchange map"):
            dirichlet_acceleration_term(np.zeros((10, 10)), 1.0, gm)

    @pytest.mark.parametrize("h, message", [
        (np.zeros((10, 9)), r"^h must have the pair grid's shape \(10, 10\), got \(10, 9\)$"),
        (np.zeros(10), r"^h must have the pair grid's shape \(10, 10\), got \(10,\)$"),
        (0.0, r"^h must have the pair grid's shape \(10, 10\), got \(\)$"),
        (lambda x1, x2: x1, "^h must be a number or a regular array of numbers, got "),
        ([["a"] * 10] * 10, "^h must be a number or a regular array of numbers, got "),
        (np.ones((10, 10), dtype=bool), "^h must be a number or a regular array of numbers, "),
        (one_cell(np.nan), "^h must be finite$"),
        (one_cell(np.inf), "^h must be finite$"),
    ], ids=["wrong-shape", "one-axis", "scalar", "callable", "text", "bools", "nan-cell",
            "inf-cell"])
    def test_rejects_values_that_are_not_one_number_per_cell(self, h, message):
        pair = pair_gibbs_density(double_well(), 0.1, 1.0, [[-3, 3]], 10)
        with pytest.raises(InputError, match=message):
            dirichlet_acceleration_term(h, 1.0, pair)


DECAY = dict(tau1=0.1, tau2=1.0, eta=0.001, ensemble=1000, sample_times=np.arange(1, 7) * 0.05,
             bounds=[[-3.0, 3.0]], resolution=12, seed=11, fit_floor=0.2)


def decay_fit_alone(f, tau1, tau2, a, eta, ensemble, sample_times, bounds, resolution, seed,
                    fit_floor):
    """One intensity's fit made on its own: one pair_snapshots run of its
    pairs on fresh pair_streams(seed), and its own bootstrap stream."""
    pi = pair_gibbs_density(f, tau1, tau2, bounds, resolution)
    steps = np.rint(np.asarray(sample_times) / eta).astype(int)
    times = steps * eta
    snaps, _ = pair_snapshots(f, pair_start(ensemble), (tau1, tau2), pair_streams(seed), eta,
                              a, steps.tolist())

    def chi2(points):
        return chi_square_divergence(empirical_histogram(points, pi.bounds, pi.resolution), pi)
    curve = np.array([chi2(points) for points in snaps[..., 0]])
    rng = RngStream(seed, STREAM_BOOTSTRAP)
    boot = np.empty((N_BOOTSTRAP, len(times)))
    for b in range(N_BOOTSTRAP):
        idx = rng.integers(ensemble, ensemble)
        boot[b] = [chi2(points[idx]) for points in snaps[..., 0]]

    def rate(values):
        keep = values > fit_floor
        return -np.polyfit(times[keep], np.log(values[keep]), 1)[0]
    rates = [rate(row) for row in boot if np.sum(row > fit_floor) >= 3]
    return DecayFit(times=times, chi2=curve, rate=rate(curve),
                    bootstrap_std=boot.std(axis=0, ddof=1), rate_std=float(np.std(rates, ddof=1)))


class TestDecayExperiment:
    @pytest.mark.parametrize("a", [5.0, 0.0])
    def test_one_run_gives_the_fits_of_separate_runs(self, a, monkeypatch):
        # the control shares the swapping pairs' run and their increments,
        # drawn once, and both fits share one set of chain resamples
        runs, normals = [], []
        kernel, normal = replica.run_pair_ensemble, RngStream.normal

        def counted_kernel(f, x0, *args, **kw):
            runs.append(x0.shape)
            return kernel(f, x0, *args, **kw)

        def counted_normal(stream, shape):
            normals.append(np.prod(shape))
            return normal(stream, shape)
        monkeypatch.setattr(replica, "run_pair_ensemble", counted_kernel)
        monkeypatch.setattr(RngStream, "normal", counted_normal)
        fits = chi2_decay_experiment(double_well(), a=a, **DECAY)
        assert runs == [(2000 if a else 1000, 2, 1)]
        assert sum(normals) == 2 * 300 * 1000       # two slot streams, 300 steps
        monkeypatch.undo()
        assert list(fits) == list(dict.fromkeys([0.0, a]))
        for intensity, fit in fits.items():
            alone = decay_fit_alone(double_well(), a=intensity, **DECAY)
            for field in dataclasses.fields(DecayFit):
                got, want = getattr(fit, field.name), getattr(alone, field.name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name

    def test_decay_fit_runs_and_decays(self):
        fit = chi2_decay_experiment(double_well(), a=5.0, **DECAY)[5.0]
        assert fit.times.shape == fit.chi2.shape == fit.bootstrap_std.shape
        assert np.all(fit.chi2 >= 0)
        assert fit.chi2[0] > fit.chi2[-1]   # point mass relaxes
        assert np.isfinite(fit.rate)

    def test_validation(self):
        with pytest.raises(InputError):
            chi2_decay_experiment(quadratic(2), 0.1, 1.0, 1.0, 0.001, 2000,
                                  [0.1, 0.2, 0.3], [[-3, 3]], 10, 0)
        with pytest.raises(InputError):
            chi2_decay_experiment(double_well(), 0.1, 1.0, 1.0, 0.001, 10,
                                  [0.1, 0.2, 0.3], [[-3, 3]], 10, 0)
        with pytest.raises(InputError):
            chi2_decay_experiment(double_well(), 0.1, 1.0, 1.0, 0.001, 2000,
                                  [0.3, 0.2, 0.1], [[-3, 3]], 10, 0)
        with pytest.raises(InputError, match="^ensemble must be an integer, got 1000.0$"):
            chi2_decay_experiment(double_well(), 0.1, 1.0, 1.0, 0.001, 1000.0,
                                  [0.1, 0.2, 0.3], [[-3, 3]], 10, 0)
        # the snapshots are ordered (low, high) and the Gibbs grid (tau1, tau2)
        for tau1, tau2 in ((1.0, 0.1), (1.0, 1.0)):
            with pytest.raises(InputError, match="^replica exchange requires tau1 < tau2$"):
                chi2_decay_experiment(double_well(), tau1, tau2, 1.0, 0.001, 1000,
                                      [0.1, 0.2, 0.3], [[-3, 3]], 10, 0)

    @pytest.mark.parametrize("floor", ["x", None, True, np.nan, -np.inf, [0.01, 0.02]])
    def test_fit_floor_is_checked_before_any_draw(self, floor, monkeypatch):
        def drew(*args):
            raise AssertionError("drew noise")
        monkeypatch.setattr(RngStream, "normal", drew)
        with pytest.raises(InputError, match="^fit_floor must be a finite number, got "):
            chi2_decay_experiment(double_well(), 0.1, 1.0, 1.0, 0.001, 1000,
                                  [0.1, 0.2, 0.3], [[-3, 3]], 10, 0, fit_floor=floor)

    def test_a_negative_fit_floor_keeps_every_time(self):
        fits = chi2_decay_experiment(double_well(), 0.1, 1.0, 5.0, 0.001, 1000,
                                     [0.01, 0.02, 0.03], [[-3.0, 3.0]], 12, 11, fit_floor=-1.0)
        fit = fits[5.0]
        assert fit.times.size == 3 and np.isfinite(fit.rate)

    @pytest.mark.parametrize("times, message", [
        ([-3.0, -2.0, -1.0], "positive and finite"),
        ([0.1, np.inf], "positive and finite"),
        ([np.nan], "positive and finite"),
        ([], "^need at least one sample time$"),
        # under half a step of eta = 0.001, the first time rounds to step 0
        ([0.0001, 0.0002, 0.0003, 0.0004], r"^sample time 0\.0001 rounds to step 0 of "
                                           r"eta = 0\.001; sample times must exceed half a step$"),
        # increasing, but both times round to one step of eta = 0.001
        ([0.1, 0.1004], r"rounded to steps .* \[100, 100\]"),
        ([5e-324, 0.5], r"^sample time 5e-324 rounds to step 0 "),
        # one flat list: a table of times, or one bare time, names no step order
        ([[0.1, 0.2], [0.3, 0.4]], r"^sample times must have 1 axis, got shape \(2, 2\)$"),
        (0.5, r"^sample times must have 1 axis, got shape \(\)$"),
    ])
    def test_sample_times_must_round_to_increasing_steps(self, times, message):
        with pytest.raises(InputError, match=message):
            chi2_decay_experiment(double_well(), 0.1, 1.0, 1.0, 0.001, 1000,
                                  times, [[-3, 3]], 10, 0)


class TestBestSoFar:
    """The best-so-far curves of a comparison: running minima, per seed and
    temperature, of the objective values the kernel hands its observer."""

    def test_running_minimum(self):
        # one seed whose low-temperature values are 3, 1, 2, 0.5, 4
        observe, curves = _best_so_far(steps=4, stride=1, nseeds=1)
        T = np.array([[0.1, 1.0]])
        for k, v in enumerate([3.0, 1.0, 2.0, 0.5, 4.0]):
            observe(k, None, T, np.array([[v, 10.0]]))
        summary = _summarize("low-temp", curves[:, :, 0], stride=1)
        assert np.array_equal(summary.best_curves[0], [3.0, 1.0, 1.0, 0.5, 0.5])
        assert summary.final_best[0] == summary.best_curves[0, -1]
        assert summary.iterations.tolist() == [0, 1, 2, 3, 4]

    def test_non_increasing_property(self):
        rng = np.random.default_rng(1)
        observe, curves = _best_so_far(steps=495, stride=5, nseeds=3)
        for k in range(496):
            T = np.where(rng.uniform(size=(3, 1)) < 0.5, [0.1, 1.0], [1.0, 0.1])
            observe(k, None, T, rng.normal(size=(3, 2)))
        summary = _summarize("low-temp", curves[:, :, 0], stride=5)
        assert summary.best_curves.shape == (3, 100)
        assert summary.iterations[-1] == 495
        assert np.all(np.diff(summary.best_curves, axis=1) <= 0)

    def test_values_follow_the_temperature(self):
        # after a swap the low-temperature value sits in the second slot
        observe, curves = _best_so_far(steps=1, stride=1, nseeds=1)
        observe(0, None, np.array([[0.1, 1.0]]), np.array([[2.0, 5.0]]))
        observe(1, None, np.array([[1.0, 0.1]]), np.array([[0.5, 1.0]]))
        assert curves[:, 0].tolist() == [[2.0, 5.0], [1.0, 0.5]]
