"""Numerical convergence diagnostics: Gibbs densities on grids, histogram
chi-square divergence and its fitted decay rate, and the swap term of the
Dirichlet form.

Grids are uniform with a fixed number of cells per axis; masses live at cell
centers and sum to one. These are desk-scale estimators, not proofs: the
chi-square of an N-chain histogram carries an O(ncells / N) noise floor,
which is why decay fits are restricted to a window above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, floats, integer, number, positive
from .objective import ObjectiveFunction
from .replica import pair_snapshots
from .rng import STREAM_BOOTSTRAP, RngStream, pair_streams

PI_FLOOR = 1e-12
BOUNDARY_MASS_LIMIT = 1e-6
N_BOOTSTRAP = 40    # chain resamples behind a decay fit's standard errors


@dataclass(frozen=True)
class GridMeasure:
    """Probability mass on a uniform rectangular grid.

    ``bounds`` is (d, 2); ``mass`` has d axes of ``resolution`` cells. ``overflow``
    is the fraction of source points that fell outside the bounds (histogram
    use only; excluded from the normalized mass).
    """

    bounds: np.ndarray
    mass: np.ndarray
    overflow: float = 0.0

    def __post_init__(self):
        # frozen: a field set later would skip the shape check below
        object.__setattr__(self, "bounds", np.atleast_2d(np.asarray(self.bounds, dtype=float)))
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=float))
        shape = self.mass.shape
        if len(shape) != self.ndim or 0 in shape or len(set(shape)) != 1:
            raise InputError(f"grid mass must have one equal, non-empty axis per bounds "
                             f"row, got shape {shape} for {self.ndim} rows")

    @property
    def ndim(self):
        return self.bounds.shape[0]

    @property
    def resolution(self) -> int:
        return self.mass.shape[0]

    def centers(self, axis: int = 0) -> np.ndarray:
        return _centers(self.bounds[axis], self.resolution)

    def same_grid(self, other: "GridMeasure") -> bool:
        return (self.resolution == other.resolution
                and self.bounds.shape == other.bounds.shape
                and np.array_equal(self.bounds, other.bounds))


@dataclass
class DecayFit:
    """Exponential-decay fit of a chi-square trajectory."""

    times: np.ndarray
    chi2: np.ndarray
    rate: float
    bootstrap_std: np.ndarray
    rate_std: float


def _grid(bounds, resolution):
    """Checked grid parameters: bounds as a (d, 2) float array of finite
    lo < hi rows, and a resolution of at least one cell per axis."""
    bounds = np.atleast_2d(floats("grid bounds", bounds))
    if (bounds.ndim != 2 or bounds.shape[1] != 2 or not np.all(np.isfinite(bounds))
            or not np.all(bounds[:, 0] < bounds[:, 1])):
        raise InputError(f"grid bounds must be finite (lo, hi) rows with lo < hi, "
                         f"got {bounds.tolist()}")
    return bounds, integer("grid resolution", resolution, 1)


def _centers(row, resolution: int) -> np.ndarray:
    """The ``resolution`` cell centres of the axis ``row`` = (lo, hi)."""
    lo, hi = row
    return lo + (np.arange(resolution) + 0.5) * ((hi - lo) / resolution)


def _max_boundary_cell(mass: np.ndarray) -> float:
    return float(max(np.take(mass, [0, -1], axis=a).max() for a in range(mass.ndim)))


def _gibbs_weights(u: np.ndarray, tau: float, what: str = "tau") -> np.ndarray:
    """exp(-U/tau) scaled so its largest weight is 1; InputError naming the
    temperature ``what`` where (U - min U) / tau is not finite on the grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (u - u.min()) / tau
    if not np.all(np.isfinite(scaled)):
        raise InputError(f"(U - min U) / {what} is not finite on the Gibbs grid "
                         f"at {what} = {tau:g}")
    return np.exp(-scaled)


def _untruncated_mass(w: np.ndarray) -> np.ndarray:
    """Normalized Gibbs weights; InputError if a boundary cell carries
    visible mass. A flat density carries edge mass by construction, so
    truncation is only detectable (and only meaningful) when it varies."""
    mass = w / w.sum()
    flat = w.max() - w.min() <= 1e-12 * w.max()
    if not flat and _max_boundary_cell(mass) > BOUNDARY_MASS_LIMIT:
        raise InputError(
            "boundary cells carry non-negligible Gibbs mass; enlarge the bounds"
        )
    return mass


def gibbs_density(f: ObjectiveFunction, tau: float, bounds, resolution: int) -> GridMeasure:
    """Normalized exp(-U/tau) on a uniform grid (midpoint quadrature).

    Raises InputError when a boundary cell carries visible mass, meaning
    the requested bounds truncate the density.
    """
    tau = positive("tau", tau)
    bounds, resolution = _grid(bounds, resolution)
    if bounds.shape[0] != f.dimension:
        raise InputError(f"bounds must have {f.dimension} rows")
    mesh = np.meshgrid(*(_centers(row, resolution) for row in bounds), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    u = np.asarray(f.eval(pts), dtype=float).reshape((resolution,) * f.dimension)
    return GridMeasure(bounds, _untruncated_mass(_gibbs_weights(u, tau)))


def pair_gibbs_density(f: ObjectiveFunction, tau1: float, tau2: float,
                       bounds, resolution: int) -> GridMeasure:
    """Product-grid Gibbs density exp(-U(x1)/tau1 - U(x2)/tau2), d = 1 only,
    on the square grid whose two axes both span the one bounds row (lo, hi)."""
    if f.dimension != 1:
        raise InputError("pair grid diagnostics require a 1-D objective")
    tau1, tau2 = positive("tau1", tau1), positive("tau2", tau2)
    bounds, resolution = _grid(bounds, resolution)
    if bounds.shape[0] != 1:
        raise InputError(f"a pair grid takes one (lo, hi) bounds row for both axes, "
                         f"got {bounds.shape[0]} rows")
    u = np.asarray(f.eval(_centers(bounds[0], resolution)[:, None]), dtype=float)
    mass = _untruncated_mass(_gibbs_weights(u, tau1, "tau1")[:, None]
                             * _gibbs_weights(u, tau2, "tau2")[None, :])
    return GridMeasure(np.vstack([bounds, bounds]), mass)


def empirical_histogram(positions, bounds, resolution: int) -> GridMeasure:
    """Normalized occupancy histogram; out-of-bounds mass, +-inf included, is
    reported separately. A NaN position lies nowhere, so it is an error."""
    positions = np.atleast_2d(floats("positions", positions))
    if positions.shape[0] == 0:
        raise InputError("no positions to histogram")
    if np.isnan(positions).any():
        raise InputError("positions to histogram must not be NaN")
    bounds, resolution = _grid(bounds, resolution)
    if positions.shape[1:] != bounds.shape[:1]:     # (N, d): a flat vector is one point
        raise InputError(f"positions of shape {positions.shape} have {positions.shape[-1]} "
                         f"coordinates, but the bounds have {bounds.shape[0]} rows")
    counts, _ = np.histogramdd(positions, bins=resolution,
                               range=[tuple(b) for b in bounds])
    total = positions.shape[0]
    inside = counts.sum()
    if inside == 0:
        raise InputError("all positions fall outside the histogram bounds")
    return GridMeasure(bounds, counts / inside, overflow=float(1.0 - inside / total))


def chi_square_divergence(mu: GridMeasure, pi: GridMeasure) -> float:
    """sum over cells of (mu_c / pi_c - 1)^2 * pi_c, with pi floored at 1e-12."""
    if not mu.same_grid(pi):
        raise InputError("chi-square needs identical grids")
    p = np.maximum(pi.mass, PI_FLOOR)
    return float(np.sum((mu.mass / p - 1.0) ** 2 * p))


def total_variation(mu: GridMeasure, pi: GridMeasure) -> float:
    if not mu.same_grid(pi):
        raise InputError("total variation needs identical grids")
    return float(0.5 * np.abs(mu.mass - pi.mass).sum())


def _chi2_of_points(points, pi: GridMeasure) -> float:
    return chi_square_divergence(
        empirical_histogram(points, pi.bounds, pi.resolution), pi
    )


def chi2_decay_experiment(f: ObjectiveFunction, tau1: float, tau2: float,
                          a: float, eta: float, ensemble: int, sample_times,
                          bounds, resolution: int, seed: int,
                          fit_floor: float = 0.01) -> DecayFit:
    """Estimate the chi-square decay of the pair law toward the pair Gibbs
    measure from an ensemble of replica pairs started at the point (1, -1).

    The pair state is tracked in (low-temperature coordinate, high-temperature
    coordinate) order. log chi2 is fitted by least squares over the sample
    times where chi2 exceeds ``fit_floor``; ``rate`` is the fitted decay rate
    (positive means decaying). Bootstrap resampling over chains supplies
    per-time chi2 standard errors and a standard error for the rate, from
    N_BOOTSTRAP resamples.
    """
    if f.dimension != 1:
        raise InputError("chi-square decay experiment requires a 1-D objective")
    ensemble = integer("ensemble", ensemble, 1000)
    tau1, tau2 = positive("tau1", tau1), positive("tau2", tau2)
    if not tau1 < tau2:     # the grid is (tau1, tau2), the snapshots (low, high)
        raise InputError("replica exchange requires tau1 < tau2")
    eta = positive("eta", eta)      # the sample times are counted in steps of eta
    fit_floor = number("fit_floor", fit_floor)
    sample_times = floats("sample times", sample_times)
    if sample_times.size < 1 or not np.all(np.isfinite(sample_times) & (sample_times > 0)):
        raise InputError("sample times must be positive and finite")
    last = float(sample_times.max())
    if last / eta >= 2**53:     # beyond 2**53 a float step count is inexact
        raise InputError(f"sample time {last:g} is 2**53 or more steps of eta = {eta:g}")
    sample_steps = np.maximum(1, np.rint(sample_times / eta).astype(int))
    if np.any(np.diff(sample_steps) <= 0):
        raise InputError(f"sample times must be strictly increasing once rounded to "
                         f"steps of eta = {eta:g}, got steps {sample_steps.tolist()}")
    pi = pair_gibbs_density(f, tau1, tau2, bounds, resolution)

    times = sample_steps * eta
    x0 = np.broadcast_to(np.reshape((1.0, -1.0), (1, 2, 1)), (ensemble, 2, 1))
    snaps, _ = pair_snapshots(f, x0, (tau1, tau2), pair_streams(seed), eta, a,
                              sample_steps.tolist(), mode="position")
    pair_points = snaps[:, :, :, 0]
    chi2 = np.array([_chi2_of_points(pts, pi) for pts in pair_points])
    kept = int(np.sum(chi2 > fit_floor))
    if kept < 3:
        raise InputError(f"only {kept} sample times have chi2 > {fit_floor}")

    boot_rng = RngStream(seed, STREAM_BOOTSTRAP)
    boot = np.empty((N_BOOTSTRAP, len(times)))
    for b in range(N_BOOTSTRAP):
        idx = boot_rng.integers(ensemble, ensemble)
        boot[b] = [_chi2_of_points(pts[idx], pi) for pts in pair_points]
    bootstrap_std = boot.std(axis=0, ddof=1)

    def fit_rate(values):
        keep = values > fit_floor
        return -np.polyfit(times[keep], np.log(values[keep]), 1)[0]

    rate = fit_rate(chi2)
    boot_rates = [fit_rate(row) for row in boot if np.sum(row > fit_floor) >= 3]
    rate_std = float(np.std(boot_rates, ddof=1)) if len(boot_rates) > 1 else float("nan")
    return DecayFit(times=times, chi2=chi2, rate=rate,
                    bootstrap_std=bootstrap_std, rate_std=rate_std)


def dirichlet_acceleration_term(f_test, a: float, pair_pi: GridMeasure) -> float:
    """Grid quadrature of the swap term of the Dirichlet form:
    integral of a/2 * s(x1, x2) * (f(x2, x1) - f(x1, x2))^2 dpi.

    ``pair_pi`` is the pair Gibbs law on a grid, as ``pair_gibbs_density``
    builds it. Its swap rate is s = min(1, pi(x2, x1) / pi(x1, x2)), so
    s * pi = min(pi, pi exchanged) and the sum weighs by the grid's own mass:
    a/2 * sum of min(pi, pi^T) * (f(x2, x1) - f(x1, x2))^2. ``f_test`` must
    accept two broadcastable coordinate arrays. The grid must be square (both
    axes identical) so the exchange (x1, x2) -> (x2, x1) stays on grid points.
    """
    if pair_pi.ndim != 2 or not np.array_equal(pair_pi.bounds[0], pair_pi.bounds[1]):
        raise InputError("pair grid must be square for the exchange map")
    a = positive("swap intensity", a, zero=True)
    c = pair_pi.centers(0)
    x1, x2 = np.meshgrid(c, c, indexing="ij")
    diff = np.asarray(f_test(x2, x1), dtype=float) - np.asarray(f_test(x1, x2), dtype=float)
    return float(0.5 * a * np.sum(np.minimum(pair_pi.mass, pair_pi.mass.T) * diff * diff))
