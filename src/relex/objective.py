"""Objective functions: generic interface, the 25-component Gaussian-mixture
benchmark, and a few standard test potentials.

An objective is one vectorized callable, ``value_and_grad``, that maps points
of shape (..., d) to their values (...) and gradients (..., d) in one shared
pass; ``eval`` and ``grad`` are its two halves. A single point is just the
shape-(d,) case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, floats, integer

# Centers of the benchmark mixture: (0,0), (0,1), ..., (0,4), (1,0), ..., (4,4).
DEFAULT_CENTERS = np.array(
    [(i, j) for i in range(5) for j in range(5)], dtype=float
)

# Normalized ascending weights i/325 (325 = 1 + ... + 25), so the last
# center (4, 4) is the deepest well and the first the shallowest.
DEFAULT_WEIGHTS = np.arange(1, 26, dtype=float) / 325.0


@dataclass(frozen=True)
class ObjectiveFunction:
    """A scalar field on R^d with an analytic gradient.

    ``value_and_grad(x)`` maps points (..., d) to their values (...) and
    gradients (..., d) in one pass over whatever the two share; ``eval`` and
    ``grad`` return its two halves."""

    dimension: int
    value_and_grad: Callable[[np.ndarray], tuple]

    def __post_init__(self):
        if integer("dimension", self.dimension) < 1:
            raise InputError(f"dimension must be >= 1, got {self.dimension}")

    def eval(self, x):
        return self.value_and_grad(x)[0]

    def grad(self, x):
        return self.value_and_grad(x)[1]


def build_gaussian_mixture(centers, weights, kappa: float,
                           confinement: float = 0.0) -> ObjectiveFunction:
    """Negative isotropic Gaussian-mixture objective with analytic gradient:
    centers (n, d), nonnegative weights (n,), shared variance kappa.

    U(x) = -sum_i w_i / (2 pi kappa) * exp(-||x - c_i||^2 / (2 kappa))
           [+ lambda * ||x||^2 when confinement is enabled]
    """
    centers = np.atleast_2d(floats("mixture centers", centers))
    weights = floats("mixture weights", weights).ravel()
    kappa = float(kappa)
    lam = float(confinement)
    if centers.shape[0] == 0:
        raise InputError("mixture needs at least one center")
    if centers.shape[0] != weights.shape[0]:
        raise InputError(f"{centers.shape[0]} centers but {weights.shape[0]} weights")
    for what, values in (("centers", centers), ("weights", weights)):
        if not np.all(np.isfinite(values)):
            raise InputError(f"mixture {what} must be finite")
    if np.any(weights < 0):
        raise InputError("mixture weights must be nonnegative")
    if not np.any(weights > 0):
        raise InputError("at least one mixture weight must be positive")
    if not (0 < kappa < math.inf):
        raise InputError(f"kappa must be positive and finite, got {kappa}")
    if not math.isfinite(float(weights.max()) / (2.0 * math.pi * kappa)):
        raise InputError(f"kappa = {kappa} overflows the mixture amplitude "
                         f"max(weights) / (2 pi kappa)")
    if not (0 <= lam < math.inf):
        raise InputError(f"confinement must be nonnegative and finite, got {lam}")
    dim = centers.shape[1]
    amp = (weights / (2.0 * np.pi * kappa))[:, None]   # (n, 1)
    centers_t = np.ascontiguousarray(centers.T)[:, :, None]   # (d, n, 1)

    def _points(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (dim,):
            raise InputError(f"points must have a last axis of size {dim}, "
                             f"got shape {x.shape}")
        return x

    # The mixture works centre-major: one (d, n, P) array of differences over
    # the P points flattened innermost, so each numpy call covers every point.
    # Its sums round exactly as the same sums over (..., n, d) differences.
    def _components(x):
        """The differences (d, n, P) and the weighted component densities
        (n, P) of the points x (..., d)."""
        diff = x.reshape(-1, dim).T[:, None, :] - centers_t
        if dim < 8:
            # numpy sums fewer than 8 terms left to right, so this is bitwise
            # np.sum(diff * diff, axis=-1); from 8 terms on it sums pairwise.
            sq = diff[0] * diff[0]
            for dj in diff[1:]:
                sq += dj * dj
        else:
            sq = np.sum(np.moveaxis(diff * diff, 0, -1).copy(), axis=-1)
        sq /= -2.0 * kappa                # -sq / (2 kappa), bit for bit, in place
        # exp rounds to +0.0 below about -745.13, as it does at -inf, but numpy
        # takes a slow path there; subnormal results keep their exact exp.
        np.putmask(sq, sq < -746.0, -np.inf)
        return diff, np.multiply(amp, np.exp(sq, out=sq), out=sq)

    def _center_sum(terms):   # pairwise over the centres, as numpy sums a contiguous axis
        return np.add.reduce(np.ascontiguousarray(terms.T), axis=-1)

    def _value(x, comps):
        u = -_center_sum(comps).reshape(x.shape[:-1])
        if lam > 0:
            u = u + lam * np.sum(x * x, axis=-1)
        return u

    def _grad(x, diff, comps):
        # Centre sums in the order np.sum(comps[..., None] * diff, axis=-2) has:
        # pairwise for d = 1, else left to right, as a reduce over an outer axis.
        # One point makes the centre axis innermost, so there a cumsum keeps it;
        # + 0.0 then gives +0.0 for a sum of -0.0 terms, as the reduction does.
        diff *= comps
        if dim == 1:
            g = _center_sum(diff[0])[None]
        elif diff.shape[2] == 1:
            g = np.cumsum(diff, axis=1)[:, -1] + 0.0
        else:
            g = np.add.reduce(diff, axis=1)
        g = np.divide(g.T, kappa, order="C").reshape(x.shape)
        if lam > 0:
            g = g + 2.0 * lam * x
        return g

    def value_and_grad(x):
        x = _points(x)
        diff, comps = _components(x)
        return _value(x, comps), _grad(x, diff, comps)

    return ObjectiveFunction(dim, value_and_grad)


def benchmark_mixture(kappa: float, confinement: float = 0.0) -> ObjectiveFunction:
    """The standard 25-center benchmark on the 5x5 integer grid with the
    default ascending weight vector."""
    return build_gaussian_mixture(DEFAULT_CENTERS, DEFAULT_WEIGHTS, kappa, confinement)


def quadratic(dim: int = 2, scale: float = 0.5) -> ObjectiveFunction:
    """U(x) = scale * ||x||^2. With scale 0.5 the gradient is x itself."""

    def value_and_grad(x):
        x = np.asarray(x, float)
        return scale * np.sum(x ** 2, axis=-1), 2.0 * scale * x

    return ObjectiveFunction(dim, value_and_grad)


def double_well() -> ObjectiveFunction:
    """1-D double well U(x) = (x^2 - 1)^2 with minima at x = +-1."""

    def value_and_grad(x):
        x = np.asarray(x, float)
        t = x[..., 0:1] ** 2 - 1.0
        return (t * t)[..., 0], 4.0 * x * t

    return ObjectiveFunction(1, value_and_grad)


def check_gradient(f: ObjectiveFunction, point) -> float:
    """Max over coordinates of |analytic - central difference| / (1 + |analytic|),
    with central differences of step 1e-6. ``point`` is one point (d,) or a
    batch (..., d); a batch gives the max over its points."""
    step = 1e-6
    point = floats("point", point)
    if point.shape[-1:] != (f.dimension,):
        raise InputError(f"point must have a last axis of size {f.dimension}, "
                         f"got shape {point.shape}")
    if not np.all(np.isfinite(point)):
        raise InputError("point must be finite")
    analytic = np.asarray(f.grad(point), dtype=float)
    fd = np.empty_like(analytic)
    for k in range(point.shape[-1]):
        hi = point.copy()
        lo = point.copy()
        hi[..., k] += step
        lo[..., k] -= step
        fd[..., k] = (f.eval(hi) - f.eval(lo)) / (2.0 * step)
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))
