"""The Euler-Maruyama update for the overdamped Langevin diffusion
dX = -grad U(X) dt + sqrt(2 tau) dW, and its divergence guard.

The explicit update is x <- x - eta * grad U(x) + sqrt(2 h tau) * xi with
xi standard normal and h the step the increment was drawn on (h = eta except
for coarse steps that consume summed fine increments). No Metropolis
correction is applied, so large stepsizes can blow up; any coordinate
exceeding DIVERGENCE_LIMIT (or going non-finite) aborts with DivergenceError.
The loop that applies the update is ``replica.run_pair_ensemble``.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError

DIVERGENCE_LIMIT = 1e12


def em_update(position, gradient, temperature, eta, xi, h=None):
    """One explicit Euler-Maruyama update; vectorized over leading axes.

    ``temperature`` may be a scalar or a per-chain array broadcast against
    the position's leading axes. ``h`` is the step the Gaussian increment
    ``xi`` was drawn on; it defaults to ``eta``.
    """
    coef = np.sqrt(2.0 * (eta if h is None else h) * np.asarray(temperature, dtype=float))
    if np.ndim(coef) > 0:
        coef = coef[..., None]
    return position - eta * gradient + coef * xi


def check_finite(position, iteration):
    # One reduction: NaN fails the comparison, so it raises with inf.
    if not (np.abs(position).max() <= DIVERGENCE_LIMIT):
        raise DivergenceError(
            f"trajectory diverged at iteration {iteration}", iteration=iteration
        )
