"""The Euler-Maruyama update for the overdamped Langevin diffusion
dX = -grad U(X) dt + sqrt(2 tau) dW, and its divergence guard.

The explicit update is x <- x - eta * grad U(x) + sqrt(2 h tau) * xi with
xi the Gaussian increment and h the sub-step it was drawn on: h = eta, except
on a coarse step of m sub-steps, where eta = m h and xi sums m standard
normals. No Metropolis
correction is applied, so large stepsizes can blow up; any coordinate
exceeding DIVERGENCE_LIMIT (or going non-finite) aborts with DivergenceError.
The loop that applies the update is ``replica.run_pair_ensemble``; it writes
the update out with the noise scale cached per slot, and ``em_update`` stays
the reference form (criterion 2 checks the loop against it bit for bit).
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


def check_finite(position, iteration, before=None):
    """Raise DivergenceError if a coordinate of the positions (chains, R, d) is non-finite
    or past the limit, naming the first such particle and its position ``before``."""
    # One reduction: NaN fails the comparison, so it raises with inf.
    if not (np.abs(position).max() <= DIVERGENCE_LIMIT):
        where = np.argwhere(~(np.abs(position) <= DIVERGENCE_LIMIT))[0][:-1].tolist()
        chain, slot = (where + [None, None])[:2]
        last = None if before is None else np.array(before[tuple(where)])
        raise DivergenceError(
            f"trajectory diverged at iteration {iteration} in chain {chain}, slot {slot}"
            + ("" if last is None else f"; last finite position {last.tolist()}"),
            iteration=iteration, chain=chain, slot=slot, position=last)
