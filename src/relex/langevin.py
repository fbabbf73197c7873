"""The Euler-Maruyama update for the overdamped Langevin diffusion
dX = -grad U(X) dt + sqrt(2 tau) dW, and its divergence guard.

The explicit update is x <- x - eta * grad U(x) + sqrt(2 eta tau) * xi with
xi a standard-normal increment. No Metropolis correction is applied, so large
stepsizes can blow up; any coordinate exceeding DIVERGENCE_LIMIT (or going
non-finite) aborts with DivergenceError. The loop that applies the update is
``replica.run_pair_ensemble``; it writes the update out with the noise scale
cached per slot (on a coarse step of m sub-steps h, eta = m h and the scale
is sqrt(2 h tau) on the sum of m increments), and ``em_update`` stays the
reference form (criterion 2 checks the loop against it bit for bit).
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError

DIVERGENCE_LIMIT = 1e12


def em_update(position, gradient, temperature, eta, xi):
    """One explicit Euler-Maruyama update; vectorized over leading axes.

    ``temperature`` may be a scalar or a per-chain array broadcast against
    the position's leading axes.
    """
    coef = np.sqrt(2.0 * eta * np.asarray(temperature, dtype=float))[..., None]
    return position - eta * gradient + coef * xi


def check_finite(position, iteration, before=None, temperatures=None):
    """Raise DivergenceError if a coordinate of the positions (chains, R, d) is non-finite
    or past the limit, naming the first such particle, its position ``before`` and the
    temperature it held in ``temperatures`` (chains, R)."""
    # One reduction: NaN fails the comparison, so it raises with inf.
    if not (np.abs(position).max() <= DIVERGENCE_LIMIT):
        where = np.argwhere(~(np.abs(position) <= DIVERGENCE_LIMIT))[0][:-1].tolist()
        chain, slot = (where + [None, None])[:2]
        last = None if before is None else np.array(before[tuple(where)])
        temp = None if temperatures is None else float(temperatures[tuple(where)])
        raise DivergenceError(
            f"trajectory diverged at iteration {iteration} in chain {chain}, slot {slot}"
            + ("" if temp is None else f", temperature {temp}")
            + ("" if last is None else f"; last finite position {last.tolist()}"),
            iteration=iteration, chain=chain, slot=slot, position=last, temperature=temp)
