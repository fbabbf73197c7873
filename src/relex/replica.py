"""Replica dynamics: the swap rate and the one integrator loop of the package.

``run_pair_ensemble`` advances positions of shape (chains, R, d): R = 1 is a
set of independent single chains, R = 2 a replica pair per chain. Each step
every slot takes one Euler-Maruyama step at its current temperature; a pair
then exchanges with probability min(1, a * h * s), with s evaluated at the
PRE-update positions. Temperature swapping (the discrete algorithm) trades
the temperatures; position swapping, the distributionally equivalent variant,
keeps the temperatures and trades the positions.

Noise comes from a source ``noise(k) -> (xi, u, h)`` for steps k = 0, 1, ...:
the (chains, R, d) Gaussian block, the swap uniforms as one (chains,) row per
fine sub-step, and the sub-step h they were drawn on (h = eta unless a coarse
step consumes summed fine increments). ``block_noise``, ``stream_noise`` and
``coarse_noise`` build the three sources the package uses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .langevin import check_finite, em_update
from .objective import ObjectiveFunction


@dataclass(frozen=True)
class SwapPolicy:
    """Swap intensity a >= 0 plus the integrator stepsize it is paired with.

    The per-step swap probability is a * eta * s, clamped to [0, 1]. Values
    of a * eta >= 1 are allowed (the clamp keeps the probability valid) but
    warned about once, since the nominal probability is then ill-defined.
    """

    intensity: float
    eta: float

    def __post_init__(self):
        if not (0 <= self.intensity < math.inf):
            raise InputError(f"swap intensity must be nonnegative and finite, got {self.intensity}")
        if not (0 < self.eta < math.inf):
            raise InputError(f"eta must be positive and finite, got {self.eta}")
        if self.intensity * self.eta >= 1:
            warnings.warn(
                f"intensity * eta = {self.intensity * self.eta:g} >= 1; "
                "swap probabilities will be clamped to 1",
                RuntimeWarning,
                stacklevel=2,
            )


def swap_rate(u1, u2, tau1, tau2):
    """s = exp(min(0, (1/tau1 - 1/tau2) * (u1 - u2))), always in (0, 1].

    With tau1 < tau2 the rate increases as the first particle's objective
    value exceeds the second's; equal values or equal temperatures give 1,
    even where 1/tau overflows. Vectorized over array inputs.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    tau1 = np.asarray(tau1, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
        raise InputError("objective values in swap rate must be finite")
    if not (np.all(tau1 > 0) and np.all(tau2 > 0)):
        raise InputError("temperatures must be positive")
    out = _rate(u1, u2, tau1, tau2)
    return out if out.ndim else float(out)


def _rate(u1, u2, tau1, tau2):
    """The swap rate of float arrays already checked: finite values,
    positive temperatures."""
    with np.errstate(over="ignore", invalid="ignore"):
        expo = (1.0 / tau1 - 1.0 / tau2) * (u1 - u2)
    # Overflowing reciprocals make inf * 0 or inf - inf, i.e. NaN, exactly at
    # equal values or at temperatures too small to tell apart; fmin maps NaN
    # to exponent 0, rate 1, and equals minimum everywhere else.
    return np.exp(np.fmin(0.0, expo))


def swap_probability(rate, intensity, h):
    """Probability min(1, a * h * s) that a sub-step of length h fires a swap."""
    return np.minimum(1.0, intensity * h * np.asarray(rate, float))


def by_temperature(x, T):
    """Pair positions (chains, 2, d), or pair values (chains, 2), ordered
    (low temperature, high temperature)."""
    low_first = (T[:, 0] <= T[:, 1]).reshape((-1,) + (1,) * (np.ndim(x) - 1))
    return np.where(low_first, x, x[:, ::-1])


def run_pair_ensemble(f: ObjectiveFunction, x0, temps, steps: int, noise,
                      policy: SwapPolicy, mode: str = "temperature", observe=None):
    """Advance ``x0`` by ``steps`` Euler-Maruyama steps of ``policy.eta``.

    ``x0`` has shape (chains, R, d) with R = 1 or 2; ``temps`` broadcasts to
    (chains, R). Each step makes one ``f.value_and_grad`` call at the
    pre-update positions; its values feed the swap rate and the observer.
    The swap branch runs only where a swap can fire: R = 2 and a > 0.
    ``observe(k, x, T, fx)`` sees the positions x_k, their temperatures and
    their objective values fx = f(x_k) at k = 0..steps; the final values
    cost one extra ``f.eval``, made only when an observer is given. Returns
    (positions, temperatures, swap counts per chain).
    """
    if mode not in ("temperature", "position"):
        raise InputError(f"unknown swap mode {mode!r}")
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    x = np.array(x0, dtype=float)
    if x.ndim != 3 or x.shape[1] not in (1, 2) or x.shape[2] != f.dimension:
        raise InputError(f"positions must have shape (chains, 1 or 2, {f.dimension}), "
                         f"got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("starting positions must be finite")
    T = np.array(np.broadcast_to(temps, x.shape[:2]), dtype=float)
    if not np.all(np.isfinite(T) & (T >= 0)):
        raise InputError("temperatures must be finite and nonnegative")
    swapping = x.shape[1] == 2 and policy.intensity > 0
    if swapping and not np.all(T > 0):
        raise InputError("temperatures must be positive")
    swaps = np.zeros(x.shape[0], dtype=int)
    for k in range(steps):
        fx, grad = f.value_and_grad(x)
        if observe is not None:
            observe(k, x, T, fx)
        xi, u, h = noise(k)
        if swapping:
            # The one per-step check the swap rate needs: temperatures only
            # trade places, but a finite x can still have a NaN value.
            if not np.all(np.isfinite(fx)):
                raise InputError("objective values in swap rate must be finite")
            rate = _rate(fx[:, 0], fx[:, 1], T[:, 0], T[:, 1])
        x = em_update(x, grad, T, policy.eta, xi, h)
        check_finite(x, k + 1)
        if swapping:
            fire = (u < swap_probability(rate, policy.intensity, h)).any(axis=0)
            if mode == "temperature":
                T = np.where(fire[:, None], T[:, ::-1], T)
            else:
                x = np.where(fire[:, None, None], x[:, ::-1], x)
            swaps += fire
    if observe is not None:
        observe(steps, x, T, f.eval(x))
    return x, T, swaps


def pair_snapshots(f: ObjectiveFunction, x0, temps, steps: int, noise,
                   policy: SwapPolicy, at, mode: str = "temperature"):
    """Pair run that records ``by_temperature(x, T)`` at each step k in
    ``at`` (k = 0 is the start; every k must lie in [0, steps]). Returns
    (snapshots (len(at), chains, 2, d), swap counts per chain)."""
    rows = {}
    for i, k in enumerate(at):
        if not 0 <= k <= steps:
            raise InputError(f"snapshot step {k} is outside [0, {steps}]")
        rows.setdefault(k, []).append(i)
    snaps = np.empty((len(at),) + np.shape(x0))

    def observe(k, x, T, fx):
        if k in rows:
            snaps[rows[k]] = by_temperature(x, T)
    _, _, swaps = run_pair_ensemble(f, x0, temps, steps, noise, policy, mode, observe)
    return snaps, swaps


# ---------------------------------------------------------------------------
# Noise sources.

def block_noise(xi, u, h):
    """Pre-drawn noise: xi (steps, chains, R, d) and u (steps, chains)."""
    return lambda k: (xi[k], u[k:k + 1], h)


def stream_noise(h, shape, slots, swap=None):
    """Per-step draws: a ``shape`` = (chains, d) normal block from each slot's
    stream, then one row of chains uniforms from the ``swap`` stream."""
    chains, d = shape

    def source(k):
        xi = np.concatenate([s.normal((chains, 1, d)) for s in slots], axis=1)
        return xi, None if swap is None else swap.uniform((1, chains)), h
    return source


def coarse_noise(xi, path, u, m, h):
    """Coarse steps of m fine sub-steps of length h: coarse step k consumes
    the sum of fine increments xi[km:(k+1)m] and the fine uniform rows
    u[km:(k+1)m], so every stepsize shares the Brownian path
    ``path = np.cumsum(xi, axis=0)``."""
    def source(k):
        lo, hi = k * m, (k + 1) * m
        inc = xi[lo:hi].sum(axis=0)
        check_increment(inc, path, lo, hi)
        return inc, u[lo:hi], h
    return source


def check_increment(inc, path, lo, hi):
    """Coupling invariant: a coarse increment is the increment of the shared
    cumulative Brownian ``path`` over fine steps [lo, hi)."""
    expected = path[hi - 1] - (path[lo - 1] if lo else 0.0)
    if not np.all(np.abs(inc - expected) <= 1e-8 + 1e-5 * np.abs(expected)):
        raise InputError(f"coarse increment does not match the Brownian path "
                         f"over fine steps [{lo}, {hi})")
