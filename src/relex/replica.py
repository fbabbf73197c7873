"""Replica dynamics: the swap rate and the one integrator loop of the package.

``run_pair_ensemble`` advances positions of shape (chains, R, d): R = 1 is a
set of independent single chains, R = 2 a replica pair per chain. Each step
every slot takes one Euler-Maruyama step at its current temperature; a pair
then exchanges with probability min(1, a * h * s), with s evaluated at the
PRE-update positions. Temperature swapping (the discrete algorithm) trades
the temperatures; position swapping, the distributionally equivalent variant,
keeps the temperatures and trades the positions.

The kernel draws its own noise from the stream rows it is given: Gaussian
increments and swap uniforms on the sub-step h = ``policy.eta``. A coarse
step of m sub-steps advances m * h on the sum of their increments and fires
if any of their m uniforms does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .langevin import check_finite
from .objective import ObjectiveFunction


@dataclass(frozen=True)
class SwapPolicy:
    """Swap intensity a >= 0 plus the stepsize eta (on a coarse run, the sub-step).

    The swap probability per (sub-)step is a * eta * s, clamped to [0, 1].
    Values of a * eta >= 1 are allowed (the clamp keeps the probability
    valid) but warned about once, since the nominal probability is then
    ill-defined.
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
    out = _rate_at_gap(_inverse_gap(tau1, tau2), u1, u2)
    return out if out.ndim else float(out)


def _inverse_gap(tau1, tau2):
    """1/tau1 - 1/tau2; exchanging the temperatures exactly negates it,
    since IEEE subtraction is sign-symmetric."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 / tau1 - 1.0 / tau2


def _rate_at_gap(gap, u1, u2):
    """exp(min(0, gap * (u1 - u2))) for the inverse-temperature gap."""
    with np.errstate(over="ignore", invalid="ignore"):
        expo = gap * (u1 - u2)
    # Overflowing reciprocals make inf * 0 or inf - inf, i.e. NaN, exactly at
    # equal values or at temperatures too small to tell apart; fmin maps NaN
    # to exponent 0, rate 1, and equals minimum everywhere else.
    return np.exp(np.fmin(0.0, expo))


def swap_probability(rate, intensity, h):
    """Probability min(1, a * h * s) that a sub-step of length h fires a swap."""
    return np.minimum(1.0, intensity * h * np.asarray(rate, float))


def _fired(u, gap, fx, intensity, h):
    """Chains with a uniform in u (m, chains) below the swap probability at values fx
    (chains, 2). As fl(a h s) <= a h for s <= 1, only those below min(1, a h) get a rate."""
    low = u[0] if len(u) == 1 else u.min(axis=0)
    cand = (low < min(1.0, intensity * h)).nonzero()[0]
    if cand.size == 0:
        return cand
    rate = _rate_at_gap(gap[cand], fx[cand, 0], fx[cand, 1])
    return cand[(u[:, cand] < swap_probability(rate, intensity, h)).any(axis=0)]


def by_temperature(x, T):
    """Pair positions (chains, 2, d), or pair values (chains, 2), ordered
    (low temperature, high temperature)."""
    low_first = (T[:, 0] <= T[:, 1]).reshape((-1,) + (1,) * (np.ndim(x) - 1))
    return np.where(low_first, x, x[:, ::-1])


def run_pair_ensemble(f: ObjectiveFunction, x0, temps, steps: int, streams,
                      policy: SwapPolicy, mode: str = "temperature", observe=None, m=1):
    """Advance ``x0`` by ``steps`` Euler-Maruyama steps of ``m * policy.eta``.

    ``x0`` has shape (chains, R, d) with R = 1 or 2; ``temps`` broadcasts to
    (chains, R). ``streams`` is the (slots, swap) pair of ``pair_streams``:
    one row of R streams per group of chains (the groups split the chains
    evenly, in order) and one swap stream per group, None for a group that
    never swaps; ``swap=None`` draws no uniforms, and only a run that cannot
    swap may pass it. Noise is drawn on the sub-step h = ``policy.eta``; a
    step of m sub-steps sums their increments and tests all m uniforms.
    Each step makes one ``f.value_and_grad`` call at the pre-update
    positions; its values feed the swap rate and the observer. The swap
    branch runs only where a swap can fire: R = 2 and a > 0.
    ``observe(k, x, T, fx)`` sees the positions x_k, their temperatures and
    their objective values fx = f(x_k) at k = 0..steps; the final values
    cost one extra ``f.eval``, made only when an observer is given. The
    kernel never mutates a ``T`` it has handed over: a temperature swap
    replaces it with a new array, so an observer may cache what it derives
    from ``T`` until it is handed another object. Returns (positions,
    temperatures, swap counts per chain).
    """
    if mode not in ("temperature", "position"):
        raise InputError(f"unknown swap mode {mode!r}")
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    if m < 1:
        raise InputError(f"a step needs m >= 1 sub-steps, got {m}")
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
    slots, swap = streams
    if swapping and swap is None:
        raise InputError("a swapping run needs swap streams")
    draw = _philox_noise(steps, x.shape, slots, swap, m)
    swaps = np.zeros(x.shape[0], dtype=int)
    h = policy.eta
    eta = m * h
    coef = np.sqrt(2.0 * h * T)[..., None]    # em_update's scale; moves with T on a swap
    if swapping:
        gap = _inverse_gap(T[:, 0], T[:, 1])
    for k in range(steps):
        fx, grad = f.value_and_grad(x)
        if observe is not None:
            observe(k, x, T, fx)
        xi, u = draw(k)
        # The one per-step check the swap rate needs: temperatures only
        # trade places, but a finite x can still have a NaN value.
        if swapping and not np.isfinite(fx).all():
            raise InputError("objective values in swap rate must be finite")
        before, x = x, x - eta * grad + coef * xi   # em_update with the cached scale
        check_finite(x, k + 1, before)
        if swapping:
            fired = _fired(u, gap, fx, policy.intensity, h)
            if fired.size:
                if mode == "temperature":
                    T = T.copy()                # the observer may hold the old T
                    T[fired] = T[fired, ::-1]
                    coef[fired] = coef[fired, ::-1]
                    gap[fired] = -gap[fired]
                else:
                    x[fired] = x[fired, ::-1]   # x is this step's fresh array
                swaps[fired] += 1
    if observe is not None:
        observe(steps, x, T, f.eval(x))
    return x, T, swaps


def pair_snapshots(f: ObjectiveFunction, x0, temps, steps: int, streams,
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
    _, _, swaps = run_pair_ensemble(f, x0, temps, steps, streams, policy, mode, observe)
    return snaps, swaps


# Gaussian draws per stream per chunk: generator calls stay large for any number of groups.
CHUNK_DRAWS = 1 << 10


def _philox_noise(steps, shape, slots, swap, m):
    """``source(k) -> (xi, u)``, the noise of step k of a ``steps``-step run
    over positions of ``shape`` (chains, R, d) from the streams of
    ``run_pair_ensemble``. Fine rows come in chunks that stop at the run's
    last step, as one whole-run draw would. Step k sums fine rows
    km..km+m-1 and takes their m uniform rows, so every m shares the
    Brownian path of the same keys."""
    chains, R, d = shape
    groups = len(slots)
    if groups == 0 or chains % groups:
        raise InputError(f"{chains} chains do not split into {groups} groups")
    if any(len(row) != R for row in slots):
        raise InputError(f"every group needs {R} slot streams, one per slot")
    if swap is not None and len(swap) != groups:
        raise InputError(f"{len(swap)} swap streams for {groups} groups")
    per = chains // groups
    span = max(1, CHUNK_DRAWS // (per * d * m))     # kernel steps per chunk
    xi = u = None

    def source(k):
        nonlocal xi, u
        if k % span == 0:
            rows = min(span, steps - k) * m
            xi = np.empty((rows, chains, R, d))
            u = None if swap is None else np.ones((rows, chains))
            for g, row in enumerate(slots):
                cols = slice(g * per, (g + 1) * per)
                for r, stream in enumerate(row):
                    xi[:, cols, r] = stream.normal((rows, per, d))
                if u is not None and swap[g] is not None:
                    u[:, cols] = swap[g].uniform((rows, per))
        lo = k % span * m
        inc = xi[lo] if m == 1 else xi[lo:lo + m].sum(axis=0)
        return inc, None if u is None else u[lo:lo + m]
    return source
