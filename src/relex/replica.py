"""Replica dynamics: the swap rate and the one integrator loop of the package.

``run_pair_ensemble`` advances positions of shape (chains, R, d): R = 1 is a
set of independent single chains, R = 2 a replica pair per chain. Each step
every slot takes one Euler-Maruyama step at its current temperature; a pair
then exchanges with probability min(1, a * eta * s), with s evaluated at the
PRE-update positions. A swap trades the pair's temperatures, and with them
their noise scales. The paper's position swapping, which keeps the
temperatures and trades the positions, is the same process under a
relabelling of the noise; criterion 8 checks the kernel against it.

The kernel draws its own noise from the stream rows it is given: Gaussian
increments and swap uniforms on the sub-step ``eta``. A coarse step of m
sub-steps advances m * eta on the sum of their increments and fires if the
smallest of their m uniforms is below the swap probability.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from .errors import InputError, finite, floats, integer, nonnegative_finite, positive
from .langevin import check_finite
from .objective import ObjectiveFunction
from .rng import RngStream


def swap_rate(u1, u2, tau1, tau2):
    """s = exp(min(0, (1/tau1 - 1/tau2) * (u1 - u2))), always in (0, 1].

    With tau1 < tau2 the rate increases as the first particle's objective
    value exceeds the second's; equal values or equal temperatures give 1,
    even where 1/tau overflows. Vectorized over array inputs.
    """
    u1, u2 = (floats("objective values", u, finite, "finite") for u in (u1, u2))
    tau1, tau2 = (floats("temperatures", t, lambda v: v > 0, "positive") for t in (tau1, tau2))
    try:
        np.broadcast(u1, u2, tau1, tau2)
    except ValueError:
        raise InputError("objective values and temperatures must broadcast together, got "
                         f"shapes {u1.shape}, {u2.shape}, {tau1.shape}, {tau2.shape}") from None
    out = _rate(tau1, tau2, u1, u2)
    return out if out.ndim else float(out)


def _rate(tau1, tau2, u1, u2):
    """swap_rate without its checks."""
    with np.errstate(over="ignore", invalid="ignore"):
        expo = (1.0 / tau1 - 1.0 / tau2) * (u1 - u2)
    # Overflowing reciprocals make inf * 0 or inf - inf, i.e. NaN, exactly at
    # equal values or at temperatures too small to tell apart; fmin maps NaN
    # to exponent 0, rate 1, and equals minimum everywhere else.
    return np.exp(np.fmin(0.0, expo))


def swap_probability(rate, intensity, h):
    """Probability min(1, a * h * s) that a sub-step of length h fires a swap."""
    return np.minimum(1.0, intensity * h * np.asarray(rate, float))


def _fired(u, T, fx, intensity, h):
    """Chains whose uniform in u (chains,) is below the swap probability at
    temperatures T and values fx (chains, 2). As fl(a h s) <= a h for s <= 1,
    only those below min(1, a h) get a rate."""
    cand = (u < min(1.0, intensity * h)).nonzero()[0]
    if cand.size == 0:
        return cand
    # take gathers the candidates' rows in a third of fancy indexing's time
    tc, fc = T.take(cand, 0), fx.take(cand, 0)
    rate = _rate(tc[:, 0], tc[:, 1], fc[:, 0], fc[:, 1])
    return cand[u.take(cand) < swap_probability(rate, intensity, h)]


def pair_temperatures(tau1, tau2):
    """A replica pair's temperatures (tau1, tau2) as floats: each positive and
    finite, and tau1 < tau2, so that the first slot is the low one."""
    tau1, tau2 = positive("tau1", tau1), positive("tau2", tau2)
    if not tau1 < tau2:
        raise InputError("replica exchange requires tau1 < tau2")
    return tau1, tau2


def pair_start(chains: int, d: int = 1):
    """``chains`` pairs (chains, 2, d) started at (1, -1): the first slot at 1
    and the second at -1 in every coordinate."""
    return np.broadcast_to(np.reshape((1.0, -1.0), (1, 2, 1)), (chains, 2, d))


def by_temperature(x, T):
    """Pair positions (chains, 2, d), or pair values (chains, 2), ordered
    (low temperature, high temperature)."""
    low_first = (T[:, 0] <= T[:, 1]).reshape((-1,) + (1,) * (np.ndim(x) - 1))
    return np.where(low_first, x, x[:, ::-1])


def run_pair_ensemble(f: ObjectiveFunction, x0, temps, steps: int, streams,
                      eta: float, intensity: float, observe=None, m: int = 1):
    """Advance ``x0`` by ``steps`` Euler-Maruyama steps of ``m * eta``.

    ``x0`` has shape (chains, R, d) with R = 1 or 2; ``temps`` broadcasts to
    (chains, R). ``streams`` holds one tuple per group of chains (the groups
    split the chains evenly, in order): the group's R slot streams, then its
    swap stream, or None for a group that never swaps. ``rng.pair_streams``
    builds them; a run that cannot swap draws no uniforms. One slot stream
    object held in several places is drawn once, and every place that holds
    it takes the same increments. Noise is drawn on the sub-step ``eta``; a
    step of m sub-steps sums their increments and fires when the smallest of
    its m uniforms is below the swap probability min(1, intensity * eta * s).
    ``intensity * eta >= 1`` is allowed, as the clamp keeps the probability
    valid, but warned about, since the nominal probability is then ill-defined.
    Each step makes one ``f.value_and_grad`` call at the pre-update
    positions; its values feed the swap rate and the observer. The swap
    branch runs only where a swap can fire: R = 2 and intensity > 0.
    ``observe(k, x, T, fx)`` sees the positions x_k, their temperatures and
    their objective values fx = f(x_k) at k = 0..steps; the final values
    cost one extra ``f.eval``, made only when an observer is given. The
    kernel never mutates a ``T`` it has handed over: a swap replaces it with
    a new array, so an observer may cache what it derives from ``T`` until
    it is handed another object. Returns (positions, temperatures, swap
    counts per chain).
    """
    intensity = positive("swap intensity", intensity, zero=True)
    eta = positive("eta", eta)
    if intensity * eta >= 1:
        warnings.warn(f"intensity * eta = {intensity * eta:g} >= 1; "
                      "swap probabilities will be clamped to 1", RuntimeWarning,
                      stacklevel=_outside_level())
    steps, m = integer("steps", steps, 1), integer("m", m, 1)
    x = np.array(floats("starting positions", x0, finite, "finite"))
    if x.ndim != 3 or x.shape[1] not in (1, 2) or x.shape[2] != f.dimension or not len(x):
        raise InputError(f"positions must have shape (chains, 1 or 2, {f.dimension}) "
                         f"with at least one chain, got {x.shape}")
    T = floats("temperatures", temps, nonnegative_finite, "finite and nonnegative")
    try:
        T = np.array(np.broadcast_to(T, x.shape[:2]))
    except ValueError:
        raise InputError(f"temperatures of shape {T.shape} do not broadcast to "
                         f"(chains, R) = {x.shape[:2]}") from None
    swapping = x.shape[1] == 2 and intensity > 0
    if swapping and not np.all(T > 0):
        raise InputError("temperatures must be positive")
    swaps = np.zeros(x.shape[0], dtype=int)
    step = m * eta
    coef = np.sqrt(2.0 * eta * T)[..., None]  # em_update's scale; moves with T on a swap
    for k, (xi, u) in enumerate(_philox_noise(steps, x.shape, streams, swapping, m)):
        fx, grad = f.value_and_grad(x)
        if observe is not None:
            observe(k, x, T, fx)
        # The one per-step check the swap rate needs: temperatures only
        # trade places, but a finite x can still have a NaN value.
        if swapping and not np.isfinite(fx).all():
            raise InputError("objective values in swap rate must be finite")
        before, x = x, x - step * grad + coef * xi  # em_update with the cached scale
        check_finite(x, k + 1, before, T)
        if swapping:
            fired = _fired(u, T, fx, intensity, eta)
            if fired.size:
                T = T.copy()                    # the observer may hold the old T
                T[fired] = T[fired, ::-1]
                coef[fired] = coef[fired, ::-1]
                swaps[fired] += 1
    if observe is not None:
        observe(steps, x, T, f.eval(x))
    return x, T, swaps


def _outside_level() -> int:
    """The ``warnings`` stacklevel, as seen from the function that calls this
    one, of the first frame outside the package: a warning raised under any
    driver names the line that called into relex."""
    frame, level = sys._getframe(2), 2
    while frame.f_back is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level


def pair_snapshots(f: ObjectiveFunction, x0, temps, streams, eta: float,
                   intensity: float, at):
    """Pair run to step max(at) that records ``by_temperature(x, T)`` at each
    step k >= 0 in ``at``, any iterable of steps (k = 0 is the start). Returns
    (snapshots (len(at), chains, 2, d), swap counts per chain)."""
    at, rows = list(at), {}
    for i, k in enumerate(at):
        rows.setdefault(integer("snapshot step", k, 0), []).append(i)
    steps = integer("last snapshot step", max(rows, default=0), 1)
    snaps = np.empty((len(at),) + floats("starting positions", x0).shape)

    def observe(k, x, T, fx):
        if k in rows:
            snaps[rows[k]] = by_temperature(x, T)
    _, _, swaps = run_pair_ensemble(f, x0, temps, steps, streams, eta, intensity, observe)
    return snaps, swaps


# Gaussian draws per stream per chunk: generator calls stay large for any number of groups.
CHUNK_DRAWS = 1 << 10


def _philox_noise(steps, shape, streams, swapping, m):
    """Checks the layout of ``run_pair_ensemble``'s streams for positions of
    ``shape`` (chains, R, d), then yields each step's noise (xi, u), u with a
    uniform per chain only if ``swapping``. Fine rows come in chunks that stop
    at the last step, as one whole-run draw would. Step k sums fine rows
    km..km+m-1 and takes the smallest of their m uniforms, which is below a
    swap probability exactly when one of them is: every m shares one Brownian
    path and one uniform table."""
    chains, R, d = shape
    if not streams or chains % len(streams):
        raise InputError(f"{chains} chains do not split into {len(streams)} groups")
    if not all(isinstance(group, tuple) and len(group) == R + 1
               and all(isinstance(s, RngStream) for s in group[:R])
               and isinstance(group[R], (RngStream, type(None))) for group in streams):
        raise InputError(f"a group is a tuple of {R} slot streams, then a swap stream or None")
    per = chains // len(streams)
    span = max(1, CHUNK_DRAWS // (per * d * m))     # kernel steps per chunk

    def chunks():
        for k in range(0, steps, span):
            rows = min(span, steps - k) * m
            xi = np.empty((rows, chains, R, d))
            u = np.ones((rows, chains if swapping else 0))
            drawn = {}      # id of a slot stream -> its block of this chunk
            for g, (*slots, swap) in enumerate(streams):
                cols = slice(g * per, (g + 1) * per)
                for r, stream in enumerate(slots):
                    if id(stream) not in drawn:
                        drawn[id(stream)] = stream.normal((rows, per, d))
                    xi[:, cols, r] = drawn[id(stream)]
                if swapping and swap is not None:
                    u[:, cols] = swap.uniform((rows, per))
            for lo in range(0, rows, m):
                yield (xi[lo], u[lo]) if m == 1 else (xi[lo:lo + m].sum(0), u[lo:lo + m].min(0))
    return chunks()
