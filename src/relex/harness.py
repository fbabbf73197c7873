"""Experiment orchestration: the three-algorithm comparison, the coupled
discretization-error experiment, and CSV emission.

All randomness flows from one root seed. Each seed of a comparison owns three
derived streams (particle-1 noise, particle-2 noise, swap uniforms). A
comparison is one kernel run over two copies of the seed set: in the first
copy the pairs never swap, so their two slots are the single-temperature
baselines; the second copy is the replica run on the same noise, from the
same slot streams, drawn once. A replica run with intensity 0 therefore
reproduces the low-temperature baseline bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, finite, floats, integer, positive, positive_finite
from .objective import ObjectiveFunction
from .replica import by_temperature, pair_start, pair_temperatures, run_pair_ensemble
from .rng import pair_streams


@dataclass
class RunSummary:
    """One comparison arm. ``wall_time`` is the time of the kernel run behind
    it; the three arms of a comparison share one run, so they report the same
    time."""

    algorithm: str
    iterations: np.ndarray       # thinned iteration indices, starting at 0
    best_curves: np.ndarray      # (nseeds, npoints) running minima, per seed
    final_best: np.ndarray       # (nseeds,)
    swap_counts: np.ndarray | None = None
    wall_time: float = 0.0


@dataclass
class DiscretizationResult:
    etas: np.ndarray
    mse: np.ndarray
    stderr: np.ndarray
    slope: float


def pregenerate_noise(streams, steps: int, chains: int, dim: int, m: int = 1):
    """The noise the kernel draws from ``streams``, ``pair_streams`` groups
    that split ``chains`` evenly, drawn as one whole-run block per stream:
    normals (steps, chains, 2, dim), each step the sum of its m sub-step
    rows, and swap uniforms (steps, chains), each the smallest of its m.
    Criterion 2's and criterion 8's oracles replay it, and the kernel's
    chunked draws are tested against it."""
    rows, per = steps * m, chains // len(streams)
    xi, u = np.empty((rows, chains, 2, dim)), np.empty((rows, chains))
    for g, (pos1, pos2, swap) in enumerate(streams):
        cols = slice(g * per, (g + 1) * per)
        xi[:, cols, 0] = pos1.normal((rows, per, dim))
        xi[:, cols, 1] = pos2.normal((rows, per, dim))
        u[:, cols] = swap.uniform((rows, per))
    return xi.reshape(steps, m, chains, 2, dim).sum(1), u.reshape(steps, m, chains).min(1)


def _best_so_far(steps: int, stride: int, nseeds: int):
    """Observer for a comparison pair run, and the array it fills: each
    seed's running minimum of f over the (low, high) pair, copied out every
    ``stride`` steps into curves of shape (steps/stride + 1, nseeds, 2)."""
    best = np.full((nseeds, 2), np.inf)
    curves = np.empty((steps // stride + 1, nseeds, 2))
    seen = order = None

    def observe(k, x, T, fx):
        # The kernel hands over a new T on a swap and never mutates one, so
        # the flat (low, high) order holds until the object changes.
        nonlocal seen, order
        if T is not seen:
            seen, order = T, by_temperature(np.arange(2 * nseeds).reshape(nseeds, 2), T)
        np.minimum(best, fx.take(order), out=best)
        if k % stride == 0:
            curves[k // stride] = best
    return observe, curves


def _summarize(algorithm: str, traj: np.ndarray, stride: int, swap_counts=None,
               wall_time: float = 0.0) -> RunSummary:
    """``traj`` holds one arm's best-so-far curves, (npoints, nseeds),
    sampled every ``stride`` steps from step 0."""
    return RunSummary(
        algorithm=algorithm,
        iterations=np.arange(traj.shape[0]) * stride,
        best_curves=traj.T,
        final_best=traj[-1],
        swap_counts=swap_counts,
        wall_time=wall_time,
    )


def run_comparison(f: ObjectiveFunction, tau1: float, tau2: float, a: float, eta: float,
                   steps: int, ensemble: int, seed: int, init, stride: int = 10):
    """The low-temp baseline, high-temp baseline and replica pair at swap
    intensity ``a``, run over ``ensemble`` seeds with shared noise for
    ``steps`` steps of ``eta`` from ``init``: one start point (d,) for every
    seed, or one start per seed, (ensemble, d). The best-so-far curves are
    sampled every ``stride`` steps. The start must be finite; the kernel
    checks ``a`` and ``eta`` before it draws anything."""
    if not isinstance(f, ObjectiveFunction):
        raise InputError(f"objective must be an ObjectiveFunction, got {type(f).__name__}")
    tau1, tau2 = pair_temperatures(tau1, tau2)
    steps, ensemble = integer("steps", steps, 1), integer("ensemble", ensemble, 1)
    stride = integer("stride", stride, 1)
    if steps % stride != 0:
        raise InputError(f"stride {stride} must divide steps {steps}")
    d, n = f.dimension, ensemble
    init = floats("init", init, finite, "finite")
    if init.shape not in ((d,), (n, d)):
        raise InputError(f"init point has dimension {init.shape[0]}, expected {d}"
                         if init.ndim == 1 else f"init has shape {init.shape}, "
                         f"expected ({d},) or ({n}, {d})")
    init = np.broadcast_to(init, (n, d))
    pair = np.stack((init, init), axis=1)
    # One kernel run: the baseline pairs [0, n) have no swap stream and so
    # never swap; the replica pairs [n, 2n) share their start and their slot
    # streams, whose increments the kernel draws once for both.
    pairs = pair_streams(seed, n)
    streams = [(p1, p2, None) for p1, p2, _ in pairs] + pairs
    observe, curves = _best_so_far(steps, stride, 2 * n)
    t0 = time.perf_counter()
    _, _, swaps = run_pair_ensemble(f, np.concatenate((pair, pair)), (tau1, tau2), steps,
                                    streams, eta, a, observe=observe)
    wall = time.perf_counter() - t0
    return (_summarize("low-temp", curves[:, :n, 0], stride, wall_time=wall),
            _summarize("high-temp", curves[:, :n, 1], stride, wall_time=wall),
            _summarize("replica-exchange", curves[:, n:, 0], stride,
                       swap_counts=swaps[n:], wall_time=wall))


def _whole_steps(what: str, span: float, eta_ref: float) -> int:
    """``span`` as a count of steps of ``eta_ref``. The count must be a whole
    number to within 1e-9 of itself, at least 1, and below 2**53, past which
    a float no longer counts every step exactly."""
    n = float(span) / eta_ref
    count = round(min(n, 2**53))
    if not 1 <= count < 2**53 or abs(n - count) > 1e-9 * count:
        raise InputError(f"{what} is {n} steps of eta_ref = {eta_ref}; "
                         "it must be a whole number from 1 to 2**53 - 1")
    return count


def discretization_error_experiment(f: ObjectiveFunction, tau1: float, tau2: float,
                                    a: float, etas: Sequence[float], T: float,
                                    ensemble: int, seed: int,
                                    eta_ref: float | None = None) -> DiscretizationResult:
    """Coupled coarse-vs-fine mean squared error at time T of pairs started
    at (1, -1).

    Every run draws its fine-grid Gaussian increments and swap uniforms from
    freshly derived streams of the same keys, so all runs share one Brownian
    path and one uniform table. A coarse step of width m * eta_ref consumes
    the sum of its m constituent fine Gaussian increments, and its swap fires
    iff the smallest of the m fine uniforms falls below a * eta_ref * s
    evaluated at the coarse step's start. The finest grid is the brute-force
    reference for the continuous process. The temperatures follow the pair
    rule of ``pair_temperatures``; ``etas`` is one axis of distinct stepsizes.
    ``T`` and every stepsize must each span a whole number of ``eta_ref``
    steps, by the rule of ``_whole_steps``.
    """
    ensemble = integer("ensemble", ensemble, 2)     # a standard error needs two
    tau1, tau2 = pair_temperatures(tau1, tau2)
    T = positive("horizon T", T)
    etas = floats("stepsizes", etas, positive_finite, "positive and finite", axes=1)
    etas = np.sort(etas)[::-1]
    if etas.size == 0:
        raise InputError("need at least one stepsize")
    repeated = etas[1:][etas[1:] == etas[:-1]]     # etas are sorted
    if repeated.size:
        raise InputError(f"stepsize {repeated[0]} is listed twice")
    eta_ref = float(etas.min()) / 16.0 if eta_ref is None else positive("eta_ref", eta_ref)
    if eta_ref == 0.0:      # only the default can underflow
        raise InputError(f"default eta_ref = {etas.min():g} / 16 underflows to 0")
    n_fine = _whole_steps(f"horizon T = {T}", T, eta_ref)
    ms = [_whole_steps(f"stepsize {eta}", eta, eta_ref) for eta in etas]  # sub-steps each
    for eta, m in zip(etas, ms):
        if n_fine % m:
            raise InputError(f"T = {T} is not an integer number of steps of eta = {eta}")

    x0 = pair_start(ensemble, f.dimension)

    def coupled_run(m: int):
        x, _, _ = run_pair_ensemble(f, x0, (tau1, tau2), n_fine // m, pair_streams(seed),
                                    eta_ref, a, m=m)
        return x[:, 0], x[:, 1]

    ref1, ref2 = coupled_run(1)
    mses = np.empty(len(etas))
    stderrs = np.empty(len(etas))
    for i, m in enumerate(ms):
        c1, c2 = coupled_run(m)
        sq = np.sum((c1 - ref1) ** 2, axis=1) + np.sum((c2 - ref2) ** 2, axis=1)
        mses[i] = sq.mean()
        stderrs[i] = sq.std(ddof=1) / np.sqrt(ensemble)
    nonzero = mses > 0
    if nonzero.sum() >= 2:
        slope = float(np.polyfit(np.log(etas[nonzero]), np.log(mses[nonzero]), 1)[0])
    else:
        slope = float("nan")
    return DiscretizationResult(etas=etas, mse=mses, stderr=stderrs, slope=slope)


# ---------------------------------------------------------------------------
# CSV emission. All files start with a canonical config echo comment and a
# header row; doubles are written with 17 significant digits.

def _cells(column) -> list:
    """One CSV column as text. A text column (dtype object) is written as it
    is; any other is formatted once per distinct value, floats with 17
    significant digits and keyed by their bits, so -0.0 keeps its own text."""
    column = np.asarray(column)
    if column.dtype == object:
        return column.tolist()
    floats = column.dtype == np.float64
    distinct, inverse = np.unique(column.view(np.int64) if floats else column,
                                  return_inverse=True)
    text = ([f"{v:.17g}" for v in distinct.view(np.float64).tolist()] if floats
            else [str(v) for v in distinct.tolist()])
    return np.array(text, dtype=object)[inverse].tolist()


def _write_csv(path, config_line: str, header: Sequence[str], blocks):
    """Write the rows under ``header`` block by block; a block is a tuple of
    equal-length columns."""
    with open(path, "w") as fh:
        fh.write(f"# config: {config_line}\n")
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.writelines(",".join(row) + "\n" for row in zip(*map(_cells, block)))


def write_bestsofar_csv(path, summaries: Sequence[RunSummary], config_line: str = ""):
    def block(s):
        nseeds, npoints = s.best_curves.shape
        return (np.tile(s.iterations, nseeds),
                np.array([s.algorithm] * s.best_curves.size, dtype=object),
                np.repeat(np.arange(nseeds), npoints), s.best_curves.ravel())
    _write_csv(path, config_line, ["iteration", "algorithm", "seed", "best_so_far"],
               map(block, summaries))


def write_summary_csv(path, summaries: Sequence[RunSummary], config_line: str = ""):
    _write_csv(path, config_line, ["iteration", "algorithm", "median", "q25", "q75"],
               ((s.iterations, np.array([s.algorithm] * s.iterations.size, dtype=object),
                 np.median(s.best_curves, axis=0), np.quantile(s.best_curves, 0.25, axis=0),
                 np.quantile(s.best_curves, 0.75, axis=0)) for s in summaries))


def write_chi2decay_csv(path, fits_by_intensity: dict, config_line: str = ""):
    """``fits_by_intensity`` maps the swap intensity a to its DecayFit."""
    _write_csv(path, config_line, ["time", "a", "chi2", "bootstrap_std"],
               ((fit.times, np.full(len(fit.times), a), fit.chi2, fit.bootstrap_std)
                for a, fit in fits_by_intensity.items()))


def write_discerr_csv(path, result: DiscretizationResult, config_line: str = ""):
    _write_csv(path, config_line, ["eta", "mse", "stderr"],
               [(result.etas, result.mse, result.stderr)])
