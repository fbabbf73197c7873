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

from .errors import InputError, floats, integer, positive
from .objective import ObjectiveFunction
from .replica import by_temperature, run_pair_ensemble
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


def pregenerate_noise(seed: int, nseeds: int, steps: int, dim: int):
    """Per-seed noise as one whole-run block: normals (steps, nseeds, 2, dim)
    and swap uniforms (steps, nseeds), from each seed's own derived streams.
    Criterion 2's oracle loop replays it, and the kernel's chunked draws from
    streams of the same keys are tested against it."""
    xi = np.empty((steps, nseeds, 2, dim))
    uswap = np.empty((steps, nseeds))
    for s, (pos1, pos2, swap) in enumerate(pair_streams(seed, nseeds)):
        xi[:, s, 0] = pos1.normal((steps, dim))
        xi[:, s, 1] = pos2.normal((steps, dim))
        uswap[:, s] = swap.uniform(steps)
    return xi, uswap


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
    sampled every ``stride`` steps. The kernel checks ``a``, ``eta`` and that
    the start is finite before it draws anything."""
    if not isinstance(f, ObjectiveFunction):
        raise InputError(f"objective must be an ObjectiveFunction, got {type(f).__name__}")
    tau1, tau2 = positive("tau1", tau1), positive("tau2", tau2)
    if not (tau1 < tau2):
        raise InputError("replica exchange requires tau1 < tau2")
    steps, ensemble = integer("steps", steps, 1), integer("ensemble", ensemble, 1)
    stride = integer("stride", stride, 1)
    if steps % stride != 0:
        raise InputError(f"stride {stride} must divide steps {steps}")
    d, n = f.dimension, ensemble
    init = floats("init", init)
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
    iff any of the m fine uniforms falls below a * eta_ref * s evaluated at
    the coarse step's start. The finest grid is the brute-force reference for
    the continuous process.
    """
    ensemble = integer("ensemble", ensemble, 2)     # a standard error needs two
    T = positive("horizon T", T)
    etas = np.sort(floats("stepsizes", etas), axis=None)[::-1]
    if etas.size == 0:
        raise InputError("need at least one stepsize")
    if not np.all(np.isfinite(etas) & (etas > 0)):
        raise InputError("all stepsizes must be positive and finite")
    repeated = etas[1:][etas[1:] == etas[:-1]]     # etas are sorted
    if repeated.size:
        raise InputError(f"stepsize {repeated[0]} is listed twice")
    eta_ref = float(etas.min()) / 16.0 if eta_ref is None else positive("eta_ref", eta_ref)
    if eta_ref == 0.0:      # only the default can underflow
        raise InputError(f"default eta_ref = {etas.min():g} / 16 underflows to 0")
    for what, span in ((f"horizon T = {T}", T), (f"stepsize {etas[0]}", etas[0])):
        if float(span) / eta_ref >= 2**53:   # no float counts such steps exactly
            raise InputError(f"{what} is 2**53 or more steps of eta_ref = {eta_ref}")
    ratios = etas / eta_ref
    ms = [int(round(r)) for r in ratios]        # sub-steps per coarse step
    if np.any(np.abs(ratios - np.rint(ratios)) > 1e-9) or min(ms) < 1:
        raise InputError("every eta must be an integer multiple of eta_ref")
    n_fine = T / eta_ref
    if abs(n_fine - round(n_fine)) > 1e-9:
        raise InputError("horizon T must be an integer number of reference steps")
    n_fine = int(round(n_fine))
    if n_fine < 1:
        raise InputError(f"horizon T = {T} is shorter than eta_ref = {eta_ref}")
    for eta, m in zip(etas, ms):
        if abs(T / eta - round(T / eta)) > 1e-9 or n_fine % m:
            raise InputError(f"T = {T} is not an integer number of steps of eta = {eta}")

    d = f.dimension
    x0 = np.broadcast_to(np.reshape((1.0, -1.0), (1, 2, -1)), (ensemble, 2, d))

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
