"""Experiment orchestration: the three-algorithm comparison, the kappa sweep,
the coupled discretization-error experiment, and CSV emission.

All randomness flows from one root seed. Each seed of a comparison owns three
derived streams (particle-1 noise, particle-2 noise, swap uniforms). A
comparison is one kernel run over two copies of the seed set: in the first
copy the pairs never swap, so their two slots are the single-temperature
baselines; the second copy is the replica run on the same noise, drawn from
streams of the same keys. A replica run with intensity 0 therefore
reproduces the low-temperature baseline bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .objective import (DEFAULT_CENTERS, DEFAULT_WEIGHTS, GaussianMixtureSpec,
                        ObjectiveFunction, build_gaussian_mixture, double_well,
                        quadratic)
from .replica import SwapPolicy, by_temperature, run_pair_ensemble
from .rng import PURPOSE_INIT, derive_stream, pair_streams, position_streams


@dataclass
class SimConfig:
    """One comparison: the two baselines and the replica pair share every
    field. ``objective`` is the parsed objective section, e.g.
    {"kind": "gaussian_mixture", "kappa": 0.1}."""

    objective: dict
    tau1: float
    tau2: float
    intensity: float
    eta: float
    steps: int
    ensemble: int            # number of seeds (independent runs)
    seed: int
    init: object             # point tuple, or "uniform:lo,hi"
    stride: int = 10

    def __post_init__(self):
        if not (0 < self.tau1 < math.inf and 0 < self.tau2 < math.inf):
            raise ConfigError("temperatures must be positive and finite")
        if not (self.tau1 < self.tau2):
            raise ConfigError("replica exchange requires tau1 < tau2")
        if not (0 <= self.intensity < math.inf):
            raise ConfigError("intensity must be nonnegative and finite")
        if not (0 < self.eta < math.inf):
            raise ConfigError("eta must be positive and finite")
        if self.steps < 1 or self.ensemble < 1:
            raise ConfigError("steps and ensemble must be positive")
        if self.stride < 1 or self.steps % self.stride != 0:
            raise ConfigError(f"stride {self.stride} must divide steps {self.steps}")


@dataclass
class RunSummary:
    """One comparison arm. ``wall_time`` is the time of the kernel run behind
    it; the three arms of a comparison share one run, so they report the same
    time."""

    algorithm: str
    iterations: np.ndarray       # thinned iteration indices, starting at 0
    best_curves: np.ndarray      # (nseeds, npoints) running minima, per seed
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    final_best: np.ndarray       # (nseeds,)
    swap_counts: np.ndarray | None = None
    wall_time: float = 0.0


@dataclass
class DiscretizationResult:
    etas: np.ndarray
    mse: np.ndarray
    stderr: np.ndarray
    slope: float


def build_objective(obj_cfg: dict) -> ObjectiveFunction:
    """Construct the objective named by a config section."""
    cfg = dict(obj_cfg)
    kind = cfg.pop("kind", "gaussian_mixture")
    cfg.pop("kappas", None)   # sweep list, consumed by kappa_sweep
    if kind == "gaussian_mixture":
        centers = np.asarray(cfg.pop("centers", DEFAULT_CENTERS), dtype=float)
        weights = np.asarray(cfg.pop("weights", DEFAULT_WEIGHTS), dtype=float)
        kappa = float(cfg.pop("kappa", 0.1))
        confinement = float(cfg.pop("confinement", 0.0))
        if cfg:
            raise ConfigError(f"unknown objective keys: {sorted(cfg)}")
        return build_gaussian_mixture(
            GaussianMixtureSpec(centers, weights, kappa, confinement)
        )
    if kind == "double_well":
        if cfg:
            raise ConfigError(f"unknown objective keys: {sorted(cfg)}")
        return double_well()
    if kind == "quadratic":
        dim = int(cfg.pop("dim", 2))
        if cfg:
            raise ConfigError(f"unknown objective keys: {sorted(cfg)}")
        return quadratic(dim)
    raise ConfigError(f"unknown objective kind {kind!r}")


def resolve_init(init, dim: int, nseeds: int, seed: int) -> np.ndarray:
    """Initial positions of shape (nseeds, dim) from a point or a box spec."""
    if isinstance(init, str):
        if not init.startswith("uniform:"):
            raise ConfigError(f"unrecognized init spec {init!r}")
        try:
            lo, hi = (float(v) for v in init[len("uniform:"):].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad uniform init spec {init!r}") from exc
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"uniform init bounds must be finite with lo <= hi, "
                              f"got {init!r}")
        rng = derive_stream(seed, PURPOSE_INIT)
        return lo + (hi - lo) * rng.uniform((nseeds, dim))
    point = np.asarray(init, dtype=float).ravel()
    if point.shape[0] != dim:
        raise ConfigError(f"init point has dimension {point.shape[0]}, expected {dim}")
    return np.tile(point, (nseeds, 1))


def pregenerate_noise(seed: int, nseeds: int, steps: int, dim: int):
    """Per-seed noise as one whole-run block: normals (steps, nseeds, 2, dim)
    and swap uniforms (steps, nseeds), from each seed's own derived streams.
    Criterion 2's oracle loop replays it, and the kernel's chunked draws from
    streams of the same keys are tested against it."""
    xi = np.empty((steps, nseeds, 2, dim))
    uswap = np.empty((steps, nseeds))
    slots, swap = pair_streams(seed, nseeds)
    for s in range(nseeds):
        xi[:, s, 0] = slots[s][0].normal((steps, dim))
        xi[:, s, 1] = slots[s][1].normal((steps, dim))
        uswap[:, s] = swap[s].uniform(steps)
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
    thin = traj.T                                # (nseeds, npoints)
    return RunSummary(
        algorithm=algorithm,
        iterations=np.arange(traj.shape[0]) * stride,
        best_curves=thin,
        median=np.median(thin, axis=0),
        q25=np.quantile(thin, 0.25, axis=0),
        q75=np.quantile(thin, 0.75, axis=0),
        final_best=traj[-1],
        swap_counts=swap_counts,
        wall_time=wall_time,
    )


def run_comparison(cfg: SimConfig):
    """The low-temp baseline, high-temp baseline and replica pair of ``cfg``,
    run over a shared seed set and shared noise."""
    f = build_objective(cfg.objective)
    n = cfg.ensemble
    init = resolve_init(cfg.init, f.dimension, n, cfg.seed)
    pair = np.stack((init, init), axis=1)
    # One kernel run: chains [0, n) are the baseline pairs, which have no
    # swap streams and so never swap, and [n, 2n) the replica pairs; all start
    # at init and draw from each seed's position streams.
    replica, swap = pair_streams(cfg.seed, n)
    streams = (position_streams(cfg.seed, n) + replica, [None] * n + swap)
    observe, curves = _best_so_far(cfg.steps, cfg.stride, 2 * n)
    t0 = time.perf_counter()
    _, _, swaps = run_pair_ensemble(f, np.concatenate((pair, pair)),
                                    (cfg.tau1, cfg.tau2), cfg.steps, streams,
                                    SwapPolicy(cfg.intensity, cfg.eta), observe=observe)
    wall = time.perf_counter() - t0
    return (_summarize("low-temp", curves[:, :n, 0], cfg.stride, wall_time=wall),
            _summarize("high-temp", curves[:, :n, 1], cfg.stride, wall_time=wall),
            _summarize("replica-exchange", curves[:, n:, 0], cfg.stride,
                       swap_counts=swaps[n:], wall_time=wall))


def kappa_sweep(kappas: Sequence[float], base: SimConfig):
    """One comparison per mixture width kappa."""
    kind = base.objective.get("kind", "gaussian_mixture")
    if kind != "gaussian_mixture":
        raise ConfigError(f"kappa sweep needs a gaussian_mixture objective, got {kind!r}")
    kappas = list(kappas)
    if not kappas:
        raise ConfigError("kappa sweep needs at least one kappa")
    configs = []                        # every kappa is checked before any run
    for kappa in kappas:
        if not (kappa > 0):
            raise ConfigError(f"kappa must be positive, got {kappa}")
        objective = {**base.objective, "kappa": float(kappa)}
        configs.append(dataclasses.replace(base, objective=objective))
    return [run_comparison(cfg) for cfg in configs]


def discretization_error_experiment(f: ObjectiveFunction, tau1: float, tau2: float,
                                    a: float, etas: Sequence[float], T: float,
                                    ensemble: int, seed: int,
                                    eta_ref: float | None = None,
                                    init=(1.0, -1.0)) -> DiscretizationResult:
    """Coupled coarse-vs-fine mean squared error at time T.

    Every run draws its fine-grid Gaussian increments and swap uniforms from
    freshly derived streams of the same keys, so all runs share one Brownian
    path and one uniform table. A coarse step of width m * eta_ref consumes
    the sum of its m constituent fine Gaussian increments, and its swap fires
    iff any of the m fine uniforms falls below a * eta_ref * s evaluated at
    the coarse step's start. The finest grid is the brute-force reference for
    the continuous process.
    """
    if ensemble < 2:
        raise ConfigError(f"ensemble must be >= 2 for a standard error, got {ensemble}")
    if not (0 < T < math.inf):
        raise ConfigError(f"horizon T must be positive and finite, got {T}")
    etas = np.asarray(sorted(etas, reverse=True), dtype=float)
    if etas.size == 0:
        raise ConfigError("need at least one stepsize")
    if np.any(etas <= 0):
        raise ConfigError("all stepsizes must be positive")
    if eta_ref is None:
        eta_ref = float(etas.min()) / 16.0
    elif not (0 < eta_ref < math.inf):
        raise ConfigError(f"eta_ref must be positive and finite, got {eta_ref}")
    ratios = etas / eta_ref
    ms = [int(round(r)) for r in ratios]        # sub-steps per coarse step
    if np.any(np.abs(ratios - np.rint(ratios)) > 1e-9) or min(ms) < 1:
        raise ConfigError("every eta must be an integer multiple of eta_ref")
    n_fine = T / eta_ref
    if abs(n_fine - round(n_fine)) > 1e-9:
        raise ConfigError("horizon T must be an integer number of reference steps")
    n_fine = int(round(n_fine))
    if n_fine < 1:
        raise ConfigError(f"horizon T = {T} is shorter than eta_ref = {eta_ref}")
    for eta, m in zip(etas, ms):
        if abs(T / eta - round(T / eta)) > 1e-9 or n_fine % m:
            raise ConfigError(f"T = {T} is not an integer number of steps of eta = {eta}")

    d = f.dimension
    x0 = np.broadcast_to(np.reshape(init, (1, 2, -1)), (ensemble, 2, d))
    policy = SwapPolicy(a, eta_ref)

    def coupled_run(m: int):
        x, _, _ = run_pair_ensemble(f, x0, (tau1, tau2), n_fine // m, pair_streams(seed),
                                    policy, m=m)
        return x[:, 0], x[:, 1]

    ref1, ref2 = coupled_run(1)
    mses = np.empty(len(etas))
    stderrs = np.empty(len(etas))
    for i, m in enumerate(ms):
        c1, c2 = coupled_run(m)
        sq = np.sum((c1 - ref1) ** 2, axis=1) + np.sum((c2 - ref2) ** 2, axis=1)
        mses[i] = sq.mean()
        stderrs[i] = sq.std(ddof=1) / np.sqrt(ensemble)
    positive = mses > 0
    if positive.sum() >= 2:
        slope = float(np.polyfit(np.log(etas[positive]), np.log(mses[positive]), 1)[0])
    else:
        slope = float("nan")
    return DiscretizationResult(etas=etas, mse=mses, stderr=stderrs, slope=slope)


# ---------------------------------------------------------------------------
# CSV emission. All files start with a canonical config echo comment and a
# header row; doubles are written with 17 significant digits.

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)


def _write_lines(path, config_line: str, header: Sequence[str], lines):
    with open(path, "w") as fh:
        fh.write(f"# config: {config_line}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _write_rows(path, config_line: str, header: Sequence[str], rows):
    _write_lines(path, config_line, header,
                 (",".join(_fmt(v) for v in row) + "\n" for row in rows))


def write_bestsofar_csv(path, summaries: Sequence[RunSummary], config_line: str = ""):
    # The largest CSV, so each seed's curve is one joined string of f-string
    # rows; it writes the bytes _write_rows would for integer iterations.
    def lines():
        for summary in summaries:
            heads = [f"{it},{summary.algorithm}," for it in summary.iterations.tolist()]
            for s, curve in enumerate(summary.best_curves.tolist()):
                seed = f"{s},"
                yield "".join([f"{h}{seed}{v:.17g}\n" for h, v in zip(heads, curve)])
    _write_lines(path, config_line, ["iteration", "algorithm", "seed", "best_so_far"], lines())


def write_summary_csv(path, summaries: Sequence[RunSummary], config_line: str = ""):
    def rows():
        for summary in summaries:
            for i, it in enumerate(summary.iterations):
                yield (it, summary.algorithm, summary.median[i],
                       summary.q25[i], summary.q75[i])
    _write_rows(path, config_line, ["iteration", "algorithm", "median", "q25", "q75"], rows())


def write_chi2decay_csv(path, fits_by_intensity: dict, config_line: str = ""):
    """``fits_by_intensity`` maps the swap intensity a to its DecayFit."""
    def rows():
        for a, fit in fits_by_intensity.items():
            for t, c, b in zip(fit.times, fit.chi2, fit.bootstrap_std):
                yield (t, a, c, b)
    _write_rows(path, config_line, ["time", "a", "chi2", "bootstrap_std"], rows())


def write_discerr_csv(path, result: DiscretizationResult, config_line: str = ""):
    rows = zip(result.etas, result.mse, result.stderr)
    _write_rows(path, config_line, ["eta", "mse", "stderr"], rows)
