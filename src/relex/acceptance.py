"""The acceptance suite: nine numbered checks covering swap-rate exactness,
coupling/null behavior, stationarity, chi-square decay acceleration, the
Dirichlet swap term, discretization-error scaling, the benchmark ordering,
formulation equivalence, and gradient correctness.

Each criterion function returns (passed, detail). ``run_criterion`` times one
and turns a crash into a failure; ``run_all``, behind ``relex check``, runs
them all in worker processes.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .diagnostics import (chi2_decay_experiment, dirichlet_acceleration_term,
                          empirical_histogram, gibbs_density,
                          pair_gibbs_density, total_variation)
from .harness import discretization_error_experiment, pregenerate_noise, run_comparison
from .langevin import em_update
from .objective import check_gradient, double_well, benchmark_mixture
from .replica import pair_snapshots, run_pair_ensemble, swap_rate
from .rng import (PURPOSE_INIT, PURPOSE_POS1, STREAM_DIRICHLET_MC, RngStream,
                  derive_stream, pair_streams)


@dataclass
class CriterionRecord:
    name: str
    passed: bool
    detail: str
    runtime: float


def criterion_1_swap_rate_exactness():
    """10^4 random tuples: s in (0, 1], identity cases, detailed balance."""
    rng = derive_stream(101, PURPOSE_INIT)
    n = 10_000
    u1 = -2.0 + 4.0 * rng.uniform(n)
    u2 = -2.0 + 4.0 * rng.uniform(n)
    t1 = 0.1 + 1.9 * rng.uniform(n)
    t2 = 0.1 + 1.9 * rng.uniform(n)

    s12 = swap_rate(u1, u2, t1, t2)
    if not (np.all(s12 > 0) and np.all(s12 <= 1)):
        return False, "swap rate left (0, 1]"
    if not np.all(swap_rate(u1, u1, t1, t2) == 1.0):
        return False, "s(u, u) != 1"
    if not np.all(swap_rate(u1, u2, t1, t1) == 1.0):
        return False, "s with equal temperatures != 1"

    # Detailed balance: s(x1,x2) mu(x1,x2) = s(x2,x1) mu(x2,x1) where
    # mu = exp(-u1/t1 - u2/t2); both sides equal min(mu(x1,x2), mu(x2,x1)).
    s21 = swap_rate(u2, u1, t1, t2)
    mu12 = np.exp(-u1 / t1 - u2 / t2)
    mu21 = np.exp(-u2 / t1 - u1 / t2)
    lhs = s12 * mu12
    rhs = s21 * mu21
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))
    worst = float(rel.max())
    if worst > 1e-12:
        return False, f"detailed balance violated: rel err {worst:.3e}"
    return True, f"10^4 tuples, detailed-balance rel err {worst:.3e} <= 1e-12"


def criterion_2_null_coupling_bitwise():
    """a = 0 replica pair equals two independent single chains bitwise. The
    single chains are an oracle loop of bare Euler-Maruyama updates."""
    f = benchmark_mixture(kappa=0.1)
    steps, nseeds = 10_000, 5
    eta, tau1, tau2 = 0.01, 0.01, 1.0
    init = np.tile((2.0, 2.0), (nseeds, 1))
    xi, _ = pregenerate_noise(7, nseeds, steps, f.dimension)
    snaps, swaps = pair_snapshots(f, np.stack((init, init), axis=1), (tau1, tau2), steps,
                                  pair_streams(7, nseeds), eta, 0.0,
                                  range(steps + 1))
    ok = int(swaps.sum()) == 0
    for slot, tau in enumerate((tau1, tau2)):
        pos = init
        for k in range(steps):
            pos = em_update(pos, f.grad(pos), np.full(nseeds, tau), eta, xi[k, :, slot])
            ok = ok and np.array_equal(pos, snaps[k + 1][:, slot])
    if not ok:
        return False, "a=0 replica run differs from the single chains"
    return True, f"bitwise equal over {steps} steps x {nseeds} seeds, 0 swaps"


def criterion_3_stationarity():
    """Double-well, tau = 0.5: snapshot law matches the quadrature Gibbs
    density to TV < 0.05 on 60 bins over [-3, 3]."""
    f = double_well()
    tau, eta, chains, steps = 0.5, 0.001, 2000, 50_000
    bounds = np.array([[-3.0, 3.0]])
    rng_init = derive_stream(3, PURPOSE_INIT)
    init = -1.5 + 3.0 * rng_init.uniform((chains, 1))
    final, _, _ = run_pair_ensemble(f, init[:, None], tau, steps,
                                    [(derive_stream(3, PURPOSE_POS1), None)], eta, 0.0)
    pi = gibbs_density(f, tau, bounds, 60)
    mu = empirical_histogram(final[:, 0], bounds, 60)
    tv = total_variation(mu, pi)
    return tv < 0.05, f"TV to quadrature Gibbs = {tv:.4f} (limit 0.05)"


def criterion_4_chi2_acceleration():
    """Double-well, (0.1, 1), eta 0.001, 2000 pairs: swapping at a = 5 decays
    chi-square at least as fast as a = 0, and its curve never sits above."""
    f = double_well()
    kwargs = dict(
        tau1=0.1, tau2=1.0, eta=0.001, ensemble=2000,
        sample_times=np.arange(1, 11) * 0.1,
        bounds=np.array([[-3.0, 3.0]]), resolution=16,
        seed=4, fit_floor=0.5,
    )
    fit0 = chi2_decay_experiment(f, a=0.0, **kwargs)
    fit5 = chi2_decay_experiment(f, a=5.0, **kwargs)
    sigma = fit0.rate_std if np.isfinite(fit0.rate_std) else 0.0
    rate_ok = fit5.rate >= fit0.rate - sigma
    band = fit0.chi2[1:] + 2.0 * np.hypot(fit0.bootstrap_std[1:],
                                          fit5.bootstrap_std[1:])
    curve_ok = bool(np.all(fit5.chi2[1:] <= band))
    detail = (f"rate(a=5) = {fit5.rate:.3f} vs rate(a=0) = {fit0.rate:.3f} "
              f"(sigma {sigma:.3f}); curve dominated at all later times: {curve_ok}")
    return rate_ok and curve_ok, detail


def criterion_5_dirichlet_term():
    """Grid quadrature of the swap term matches 10^6-sample Monte Carlo
    within 2% for f(x1, x2) = x1; symmetric f and a = 0 give exactly 0."""
    f = double_well()
    tau1, tau2, a = 0.1, 1.0, 1.0
    bounds = np.array([[-3.0, 3.0]])
    pair_pi = pair_gibbs_density(f, tau1, tau2, bounds, 200)

    grid_val = dirichlet_acceleration_term(lambda x1, x2: x1, f, tau1, tau2,
                                           a, pair_pi)

    # Monte Carlo oracle: sample the two independent Gibbs marginals from
    # fine histogram inverses and average a/2 * s * (x2 - x1)^2.
    edges = np.linspace(-3.0, 3.0, 4001)
    rho1 = gibbs_density(f, tau1, bounds, 4000)
    rho2 = gibbs_density(f, tau2, bounds, 4000)
    width = edges[1] - edges[0]
    rng = RngStream(5, STREAM_DIRICHLET_MC)
    x1 = _histogram_sample(rho1.mass / width, edges, 1_000_000, rng)
    x2 = _histogram_sample(rho2.mass / width, edges, 1_000_000, rng)
    s = swap_rate(f.eval(x1[:, None]), f.eval(x2[:, None]), tau1, tau2)
    mc_val = float(np.mean(0.5 * a * s * (x2 - x1) ** 2))

    rel = abs(grid_val - mc_val) / abs(mc_val)
    sym_val = dirichlet_acceleration_term(lambda x1, x2: x1 + x2, f, tau1,
                                          tau2, a, pair_pi)
    zero_a = dirichlet_acceleration_term(lambda x1, x2: x1, f, tau1, tau2,
                                         0.0, pair_pi)
    ok = rel < 0.02 and sym_val == 0.0 and zero_a == 0.0
    return ok, (f"grid {grid_val:.6g} vs MC {mc_val:.6g} (rel {rel:.4f}); "
                f"symmetric f -> {sym_val}, a=0 -> {zero_a}")


def _histogram_sample(density, edges, size, rng):
    """``size`` draws from the piecewise-constant density on ``edges`` by
    inverse-CDF sampling of the stream ``rng``: the same bits as scipy's
    ``rv_histogram((density, edges), density=True).rvs(size, random_state=g)``
    for a Philox generator ``g`` of ``rng``'s key: it normalises and rounds as scipy does."""
    widths = np.diff(edges)
    pdf = density / float(np.sum(density * widths))
    cdf = np.concatenate(([0.0], np.cumsum(pdf * widths)))
    # + 0.0 is scipy's loc shift; it turns a -0.0 from interp into +0.0
    return np.interp(rng.uniform(size), cdf, edges) + 0.0


def criterion_6_discretization_slope():
    """Coupled coarse-vs-fine MSE: log-log slope in [0.7, 1.3] and MSE
    monotone in the stepsize."""
    f = double_well()
    result = discretization_error_experiment(
        f, tau1=0.1, tau2=1.0, a=1.0, etas=(0.04, 0.02, 0.01, 0.005),
        T=1.0, ensemble=500, seed=6)
    monotone = bool(np.all(np.diff(result.mse) < 0))   # etas are descending
    slope_ok = 0.7 <= result.slope <= 1.3
    mse_str = ", ".join(f"{m:.3e}" for m in result.mse)
    return slope_ok and monotone, (f"slope {result.slope:.3f} in [0.7, 1.3]: "
                                   f"{slope_ok}; MSE [{mse_str}] monotone: {monotone}")


def criterion_7_benchmark_ordering():
    """25-center mixture, kappa 0.1: replica exchange beats the low-temperature
    chain on median final best-so-far, paired sign test p < 0.05."""
    ensemble = 20
    low, _, rex = run_comparison(benchmark_mixture(0.1), tau1=0.01, tau2=1.0, a=1.0, eta=0.01,
                                 steps=10_000, ensemble=ensemble, seed=0, init=(2.0, 2.0))
    med_low = float(np.median(low.final_best))
    med_re = float(np.median(rex.final_best))
    wins = int(np.sum(rex.final_best < low.final_best))
    ties = int(np.sum(rex.final_best == low.final_best))
    n_eff = ensemble - ties
    medians = f"median final best: replica {med_re:.5f} vs low-temp {med_low:.5f}"
    if n_eff == 0:
        return False, f"{medians}; all {ties} seeds tie, sign test undefined"
    pval = _sign_test_pvalue(wins, n_eff)
    ok = med_re <= med_low and pval < 0.05
    return ok, f"{medians}; sign test {wins}/{n_eff} wins, p = {pval:.2e}"


def _sign_test_pvalue(wins: int, n: int) -> float:
    """One-sided sign test: P(X >= wins) for X ~ Binomial(n, 1/2), the exact
    tail rounded once (int / int divides with correct rounding)."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


def criterion_8_formulation_equivalence():
    """Position-swapping and temperature-swapping give the same law for the
    low-temperature coordinate: TV < 0.05 between final histograms."""
    f = double_well()
    tau1, tau2, eta, steps, chains = 0.1, 1.0, 0.001, 20_000, 2000
    bounds = np.array([[-2.5, 2.5]])
    # Pool several well-separated late-time snapshots: the two processes share
    # the same law at every time, so pooling just shrinks the sampling noise.
    snapshot_steps = tuple(range(12_000, steps + 1, 2000))
    pooled = {}
    x0 = np.broadcast_to(np.reshape((1.0, -1.0), (1, 2, 1)), (chains, 2, 1))
    for offset, mode in ((0, "temperature"), (1, "position")):
        snaps, _ = pair_snapshots(f, x0, (tau1, tau2), steps, pair_streams(80 + offset),
                                  eta, 5.0, snapshot_steps, mode)
        pooled[mode] = np.concatenate(snaps[:, :, 0])
    mu_t = empirical_histogram(pooled["temperature"], bounds, 24)
    mu_p = empirical_histogram(pooled["position"], bounds, 24)
    tv = total_variation(mu_t, mu_p)
    return tv < 0.05, f"TV between formulations = {tv:.4f} (limit 0.05)"


def criterion_9_gradient_correctness():
    """Mixture gradient vs central differences at 100 random points."""
    f = benchmark_mixture(kappa=0.1)
    rng = derive_stream(9, PURPOSE_INIT)
    points = -1.0 + 6.0 * rng.uniform((100, f.dimension))
    worst = check_gradient(f, points)
    return worst < 1e-5, f"max relative gradient error {worst:.3e} (limit 1e-5)"


CRITERIA = (
    ("1 swap-rate exactness", criterion_1_swap_rate_exactness),
    ("2 null-coupling bitwise", criterion_2_null_coupling_bitwise),
    ("3 stationarity", criterion_3_stationarity),
    ("4 chi2 decay acceleration", criterion_4_chi2_acceleration),
    ("5 Dirichlet acceleration term", criterion_5_dirichlet_term),
    ("6 discretization-error slope", criterion_6_discretization_slope),
    ("7 benchmark ordering", criterion_7_benchmark_ordering),
    ("8 formulation equivalence", criterion_8_formulation_equivalence),
    ("9 gradient correctness", criterion_9_gradient_correctness),
)


# Criterion numbers, longest first (criterion 8 alone is about half the
# serial total): the pool starts the long ones first, so no long criterion
# starts last and runs alone.
LONGEST_FIRST = ("8", "3", "2", "7", "4", "6", "5", "9", "1")


def run_criterion(name: str, fn) -> CriterionRecord:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:                       # a crash is a failure
        passed, detail = False, _raised(exc)
    return CriterionRecord(name, bool(passed), detail,
                           time.perf_counter() - start)


def _raised(exc) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _run_indexed(i: int) -> CriterionRecord:
    """Worker entry. It takes an index into the CRITERIA inherited by fork,
    not the function: a caller may have narrowed CRITERIA or rebound a
    criterion's module name to a wrapper, which then no longer pickles."""
    return run_criterion(*CRITERIA[i])


def run_all() -> list:
    """Run every criterion in CRITERIA in worker processes forked from this
    one, one per usable CPU, longest first; the records come back in
    CRITERIA order. A criterion whose result never arrives, say because its
    worker died, is a failed record naming the error."""
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    if not CRITERIA:
        return []
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:                         # not on Linux
        cpus = os.cpu_count() or 1
    rank = {number: r for r, number in enumerate(LONGEST_FIRST)}
    order = sorted(range(len(CRITERIA)),
                   key=lambda i: rank.get(CRITERIA[i][0].partition(" ")[0], len(rank)))
    records = [None] * len(CRITERIA)
    # fork, not spawn: workers must see this process's CRITERIA, which a
    # caller may have narrowed. relex starts no threads of its own.
    with ProcessPoolExecutor(min(cpus, len(CRITERIA)),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        futures = []
        for i in order:
            try:
                futures.append((i, pool.submit(_run_indexed, i)))
            except BrokenExecutor as exc:          # a worker has already died
                records[i] = CriterionRecord(CRITERIA[i][0], False, _raised(exc), 0.0)
        for i, future in futures:
            try:
                records[i] = future.result()
            except Exception as exc:               # e.g. BrokenProcessPool
                records[i] = CriterionRecord(CRITERIA[i][0], False, _raised(exc), 0.0)
    return records
