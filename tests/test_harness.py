"""Tests for the experiment harness and CSV emission."""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relex.errors import ConfigError, InputError
from relex.harness import (RunSummary, SimConfig, _best_so_far, _write_rows,
                           build_objective, discretization_error_experiment,
                           kappa_sweep, pregenerate_noise, resolve_init,
                           run_comparison, write_bestsofar_csv,
                           write_discerr_csv, write_summary_csv)
from relex.objective import benchmark_mixture, double_well
from relex.replica import SwapPolicy, by_temperature, pair_snapshots, run_pair_ensemble
from relex.rng import RngStream, pair_streams


def small_config(**overrides):
    base = dict(
        objective={"kind": "gaussian_mixture", "kappa": 0.1, "confinement": 0.0},
        tau1=0.01, tau2=1.0, intensity=1.0, eta=0.01, steps=200,
        ensemble=4, seed=1, init=(2.0, 2.0), stride=10,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_valid(self):
        cfg = small_config()
        assert (cfg.steps, cfg.eta, cfg.ensemble) == (200, 0.01, 4)

    @pytest.mark.parametrize("overrides", [
        dict(tau1=-0.1),
        dict(tau1=2.0),                # violates tau1 < tau2
        dict(tau1=1.0),                # tau1 == tau2
        dict(intensity=-1.0),
        dict(eta=0.0),
        dict(steps=0),
        dict(ensemble=0),
        dict(stride=7),                # does not divide steps
        dict(intensity=float("nan")),
        dict(intensity=float("inf")),
        dict(eta=float("inf")),
        dict(eta=float("nan")),
        dict(tau2=float("inf")),
        dict(tau1=float("nan")),
    ])
    def test_invalid(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    @given(st.sampled_from(["intensity", "eta", "tau1", "tau2"]), st.floats())
    def test_any_float_is_rejected_or_valid(self, name, value):
        try:
            cfg = small_config(**{name: value})
        except (ConfigError, InputError):
            return
        assert all(math.isfinite(getattr(cfg, n))
                   for n in ("intensity", "eta", "tau1", "tau2"))
        assert cfg.tau1 > 0 and cfg.tau2 > 0 and cfg.tau1 < cfg.tau2
        assert cfg.intensity >= 0 and cfg.eta > 0


class TestBuildObjective:
    def test_known_kinds(self):
        assert build_objective({"kind": "gaussian_mixture", "kappa": 0.2}).dimension == 2
        assert build_objective({"kind": "double_well"}).dimension == 1
        assert build_objective({"kind": "quadratic", "dim": 3}).dimension == 3

    def test_unknown_kind_and_keys(self):
        with pytest.raises(ConfigError):
            build_objective({"kind": "rosenbrock"})
        with pytest.raises(ConfigError):
            build_objective({"kind": "double_well", "bogus": 1})


class TestResolveInit:
    def test_point(self):
        init = resolve_init((2.0, 3.0), 2, 5, seed=0)
        assert init.shape == (5, 2)
        assert np.all(init == [2.0, 3.0])

    def test_uniform_box(self):
        init = resolve_init("uniform:-2,2", 2, 1000, seed=0)
        assert init.shape == (1000, 2)
        assert init.min() >= -2.0 and init.max() <= 2.0
        assert abs(init.mean()) < 0.1

    def test_errors(self):
        with pytest.raises(ConfigError):
            resolve_init((1.0,), 2, 5, seed=0)
        with pytest.raises(ConfigError):
            resolve_init("gaussian:0,1", 2, 5, seed=0)
        with pytest.raises(ConfigError):
            resolve_init("uniform:oops", 2, 5, seed=0)

    @pytest.mark.parametrize("spec", ["uniform:nan,1", "uniform:-1,inf",
                                      "uniform:-inf,1", "uniform:2,1"])
    def test_bad_uniform_bounds(self, spec):
        with pytest.raises(ConfigError, match="uniform init bounds"):
            resolve_init(spec, 2, 5, seed=0)


class TestRunComparison:
    def test_summaries_shape_and_monotonicity(self):
        summaries = run_comparison(small_config())
        assert [s.algorithm for s in summaries] == [
            "low-temp", "high-temp", "replica-exchange"]
        for s in summaries:
            assert s.best_curves.shape == (4, 21)
            assert np.all(np.diff(s.best_curves, axis=1) <= 0)
            assert np.all(s.q25 <= s.median) and np.all(s.median <= s.q75)
            assert np.array_equal(s.final_best, s.best_curves[:, -1])
        assert summaries[2].swap_counts is not None
        # both baselines are the two slots of one shared run
        assert summaries[0].wall_time == summaries[1].wall_time

    def test_bitwise_reproducible(self):
        a = run_comparison(small_config())
        b = run_comparison(small_config())
        for x, y in zip(a, b):
            assert np.array_equal(x.best_curves, y.best_curves)

    def test_builds_five_streams_per_seed(self, monkeypatch):
        # two position streams for the baseline pair, three for the replica pair
        created = []
        init = RngStream.__init__
        monkeypatch.setattr(RngStream, "__init__",
                            lambda self, *args: created.append(args) or init(self, *args))
        run_comparison(small_config(init=(2.0, 2.0)))
        assert len(created) == 5 * 4

    def test_zero_intensity_matches_low_temp_bitwise(self):
        low, _, rex = run_comparison(small_config(intensity=0.0))
        assert np.array_equal(rex.best_curves, low.best_curves)
        assert rex.swap_counts.sum() == 0

    def test_best_curves_match_a_full_trajectory_oracle(self):
        cfg = small_config(ensemble=5, steps=120, stride=6, intensity=20.0, tau1=0.1)
        summaries = run_comparison(cfg)
        f = build_objective(cfg.objective)
        init = resolve_init(cfg.init, 2, 5, cfg.seed)
        for summary, intensity, slot in zip(summaries, (0.0, 0.0, cfg.intensity),
                                            (0, 1, 0)):
            traj, _ = pair_snapshots(f, np.stack((init, init), axis=1),
                                     (cfg.tau1, cfg.tau2), 120, pair_streams(cfg.seed, 5),
                                     SwapPolicy(intensity, cfg.eta), range(121))
            best = np.minimum.accumulate(f.eval(traj[:, :, slot]), axis=0)
            assert np.array_equal(summary.best_curves, best[::6].T)
            assert np.array_equal(summary.final_best, best[-1])
            assert summary.iterations.tolist() == list(range(0, 121, 6))
        assert summaries[2].swap_counts.sum() > 0

    @pytest.mark.parametrize("mode, intensity", [
        ("temperature", 50.0), ("position", 50.0), ("temperature", 0.0)])
    def test_best_so_far_matches_a_per_step_reorder(self, mode, intensity):
        # the observer reorders by temperature only when the kernel hands
        # over a new T; the reference reorders every step
        n, steps, stride = 6, 300, 3
        f = build_objective({"kind": "gaussian_mixture", "kappa": 0.1})
        observe, curves = _best_so_far(steps, stride, n)
        best, want = np.full((n, 2), np.inf), []

        def both(k, x, T, fx):
            observe(k, x, T, fx)
            np.minimum(best, by_temperature(fx, T), out=best)
            if k % stride == 0:
                want.append(best.copy())
        _, _, swaps = run_pair_ensemble(
            f, np.full((n, 2, 2), 2.0), (0.1, 1.0), steps, pair_streams(4, n),
            SwapPolicy(intensity, 0.01), mode, observe=both)
        assert (swaps.sum() > 30) == (intensity > 0)
        assert np.array_equal(curves, want)

    def test_each_half_of_the_fused_run_is_its_own_run(self):
        n, steps = 5, 150
        cfg = small_config(ensemble=n, steps=steps, intensity=20.0, tau1=0.1)
        f = build_objective(cfg.objective)
        init = resolve_init(cfg.init, 2, n, cfg.seed)
        pair = np.stack((init, init), axis=1)
        baseline, _ = pair_streams(cfg.seed, n)
        replica, swap = pair_streams(cfg.seed, n)
        observe, fused = _best_so_far(steps, 1, 2 * n)
        x, T, swaps = run_pair_ensemble(f, np.concatenate((pair, pair)),
                                        (cfg.tau1, cfg.tau2), steps,
                                        (baseline + replica, [None] * n + swap),
                                        SwapPolicy(cfg.intensity, cfg.eta), observe=observe)
        assert swaps[:n].sum() == 0 and swaps[n:].sum() > 0
        for half, intensity in ((slice(0, n), 0.0), (slice(n, 2 * n), cfg.intensity)):
            observe, alone = _best_so_far(steps, 1, n)
            x1, T1, swaps1 = run_pair_ensemble(f, pair, (cfg.tau1, cfg.tau2), steps,
                                               pair_streams(cfg.seed, n),
                                               SwapPolicy(intensity, cfg.eta),
                                               observe=observe)
            assert np.array_equal(fused[:, half], alone)
            assert np.array_equal(swaps[half], swaps1)
            assert np.array_equal(x[half], x1) and np.array_equal(T[half], T1)
        low, high, rex = run_comparison(
            small_config(ensemble=n, steps=steps, stride=1, intensity=20.0, tau1=0.1))
        assert np.array_equal(low.best_curves, fused[:, :n, 0].T)
        assert np.array_equal(high.best_curves, fused[:, :n, 1].T)
        assert np.array_equal(rex.best_curves, fused[:, n:, 0].T)
        assert np.array_equal(rex.swap_counts, swaps[n:])

    def test_peak_memory_is_a_fraction_of_the_noise_block(self):
        # the noise is drawn in chunks, so the run never holds the whole-run
        # block (16 MB here)
        cfg = small_config(ensemble=20, steps=20_000, stride=10)
        noise_bytes = sum(a.nbytes for a in pregenerate_noise(cfg.seed, 20, 20_000, 2))
        tracemalloc.start()
        try:
            run_comparison(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < noise_bytes / 4


class TestKappaSweep:
    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            kappa_sweep([], small_config())
        with pytest.raises(ConfigError):
            kappa_sweep([-0.1], small_config())

    def test_single_kappa_matches_run_comparison(self):
        base = small_config()
        sweep = kappa_sweep([0.1], base)
        direct = run_comparison(base)
        assert len(sweep) == 1
        for s, d in zip(sweep[0], direct):
            assert np.array_equal(s.best_curves, d.best_curves)


class TestDiscretizationExperiment:
    @pytest.mark.parametrize("ensemble", [1, 0, -3])
    def test_ensemble_below_two_rejected(self, ensemble):
        with pytest.raises(ConfigError, match="ensemble must be >= 2"):
            discretization_error_experiment(double_well(), 0.1, 1.0, 1.0, [0.02, 0.01],
                                            0.2, ensemble, seed=0)

    def test_self_comparison_is_zero(self):
        f = double_well()
        res = discretization_error_experiment(
            f, 0.1, 1.0, a=1.0, etas=(0.01,), T=0.1, ensemble=50, seed=0,
            eta_ref=0.01)
        assert res.mse[0] == 0.0

    def test_null_coupling_has_strong_order_one(self):
        # a = 0: Euler-Maruyama with additive noise has strong order 1, so the
        # coupled MSE falls like eta^2 (Kloeden & Platen)
        res = discretization_error_experiment(double_well(), 0.1, 1.0, 0.0,
                                              (0.04, 0.02, 0.01, 0.005), 1.0, 500,
                                              seed=6, init=(1.0, -1.0))
        assert np.all(np.diff(res.mse) < 0)
        assert 1.8 <= res.slope <= 2.8

    def test_mse_grows_with_stepsize(self):
        f = double_well()
        res = discretization_error_experiment(
            f, 0.1, 1.0, a=1.0, etas=(0.04, 0.01), T=0.4, ensemble=100, seed=0)
        assert res.etas[0] == 0.04
        assert res.mse[0] > res.mse[1] > 0.0
        assert np.all(res.stderr >= 0.0)

    @pytest.mark.parametrize("T, etas, eta_ref, message", [
        (0.0, (0.02, 0.01), None, "horizon T must be positive"),
        (-0.2, (0.02, 0.01), None, "horizon T must be positive"),
        (math.inf, (0.02, 0.01), None, "horizon T must be positive"),
        (math.nan, (0.02, 0.01), None, "horizon T must be positive"),
        (0.2, (), None, "at least one stepsize"),
        (0.2, (0.02, 0.01), 0.0, "eta_ref must be positive"),
        (0.2, (0.02, 0.01), -0.001, "eta_ref must be positive"),
        (0.2, (0.02, 0.01), math.inf, "eta_ref must be positive"),
        # T / eta_ref and T / eta lie within 1e-9 of 0: no step to run
        (1e-13, (0.02, 0.01), None, r"horizon T = 1e-13 is shorter than eta_ref"),
        (1.0, (1e10,), 1.0, "not an integer number of steps of eta = 10000000000.0"),
        # eta / eta_ref lies within 1e-9 of the multiple 0
        (1.0, (1e-10,), 1.0, "integer multiple of eta_ref"),
    ])
    def test_bad_horizon_or_stepsizes_rejected(self, T, etas, eta_ref, message):
        with pytest.raises(ConfigError, match=message):
            discretization_error_experiment(double_well(), 0.1, 1.0, 1.0, etas, T=T,
                                            ensemble=20, seed=0, eta_ref=eta_ref)

    def test_non_nested_etas_rejected(self):
        f = double_well()
        with pytest.raises(ConfigError):
            discretization_error_experiment(f, 0.1, 1.0, 1.0, (0.03, 0.01),
                                            T=0.3, ensemble=10, seed=0,
                                            eta_ref=0.004)
        with pytest.raises(ConfigError):
            discretization_error_experiment(f, 0.1, 1.0, 1.0, (0.01, -0.01),
                                            T=0.1, ensemble=10, seed=0)


class TestCsvWriters:
    def test_bestsofar_layout(self, tmp_path):
        summaries = run_comparison(small_config())
        path = tmp_path / "bestsofar.csv"
        write_bestsofar_csv(path, summaries, "dynamics.eta=0.01")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config: dynamics.eta=0.01"
        assert lines[1] == "iteration,algorithm,seed,best_so_far"
        assert len(lines) == 2 + 3 * 4 * 21
        # 17 significant digits: values round-trip exactly
        it, alg, seed, val = lines[2].split(",")
        assert float(val) == summaries[0].best_curves[0, 0]

    def test_summary_layout(self, tmp_path):
        summaries = run_comparison(small_config())
        path = tmp_path / "summary.csv"
        write_summary_csv(path, summaries, "x.y=1")
        lines = path.read_text().splitlines()
        assert lines[1] == "iteration,algorithm,median,q25,q75"
        assert len(lines) == 2 + 3 * 21

    def test_discerr_layout(self, tmp_path):
        res = discretization_error_experiment(
            double_well(), 0.1, 1.0, 1.0, (0.02, 0.01), T=0.2, ensemble=20,
            seed=0, eta_ref=0.0025)
        path = tmp_path / "discerr.csv"
        write_discerr_csv(path, res, "a=1")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "eta,mse,stderr"
        assert len(lines) == 4


# -0.0, subnormals and both ends of the float range, mixed into arbitrary floats.
CSV_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1e300, 1e-300, 123456789.12345679]))


@st.composite
def run_summaries(draw):
    summaries = []
    for algorithm in ("low-temp", "high-temp", "replica-exchange")[:draw(st.integers(1, 3))]:
        nseeds, npoints = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        values = draw(st.lists(CSV_FLOATS, min_size=nseeds * npoints,
                               max_size=nseeds * npoints))
        # a transposed view, as _summarize stores the curves
        curves = np.reshape(values, (npoints, nseeds)).T
        summaries.append(RunSummary(
            algorithm, np.arange(npoints) * draw(st.integers(1, 10**6)), curves,
            curves[0], curves[0], curves[0], curves[:, -1]))
    return summaries


# the mixture's value where every component underflows: -0.0
ALL_UNDERFLOW = float(benchmark_mixture(0.1).eval(np.array([100.0, 100.0])))


@given(run_summaries())
@example([RunSummary("low-temp", np.arange(3) * 10,
                     np.array([[-0.0, 5e-324, 1e308], [-1e-300, 0.1, -2.5e-310]]),
                     *[np.zeros(3)] * 3, np.zeros(2))])
@example([RunSummary("replica-exchange", np.arange(4) * 10**6,
                     np.array([[ALL_UNDERFLOW, -1.2e-310, np.inf, 0.1 + 0.2],
                               [-0.12392914196873872, -1 / 3, 2.2250738585072009e-308,
                                -np.inf]]),
                     *[np.zeros(4)] * 3, np.zeros(2)),
          RunSummary("low-temp", np.arange(1), np.array([[1e-300], [-123456.78901234567]]),
                     *[np.zeros(1)] * 3, np.zeros(2))])
def test_bestsofar_csv_matches_the_generic_writer(summaries):
    def rows():
        for summary in summaries:
            for s in range(summary.best_curves.shape[0]):
                for it, v in zip(summary.iterations, summary.best_curves[s]):
                    yield (it, summary.algorithm, s, v)
    with tempfile.TemporaryDirectory() as tmp:
        fast, generic = Path(tmp, "fast.csv"), Path(tmp, "generic.csv")
        write_bestsofar_csv(fast, summaries, "x.y=1")
        _write_rows(generic, "x.y=1", ["iteration", "algorithm", "seed", "best_so_far"],
                    rows())
        assert fast.read_bytes() == generic.read_bytes()


def test_a_point_where_every_component_underflows_has_value_minus_zero():
    assert ALL_UNDERFLOW == 0.0 and math.copysign(1.0, ALL_UNDERFLOW) == -1.0


def test_pregenerated_noise_matches_streams():
    from relex.rng import PURPOSE_POS2, PURPOSE_SWAP, derive_stream
    xi, uswap = pregenerate_noise(3, 2, 5, 2)
    assert xi.shape == (5, 2, 2, 2) and uswap.shape == (5, 2)
    expected = derive_stream(3, PURPOSE_POS2, 1).normal((5, 2))
    assert np.array_equal(xi[:, 1, 1], expected)
    assert np.array_equal(uswap[:, 0], derive_stream(3, PURPOSE_SWAP, 0).uniform(5))
