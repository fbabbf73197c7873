"""Tests for the experiment harness and CSV emission."""

import contextlib
import math
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relex.errors import InputError
from relex.harness import (RunSummary, _best_so_far, _whole_steps,
                           discretization_error_experiment, pregenerate_noise,
                           run_comparison, write_bestsofar_csv,
                           write_discerr_csv, write_summary_csv)
from relex.objective import benchmark_mixture, double_well
from relex.replica import by_temperature, pair_snapshots, run_pair_ensemble
from relex.rng import RngStream, pair_streams


def small_run(**overrides):
    """run_comparison's arguments for a small comparison."""
    base = dict(
        f=benchmark_mixture(0.1),
        tau1=0.01, tau2=1.0, a=1.0, eta=0.01, steps=200,
        ensemble=4, seed=1, init=(2.0, 2.0), stride=10,
    )
    base.update(overrides)
    return base


class Drew(Exception):
    """A stream was asked for noise."""


def drew(*args, **kwargs):
    raise Drew


@contextlib.contextmanager
def no_draws():
    """Any draw from a stream raises Drew."""
    with mock.patch.object(RngStream, "normal", drew), \
            mock.patch.object(RngStream, "uniform", drew):
        yield


class TestRunComparisonInputs:
    @pytest.mark.parametrize("overrides, message", [
        (dict(tau1=-0.1), "^tau1 must be positive and finite, got -0.1$"),
        (dict(tau1=0.0), "^tau1 must be positive and finite, got 0.0$"),
        (dict(tau1=math.nan), "^tau1 must be positive and finite, got nan$"),
        (dict(tau2=math.inf), "^tau2 must be positive and finite, got inf$"),
        (dict(tau1=2.0), "replica exchange requires tau1 < tau2"),
        (dict(tau1=1.0), "replica exchange requires tau1 < tau2"),
        (dict(a=-1.0), "swap intensity must be nonnegative and finite, got -1.0"),
        (dict(a=math.nan), "swap intensity must be nonnegative and finite, got nan"),
        (dict(a=math.inf), "swap intensity must be nonnegative and finite, got inf"),
        (dict(eta=0.0), "eta must be positive and finite, got 0.0"),
        (dict(eta=math.nan), "eta must be positive and finite, got nan"),
        (dict(eta=math.inf), "eta must be positive and finite, got inf"),
        (dict(steps=0), "^steps must be >= 1, got 0$"),
        (dict(ensemble=0), "^ensemble must be >= 1, got 0$"),
        (dict(steps=100.0), "^steps must be an integer, got 100.0$"),
        (dict(steps=200.5), "^steps must be an integer, got 200.5$"),
        (dict(ensemble=4.0), "^ensemble must be an integer, got 4.0$"),
        (dict(stride=10.0), "^stride must be an integer, got 10.0$"),
        (dict(stride=7), "stride 7 must divide steps 200"),
        (dict(f={"kind": "gaussian_mixture", "kappa": 0.1}),
         "objective must be an ObjectiveFunction, got dict"),
        (dict(init=(1.0,)), "init point has dimension 1, expected 2"),
        (dict(init=(1.0, 2.0, 3.0)), "init point has dimension 3, expected 2"),
        (dict(init=np.zeros((3, 2))), r"init has shape \(3, 2\), expected \(2,\) or \(4, 2\)"),
        (dict(init=np.zeros((4, 3))), r"init has shape \(4, 3\), expected"),
        (dict(init=2.0), r"init has shape \(\), expected"),
        (dict(init="uniform:0,4"), "init must be a number or a regular array of numbers, "
                                   "got 'uniform:0,4'"),
        (dict(init=[[2.0, 2.0], [2.0]]), "init must be a number or a regular array"),
        (dict(init=(2.0, math.nan)), "^init must be finite$"),
        (dict(init=np.full((4, 2), math.inf)), "^init must be finite$"),
    ])
    def test_invalid_value_fails_before_any_draw(self, overrides, message):
        with no_draws(), pytest.raises(InputError, match=message):
            run_comparison(**small_run(**overrides))

    def test_valid_values_reach_the_first_draw(self):
        with no_draws(), pytest.raises(Drew):
            run_comparison(**small_run())

    def test_numpy_integer_counts_are_accepted(self):
        low, _, _ = run_comparison(**small_run(steps=np.int64(200), ensemble=np.int32(4),
                                               stride=np.uint8(10)))
        assert low.best_curves.shape == (4, 21)

    @pytest.mark.filterwarnings("ignore:intensity \\* eta")
    @given(st.sampled_from(["a", "eta", "tau1", "tau2"]), st.floats())
    def test_any_float_is_rejected_or_valid(self, name, value):
        run = small_run(**{name: value})
        try:
            with no_draws():
                run_comparison(**run)
        except InputError:
            return
        except Drew:
            pass
        assert all(math.isfinite(run[n]) for n in ("a", "eta", "tau1", "tau2"))
        assert 0 < run["tau1"] < run["tau2"]
        assert run["a"] >= 0 and run["eta"] > 0


class TestRunComparison:
    def test_summaries_shape_and_monotonicity(self):
        summaries = run_comparison(**small_run())
        assert [s.algorithm for s in summaries] == [
            "low-temp", "high-temp", "replica-exchange"]
        for s in summaries:
            assert s.best_curves.shape == (4, 21)
            assert np.all(np.diff(s.best_curves, axis=1) <= 0)
            assert np.array_equal(s.final_best, s.best_curves[:, -1])
        assert summaries[2].swap_counts is not None
        # both baselines are the two slots of one shared run
        assert summaries[0].wall_time == summaries[1].wall_time

    def test_bitwise_reproducible(self):
        a = run_comparison(**small_run())
        b = run_comparison(**small_run())
        for x, y in zip(a, b):
            assert np.array_equal(x.best_curves, y.best_curves)

    @pytest.mark.parametrize("init", [(2.0, 2.0), np.full((4, 2), 2.0)])
    def test_float_seed_rejected(self, init):
        # truncated, it would replay the comparison of seed 1
        with pytest.raises(InputError, match="seed must be an integer, got 1.5"):
            run_comparison(**small_run(seed=1.5, init=init))

    def test_builds_three_streams_per_seed(self, monkeypatch):
        # the baseline pair holds the replica pair's two slot streams; only
        # the replica pair has a swap stream
        created = []
        init = RngStream.__init__
        monkeypatch.setattr(RngStream, "__init__",
                            lambda self, *args: created.append(args) or init(self, *args))
        run_comparison(**small_run(init=(2.0, 2.0)))
        assert len(created) == 3 * 4

    def test_draws_each_slot_increment_once(self, monkeypatch):
        # both halves of the fused run take their increments from one draw
        drawn = Counter()
        normal = RngStream.normal
        monkeypatch.setattr(RngStream, "normal", lambda self, shape: drawn.update(
            {(self.seed, self.stream_id): math.prod(shape)}) or normal(self, shape))
        run = small_run(ensemble=3, steps=40)
        run_comparison(**run)
        assert len(drawn) == 2 * 3
        assert set(drawn.values()) == {run["steps"] * run["f"].dimension}

    def test_one_start_per_seed(self):
        starts = np.array([[2.0, 2.0], [0.0, 1.0], [-1.0, 3.0], [4.0, 0.5]])
        shared = run_comparison(**small_run(init=(2.0, 2.0)))
        tiled = run_comparison(**small_run(init=np.tile((2.0, 2.0), (4, 1))))
        apart = run_comparison(**small_run(init=starts))
        for a, b, c in zip(shared, tiled, apart):
            assert np.array_equal(a.best_curves, b.best_curves)
            assert np.array_equal(c.best_curves[0], a.best_curves[0])
            assert not np.array_equal(c.best_curves[1:], a.best_curves[1:])

    def test_zero_intensity_matches_low_temp_bitwise(self):
        low, _, rex = run_comparison(**small_run(a=0.0))
        assert np.array_equal(rex.best_curves, low.best_curves)
        assert rex.swap_counts.sum() == 0

    def test_best_curves_match_a_full_trajectory_oracle(self):
        run = small_run(ensemble=5, steps=120, stride=6, a=20.0, tau1=0.1)
        summaries = run_comparison(**run)
        f = run["f"]
        init = np.tile(run["init"], (5, 1))
        for summary, intensity, slot in zip(summaries, (0.0, 0.0, run["a"]),
                                            (0, 1, 0)):
            traj, _ = pair_snapshots(f, np.stack((init, init), axis=1),
                                     (run["tau1"], run["tau2"]),
                                     pair_streams(run["seed"], 5), run["eta"], intensity,
                                     range(121))
            best = np.minimum.accumulate(f.eval(traj[:, :, slot]), axis=0)
            assert np.array_equal(summary.best_curves, best[::6].T)
            assert np.array_equal(summary.final_best, best[-1])
            assert summary.iterations.tolist() == list(range(0, 121, 6))
        assert summaries[2].swap_counts.sum() > 0

    @pytest.mark.parametrize("intensity", [50.0, 0.0])
    def test_best_so_far_matches_a_per_step_reorder(self, intensity):
        # the observer reorders by temperature only when the kernel hands
        # over a new T; the reference reorders every step
        n, steps, stride = 6, 300, 3
        f = benchmark_mixture(0.1)
        observe, curves = _best_so_far(steps, stride, n)
        best, want = np.full((n, 2), np.inf), []

        def both(k, x, T, fx):
            observe(k, x, T, fx)
            np.minimum(best, by_temperature(fx, T), out=best)
            if k % stride == 0:
                want.append(best.copy())
        _, _, swaps = run_pair_ensemble(
            f, np.full((n, 2, 2), 2.0), (0.1, 1.0), steps, pair_streams(4, n),
            0.01, intensity, observe=both)
        assert (swaps.sum() > 30) == (intensity > 0)
        assert np.array_equal(curves, want)

    def test_each_half_of_the_fused_run_is_its_own_run(self):
        n, steps = 5, 150
        run = small_run(ensemble=n, steps=steps, a=20.0, tau1=0.1)
        f = run["f"]
        init = np.tile(run["init"], (n, 1))
        pair = np.stack((init, init), axis=1)
        observe, fused = _best_so_far(steps, 1, 2 * n)
        never = [(p1, p2, None) for p1, p2, _ in pair_streams(run["seed"], n)]
        streams = never + pair_streams(run["seed"], n)
        x, T, swaps = run_pair_ensemble(f, np.concatenate((pair, pair)),
                                        (run["tau1"], run["tau2"]), steps, streams,
                                        run["eta"], run["a"], observe=observe)
        assert swaps[:n].sum() == 0 and swaps[n:].sum() > 0
        for half, intensity in ((slice(0, n), 0.0), (slice(n, 2 * n), run["a"])):
            observe, alone = _best_so_far(steps, 1, n)
            x1, T1, swaps1 = run_pair_ensemble(f, pair, (run["tau1"], run["tau2"]), steps,
                                               pair_streams(run["seed"], n), run["eta"],
                                               intensity, observe=observe)
            assert np.array_equal(fused[:, half], alone)
            assert np.array_equal(swaps[half], swaps1)
            assert np.array_equal(x[half], x1) and np.array_equal(T[half], T1)
        low, high, rex = run_comparison(**{**run, "stride": 1})
        assert np.array_equal(low.best_curves, fused[:, :n, 0].T)
        assert np.array_equal(high.best_curves, fused[:, :n, 1].T)
        assert np.array_equal(rex.best_curves, fused[:, n:, 0].T)
        assert np.array_equal(rex.swap_counts, swaps[n:])

    def test_peak_memory_is_a_fraction_of_the_noise_block(self):
        # the noise is drawn in chunks, so the run never holds the whole-run
        # block (16 MB here)
        run = small_run(ensemble=20, steps=20_000, stride=10)
        noise_bytes = sum(a.nbytes for a in pregenerate_noise(pair_streams(run["seed"], 20),
                                                             20_000, 20, 2))
        tracemalloc.start()
        try:
            run_comparison(**run)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < noise_bytes / 4


class TestDiscretizationExperiment:
    @pytest.mark.parametrize("ensemble", [1, 0, -3])
    def test_ensemble_below_two_rejected(self, ensemble):
        with pytest.raises(InputError, match="ensemble must be >= 2"):
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
                                              seed=6)
        assert np.all(np.diff(res.mse) < 0)
        assert 1.8 <= res.slope <= 2.8

    def test_mse_grows_with_stepsize(self):
        f = double_well()
        res = discretization_error_experiment(
            f, 0.1, 1.0, a=1.0, etas=(0.04, 0.01), T=0.4, ensemble=100, seed=0)
        assert res.etas[0] == 0.04
        assert res.mse[0] > res.mse[1] > 0.0
        assert np.all(res.stderr >= 0.0)

    @pytest.mark.parametrize("changed, message", [
        ({"T": 0.0}, "horizon T must be positive"),
        ({"T": -0.2}, "horizon T must be positive"),
        ({"T": math.inf}, "horizon T must be positive"),
        ({"T": math.nan}, "horizon T must be positive"),
        ({"etas": ()}, "at least one stepsize"),
        ({"etas": (math.inf, 0.01)}, "positive and finite"),
        ({"etas": (0.02, math.nan)}, "positive and finite"),
        ({"eta_ref": 0.0}, "eta_ref must be positive"),
        ({"eta_ref": -0.001}, "eta_ref must be positive"),
        ({"eta_ref": math.inf}, "eta_ref must be positive"),
        ({"etas": (5e-324,)}, "default eta_ref = 4.94066e-324 / 16 underflows to 0"),
        # T / eta_ref rounds to 0: no step to run
        ({"T": 1e-13}, r"^horizon T = 1e-13 is 1.6e-10 steps of eta_ref = 0.000625; it must "
                       r"be a whole number from 1 to 2\*\*53 - 1$"),
        ({"T": 1.0, "etas": (1e10,), "eta_ref": 1.0},
         "^T = 1.0 is not an integer number of steps of eta = 10000000000.0$"),
        # eta / eta_ref rounds to the multiple 0
        ({"T": 1.0, "etas": (1e-10,), "eta_ref": 1.0},
         r"^stepsize 1e-10 is 1e-10 steps of eta_ref = 1.0; it must be a whole number "
         r"from 1 to 2\*\*53 - 1$"),
        # a repeated stepsize would write two equal rows and skew the slope
        ({"etas": (0.02, 0.01, 0.02)}, "stepsize 0.02 is listed twice"),
        # the pair rule of run_comparison and chi2_decay_experiment
        ({"tau1": 1.0, "tau2": 0.1}, "^replica exchange requires tau1 < tau2$"),
        ({"tau1": -1.0}, "^tau1 must be positive and finite, got -1.0$"),
    ])
    def test_bad_horizon_or_stepsizes_rejected(self, changed, message):
        args = {"tau1": 0.1, "tau2": 1.0, "a": 1.0, "etas": (0.02, 0.01), "T": 0.2,
                "ensemble": 20, "seed": 0, "eta_ref": None, **changed}
        with pytest.raises(InputError, match=message):
            discretization_error_experiment(double_well(), **args)

    def test_ensemble_must_be_an_integer(self):
        with pytest.raises(InputError, match="^ensemble must be an integer, got 10.0$"):
            discretization_error_experiment(double_well(), 0.1, 1.0, 1.0, (0.02, 0.01),
                                            T=0.2, ensemble=10.0, seed=0)

    def test_non_nested_etas_rejected(self):
        f = double_well()
        with pytest.raises(InputError):
            discretization_error_experiment(f, 0.1, 1.0, 1.0, (0.03, 0.01),
                                            T=0.3, ensemble=10, seed=0,
                                            eta_ref=0.004)
        with pytest.raises(InputError):
            discretization_error_experiment(f, 0.1, 1.0, 1.0, (0.01, -0.01),
                                            T=0.1, ensemble=10, seed=0)

    @pytest.mark.parametrize("span, eta_ref, count", [
        # 0.7 / 7e-8 is 9999999.999999998 and 0.5 / 1e-9 is 499999999.99999994:
        # whole to within 1e-9 of the count, not to within an absolute 1e-9
        (0.7, 7e-8, 10**7), (0.5, 1e-9, 5 * 10**8),
        (1.0, 1.0, 1), (2.0**53 - 1, 1.0, 2**53 - 1),
    ])
    def test_whole_steps_counts_a_span(self, span, eta_ref, count):
        got = _whole_steps("span", span, eta_ref)
        assert got == count and type(got) is int

    @pytest.mark.parametrize("span, eta_ref, steps", [
        (0.4, 1.0, "0.4"),                          # rounds to no step
        (2.0**53, 1.0, "9007199254740992.0"),       # a float no longer counts every step
        (1e10, 1e-310, "inf"),
        (1.5, 1.0, "1.5"),
    ], ids=["zero", "2**53", "overflow", "half"])
    def test_whole_steps_rejects_a_span_with_no_exact_count(self, span, eta_ref, steps):
        message = (f"span is {steps} steps of eta_ref = {eta_ref}; "
                   "it must be a whole number from 1 to 2**53 - 1")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            _whole_steps("span", span, eta_ref)

    def test_a_long_fine_grid_reaches_the_kernel(self, monkeypatch):
        # 10**7 reference steps of 7e-8; the stepsizes are 100 and 10 of them
        runs = []

        def no_run(f, x0, temps, steps, streams, eta, a, m=1):
            runs.append((steps, eta, m))
            return np.zeros_like(x0), None, None
        monkeypatch.setattr("relex.harness.run_pair_ensemble", no_run)
        discretization_error_experiment(double_well(), 0.1, 1.0, 1.0, (7e-6, 7e-7),
                                        T=0.7, ensemble=4, seed=0, eta_ref=7e-8)
        assert runs == [(10**7, 7e-8, 1), (10**5, 7e-8, 100), (10**6, 7e-8, 10)]


class TestCsvWriters:
    def test_bestsofar_layout(self, tmp_path):
        summaries = run_comparison(**small_run())
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
        summaries = run_comparison(**small_run())
        path = tmp_path / "summary.csv"
        write_summary_csv(path, summaries, "x.y=1")
        lines = path.read_text().splitlines()
        assert lines[1] == "iteration,algorithm,median,q25,q75"
        assert len(lines) == 2 + 3 * 21

    def test_summary_holds_the_quartiles_of_the_curves(self, tmp_path):
        summaries = run_comparison(**small_run())
        path = tmp_path / "summary.csv"
        write_summary_csv(path, summaries, "x.y=1")
        expected = [f"{it},{s.algorithm},{m:.17g},{lo:.17g},{hi:.17g}"
                    for s in summaries
                    for it, m, lo, hi in zip(s.iterations, np.median(s.best_curves, axis=0),
                                             np.quantile(s.best_curves, 0.25, axis=0),
                                             np.quantile(s.best_curves, 0.75, axis=0))]
        assert path.read_text().splitlines()[2:] == expected

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
            curves[:, -1]))
    return summaries


# the mixture's value where every component underflows: -0.0
ALL_UNDERFLOW = float(benchmark_mixture(0.1).eval(np.array([100.0, 100.0])))


@given(run_summaries())
@example([RunSummary("low-temp", np.arange(3) * 10,
                     np.array([[-0.0, 5e-324, 1e308], [-1e-300, 0.1, -2.5e-310]]),
                     np.zeros(2))])
@example([RunSummary("replica-exchange", np.arange(4) * 10**6,
                     np.array([[ALL_UNDERFLOW, -1.2e-310, np.inf, 0.1 + 0.2],
                               [-0.12392914196873872, -1 / 3, 2.2250738585072009e-308,
                                -np.inf]]),
                     np.zeros(2)),
          RunSummary("low-temp", np.arange(1), np.array([[1e-300], [-123456.78901234567]]),
                     np.zeros(2))])
def test_bestsofar_csv_matches_a_per_cell_reference(summaries):
    # the reference formats every cell on its own, with no distinct-value reuse
    rows = [f"{it},{summary.algorithm},{s},{v:.17g}\n"
            for summary in summaries
            for s in range(summary.best_curves.shape[0])
            for it, v in zip(summary.iterations.tolist(), summary.best_curves[s].tolist())]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "bestsofar.csv")
        write_bestsofar_csv(path, summaries, "x.y=1")
        assert path.read_text() == ("# config: x.y=1\niteration,algorithm,seed,best_so_far\n"
                                    + "".join(rows))


def test_a_point_where_every_component_underflows_has_value_minus_zero():
    assert ALL_UNDERFLOW == 0.0 and math.copysign(1.0, ALL_UNDERFLOW) == -1.0


def test_pregenerated_noise_matches_streams():
    from relex.rng import PURPOSE_POS2, PURPOSE_SWAP, derive_stream
    xi, uswap = pregenerate_noise(pair_streams(3, 2), 5, 2, 2)
    assert xi.shape == (5, 2, 2, 2) and uswap.shape == (5, 2)
    expected = derive_stream(3, PURPOSE_POS2, 1).normal((5, 2))
    assert np.array_equal(xi[:, 1, 1], expected)
    assert np.array_equal(uswap[:, 0], derive_stream(3, PURPOSE_SWAP, 0).uniform(5))
