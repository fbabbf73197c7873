"""Tests for the swap rate, replica pairs (R = 2) run through the kernel
``run_pair_ensemble``, and the noise it draws from its streams."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relex.errors import InputError
from relex.harness import pregenerate_noise
from relex.objective import ObjectiveFunction, double_well, quadratic
from relex.replica import (CHUNK_DRAWS, _fired, _philox_noise, by_temperature,
                           pair_snapshots, run_pair_ensemble, swap_probability,
                           swap_rate)
from relex.rng import (PURPOSE_POS1, PURPOSE_SWAP, RngStream, derive_stream, pair_streams,
                       position_streams)


def drew_exactly(group, n):
    """Whether each of a group's (pos1, pos2, swap) streams has taken exactly
    n draws: its next draws are those a fresh replay of its key makes after n."""
    def drew(stream, draw):
        replay = RngStream(stream.seed, stream.stream_id)
        draw(replay, n)
        return np.array_equal(draw(stream, 8), draw(replay, 8))
    return all(drew(s, draw) for s, draw in zip(
        group, (RngStream.normal, RngStream.normal, RngStream.uniform)))


# ranges chosen so exp(min(0, delta)) never underflows to an exact zero
values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
temps = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


class TestSwapRate:
    @given(values, values, temps, temps)
    def test_range(self, u1, u2, t1, t2):
        s = swap_rate(u1, u2, t1, t2)
        assert 0.0 < s <= 1.0

    @given(values, temps, temps)
    @example(0.5, 1e-320, 1.0)      # 1 / tau overflows
    @example(0.5, 1e-320, 1e-320)
    def test_equal_values_give_one(self, u, t1, t2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert swap_rate(u, u, t1, t2) == 1.0

    @given(values, values, temps)
    @example(0.5, -0.5, 1e-320)     # 1 / tau overflows
    def test_equal_temperatures_give_one(self, u1, u2, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert swap_rate(u1, u2, t, t) == 1.0

    @given(values, values, values, temps, temps)
    def test_monotone_in_first_value(self, u1a, u1b, u2, t1, t2):
        # with tau1 < tau2 the rate is nondecreasing in u1
        lo, hi = sorted((t1, t2))
        if lo == hi:
            return
        ua, ub = sorted((u1a, u1b))
        assert swap_rate(ua, u2, lo, hi) <= swap_rate(ub, u2, lo, hi)

    @given(values, values, temps, temps)
    def test_detailed_balance(self, u1, u2, t1, t2):
        # s(x1,x2) mu(x1,x2) = s(x2,x1) mu(x2,x1) in log space
        s12 = swap_rate(u1, u2, t1, t2)
        s21 = swap_rate(u2, u1, t1, t2)
        lhs = np.log(s12) + (-u1 / t1 - u2 / t2)
        rhs = np.log(s21) + (-u2 / t1 - u1 / t2)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_vectorized(self):
        u1 = np.array([0.0, -1.0, -2.0])
        u2 = np.array([0.0, 0.0, 0.0])
        s = swap_rate(u1, u2, 0.1, 1.0)
        assert s.shape == (3,)
        assert s[0] == 1.0 and np.all(np.diff(s) < 0)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            swap_rate(np.nan, 0.0, 0.1, 1.0)
        with pytest.raises(InputError):
            swap_rate(0.0, 0.0, -0.1, 1.0)
        with pytest.raises(InputError):
            swap_rate(0.0, 0.0, 0.1, 0.0)


class TestSwapParameters:
    """The kernel's step size eta and swap intensity, and the probability
    min(1, intensity * eta * s) they give."""

    @pytest.mark.parametrize("eta, intensity, message", [
        (0.01, -1.0, "swap intensity must be nonnegative and finite, got -1.0"),
        (0.01, np.nan, "swap intensity must be nonnegative and finite, got nan"),
        (0.01, np.inf, "swap intensity must be nonnegative and finite, got inf"),
        (0.0, 1.0, "eta must be positive and finite, got 0.0"),
        (np.inf, 1.0, "eta must be positive and finite, got inf"),
        (np.nan, 1.0, "eta must be positive and finite, got nan"),
        (np.nan, -1.0, "swap intensity"),     # the intensity is checked first
    ])
    def test_validation(self, eta, intensity, message):
        streams = pair_streams(0)
        for R in (1, 2):
            with pytest.raises(InputError, match=f"^{re.escape(message)}"):
                run_pair_ensemble(double_well(), np.zeros((1, R, 1)), 0.1, 5,
                                  [group[:R] + group[2:] for group in streams], eta, intensity)
        assert drew_exactly(streams[0], 0)   # nothing drawn

    @pytest.mark.parametrize("temps, shape", [
        ((0.1, 0.2, 0.3), "(3,)"), (np.ones((2, 2)), "(2, 2)"), (np.ones((3, 2, 1)), "(3, 2, 1)")])
    def test_temperatures_that_do_not_broadcast_rejected(self, temps, shape):
        streams = pair_streams(0)
        with pytest.raises(InputError, match=re.escape(
                f"temperatures of shape {shape} do not broadcast to (chains, R) = (3, 2)")):
            run_pair_ensemble(double_well(), np.zeros((3, 2, 1)), temps, 5, streams, 0.01, 1.0)
        assert drew_exactly(streams[0], 0)   # nothing drawn

    def test_clamp_warning(self):
        with pytest.warns(RuntimeWarning, match=r"intensity \* eta = 2 >= 1; swap "
                                                "probabilities will be clamped to 1"):
            _, _, swaps = run_pair_ensemble(flat(), np.zeros((3, 2, 1)), (0.1, 1.0), 4,
                                            pair_streams(0), 1.0, 2.0)
        assert swaps.tolist() == [4, 4, 4]
        assert swap_probability(1.0, 2.0, 1.0) == 1.0

    def test_probability_clamped_to_unit_interval(self):
        assert swap_probability(0.0, 5.0, 0.1) == 0.0
        assert swap_probability(1.0, 5.0, 0.1) == 0.5
        assert 0.0 <= swap_probability(1.0, 5.0, 0.001) <= 1.0

    def test_zero_intensity_never_swaps(self):
        # probability exactly 0, so no uniform in [0, 1) falls below it
        rates = derive_stream(0, PURPOSE_SWAP).uniform(1000)
        assert np.all(swap_probability(rates, 0.0, 0.01) == 0.0)


def certain_swaps(f, x0, temps, steps, streams, *args, **kwargs):
    """The kernel at intensity * eta = 1, where with s = 1 every step swaps;
    it warns that the probability is clamped."""
    with pytest.warns(RuntimeWarning, match="clamped to 1"):
        return run_pair_ensemble(f, x0, temps, steps, streams, 0.01, 100.0, *args, **kwargs)


def flat():
    """U = 0: the gradient vanishes and the swap rate is 1 everywhere."""
    return quadratic(1, scale=0.0)


def pair(x1, x2):
    """(chains, 2, d) from per-slot (chains, d) positions."""
    return np.stack((np.asarray(x1, float), np.asarray(x2, float)), axis=1)


class TestSteppers:
    def test_certain_swap_exchanges_temperatures(self):
        # flat potential: s = 1; intensity * eta = 1 clamps probability to 1
        _, T, swaps = certain_swaps(flat(), pair([[0.0]], [[1.0]]), (0.1, 1.0), 1,
                                    pair_streams(0))
        assert T.tolist() == [[1.0, 0.1]]
        assert swaps.tolist() == [1]

    def test_formulations_move_the_same_coordinates(self):
        # with identical streams the two formulations produce the same pair of
        # post-step positions, just labeled differently
        f = double_well()
        x0 = pair([[1.0]], [[-1.0]])
        xt, Tt, _ = certain_swaps(f, x0, (0.1, 1.0), 1, pair_streams(1), mode="temperature")
        xp, Tp, _ = certain_swaps(f, x0, (0.1, 1.0), 1, pair_streams(1), mode="position")
        assert np.array_equal(xt, xp[:, ::-1])
        assert np.array_equal(by_temperature(xt, Tt), by_temperature(xp, Tp))

    def test_low_temperature_position_tracks_swaps(self):
        x = pair([[1.0]], [[2.0]])
        assert by_temperature(x, np.array([[0.1, 1.0]])).tolist() == [[[1.0], [2.0]]]
        assert by_temperature(x, np.array([[1.0, 0.1]])).tolist() == [[[2.0], [1.0]]]

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            run_pair_ensemble(quadratic(2), np.zeros((1, 2, 3)), (0.1, 1.0), 1,
                              pair_streams(0), 0.01, 1.0)


class TestPairEnsemble:
    def test_zero_intensity_counts_no_swaps(self):
        n = 16
        x, _, counts = run_pair_ensemble(
            double_well(), pair(np.ones((n, 1)), -np.ones((n, 1))), (0.1, 1.0),
            200, pair_streams(0), 0.01, 0.0)
        assert counts.sum() == 0
        assert x.shape == (n, 2, 1)

    def test_snapshots_ordered_low_then_high(self):
        # flat potential with certain swaps: temperatures trade every step,
        # yet snapshots stay keyed by temperature
        for mode in ("temperature", "position"):
            snaps = {}
            x, T, counts = certain_swaps(
                flat(), np.zeros((8, 2, 1)), (0.1, 1.0), 10, pair_streams(1), mode=mode,
                observe=lambda k, x, T, fx: snaps.setdefault(k, by_temperature(x, T)))
            assert np.array_equal(snaps[10], by_temperature(x, T))
            assert np.all(counts == 10)

    def test_observed_temperatures_are_never_mutated(self):
        # observers may cache what they derive from T: a swap hands over a
        # new array and never writes into one already handed over
        kept = []
        _, _, counts = run_pair_ensemble(
            double_well(), pair(np.ones((6, 1)), -np.ones((6, 1))), (0.1, 1.0), 300,
            pair_streams(2), 0.01, 50.0,
            observe=lambda k, x, T, fx: kept.append((T, T.copy())))
        assert counts.sum() > 30
        assert len({id(T) for T, _ in kept}) > 30
        assert all(np.array_equal(T, at_hand_over) for T, at_hand_over in kept)

    def test_invalid_mode_and_steps(self):
        args = (double_well(), pair(np.ones((2, 1)), -np.ones((2, 1))), (0.1, 1.0))
        with pytest.raises(InputError):
            run_pair_ensemble(*args, 10, pair_streams(0), 0.01, 1.0,
                              mode="bogus")
        with pytest.raises(InputError):
            run_pair_ensemble(*args, 0, pair_streams(0), 0.01, 1.0)
        with pytest.raises(InputError, match="^m must be >= 1, got 0$"):
            run_pair_ensemble(*args, 10, pair_streams(0), 0.01, 1.0, m=0)

    @pytest.mark.parametrize("steps, m, message", [
        (5.0, 1, "steps must be an integer, got 5.0"),
        (5, 2.0, "m must be an integer, got 2.0"),
    ])
    def test_counts_must_be_integers(self, steps, m, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            run_pair_ensemble(double_well(), np.zeros((2, 2, 1)), (0.1, 1.0), steps,
                              pair_streams(0), 0.01, 1.0, m=m)

    @pytest.mark.parametrize("observed", [False, True])
    def test_one_objective_pass_per_step(self, observed):
        calls = []
        f = double_well()

        def counted(x):
            calls.append(x)
            return f.value_and_grad(x)
        counting = ObjectiveFunction(1, counted)
        seen = []
        run_pair_ensemble(counting, pair(np.ones((4, 1)), -np.ones((4, 1))),
                          (0.1, 1.0), 25, pair_streams(3), 0.01, 5.0,
                          observe=(lambda k, x, T, fx: seen.append(k)) if observed else None)
        assert len(calls) == 25 + observed
        assert seen == (list(range(26)) if observed else [])

    def test_observer_sees_the_values_of_the_positions(self):
        f = double_well()

        def observe(k, x, T, fx):
            assert np.array_equal(fx, f.eval(x))
        run_pair_ensemble(f, pair(np.ones((4, 1)), -np.ones((4, 1))), (0.1, 1.0),
                          40, pair_streams(4), 0.01, 5.0, observe=observe)

    def test_non_finite_start_is_an_input_error(self):
        for bad in (np.nan, np.inf):
            x0 = pair([[0.0], [bad]], [[0.0], [0.0]])
            for intensity in (0.0, 1.0):
                with pytest.raises(InputError, match="starting positions"):
                    run_pair_ensemble(double_well(), x0, (0.1, 1.0), 5,
                                      pair_streams(0), 0.01, intensity)
            with pytest.raises(InputError, match="starting positions"):
                run_pair_ensemble(double_well(), x0[:, :1], 0.5, 5,
                                  [(derive_stream(0, PURPOSE_POS1), None)], 0.01, 0.0)

    def test_zero_temperature_rejected_before_any_step_when_swapping(self):
        streams = pair_streams(0)
        with pytest.raises(InputError, match="positive"):
            run_pair_ensemble(double_well(), pair([[0.0]], [[0.0]]), (0.0, 1.0), 5,
                              streams, 0.01, 1.0)
        assert drew_exactly(streams[0], 0)   # nothing drawn
        # without swaps a zero temperature is plain gradient descent
        x, _, _ = run_pair_ensemble(double_well(), pair([[0.5]], [[0.5]]), (0.0, 1.0),
                                    5, pair_streams(0), 0.01, 0.0)
        assert np.isfinite(x).all()

    def test_nan_value_at_finite_position_rejected(self):
        f = ObjectiveFunction(1, lambda x: (np.full(x.shape[:-1], np.nan), np.zeros_like(x)))
        with pytest.raises(InputError, match="finite"):
            run_pair_ensemble(f, pair([[0.0]], [[0.0]]), (0.1, 1.0), 5,
                              pair_streams(0), 0.01, 1.0)

    def test_one_slot_noise_for_a_pair_rejected(self):
        # a (chains, 1, d) block would broadcast: both particles, same noise
        for intensity in (0.0, 1.0):
            one_slot = [(derive_stream(0, PURPOSE_POS1), derive_stream(0, PURPOSE_SWAP))]
            with pytest.raises(InputError, match="a group is a tuple of 2 slot streams"):
                run_pair_ensemble(double_well(), np.zeros((3, 2, 1)), (0.1, 1.0), 5,
                                  one_slot, 0.01, intensity)

    def test_swapping_run_without_uniforms_rejected(self):
        # a group without its swap entry is a layout error, whether or not
        # the run can swap; None is how a group says it never swaps
        for intensity in (0.0, 1.0):
            with pytest.raises(InputError, match="^a group is a tuple of 2 slot streams, "
                                                 "then a swap stream or None$"):
                run_pair_ensemble(double_well(), np.zeros((3, 2, 1)), (0.1, 1.0), 5,
                                  [pair_streams(0)[0][:2]], 0.01, intensity)
        _, _, swaps = certain_swaps(flat(), np.zeros((3, 2, 1)), (0.1, 1.0), 5,
                                    position_streams(0))
        assert swaps.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("R, intensity", [(2, 0.0), (1, 1.0)])
    def test_run_that_cannot_swap_draws_no_uniforms(self, R, intensity):
        streams = pair_streams(0)
        run_pair_ensemble(double_well(), np.zeros((3, R, 1)), (0.1, 1.0)[:R], 5,
                          [group[:R] + group[2:] for group in streams], 0.01, intensity)
        swap = streams[0][2]
        fresh = RngStream(swap.seed, swap.stream_id)
        assert np.array_equal(swap.uniform(3), fresh.uniform(3))

    @pytest.mark.parametrize("mode", ["temperature", "position"])
    def test_swaps_leave_observed_arrays_alone(self, mode):
        held = []

        def observe(k, x, T, fx):
            held.append((x, T, x.copy(), T.copy()))
        _, _, swaps = certain_swaps(flat(), np.zeros((4, 2, 1)), (0.1, 1.0), 6,
                                    pair_streams(2), mode, observe)
        assert np.all(swaps == 6)
        for x, T, x_then, T_then in held:
            assert np.array_equal(x, x_then) and np.array_equal(T, T_then)


def fired_everywhere(u, T, fx, a, h):
    """The swap decision with the public rate computed for every chain."""
    rate = swap_rate(fx[:, 0], fx[:, 1], T[:, 0], T[:, 1])
    return np.flatnonzero((u < swap_probability(rate, a, h)).any(axis=0))


@st.composite
def swap_steps(draw):
    """One step's swap inputs: m uniform rows over some chains, with rows of
    1.0 for chains that never swap, temperature pairs (some equal, some so
    small that the reciprocal or the exponent overflows), finite values, a
    and h."""
    chains = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3))
    unit = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0),
                     st.sampled_from([0.0, 0.01, 0.02, 0.5]))
    u = np.reshape(draw(st.lists(unit, min_size=m * chains, max_size=m * chains)),
                   (m, chains))
    temp = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.1, 1.0, 1e-308, 1e-320]))
    T = np.reshape(draw(st.lists(temp, min_size=2 * chains, max_size=2 * chains)),
                   (chains, 2))
    fx = np.reshape(draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * chains,
                                  max_size=2 * chains)), (chains, 2))
    a = draw(st.one_of(st.floats(0.0, 300.0), st.sampled_from([0.0, 1.0, 100.0])))
    h = draw(st.sampled_from([0.01, 0.001, 0.5]))
    return u, T, fx, a, h


class TestFired:
    """``_fired`` computes the rate only for chains with a uniform below
    min(1, a * h) and must fire exactly where the full decision does."""

    @given(swap_steps())
    def test_fires_where_the_full_decision_fires(self, step):
        assert np.array_equal(_fired(*step), fired_everywhere(*step))

    @pytest.mark.parametrize("u, T, fx, a, h, want", [
        # a * h >= 1: the probability is clamped, every real uniform is a candidate
        ([[0.9, 0.99, 1.0]], [[0.5, 1.0], [1.0, 1.0], [1.0, 1.0]],
         [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], 200.0, 0.01, [0, 1]),
        # three rows: one low uniform in any row fires
        ([[0.5, 0.5, 0.5], [0.5, 0.005, 0.5], [0.5, 0.5, 0.009]], [[0.1, 1.0]] * 3,
         [[0.0, 0.0]] * 3, 1.0, 0.01, [1, 2]),
        # u exactly a * h does not fire, the next float down does
        ([[0.01, np.nextafter(0.01, 0.0)]], [[0.1, 1.0]] * 2, [[0.0, 0.0]] * 2, 1.0, 0.01,
         [1]),
        # (1/T1 - 1/T2) * (u1 - u2) overflows to -inf: the rate is 0 even at u = 0
        ([[0.0, 0.0]], [[1e-308, 1.0], [1.0, 1e-308]], [[0.0, 10.0], [10.0, 0.0]],
         1.0, 0.01, []),
        # equal temperatures: rate 1 whatever the values
        ([[0.009, 0.011]], [[0.5, 0.5], [2.0, 2.0]], [[-5.0, 5.0], [5.0, -5.0]],
         1.0, 0.01, [0]),
        # rows of 1.0 (a chain that never swaps) never fire, even clamped
        ([[1.0, 1.0], [1.0, 0.0]], [[0.1, 1.0]] * 2, [[0.0, 0.0]] * 2, 500.0, 0.01, [1]),
    ], ids=["clamped", "three-rows", "u-at-a-h", "rate-zero", "equal-temps",
            "baseline-rows"])
    def test_edge_cases(self, u, T, fx, a, h, want):
        step = (np.array(u), np.array(T), np.array(fx), a, h)
        assert _fired(*step).tolist() == want
        assert fired_everywhere(*step).tolist() == want

    def test_nan_value_on_a_chain_that_cannot_fire_rejected(self):
        # uniforms of 1.0: no chain is ever a candidate, yet the NaN is caught
        def value_and_grad(x):
            v = np.zeros(x.shape[:-1])
            v[1] = np.nan
            return v, np.zeros_like(x)
        f = ObjectiveFunction(1, value_and_grad)
        with pytest.raises(InputError, match="finite"):
            run_pair_ensemble(f, np.zeros((3, 2, 1)), (0.1, 1.0), 5,
                              position_streams(0), 0.01, 1.0)


class TestPairSnapshots:
    def test_steps_outside_the_run_rejected(self):
        # the run ends at max(at), so only a step before the start lies outside it
        with pytest.raises(InputError, match="^snapshot step must be >= 0, got -1$"):
            pair_snapshots(double_well(), pair(np.ones((2, 1)), -np.ones((2, 1))), (0.1, 1.0),
                           pair_streams(0), 0.01, 1.0, [2, -1])

    def test_run_ends_at_the_last_snapshot_step(self):
        calls = []

        def value_and_grad(x):
            calls.append(x.shape)
            return double_well().value_and_grad(x)
        f, x0 = ObjectiveFunction(1, value_and_grad), pair(np.ones((2, 1)), -np.ones((2, 1)))
        seen = []
        run_pair_ensemble(f, x0, (0.1, 1.0), 3, pair_streams(0), 0.01, 1.0,
                          observe=lambda k, x, T, fx: seen.append(by_temperature(x, T)))
        calls.clear()
        snaps, _ = pair_snapshots(f, x0, (0.1, 1.0), pair_streams(0), 0.01, 1.0, [3, 0])
        assert np.array_equal(snaps, [seen[3], seen[0]])
        assert len(calls) == 4      # three steps, then the observer's final values

    @pytest.mark.parametrize("at", [[0], []])
    def test_a_run_of_no_steps_is_an_input_error(self, at):
        with pytest.raises(InputError, match="^last snapshot step must be >= 1, got 0$"):
            pair_snapshots(double_well(), pair(np.ones((2, 1)), -np.ones((2, 1))), (0.1, 1.0),
                           pair_streams(0), 0.01, 1.0, at)

    def test_fractional_steps_rejected(self):
        # a step index no step reaches would leave its snapshot unwritten
        def snapshots(at):
            return pair_snapshots(double_well(), pair(np.ones((2, 1)), -np.ones((2, 1))),
                                  (0.1, 1.0), pair_streams(0), 0.01, 1.0, at)[0]
        with pytest.raises(InputError, match="^snapshot step must be an integer, got 2.5$"):
            snapshots([2, 2.5, 10])
        assert np.array_equal(snapshots(np.array([2, 10])), snapshots([2, 10]))

    def test_steps_may_come_from_a_generator(self):
        def snapshots(at):
            return pair_snapshots(double_well(), pair(np.ones((2, 1)), -np.ones((2, 1))),
                                  (0.1, 1.0), pair_streams(0), 0.01, 5.0, at)
        listed, counted = snapshots([4, 0, 2, 4])
        generated, generated_counts = snapshots(k for k in [4, 0, 2, 4])
        assert np.array_equal(generated, listed) and np.array_equal(generated_counts, counted)

    def test_ragged_start_is_an_input_error(self):
        # the snapshot array is sized from the coerced start, not from np.shape
        with pytest.raises(InputError, match="^starting positions must be a number or a "
                                             "regular array of numbers, got "):
            pair_snapshots(double_well(), [[[0.0], [0.0]], [[0.0]]], (0.1, 1.0),
                           pair_streams(0), 0.01, 1.0, [1])

    def test_snapshots_match_the_observed_positions(self):
        f = double_well()
        x0 = pair(np.ones((3, 1)), -np.ones((3, 1)))
        seen = {}
        run_pair_ensemble(f, x0, (0.1, 1.0), 5, pair_streams(5), 0.01, 5.0,
                          observe=lambda k, x, T, fx: seen.setdefault(k, by_temperature(x, T)))
        snaps, _ = pair_snapshots(f, x0, (0.1, 1.0), pair_streams(5), 0.01, 5.0,
                                  [5, 0, 2, 5])
        for row, k in zip(snaps, [5, 0, 2, 5]):
            assert np.array_equal(row, seen[k])


def chunk_steps(per, d, m=1):
    """Kernel steps per chunk of the kernel's noise with ``per`` chains per
    group."""
    return CHUNK_DRAWS // (per * d * m)


class TestNoiseSources:
    def test_chunked_rows_replay_the_per_seed_block(self):
        # longer than one chunk, and not a multiple of it
        n, d = 3, 2
        steps = 2 * chunk_steps(1, d) + 37
        noise = list(_philox_noise(steps, (n, 2, d), pair_streams(9, n), True, 1))
        xi, u = pregenerate_noise(9, n, steps, d)
        assert len(noise) == steps
        for k, (inc, rows) in enumerate(noise):
            assert np.array_equal(inc, xi[k]) and np.array_equal(rows, u[k:k + 1])

    def test_unit_coarse_steps_are_the_fine_steps(self):
        chains = 4
        steps = chunk_steps(chains, 1) + 5
        noise = list(_philox_noise(steps, (chains, 2, 1), pair_streams(3), True, 1))
        [(pos1, pos2, swap)] = pair_streams(3)
        xi = np.stack([pos1.normal((steps, chains, 1)), pos2.normal((steps, chains, 1))],
                      axis=2)
        u = swap.uniform((steps, chains))
        assert len(noise) == steps
        for k, (inc, rows) in enumerate(noise):
            assert np.array_equal(inc, xi[k]) and np.array_equal(rows, u[k:k + 1])

    def test_coarse_step_sums_its_block(self):
        m, chains = 3, 4
        steps = chunk_steps(chains, 1, m) + 4
        rows = list(_philox_noise(m * steps, (chains, 2, 1), pair_streams(4), True, 1))
        coarse = list(_philox_noise(steps, (chains, 2, 1), pair_streams(4), True, m))
        assert len(rows) == m * steps and len(coarse) == steps
        for k, (inc, u) in enumerate(coarse):
            block = rows[m * k:m * (k + 1)]
            assert np.array_equal(inc, np.stack([row[0] for row in block]).sum(axis=0))
            assert np.array_equal(u, np.concatenate([row[1] for row in block]))

    @pytest.mark.parametrize("m", [1, 3])
    def test_draw_counts_are_exact_after_a_run(self, m):
        chains = 4
        steps = chunk_steps(chains, 1, m) + 10
        streams = pair_streams(5)
        run_pair_ensemble(double_well(), np.zeros((chains, 2, 1)), (0.1, 1.0), steps,
                          streams, 0.01, 5.0, m=m)
        assert drew_exactly(streams[0], m * steps * chains)

    def test_coarse_step_advances_m_sub_steps(self):
        # zero temperature: no noise, so one step is x - m * eta * grad exactly
        f, x0 = quadratic(1), np.array([[[1.0], [-2.0]]])
        x, _, _ = run_pair_ensemble(f, x0, 0.0, 1, pair_streams(0), 0.01, 0.0,
                                    m=3)
        assert np.array_equal(x, x0 - 3 * 0.01 * f.grad(x0))

    def test_group_without_swap_stream_never_swaps(self):
        streams = pair_streams(6, 2)
        streams[0] = streams[0][:2] + (None,)
        _, _, swaps = certain_swaps(flat(), np.zeros((4, 2, 1)), (0.1, 1.0), 8, streams)
        assert swaps.tolist() == [0, 0, 8, 8]

    def test_malformed_streams_rejected(self):
        # checked when the source is built, before its first step is asked for
        streams = pair_streams(0, 2)
        for chains, groups, message in (
                (3, streams, "do not split"),
                (4, [streams[0], streams[1][1:]], "a group is a tuple of 2 slot streams"),
                (2, [streams[0][0]], "a group is a tuple"),      # a bare stream
                (2, [list(streams[0])], "a group is a tuple"),   # a list of streams
                (4, [], "do not split")):
            with pytest.raises(InputError, match=message):
                _philox_noise(5, (chains, 2, 1), groups, True, 1)
        assert all(drew_exactly(group, 0) for group in streams)   # nothing drawn
