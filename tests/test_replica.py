"""Tests for the swap rate, replica pairs (R = 2) run through the kernel
``run_pair_ensemble``, and the noise sources."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relex.errors import InputError
from relex.objective import (ObjectiveFunction, double_well, quadratic,
                             zero_potential)
from relex.replica import (SwapPolicy, block_noise, by_temperature,
                           check_increment, coarse_noise, pair_snapshots,
                           run_pair_ensemble, stream_noise, swap_probability,
                           swap_rate)
from relex.rng import PURPOSE_POS1, PURPOSE_POS2, PURPOSE_SWAP, derive_stream

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


class TestSwapPolicy:
    def test_validation(self):
        for intensity, eta in ((-1.0, 0.01), (1.0, 0.0), (np.nan, 0.01),
                               (np.inf, 0.01), (1.0, np.inf), (1.0, np.nan)):
            with pytest.raises(InputError):
                SwapPolicy(intensity=intensity, eta=eta)

    def test_clamp_warning(self):
        with pytest.warns(RuntimeWarning):
            policy = SwapPolicy(intensity=2.0, eta=1.0)
        assert swap_probability(1.0, policy.intensity, policy.eta) == 1.0

    def test_probability_clamped_to_unit_interval(self):
        assert swap_probability(0.0, 5.0, 0.1) == 0.0
        assert swap_probability(1.0, 5.0, 0.1) == 0.5
        assert 0.0 <= swap_probability(1.0, 5.0, 0.001) <= 1.0

    def test_zero_intensity_never_swaps(self):
        # probability exactly 0, so no uniform in [0, 1) falls below it
        rates = derive_stream(0, PURPOSE_SWAP).uniform(1000)
        assert np.all(swap_probability(rates, 0.0, 0.01) == 0.0)


def certain_swaps():
    """intensity * eta = 1: with s = 1 every step swaps."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SwapPolicy(intensity=100.0, eta=0.01)


def pair_noise(seed, chains, d=1):
    return stream_noise(0.01, (chains, d), [derive_stream(seed, PURPOSE_POS1),
                                            derive_stream(seed, PURPOSE_POS2)],
                        derive_stream(seed, PURPOSE_SWAP))


def pair(x1, x2):
    """(chains, 2, d) from per-slot (chains, d) positions."""
    return np.stack((np.asarray(x1, float), np.asarray(x2, float)), axis=1)


class TestSteppers:
    def test_certain_swap_exchanges_temperatures(self):
        # flat potential: s = 1; intensity * eta = 1 clamps probability to 1
        _, T, swaps = run_pair_ensemble(zero_potential(1), pair([[0.0]], [[1.0]]),
                                        (0.1, 1.0), 1, pair_noise(0, 1),
                                        certain_swaps())
        assert T.tolist() == [[1.0, 0.1]]
        assert swaps.tolist() == [1]

    def test_formulations_move_the_same_coordinates(self):
        # with identical streams the two formulations produce the same pair of
        # post-step positions, just labeled differently
        f = double_well()
        x0 = pair([[1.0]], [[-1.0]])
        xt, Tt, _ = run_pair_ensemble(f, x0, (0.1, 1.0), 1, pair_noise(1, 1),
                                      certain_swaps(), mode="temperature")
        xp, Tp, _ = run_pair_ensemble(f, x0, (0.1, 1.0), 1, pair_noise(1, 1),
                                      certain_swaps(), mode="position")
        assert np.array_equal(xt, xp[:, ::-1])
        assert np.array_equal(by_temperature(xt, Tt), by_temperature(xp, Tp))

    def test_low_temperature_position_tracks_swaps(self):
        x = pair([[1.0]], [[2.0]])
        assert by_temperature(x, np.array([[0.1, 1.0]])).tolist() == [[[1.0], [2.0]]]
        assert by_temperature(x, np.array([[1.0, 0.1]])).tolist() == [[[2.0], [1.0]]]

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            run_pair_ensemble(quadratic(2), np.zeros((1, 2, 3)), (0.1, 1.0), 1,
                              pair_noise(0, 1, 3), SwapPolicy(1.0, 0.01))


class TestPairEnsemble:
    def test_zero_intensity_counts_no_swaps(self):
        n = 16
        x, _, counts = run_pair_ensemble(
            double_well(), pair(np.ones((n, 1)), -np.ones((n, 1))), (0.1, 1.0),
            200, pair_noise(0, n), SwapPolicy(0.0, 0.01))
        assert counts.sum() == 0
        assert x.shape == (n, 2, 1)

    def test_snapshots_ordered_low_then_high(self):
        # flat potential with certain swaps: temperatures trade every step,
        # yet snapshots stay keyed by temperature
        for mode in ("temperature", "position"):
            snaps = {}
            x, T, counts = run_pair_ensemble(
                zero_potential(1), np.zeros((8, 2, 1)), (0.1, 1.0), 10,
                pair_noise(1, 8), certain_swaps(), mode=mode,
                observe=lambda k, x, T, fx: snaps.setdefault(k, by_temperature(x, T)))
            assert np.array_equal(snaps[10], by_temperature(x, T))
            assert np.all(counts == 10)

    def test_invalid_mode_and_steps(self):
        args = (double_well(), pair(np.ones((2, 1)), -np.ones((2, 1))), (0.1, 1.0))
        with pytest.raises(InputError):
            run_pair_ensemble(*args, 10, pair_noise(0, 2), SwapPolicy(1.0, 0.01),
                              mode="bogus")
        with pytest.raises(InputError):
            run_pair_ensemble(*args, 0, pair_noise(0, 2), SwapPolicy(1.0, 0.01))

    @pytest.mark.parametrize("observed", [False, True])
    def test_one_objective_pass_per_step(self, observed):
        calls = {"eval": 0, "grad": 0, "value_and_grad": 0}
        f = double_well()

        def counted(name):
            def fn(x):
                calls[name] += 1
                return getattr(f, name)(x)
            return fn
        counting = ObjectiveFunction(1, counted("eval"), counted("grad"),
                                     value_and_grad=counted("value_and_grad"))
        seen = []
        run_pair_ensemble(counting, pair(np.ones((4, 1)), -np.ones((4, 1))),
                          (0.1, 1.0), 25, pair_noise(3, 4), SwapPolicy(5.0, 0.01),
                          observe=(lambda k, x, T, fx: seen.append(k)) if observed else None)
        assert calls == {"eval": int(observed), "grad": 0, "value_and_grad": 25}
        assert seen == (list(range(26)) if observed else [])

    def test_observer_sees_the_values_of_the_positions(self):
        f = double_well()

        def observe(k, x, T, fx):
            assert np.array_equal(fx, f.eval(x))
        run_pair_ensemble(f, pair(np.ones((4, 1)), -np.ones((4, 1))), (0.1, 1.0),
                          40, pair_noise(4, 4), SwapPolicy(5.0, 0.01), observe=observe)

    def test_non_finite_start_is_an_input_error(self):
        for bad in (np.nan, np.inf):
            x0 = pair([[0.0], [bad]], [[0.0], [0.0]])
            for policy in (SwapPolicy(0.0, 0.01), SwapPolicy(1.0, 0.01)):
                with pytest.raises(InputError, match="starting positions"):
                    run_pair_ensemble(double_well(), x0, (0.1, 1.0), 5,
                                      pair_noise(0, 2), policy)
            with pytest.raises(InputError, match="starting positions"):
                run_pair_ensemble(double_well(), x0[:, :1], 0.5, 5,
                                  stream_noise(0.01, (2, 1), [derive_stream(0, PURPOSE_POS1)]),
                                  SwapPolicy(0.0, 0.01))

    def test_zero_temperature_rejected_before_any_step_when_swapping(self):
        def noise(k):
            raise AssertionError("no step may run")
        with pytest.raises(InputError, match="positive"):
            run_pair_ensemble(double_well(), pair([[0.0]], [[0.0]]), (0.0, 1.0), 5,
                              noise, SwapPolicy(1.0, 0.01))
        # without swaps a zero temperature is plain gradient descent
        x, _, _ = run_pair_ensemble(double_well(), pair([[0.5]], [[0.5]]), (0.0, 1.0),
                                    5, pair_noise(0, 1), SwapPolicy(0.0, 0.01))
        assert np.isfinite(x).all()

    def test_nan_value_at_finite_position_rejected(self):
        f = ObjectiveFunction(1, eval=lambda x: np.full(x.shape[:-1], np.nan),
                              grad=np.zeros_like)
        with pytest.raises(InputError, match="finite"):
            run_pair_ensemble(f, pair([[0.0]], [[0.0]]), (0.1, 1.0), 5,
                              pair_noise(0, 1), SwapPolicy(1.0, 0.01))

    def test_one_slot_noise_for_a_pair_rejected(self):
        # a (chains, 1, d) block would broadcast: both particles, same noise
        one_slot = stream_noise(0.01, (3, 1), [derive_stream(0, PURPOSE_POS1)],
                                derive_stream(0, PURPOSE_SWAP))
        for policy in (SwapPolicy(0.0, 0.01), SwapPolicy(1.0, 0.01)):
            with pytest.raises(InputError, match="noise block has shape"):
                run_pair_ensemble(double_well(), np.zeros((3, 2, 1)), (0.1, 1.0), 5,
                                  one_slot, policy)

    def test_swapping_run_without_uniforms_rejected(self):
        no_swap = stream_noise(0.01, (3, 1), [derive_stream(0, PURPOSE_POS1),
                                              derive_stream(0, PURPOSE_POS2)])
        with pytest.raises(InputError, match="swap uniforms"):
            run_pair_ensemble(double_well(), np.zeros((3, 2, 1)), (0.1, 1.0), 5,
                              no_swap, SwapPolicy(1.0, 0.01))
        # a run that cannot swap needs none
        x, _, _ = run_pair_ensemble(double_well(), np.zeros((3, 2, 1)), (0.1, 1.0), 5,
                                    no_swap, SwapPolicy(0.0, 0.01))
        assert np.isfinite(x).all()

    @pytest.mark.parametrize("mode", ["temperature", "position"])
    def test_swaps_leave_observed_arrays_alone(self, mode):
        held = []

        def observe(k, x, T, fx):
            held.append((x, T, x.copy(), T.copy()))
        _, _, swaps = run_pair_ensemble(zero_potential(1), np.zeros((4, 2, 1)), (0.1, 1.0),
                                        6, pair_noise(2, 4), certain_swaps(), mode, observe)
        assert np.all(swaps == 6)
        for x, T, x_then, T_then in held:
            assert np.array_equal(x, x_then) and np.array_equal(T, T_then)


class TestPairSnapshots:
    def test_steps_outside_the_run_rejected(self):
        args = (double_well(), pair(np.ones((2, 1)), -np.ones((2, 1))), (0.1, 1.0), 5,
                pair_noise(0, 2), SwapPolicy(1.0, 0.01))
        for at in ([2, 7], [2, -1], [6]):
            with pytest.raises(InputError, match="outside"):
                pair_snapshots(*args, at)

    def test_snapshots_match_the_observed_positions(self):
        f = double_well()
        x0 = pair(np.ones((3, 1)), -np.ones((3, 1)))
        seen = {}
        run_pair_ensemble(f, x0, (0.1, 1.0), 5, pair_noise(5, 3), SwapPolicy(5.0, 0.01),
                          observe=lambda k, x, T, fx: seen.setdefault(k, by_temperature(x, T)))
        snaps, _ = pair_snapshots(f, x0, (0.1, 1.0), 5, pair_noise(5, 3),
                                  SwapPolicy(5.0, 0.01), [5, 0, 2, 5])
        for row, k in zip(snaps, [5, 0, 2, 5]):
            assert np.array_equal(row, seen[k])


class TestNoiseSources:
    def test_block_noise_replays_stream_draws(self):
        f = double_well()
        x0 = pair(np.ones((4, 1)), -np.ones((4, 1)))
        policy = SwapPolicy(5.0, 0.01)
        streamed = run_pair_ensemble(f, x0, (0.1, 1.0), 30, pair_noise(2, 4), policy)
        source = pair_noise(2, 4)
        draws = [source(k) for k in range(30)]
        blocks = block_noise(np.stack([xi for xi, _, _ in draws]),
                             np.concatenate([u for _, u, _ in draws]), 0.01)
        replayed = run_pair_ensemble(f, x0, (0.1, 1.0), 30, blocks, policy)
        for a, b in zip(streamed, replayed):
            assert np.array_equal(a, b)

    def test_unit_coarse_steps_are_the_fine_steps(self):
        xi = derive_stream(3, PURPOSE_POS1).normal((6, 4, 2, 1))
        u = derive_stream(3, PURPOSE_SWAP).uniform((6, 4))
        fine = block_noise(xi, u, 0.01)
        coarse = coarse_noise(xi, np.cumsum(xi, axis=0), u, 1, 0.01)
        for k in range(6):
            for a, b in zip(fine(k), coarse(k)):
                assert np.array_equal(a, b)

    def test_coarse_step_sums_its_block(self):
        xi = derive_stream(4, PURPOSE_POS1).normal((6, 4, 2, 1))
        u = derive_stream(4, PURPOSE_SWAP).uniform((6, 4))
        inc, rows, h = coarse_noise(xi, np.cumsum(xi, axis=0), u, 3, 0.01)(1)
        assert np.array_equal(inc, xi[3:6].sum(axis=0))
        assert np.array_equal(rows, u[3:6]) and h == 0.01

    def test_misaligned_block_breaks_the_coupling(self):
        xi = derive_stream(5, PURPOSE_POS1).normal((8, 4, 2, 1))
        path = np.cumsum(xi, axis=0)
        check_increment(xi[2:4].sum(axis=0), path, 2, 4)
        with pytest.raises(InputError):
            check_increment(xi[3:5].sum(axis=0), path, 2, 4)
