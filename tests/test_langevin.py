"""Tests for the Euler-Maruyama update and for single chains (R = 1) run
through the kernel ``run_pair_ensemble``."""

import numpy as np
import pytest

from relex.errors import DivergenceError, InputError
from relex.langevin import DIVERGENCE_LIMIT, check_finite, em_update
from relex.objective import double_well, quadratic
from relex.replica import pair_start, run_pair_ensemble
from relex.rng import PURPOSE_POS1, derive_stream, pair_streams


def run_chains(init, f, tau, eta, steps, rng, observe=None):
    """Independent single chains from ``init`` (n, d); returns (n, d)."""
    init = np.asarray(init, dtype=float)
    x, _, _ = run_pair_ensemble(f, init[:, None], tau, steps, [(rng, None)], eta, 0.0,
                                observe=observe)
    return x[:, 0]


class TestEmUpdate:
    def test_formula(self):
        pos = np.array([1.0, -2.0])
        grad = np.array([0.5, 0.5])
        xi = np.array([1.0, -1.0])
        out = em_update(pos, grad, temperature=2.0, eta=0.1, xi=xi)
        expected = pos - 0.1 * grad + np.sqrt(2 * 0.1 * 2.0) * xi
        assert np.allclose(out, expected)

    def test_zero_temperature_is_gradient_descent(self):
        pos = np.array([1.0, 1.0])
        out = em_update(pos, pos, temperature=0.0, eta=0.25, xi=np.ones(2))
        assert np.allclose(out, 0.75 * pos)

    def test_per_chain_temperature_broadcast(self):
        pos = np.zeros((3, 2))
        xi = np.ones((3, 2))
        temps = np.array([0.0, 0.5, 2.0])
        out = em_update(pos, np.zeros_like(pos), temps, eta=0.1, xi=xi)
        assert np.allclose(out[:, 0], np.sqrt(2 * 0.1 * temps))
        assert np.allclose(out[:, 1], np.sqrt(2 * 0.1 * temps))


class TestLangevinStep:
    def test_noise_replay_reproduces_step(self):
        f = quadratic(2)
        pos = np.array([[1.0, 2.0]])
        rng = derive_stream(0, PURPOSE_POS1)
        new = run_chains(pos, f, 0.5, 0.01, 1, rng)
        replay = derive_stream(0, PURPOSE_POS1).normal((1, 3))
        assert np.array_equal(new, em_update(pos, f.grad(pos), 0.5, 0.01, replay[:, :2]))
        # exactly d draws per particle-step: the stream reads on at the third
        assert np.array_equal(rng.normal((1, 1)), replay[:, 2:])

    def test_zero_temperature_descends_deterministically(self):
        f = quadratic(2)   # grad = x, so x <- (1 - eta) x
        final = run_chains([[4.0, -4.0]], f, 0.0, 0.1, 200,
                           derive_stream(1, PURPOSE_POS1))
        assert np.all(np.abs(final) < 1e-8)

    def test_invalid_inputs(self):
        f = quadratic(2)
        rng = derive_stream(0, PURPOSE_POS1)
        with pytest.raises(InputError):
            run_chains(np.zeros((1, 2)), f, 1.0, 0.0, 1, rng)
        with pytest.raises(InputError):
            run_chains(np.zeros((1, 2)), f, -1.0, 0.1, 1, rng)
        with pytest.raises(InputError):
            run_chains(np.zeros((1, 3)), f, 1.0, 0.1, 1, rng)

    def test_divergence_detected(self):
        f = quadratic(1)   # x <- (1 - eta) x = -2x at eta 3: |x| = 2^k
        with pytest.raises(DivergenceError) as err:
            run_chains([[1.0]], f, 0.0, 3.0, 1000, derive_stream(0, PURPOSE_POS1))
        assert err.value.iteration == 40   # first k with 2^k > 1e12
        assert (err.value.chain, err.value.slot) == (0, 0)
        assert err.value.position.tolist() == [-(2.0 ** 39)]   # one step earlier

    def test_divergence_names_the_chain_and_slot(self):
        # three pairs at zero temperature, all at rest but chain 1's slot 1
        f = quadratic(1)
        x0 = np.zeros((3, 2, 1))
        x0[1, 1] = 1.0
        [(p1, p2, _)] = pair_streams(0)
        with pytest.raises(DivergenceError) as err:
            run_pair_ensemble(f, x0, 0.0, 1000, [(p1, p2, None)], 3.0, 0.0)
        e = err.value
        assert (e.iteration, e.chain, e.slot) == (40, 1, 1)
        assert e.position.tolist() == [-(2.0 ** 39)]
        assert "iteration 40 in chain 1, slot 1" in str(e)
        assert f"last finite position [{-(2.0 ** 39)}]" in str(e)

    def test_divergence_names_the_temperature(self):
        # the first particle out holds the low temperature during its last update
        with pytest.raises(DivergenceError) as err:
            run_pair_ensemble(double_well(), pair_start(2000), (0.1, 1.0), 625,
                              pair_streams(0, 4), 0.08, 5.0)
        e = err.value
        assert (e.iteration, e.chain, e.slot, e.temperature) == (58, 225, 0, 0.1)
        assert e.position.tolist() == [-12988723.157909082]
        assert "iteration 58 in chain 225, slot 0, temperature 0.1;" in str(e)

    def test_guard_catches_nan_inf_and_the_limit(self):
        check_finite(np.array([[DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT]]), 3)
        for bad in (np.nan, np.inf, -np.inf, 2 * DIVERGENCE_LIMIT):
            with pytest.raises(DivergenceError) as err:
                check_finite(np.array([[0.0, bad]]), 7)
            assert err.value.iteration == 7
            assert err.value.temperature is None     # none given, none named


class TestRunChain:
    def test_trace_length_and_stride(self):
        # the observer sees the start and every step once, in order
        # along with the objective values at the observed positions
        f = double_well()
        seen = []

        def observe(k, x, T, fx):
            seen.append((k, x[:, 0].copy()))
            assert np.array_equal(fx, f.eval(x))
        final = run_chains([[0.5]], f, 0.5, 0.01, 100,
                           derive_stream(2, PURPOSE_POS1), observe=observe)
        assert [k for k, _ in seen] == list(range(101))
        assert seen[0][1].tolist() == [[0.5]]
        assert np.array_equal(seen[-1][1], final)

    def test_reproducible(self):
        f = double_well()
        a = run_chains([[0.0]], f, 0.5, 0.01, 50, derive_stream(3, PURPOSE_POS1))
        b = run_chains([[0.0]], f, 0.5, 0.01, 50, derive_stream(3, PURPOSE_POS1))
        assert np.array_equal(a, b)


class TestRunEnsemble:
    def test_shapes_and_snapshots(self):
        snaps = {}

        def observe(k, x, T, fx):
            if k in (10, 40):
                snaps[k] = x[:, 0].copy()
        final = run_chains(np.zeros((8, 2)), quadratic(2), 1.0, 0.05, 40,
                           derive_stream(4, PURPOSE_POS1), observe=observe)
        assert final.shape == (8, 2)
        assert set(snaps) == {10, 40}
        assert np.array_equal(snaps[40], final)

    def test_stationary_second_moment_matches_ou_oracle(self):
        # For U = ||x||^2 / 2 the chain is AR(1): x <- (1 - eta) x + noise,
        # stationary variance 2 eta tau / (1 - (1 - eta)^2) per coordinate.
        eta, tau = 0.1, 1.0
        oracle = 2 * eta * tau / (1.0 - (1.0 - eta) ** 2)
        final = run_chains(np.zeros((4000, 1)), quadratic(1), tau, eta, 2000,
                           derive_stream(5, PURPOSE_POS1))
        assert np.isclose(np.mean(final ** 2), oracle, rtol=0.1)

    def test_flat_potential_is_pure_diffusion(self):
        eta, tau, steps = 0.01, 1.0, 500
        final = run_chains(np.zeros((4000, 1)), quadratic(1, scale=0.0), tau, eta, steps,
                           derive_stream(6, PURPOSE_POS1))
        assert np.isclose(np.mean(final ** 2), 2 * tau * eta * steps, rtol=0.1)

    def test_bad_init_shape(self):
        f = quadratic(2)
        for x0 in (np.zeros((4, 1, 3)), np.zeros((4, 2)), np.zeros((4, 3, 2))):
            with pytest.raises(InputError):
                run_pair_ensemble(f, x0, 1.0, 10, [(derive_stream(0, PURPOSE_POS1), None)],
                                  0.1, 0.0)
