"""Tests for the counter-based stream derivation."""

import re

import numpy as np
import pytest

from relex.errors import InputError
from relex.rng import (PURPOSE_INIT, PURPOSE_POS1, PURPOSE_POS2, PURPOSE_SWAP,
                       STREAM_BOOTSTRAP, STREAM_DIRICHLET_MC, RngStream, _stream_id,
                       derive_stream, pair_streams)


def test_same_seed_and_stream_reproduce():
    a = RngStream(42, stream_id=7)
    b = RngStream(42, stream_id=7)
    assert np.array_equal(a.normal((100,)), b.normal((100,)))
    assert np.array_equal(a.uniform((100,)), b.uniform((100,)))


def test_different_streams_differ():
    a = RngStream(42, stream_id=1)
    b = RngStream(42, stream_id=2)
    assert not np.array_equal(a.normal((100,)), b.normal((100,)))


def test_different_seeds_differ():
    a = RngStream(1, stream_id=0)
    b = RngStream(2, stream_id=0)
    assert not np.array_equal(a.normal((100,)), b.normal((100,)))


def test_stream_id_packs_purpose_and_chain():
    ids = {
        _stream_id(purpose, chain)
        for purpose in (PURPOSE_POS1, PURPOSE_POS2, PURPOSE_SWAP, PURPOSE_INIT)
        for chain in range(50)
    }
    assert len(ids) == 4 * 50
    assert _stream_id(PURPOSE_POS1, 3) == (1 << 32) | 3


@pytest.mark.parametrize("purpose, chain, message", [
    (PURPOSE_POS1, 1.5, "chain must be an integer, got 1.5"),
    (PURPOSE_POS1, 1 << 32, r"chain must lie in \[0, 2\*\*32\), got 4294967296$"),
    ((1 << 32) + 1, 0, r"purpose must lie in \[0, 2\*\*32\), got 4294967297$"),
    (PURPOSE_POS1, -1, r"chain must lie in \[0, 2\*\*32\), got -1$"),
], ids=["float-chain", "chain-2**32", "purpose-2**32+1", "negative-chain"])
def test_purpose_and_chain_outside_32_bits_rejected(purpose, chain, message):
    # truncated or masked, each would replay another (purpose, chain) stream
    with pytest.raises(InputError, match=message):
        derive_stream(0, purpose, chain)


def test_32_bit_edges_and_numpy_integers_pack():
    assert _stream_id((1 << 32) - 1, (1 << 32) - 1) == (1 << 64) - 1
    assert _stream_id(np.int64(PURPOSE_POS1), np.uint32(3)) == (1 << 32) | 3


def test_derive_stream_matches_manual_construction():
    a = derive_stream(9, PURPOSE_SWAP, chain=5)
    b = RngStream(9, _stream_id(PURPOSE_SWAP, 5))
    assert np.array_equal(a.uniform((20,)), b.uniform((20,)))


def test_draw_order_independence_across_streams():
    # Counter-based streams: interleaving draws from one stream never
    # perturbs another.
    a1 = derive_stream(0, PURPOSE_POS1)
    b1 = derive_stream(0, PURPOSE_POS2)
    x1 = a1.normal((10,))
    y1 = b1.normal((10,))

    b2 = derive_stream(0, PURPOSE_POS2)
    y2 = b2.normal((10,))   # drawn without touching the POS1 stream
    a2 = derive_stream(0, PURPOSE_POS1)
    x2 = a2.normal((10,))
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)


def _philox(seed, stream_id):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


@pytest.mark.parametrize("high, shape", [(2000, 2000), (1, (3, 4)), (7, ()), (2 ** 40, (5,))])
def test_integers_equal_generator_integers_on_the_same_key(high, shape):
    got = RngStream(4, STREAM_BOOTSTRAP).integers(high, shape)
    want = _philox(4, STREAM_BOOTSTRAP).integers(0, high, shape)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got.shape == np.empty(shape).shape
    assert got.min() >= 0 and got.max() < high


def test_draws_continue_one_philox_sequence():
    # successive draws of any kind read on from where the last one stopped
    s, g = RngStream(3, 9), _philox(3, 9)
    assert np.array_equal(s.normal((5,)), g.standard_normal(5))
    assert np.array_equal(s.uniform((3, 2)), g.random((3, 2)))
    assert np.array_equal(s.integers(10, 4), g.integers(0, 10, 4))
    assert np.array_equal(s.normal(2), g.standard_normal(2))


def test_named_stream_ids_differ_from_every_purpose_stream():
    # a derived id carries its purpose, at least 1, in the upper 32 bits
    assert min(PURPOSE_POS1, PURPOSE_POS2, PURPOSE_SWAP, PURPOSE_INIT) >= 1
    assert STREAM_DIRICHLET_MC >> 32 == STREAM_BOOTSTRAP >> 32 == 0


@pytest.mark.parametrize("seed, stream_id, what", [
    (-1, 0, "seed"), (1 << 64, 0, "seed"), (0, -1, "stream id"), (0, 1 << 64, "stream id")])
def test_keys_outside_64_bits_rejected(seed, stream_id, what):
    # masking them to 64 bits would replay another key's stream
    bad = seed if what == "seed" else stream_id
    with pytest.raises(InputError, match=rf"{what} must lie in \[0, 2\*\*64\), got {bad}$"):
        RngStream(seed, stream_id)


def test_derived_stream_of_a_negative_seed_rejected():
    with pytest.raises(InputError, match=r"seed must lie in \[0, 2\*\*64\), got -1"):
        derive_stream(-1, PURPOSE_POS1)


@pytest.mark.parametrize("seed, stream_id, what", [
    (1.5, 0, "seed"), (1.0, 0, "seed"), (np.float64(2.0), 0, "seed"), ("1", 0, "seed"),
    (True, 0, "seed"), (0, np.True_, "stream id"), (0, 2.5, "stream id")])
def test_non_integer_keys_rejected(seed, stream_id, what):
    # truncating them would replay an integer key's stream
    with pytest.raises(InputError, match=rf"{what} must be an integer, got "):
        RngStream(seed, stream_id)


def test_derived_stream_of_a_float_seed_rejected():
    with pytest.raises(InputError, match="seed must be an integer, got 1.5"):
        derive_stream(1.5, PURPOSE_POS1)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int32(7)])
def test_numpy_integer_seeds_accepted(seed):
    a = derive_stream(seed, PURPOSE_POS1)
    assert a.seed == 7 and type(a.seed) is int
    assert np.array_equal(a.normal((10,)), derive_stream(7, PURPOSE_POS1).normal((10,)))


@pytest.mark.parametrize("groups, message", [
    (1.5, "groups must be an integer, got 1.5"),
    ("2", "groups must be an integer, got '2'"),
    (True, "groups must be an integer, got True"),
    (0, "groups must be >= 1, got 0"),
    (-2, "groups must be >= 1, got -2"),
], ids=["float", "text", "bool", "zero", "negative"])
def test_pair_streams_rejects_a_group_count_that_is_no_positive_integer(groups, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        pair_streams(0, groups)


def test_pair_streams_keys_each_group_by_purpose():
    groups = pair_streams(5, np.int64(2))
    assert [[(s.seed, s.stream_id) for s in g] for g in groups] == [
        [(5, _stream_id(p, g)) for p in (PURPOSE_POS1, PURPOSE_POS2, PURPOSE_SWAP)]
        for g in range(2)]


def test_64_bit_edges_accepted():
    assert RngStream((1 << 64) - 1, (1 << 64) - 1).normal((2,)).shape == (2,)


def test_normal_moments_sane():
    z = RngStream(123).normal((200_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
