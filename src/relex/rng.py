"""Counter-based, splittable random number streams.

Every source of randomness in the package is an :class:`RngStream`, keyed by
a 64-bit root seed and a 64-bit stream id. Streams built from the same
(seed, stream-id) pair replay the identical draw sequence bit-for-bit;
distinct stream ids give statistically independent streams. This is what
makes coupled A/B comparisons possible: toggling the swap intensity on and
off leaves the position-noise streams untouched.

Backed by numpy's Philox generator; no other module touches numpy.random.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, integer

# Purpose ids used to derive per-role stream ids from one root seed.
PURPOSE_POS1 = 1   # position noise of the first (low-temperature) particle
PURPOSE_POS2 = 2   # position noise of the second particle
PURPOSE_SWAP = 3   # uniforms driving swap decisions
PURPOSE_INIT = 4   # randomized initial positions

# Whole stream ids, used as RngStream(seed, id) outside the purpose scheme.
STREAM_DIRICHLET_MC = 0xACCE   # criterion 5's Monte Carlo sampler, at seed 5
STREAM_BOOTSTRAP = 0xB007      # chain resamples of a chi-square decay fit


class RngStream:
    """A replayable stream of normals, uniforms and bounded integers,
    identified by (seed, stream id). Each draw advances one Philox state."""

    def __init__(self, seed: int, stream_id: int = 0):
        # A Philox key is two 64-bit words.
        self.seed, self.stream_id = _word("seed", seed, 64), _word("stream id", stream_id, 64)
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )

    def normal(self, shape):
        """An array of standard-normal draws."""
        return self._gen.standard_normal(shape)

    def uniform(self, shape):
        """An array of Uniform(0, 1) draws."""
        return self._gen.random(shape)

    def integers(self, high: int, shape):
        """An array of integers drawn uniformly from [0, high)."""
        return self._gen.integers(0, high, shape)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _word(what: str, value, bits: int) -> int:
    """``value`` as an integer in [0, 2**bits). Truncating a float or masking
    a larger integer would alias another key's stream, so both are errors."""
    value = integer(what, value)
    if not 0 <= value < 1 << bits:
        raise InputError(f"{what} must lie in [0, 2**{bits}), got {value}")
    return value


def _stream_id(purpose: int, chain: int = 0) -> int:
    """Pack a purpose id and a chain index, each 32 bits, into one 64-bit stream id."""
    return _word("purpose", purpose, 32) << 32 | _word("chain", chain, 32)


def derive_stream(seed: int, purpose: int, chain: int = 0) -> RngStream:
    """Stream for a given (root seed, purpose, chain) triple."""
    return RngStream(seed, _stream_id(purpose, chain))


def pair_streams(seed: int, groups: int = 1):
    """(pos1, pos2, swap) streams of ``groups`` >= 1 pair groups, keyed (seed, purpose, group).
    Every group gets all three; a caller whose group never swaps, such as a
    comparison's baseline pairs, puts None in place of its swap stream."""
    return [(derive_stream(seed, PURPOSE_POS1, g), derive_stream(seed, PURPOSE_POS2, g),
             derive_stream(seed, PURPOSE_SWAP, g)) for g in range(integer("groups", groups, 1))]
