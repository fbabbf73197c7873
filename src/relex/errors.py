"""Exception types shared across the package, and the integer and float
coercions that raise them."""

import operator
import reprlib

import numpy as np


class RelexError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RelexError):
    """A caller supplied a non-finite, empty or otherwise invalid value, such
    as a malformed config file, an unknown key, mismatched grids, bounds that
    truncate a Gibbs density, or too few points to fit a decay rate."""


class DivergenceError(RelexError):
    """A trajectory left the finite domain at step ``iteration``; ``chain`` and ``slot``
    locate the first particle out, and ``position`` is its last finite position."""

    def __init__(self, message: str, iteration: int | None = None,
                 chain: int | None = None, slot: int | None = None, position=None):
        super().__init__(message)
        self.iteration, self.chain, self.slot, self.position = iteration, chain, slot, position


def integer(what: str, value) -> int:
    """``value`` as an int, else an InputError naming ``what``. A count or a step
    index given as a float, even a whole one, is an error: truncating it would
    run another count, and a fractional step index names no step."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def floats(what: str, value) -> np.ndarray:
    """``value`` as a float array, else an InputError naming ``what``: a string,
    a ragged nesting or an object that is not a number is not an array of floats."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be a number or a regular array of numbers, "
                         f"got {reprlib.repr(value)}") from None
