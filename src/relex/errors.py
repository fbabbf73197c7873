"""Exception types shared across the package, the coercions of integers,
numbers and float arrays that raise them, and the elementwise tests that state
what a valid number or array element is."""

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
    locate the first particle out, ``position`` is its last finite position and
    ``temperature`` the temperature it held during the update that left."""

    def __init__(self, message: str, iteration: int | None = None,
                 chain: int | None = None, slot: int | None = None, position=None,
                 temperature: float | None = None):
        super().__init__(message)
        self.iteration, self.chain, self.slot, self.position = iteration, chain, slot, position
        self.temperature = temperature


# Elementwise tests, of an array for ``floats`` or of one float for ``number``.
# NaN fails every comparison, so a test that compares rejects NaN as well.
finite = np.isfinite


def positive_finite(x):
    return (0 < x) & (x < np.inf)


def nonnegative_finite(x):
    return (0 <= x) & (x < np.inf)


def integer(what: str, value, low: int | None = None) -> int:
    """``value`` as an int of at least ``low``, else an InputError naming ``what``.
    A count or a step index given as a float, even a whole one, is an error:
    truncating it would run another count, and a fractional step names no step."""
    try:
        if isinstance(value, (bool, np.bool_)):     # a truth value, not a count
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {reprlib.repr(value)}") from None
    if low is not None and value < low:
        raise InputError(f"{what} must be >= {low}, got {value}")
    return value


def number(what: str, value, test=finite, condition: str = "a finite number") -> float:
    """``value`` as a float that passes ``test``, else an InputError saying ``what``
    must be ``condition``. Text, bytes, bools, None and arrays with axes are no
    number; by default any finite float of either sign passes."""
    try:
        array = np.asarray(value)
        real = float(array) if array.ndim == 0 and array.dtype.kind in "iuf" else None
    except (TypeError, ValueError):                 # a ragged nesting
        real = None
    if real is None or not test(real):
        shown = reprlib.repr(value) if real is None else real
        raise InputError(f"{what} must be {condition}, got {shown}")
    return real


def positive(what: str, value, zero: bool = False) -> float:
    """``value`` as a finite float above 0, or at or above 0 with ``zero``."""
    return number(what, value, nonnegative_finite if zero else positive_finite,
                  f"{'nonnegative' if zero else 'positive'} and finite")


def floats(what: str, value, test=None, condition: str = "", axes=None) -> np.ndarray:
    """``value`` as a float array with ``axes`` axes, if given, whose every
    element passes the elementwise ``test``, else an InputError naming ``what``:
    "``what`` must have ``axes`` axis|axes, got shape ..." or "``what`` must be
    ``condition``". The axes are checked first.
    Text, bytes, None, bools, a ragged nesting or any other object that is no
    number holds no floats. Without a test any float passes, NaN and inf too."""
    try:
        array = np.asarray(value)
        if array.dtype.kind == "b":
            raise TypeError
        array = array.astype(float, copy=False, casting="same_kind")
    except (TypeError, ValueError):
        raise InputError(f"{what} must be a number or a regular array of numbers, "
                         f"got {reprlib.repr(value)}") from None
    if axes is not None and array.ndim != axes:
        raise InputError(f"{what} must have {axes} {'axis' if axes == 1 else 'axes'}, "
                         f"got shape {array.shape}")
    if test is not None and not np.all(test(array)):
        raise InputError(f"{what} must be {condition}")
    return array
