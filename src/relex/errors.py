"""Exception types shared across the package."""


class RelexError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RelexError):
    """A caller supplied a non-finite, empty or otherwise invalid value, such
    as mismatched grids or bounds that truncate a Gibbs density."""


class ConfigError(RelexError):
    """A configuration file or parameter set is invalid."""


class DivergenceError(RelexError):
    """A trajectory left the finite domain at step ``iteration``; ``chain`` and ``slot``
    locate the first particle out, and ``position`` is its last finite position."""

    def __init__(self, message: str, iteration: int | None = None,
                 chain: int | None = None, slot: int | None = None, position=None):
        super().__init__(message)
        self.iteration, self.chain, self.slot, self.position = iteration, chain, slot, position


class FitError(RelexError):
    """Too few usable points to fit a decay rate."""
