"""Exception types shared across the library."""


class CoreglassoError(Exception):
    """Base class for all library errors."""


class InputError(CoreglassoError, ValueError):
    """Malformed or out-of-contract input data (shapes, ranges, NaNs)."""


class ConfigError(CoreglassoError, ValueError):
    """Inconsistent configuration (e.g. distance coupling without distances)."""


class InfeasibleError(CoreglassoError):
    """The core-score polytope is empty for the requested budget."""


class NotPositiveDefiniteError(CoreglassoError):
    """A matrix required to be positive definite is not."""


class NumericalError(CoreglassoError):
    """A solver lost its numerical invariants or failed its certificate."""
