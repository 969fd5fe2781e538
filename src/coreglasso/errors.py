"""Exception types shared across the library."""


class CoreglassoError(Exception):
    """Base class for all library errors."""


class InputError(CoreglassoError, ValueError):
    """Bad data: a matrix, vector or file of the wrong shape or with bad entries."""


class ConfigError(CoreglassoError, ValueError):
    """Bad settings: a scalar setting out of its range (``model._check_setting``)
    or settings that do not fit together (e.g. ``e > 0`` without distances)."""


class InfeasibleError(ConfigError):
    """The core-score polytope is empty for the requested budget: a budget
    beyond the maximum feasible core mass is a setting that does not fit."""


class NotPositiveDefiniteError(CoreglassoError):
    """A matrix required to be positive definite is not."""


class NumericalError(CoreglassoError):
    """A solver lost its numerical invariants or failed its certificate."""
