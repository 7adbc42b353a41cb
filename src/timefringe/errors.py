"""Exception and warning types shared across the package."""


class TimefringeError(Exception):
    """Base class for all package errors."""


class DomainError(TimefringeError):
    """An input violates a documented precondition."""


class ResolutionError(TimefringeError):
    """Grid too coarse to resolve the oscillations of the integrand.

    Carries the n_t a time grid needs, where grid.n_t can set it, so
    callers can retry.
    """

    def __init__(self, message, required_n_t=None):
        super().__init__(message)
        self.required_n_t = required_n_t


class NoFringes(TimefringeError):
    """Fewer than two peaks found in a trace; expected for control runs."""


class ConfigError(TimefringeError):
    """Scenario file violates the schema."""


class IoError(TimefringeError):
    """Missing or unreadable input file."""


class OverlapWarning(UserWarning):
    """Gates wider than their spacing: the overlapping-gate regime."""
