"""Exception and warning types shared across the package."""


class TimefringeError(Exception):
    """Base class for all package errors."""


class DomainError(TimefringeError):
    """An input violates a documented precondition."""


class ResolutionError(TimefringeError):
    """The ceiling error: resolving the run would take more samples on one
    axis than propagation.MAX_AXIS_SAMPLES, or a count past the float
    range. The axis is an automatic output time axis or a quadrature input
    grid, and the message names the count it needed."""


class NoFringes(TimefringeError):
    """A trace has no fringes to report: it carries no intensity, its
    central window holds fewer than two peaks, or its covariant
    interference visibility is below the floor, so the peaks left are the
    gate envelopes. Expected for control runs."""


class ConfigError(TimefringeError):
    """Scenario file violates the schema."""


class IoError(TimefringeError):
    """Missing or unreadable input file."""


class OverlapWarning(UserWarning):
    """Gates wider than their spacing: the overlapping-gate regime."""
