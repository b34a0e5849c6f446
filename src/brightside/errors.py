"""Exception types and the integer checks shared across the package."""

import numbers


def _require_integer(name, value, least):
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_dimension(d):
    """Raise DomainError for a dimension below 1, else ValueError unless
    ``d`` is an integer (not a bool)."""
    if isinstance(d, numbers.Real) and not d >= 1:
        raise DomainError(f"dimension must be >= 1, got {d!r}")
    _require_integer("dimension d", d, 1)


class BrightsideError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(BrightsideError, ValueError):
    """Invalid geometric configuration or input."""


class ObserverOutsideBall(GeometryError):
    """Observer longitude/latitude lies outside the admissible ball."""


class NonpositiveScale(GeometryError):
    """Scale parameter must be strictly positive."""


class BoundaryWithoutSymmetry(GeometryError):
    """Latitude 2 (classical stereographic case) requires zero longitude."""


class DarkSidePoint(GeometryError):
    """Sphere point at or above the observer latitude; projection undefined."""


class NonfiniteInput(GeometryError):
    """Input contains NaN or infinity."""


class DomainError(BrightsideError, ValueError):
    """Argument outside the mathematical domain of a special function."""


class DegenerateProposal(BrightsideError, RuntimeError):
    """Proposal coincides with or is antipodal to the current state."""


class NonfiniteGradient(BrightsideError, RuntimeError):
    """A gradient evaluation returned NaN or infinity."""


class EmptyInput(BrightsideError, ValueError):
    """Too few samples for the requested statistic."""


class ChainAborted(BrightsideError, RuntimeError):
    """Chain run failed; carries the partial output flagged invalid."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class TuningFailed(BrightsideError, RuntimeError):
    """Optimizer aborted, e.g. repeated non-finite objective values."""
