"""Exception and warning types shared across the package, and the checks
of the integer and real fields of its frozen configuration classes and of
its real arguments."""

import math
import operator


def store_ints(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass obj as the int that
    operator.index gives, so that a numpy integer becomes a Python int;
    raise ValueError naming the field for a value that is not an integer,
    a float such as 2.0 included."""
    for name in names:
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, operator.index(value))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}"
                             ) from None


def check_finite(obj, *names: str, positive: bool = False) -> None:
    """Raise ValueError naming the first named field of obj whose value is
    inf, -inf or nan, or, if positive is set, not above 0."""
    for name in names:
        check_value(name, getattr(obj, name), positive)


def check_value(name: str, value, positive: bool = False) -> None:
    """check_finite for the value of an argument called name."""
    if not (math.isfinite(value) and (value > 0 or not positive)):
        need = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {need}, got {value!r}")


class DynvolError(Exception):
    """Base class for all package errors."""


class InsufficientHistoryError(DynvolError):
    """Not enough past observations for the requested window."""


class DegenerateSeriesError(DynvolError):
    """Series has no variation where variation is required."""


class SingularDesignError(DynvolError):
    """Local regression design matrix is numerically singular."""


class NoCoverageError(DynvolError):
    """Query state lies outside the support of the historical data."""


class TooFewPointsError(DynvolError):
    """Dataset too small for the requested operation."""


class IngestionError(DynvolError):
    """External data failed validation. Offending row numbers, when known,
    are reported in the message."""


class DegenerateCaseWarning(UserWarning):
    """A degenerate configuration was handled by a flagged fallback."""
