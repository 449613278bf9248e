"""Exception types shared across the package, and the type checks of config fields."""

import math
import numbers


class ScrollError(Exception):
    """Base class for all library errors."""


class ConfigError(ScrollError):
    """Invalid configuration, specification, or CLI parameters."""


class FormatError(ScrollError):
    """Malformed file content: bad magic, truncation, unparsable rows."""


class DataError(ScrollError):
    """Structurally valid input containing unusable values."""


class DegenerateInputError(DataError):
    """Input on which an operation is mathematically undefined."""


class ClassIdError(ScrollError):
    """Class id outside the range known to a model state."""


class NoClassError(ScrollError):
    """Prediction requested before any class has been observed."""


class ShapeError(ScrollError):
    """Operand dimensions do not agree."""


class AdaptError(ScrollError):
    """Predictor adaptation cannot proceed."""


class StreamReuseError(ScrollError):
    """A consume-once data stream was accessed more than once."""


class LinAlgFailure(ScrollError):
    """A linear system could not be solved."""


def require_int(value, name: str):
    """Return ``value`` if it is an integer, numpy integers included.

    Bools, floats, strings and everything else raise :class:`ConfigError`
    naming the config field ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def require_float(value, name: str):
    """Return ``value`` if it is a finite real number, numpy scalars included.

    Ints and floats pass; bools, strings, NaN, infinities and everything
    else raise :class:`ConfigError` naming the config field ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value
