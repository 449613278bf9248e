"""Exception types shared across the package, the readers of config sections,
and the finiteness check of arrays."""

import dataclasses
import math
import numbers

import numpy as np


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


def require_fields(d, known, section: str) -> None:
    """Check that ``d`` is a JSON object whose keys all lie in ``known``.

    Anything else raises :class:`ConfigError` naming the config ``section``.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be an object, got {type(d).__name__}")
    unknown = d.keys() - known
    if unknown:
        raise ConfigError(f"unknown {section} fields: {sorted(unknown)}")


def from_fields(cls, d, section: str):
    """Build the dataclass ``cls`` from a config section whose keys are its fields.

    A missing required field raises :class:`ConfigError` naming ``section``;
    ``cls`` checks the values themselves.
    """
    require_fields(d, {f.name for f in dataclasses.fields(cls)}, section)
    try:
        return cls(**d)
    except TypeError as exc:
        raise ConfigError(f"invalid {section} config: {exc}") from None


def require_int(value, name: str, minimum=None):
    """Return ``value`` if it is an integer no less than ``minimum``, numpy integers included.

    Bools, floats, strings and everything else, or an integer below
    ``minimum`` when one is given, raise :class:`ConfigError` naming the
    config field ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
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


def all_finite(values: np.ndarray) -> bool:
    """Whether every entry of ``values`` is finite, with no temporary as large as it.

    A NaN entry makes the minimum NaN and an infinite one makes the minimum
    or maximum infinite, so two reductions decide what ``np.isfinite``
    would without its array of flags. ``math.isfinite`` reads each numpy
    scalar without the per-call cost of a ufunc.
    """
    return values.size == 0 or (math.isfinite(values.min()) and math.isfinite(values.max()))
