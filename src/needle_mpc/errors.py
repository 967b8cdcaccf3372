"""Exception types shared across the package, and the strict number checks
that configuration objects use to raise InvalidConfigError."""

import math
import numbers


class NeedleMpcError(Exception):
    """Base class for all package errors."""


class InvalidInputError(NeedleMpcError, ValueError):
    """A runtime argument is malformed (wrong shape, non-finite, out of range)."""


class InvalidConfigError(NeedleMpcError, ValueError):
    """A configuration value is inconsistent or out of its allowed range."""


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfigError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InvalidConfigError(f"{name} must be finite, got {value!r}")
    return value


def _integer(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _reals(value, name: str, count: int) -> tuple[float, ...]:
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise InvalidConfigError(f"{name} must be a list of {count} numbers, got {value!r}")
    vals = tuple(_real(v, name) for v in value)
    if len(vals) != count:
        raise InvalidConfigError(f"{name} must have {count} entries, got {len(vals)}")
    return vals


class DegenerateFitError(NeedleMpcError, ValueError):
    """A fit has no unique solution (e.g. all-zero tensions in a gain fit)."""


class NumericalFailureError(NeedleMpcError, RuntimeError):
    """A numerical routine produced non-finite values and cannot continue."""


class SchemaError(NeedleMpcError, ValueError):
    """A scenario or manifest document does not match the expected schema."""
