"""Exception types shared across the package, and the field schema of the
config dataclasses: each field declares its JSON key, kind and bounds with
key(), and check_fields checks it with messages that name the key."""

import dataclasses
import math
import numbers

import numpy as np


class NeedleMpcError(Exception):
    """Base class for all package errors."""


class InvalidInputError(NeedleMpcError, ValueError):
    """A runtime argument is malformed (wrong shape, non-finite, out of range)."""


class InvalidConfigError(NeedleMpcError, ValueError):
    """A configuration value is inconsistent or out of its allowed range."""


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfigError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise InvalidConfigError(f"{name} must be finite, got {value!r}")
    return real


def _reals(value, name: str, count) -> tuple[float, ...]:
    """count numbers (any count when count is None) as a tuple of floats."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise InvalidConfigError(f"{name} must be a list of numbers, got {value!r}")
    vals = tuple(_real(v, name) for v in value)
    if count is not None and len(vals) != count:
        raise InvalidConfigError(f"{name} must have {count} entries, got {len(vals)}")
    return vals


POINTS = "points"


def key(name: str, default=dataclasses.MISSING, *, kind=float, n=None, ge=None, gt=None,
        le=None, choices=None):
    """A dataclass field read from and echoed to the JSON key `name`.

    kind is float, int, bool or str (strictly: no bool is a number, no
    fraction an integer); tuple or np.ndarray for n numbers (any count when
    n is None), kept as a tuple of floats or a read-only array; or POINTS
    for at least 2 [x, y, z] points, kept as a read-only (m, 3) array. ge,
    gt and le bound every number, choices lists the allowed values, and a
    field without a default is a required key.
    """
    return dataclasses.field(
        default=default,
        metadata={"key": name, "kind": kind, "n": n, "ge": ge, "gt": gt, "le": le,
                  "choices": choices},
    )


def json_fields(cls) -> dict[str, dataclasses.Field]:
    """Fields of a dataclass (or instance) declared with key(), by JSON key."""
    return {f.metadata["key"]: f for f in dataclasses.fields(cls) if "key" in f.metadata}


def key_of(obj, attr: str) -> str:
    """JSON key of obj's field attr."""
    return next(k for k, f in json_fields(obj).items() if f.name == attr)


def check_fields(obj) -> None:
    """Check and normalize, in place, every field of obj declared with key().

    Each fault raises InvalidConfigError naming the JSON key.
    """
    for f in json_fields(obj).values():
        object.__setattr__(obj, f.name, _checked(getattr(obj, f.name), **f.metadata))


def _checked(value, key, kind, n, ge, gt, le, choices):
    if kind is bool and not isinstance(value, (bool, np.bool_)):
        raise InvalidConfigError(f"{key} must be true or false, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise InvalidConfigError(f"{key} must be a string, got {value!r}")
    if kind is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise InvalidConfigError(f"{key} must be an integer, got {value!r}")
    if kind == POINTS:
        if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
            raise InvalidConfigError(f"{key} must be a list of [x, y, z] points, got {value!r}")
        rows = [_reals(row, key, 3) for row in value]
        if len(rows) < 2:
            raise InvalidConfigError(f"{key} must hold at least 2 points, got {len(rows)}")
        return _read_only(rows)
    if kind is tuple or kind is np.ndarray:
        vals = _reals(value, key, n)
    else:
        value = kind(_real(value, key) if kind is float else value)
        vals = (value,) if kind in (float, int) else ()
    for v in vals:
        if gt is not None and not v > gt:
            raise InvalidConfigError(f"{key} must be > {gt:g}, got {v!r}")
        if ge is not None and not v >= ge:
            raise InvalidConfigError(f"{key} must be >= {ge:g}, got {v!r}")
        if le is not None and not v <= le:
            raise InvalidConfigError(f"{key} must be <= {le:g}, got {v!r}")
    if choices is not None and value not in choices:
        allowed = ", ".join(map(repr, choices))
        raise InvalidConfigError(f"{key} must be one of {allowed}, got {value!r}")
    if kind is tuple:
        return vals
    return _read_only(vals) if kind is np.ndarray else value


def _read_only(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


class DegenerateFitError(NeedleMpcError, ValueError):
    """A fit has no unique solution (e.g. all-zero tensions in a gain fit)."""


class NumericalFailureError(NeedleMpcError, RuntimeError):
    """A numerical routine produced non-finite values and cannot continue."""


class SchemaError(NeedleMpcError, ValueError):
    """A scenario or manifest document does not match the expected schema."""
