"""Exception types shared across the package, and the field schema of the
config dataclasses: each field declares its JSON key, kind and bounds with
key(), and check_fields checks it with messages that name the key.
InvalidInputError is the one exception for a malformed value, whether a
config field, a scenario or manifest document, a CSV row or a runtime
argument; DegenerateFitError, a fit with no unique solution, is one kind of
it. The CLI exits 2 on either and 3 on NumericalFailureError.
finite_float and finite_floats are the package's one number check, used by
the config fields and by the per-step values (tip state, virtual input,
tendon command) alike; finite_points applies it to lists of [x, y, z]
points (path waypoints, horizon references, calibration arcs). The form
the package builds itself, a tuple of finite floats or a tuple (or list)
of such 3-tuples, is checked in one pass and comes back as it is; any
other input is checked entry by entry, with the same accepted values and
the same messages. _prechecked builds an object from values the package
made and checked itself, without running its checks again (see each use
for why the values are safe). The module
does not import numpy: a numpy bool is recognised through sys.modules,
since none can exist before numpy is loaded."""

import dataclasses
import math
import numbers
import sys


class NeedleMpcError(Exception):
    """Base class for all package errors."""


class InvalidInputError(NeedleMpcError, ValueError):
    """A malformed value: a config field, a document or CSV read from
    outside, or a runtime argument that is of the wrong kind or shape,
    non-finite, out of range or inconsistent."""


class DegenerateFitError(InvalidInputError):
    """A fit has no unique solution (e.g. all-zero tensions in a gain fit)."""


class NumericalFailureError(NeedleMpcError, RuntimeError):
    """A numerical routine produced non-finite values and cannot continue."""


def finite_float(value, name: str) -> float:
    """value as a finite float. A bool, a str or bytes (text that float()
    would parse), any other non-number or a non-finite value raises
    InvalidInputError naming `name`."""
    if type(value) is float:
        real = value
    else:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidInputError(f"{name} must be a number, got {value!r}")
        try:
            real = float(value)
        except OverflowError:  # an integer beyond the float range
            real = math.inf
    if not math.isfinite(real):
        raise InvalidInputError(f"{name} has a non-finite value {value!r}")
    return real


def finite_floats(value, name: str, count) -> tuple[float, ...]:
    """count numbers (any count when count is None) as a tuple of floats,
    each checked by finite_float. A str or bytes, a non-iterable, another
    count or nested entries (the rows of a 2-D array) raise
    InvalidInputError naming `name`. A tuple of count finite floats is
    returned as it is."""
    if type(value) is tuple and (count is None or len(value) == count):
        for v in value:
            if type(v) is not float or not math.isfinite(v):
                break
        else:
            return value
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise InvalidInputError(f"{name} must be a list of numbers, got {value!r}")
    vals = tuple(value)
    for v in vals:
        # finite floats, the common case, pass as they are
        if type(v) is not float or not math.isfinite(v):
            vals = tuple([finite_float(v, name) for v in vals])
            break
    if count is not None and len(vals) != count:
        raise InvalidInputError(f"{name} must have shape ({count},), got {len(vals)} entries")
    return vals


def finite_points(value, name: str) -> tuple[tuple[float, ...], ...]:
    """value as a tuple of [x, y, z] points, each a tuple of three floats
    checked by finite_floats. A str or bytes or a non-iterable raises
    InvalidInputError naming `name`. A tuple (or list) of 3-tuples of
    floats with finite sums is checked in one pass: the tuple is returned
    as it is, a list as a tuple of its rows."""
    if type(value) is tuple or type(value) is list:
        for row in value:
            if type(row) is not tuple or len(row) != 3:
                break
            x, y, z = row
            # a finite sum means three finite entries
            if not (type(x) is type(y) is type(z) is float and math.isfinite(x + y + z)):
                break
        else:
            return value if type(value) is tuple else tuple(value)
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise InvalidInputError(f"{name} must be a list of [x, y, z] points, got {value!r}")
    return tuple([finite_floats(row, name, 3) for row in value])


def _prechecked(cls, **fields):
    """An instance of cls holding fields as given, built without __init__
    and so without __post_init__'s checks: for values that the package
    built and checked itself and that already have the form the checks
    would leave. Every field is passed, defaults included."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _is_bool(value) -> bool:
    np = sys.modules.get("numpy")
    return isinstance(value, bool) or (np is not None and isinstance(value, np.bool_))


POINTS = "points"


def key(name: str, default=dataclasses.MISSING, *, kind=float, n=None, ge=None, gt=None,
        le=None, mag=None, choices=None):
    """A dataclass field read from and echoed to the JSON key `name`.

    kind is float, int, bool or str (strictly: no bool is a number, no
    fraction an integer); tuple for n numbers (any count when n is None),
    kept as a tuple of floats; or POINTS for at least 2 [x, y, z] points,
    kept as a tuple of 3-float tuples. ge, gt and le bound every number and
    mag its magnitude (each coordinate of a point too), choices lists the
    allowed values, and a field without a default is a required key.
    """
    return dataclasses.field(
        default=default,
        metadata={"key": name, "kind": kind, "n": n, "ge": ge, "gt": gt, "le": le,
                  "mag": mag, "choices": choices},
    )


def json_fields(cls) -> dict[str, dataclasses.Field]:
    """Fields of a dataclass (or instance) declared with key(), by JSON key."""
    return {f.metadata["key"]: f for f in dataclasses.fields(cls) if "key" in f.metadata}


def key_of(obj, attr: str) -> str:
    """JSON key of obj's field attr."""
    return next(k for k, f in json_fields(obj).items() if f.name == attr)


def check_fields(obj) -> None:
    """Check and normalize, in place, every field of obj declared with key().

    Each fault raises InvalidInputError naming the JSON key.
    """
    for f in json_fields(obj).values():
        object.__setattr__(obj, f.name, _checked(getattr(obj, f.name), **f.metadata))


def _checked(value, key, kind, n, ge, gt, le, mag, choices):
    if kind is bool and not _is_bool(value):
        raise InvalidInputError(f"{key} must be true or false, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise InvalidInputError(f"{key} must be a string, got {value!r}")
    if kind is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise InvalidInputError(f"{key} must be an integer, got {value!r}")
    if kind == POINTS:
        value = finite_points(value, key)
        if len(value) < 2:
            raise InvalidInputError(f"{key} must hold at least 2 points, got {len(value)}")
        vals = [v for point in value for v in point]
    elif kind is tuple:
        value = vals = finite_floats(value, key, n)
    else:
        value = kind(finite_float(value, key) if kind is float else value)
        vals = (value,) if kind in (float, int) else ()
    for v in vals:
        if gt is not None and not v > gt:
            raise InvalidInputError(f"{key} must be > {gt:g}, got {v!r}")
        if ge is not None and not v >= ge:
            raise InvalidInputError(f"{key} must be >= {ge:g}, got {v!r}")
        if le is not None and not v <= le:
            raise InvalidInputError(f"{key} must be <= {le:g}, got {v!r}")
        if mag is not None and not abs(v) <= mag:
            raise InvalidInputError(f"{key} must be within +-{mag:g}, got {v!r}")
    if choices is not None and value not in choices:
        allowed = ", ".join(map(repr, choices))
        raise InvalidInputError(f"{key} must be one of {allowed}, got {value!r}")
    return value

