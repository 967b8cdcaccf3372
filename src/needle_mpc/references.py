"""Reference trajectory generators for tracking scenarios.

Every generator maps a time t (s) to a target tip position (mm). Each kind
has one method, samples(times), that returns the targets at a list of times
as a tuple of (x, y, z) float tuples; horizon_samples() and
check_path_speed() both go through it, so every time is sampled by the
same arithmetic whether it is asked for alone or in a batch. The arithmetic is
scalar `math` that gives numpy's bits: paths interpolate as np.interp does,
slope*(t - t0) + p0 with slope = (p1 - p0)/(t1 - t0), and norms sum their
squares left to right, as np.linalg.norm over an axis does. Waypoint
paths hold their last point once t passes the final timestamp, so a
controller querying past the end sees a fixed target instead of an
extrapolation. A recorded tip trajectory (a scenario's "replay" reference)
loads into a waypoint path. Numbers must be real numbers; strings and bools
are rejected, not coerced. A helix or sinusoid whose angle overflows, or
whose point at a sampled time has a squared norm that is not finite, raises
InvalidInputError naming the keys at fault. Every position field (targets,
centers, radii, pitches, amplitudes and path points) is bounded to
MAX_POSITION_MM in magnitude, far outside any needle's workspace, so only
a helix's climb (pitch_mm * rate_rad_s) or a sinusoid's axial advance,
which grow with time, can leave the float range.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Union

from .errors import POINTS, InvalidInputError, check_fields, key, key_of
from .kinematics import distance

MAX_POSITION_MM = 1e6
_SPEED_MARGIN = 1.05   # check_path_speed warns beyond this times the speed bound
_SPEED_SAMPLES = 512   # grid points of check_path_speed

_AXIS_PERMUTATION = {
    # (radial_1, radial_2, axial) -> world (x, y, z)
    "x": (2, 0, 1),
    "y": (1, 2, 0),
    "z": (0, 1, 2),
}


@dataclass(frozen=True)
class FixedTarget:
    """A single stationary target point (mm)."""

    target: tuple[float, float, float] = key("target_mm", kind=tuple, n=3,
                                             mag=MAX_POSITION_MM)

    def __post_init__(self):
        check_fields(self)

    def samples(self, times) -> tuple:
        return (self.target,) * len(times)


@dataclass(frozen=True)
class Helix:
    """Helix around an axis-aligned line through `center`.

    p(t) = center + (radius*cos(rate*t + phase), radius*sin(rate*t + phase),
    pitch*rate*t / 2pi) expressed in the axis frame. radius in mm, pitch is
    the axial advance per turn (mm), rate in rad/s. radius = 0 degenerates to
    a straight line along the axis.
    """

    radius: float = key("radius_mm", ge=0.0, mag=MAX_POSITION_MM)
    pitch: float = key("pitch_mm", mag=MAX_POSITION_MM)
    rate: float = key("rate_rad_s")
    center: tuple[float, float, float] = key("center_mm", (0.0, 0.0, 0.0), kind=tuple, n=3,
                                             mag=MAX_POSITION_MM)
    phase: float = key("phase_rad", 0.0)
    axis: str = key("axis", "z", kind=str, choices=tuple(_AXIS_PERMUTATION))

    def __post_init__(self):
        check_fields(self)

    def samples(self, times) -> tuple:
        radius, rate, phase = self.radius, self.rate, self.phase
        climb = self.pitch * rate
        i, j, k = _AXIS_PERMUTATION[self.axis]
        cx, cy, cz = self.center
        rows = []
        try:
            for t in times:
                ang = rate * t + phase
                local = (radius * math.cos(ang), radius * math.sin(ang),
                         climb * t / (2.0 * math.pi))
                rows.append((cx + local[i], cy + local[j], cz + local[k]))
        except ValueError:  # math.cos of an angle that overflowed to inf
            raise _angle_overflow(self, "rate", t) from None
        # radius and center are bounded, so only the climb (pitch*rate*t, or
        # inf*0 = nan at t = 0 once pitch*rate overflows) leaves the range
        _check_range(self, times, rows, "pitch", "rate")
        return tuple(rows)


def _angle_overflow(spec, attr: str, t: float) -> InvalidInputError:
    return InvalidInputError(f"{key_of(spec, attr)} overflows the reference angle at t = {t!r} s")


def _check_range(spec, times, rows: list, *attrs: str) -> None:
    """Refuse the first point whose squared norm is not finite (nan and inf
    coordinates included), naming the keys of spec's fields attrs, whose
    product grows with time: the horizon cost squares the distance to every
    reference point, so such a point can never be costed."""
    for t, (x, y, z) in zip(times, rows):
        if not math.isfinite(x * x + y * y + z * z):
            keys = " * ".join(key_of(spec, attr) for attr in attrs)
            raise InvalidInputError(f"{keys} puts the reference out of range at t = {t!r} s")


def _interp_path(points: tuple, knots: tuple, times) -> tuple:
    """The path at each time, held at both ends, with np.interp's arithmetic."""
    last = len(knots) - 1
    rows = []
    for t in times:
        j = bisect_right(knots, t) - 1
        if j < 0:
            rows.append(points[0])
        elif j == last or knots[j] == t:
            rows.append(points[j])
        else:
            t0, t1 = knots[j], knots[j + 1]
            row = []
            for p0, p1 in zip(points[j], points[j + 1]):
                slope = (p1 - p0) / (t1 - t0)
                v = slope * (t - t0) + p0
                if v != v:    # nan: np.interp retries from the right knot
                    v = slope * (t - t1) + p1
                row.append(v)
            rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class SharpTurn:
    """Piecewise-linear path through waypoints at constant speed (mm/s).

    Consecutive equal waypoints are rejected; the path is C0 only, so the
    direction jumps at every interior waypoint (that is the point).
    """

    waypoints: tuple[tuple[float, float, float], ...] = key("waypoints_mm", kind=POINTS,
                                                            mag=MAX_POSITION_MM)
    speed: float = key("speed_mm_s", gt=0.0)
    times: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        check_fields(self)
        seg = list(map(distance, self.waypoints[1:], self.waypoints))
        if 0.0 in seg:
            raise InvalidInputError(
                f"{key_of(self, 'waypoints')}: consecutive waypoints must be distinct"
            )
        times = tuple(s / self.speed for s in accumulate(seg, initial=0.0))
        object.__setattr__(self, "times", times)

    def samples(self, times) -> tuple:
        return _interp_path(self.waypoints, self.times, times)


@dataclass(frozen=True)
class Sinusoidal:
    """Straight insertion along +z with sinusoidal x/y offsets.

    p(t) = (amplitude_x*sin(2pi f_x t + phase_x),
            amplitude_y*sin(2pi f_y t + phase_y), axial_speed*t).
    """

    axial_speed: float = key("axial_speed_mm_s")
    amplitude: tuple[float, float] = key("amplitude_mm", (0.0, 0.0), kind=tuple, n=2,
                                         mag=MAX_POSITION_MM)
    frequency: tuple[float, float] = key("frequency_hz", (0.0, 0.0), kind=tuple, n=2)
    phase: tuple[float, float] = key("phase_rad", (0.0, 0.0), kind=tuple, n=2)

    def __post_init__(self):
        check_fields(self)

    def samples(self, times) -> tuple:
        (ax, ay), (fx, fy), (phx, phy) = self.amplitude, self.frequency, self.phase
        speed = self.axial_speed
        rows = []
        try:
            for t in times:
                rows.append((ax * math.sin(2.0 * math.pi * fx * t + phx),
                             ay * math.sin(2.0 * math.pi * fy * t + phy), speed * t))
        except ValueError:  # math.sin of an angle that overflowed to inf
            raise _angle_overflow(self, "frequency", t) from None
        _check_range(self, times, rows, "axial_speed")  # the amplitude is bounded
        return tuple(rows)


@dataclass(frozen=True)
class WaypointPath:
    """Linear interpolation through (time, point) samples, held at the ends."""

    points: tuple[tuple[float, float, float], ...] = key("points_mm", kind=POINTS,
                                                         mag=MAX_POSITION_MM)
    times: tuple[float, ...] = key("times_s", kind=tuple)

    def __post_init__(self):
        check_fields(self)
        times_key = key_of(self, "times")
        if len(self.times) != len(self.points):
            raise InvalidInputError(
                f"{times_key} must have {len(self.points)} entries, one per point of "
                f"{key_of(self, 'points')}, got {len(self.times)}"
            )
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise InvalidInputError(f"{times_key} must be strictly increasing")

    def samples(self, times) -> tuple:
        return _interp_path(self.points, self.times, times)


ReferenceSpec = Union[FixedTarget, Helix, SharpTurn, Sinusoidal, WaypointPath]


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise InvalidInputError(f"t must be nonnegative and finite, got {t!r}")


def horizon_samples(spec: ReferenceSpec, t: float, n: int, ts: float) -> tuple:
    """Targets at t, t+ts, ..., t+n*ts: n+1 (x, y, z) tuples."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if not ts > 0.0:
        raise InvalidInputError(f"ts must be positive, got {ts!r}")
    t = float(t)
    times = [t + i * ts for i in range(n + 1)]
    # the times increase, so the first and last bound them all
    _check_time(t)
    _check_time(times[-1])
    return spec.samples(times)


def check_path_speed(spec: ReferenceSpec, duration: float, u_s_max: float) -> float:
    """Largest finite-difference path speed over [0, duration] (mm/s).

    Warns when it exceeds u_s_max by more than 5% (_SPEED_MARGIN), meaning
    not even straight-line insertion at full speed could keep up with the
    reference. The grid is np.linspace's over _SPEED_SAMPLES = 512 points:
    i * dt, then duration itself.
    """
    if duration <= 0.0:
        raise InvalidInputError(f"duration must be positive, got {duration!r}")
    duration = float(duration)
    _check_time(duration)
    dt = duration / (_SPEED_SAMPLES - 1)
    pts = spec.samples([i * dt for i in range(_SPEED_SAMPLES - 1)] + [duration])
    top = max(map(distance, pts[1:], pts))
    # a grid step that underflows to 0 divides as numpy does: inf, or nan for 0/0
    top = top / dt if dt else top * math.inf
    if top > u_s_max * _SPEED_MARGIN:
        warnings.warn(
            f"reference path speed {top:.3g} mm/s exceeds the insertion speed bound "
            f"{u_s_max:.3g} mm/s by more than {100 * (_SPEED_MARGIN - 1):.0f}%; "
            "the trajectory cannot be tracked",
            stacklevel=2,
        )
    return top
