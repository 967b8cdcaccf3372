"""Reference trajectory generators for tracking scenarios.

Every generator maps a time t (s) to a target tip position (mm). Each kind
has one method, samples(times), that returns the targets at a list of times
as one (len(times), 3) array; sample(), horizon_samples() and
check_path_speed() all go through it, so every time is sampled by the same
arithmetic whether it is asked for alone or in a batch. Waypoint
paths hold their last point once t passes the final timestamp, so a
controller querying past the end sees a fixed target instead of an
extrapolation. A recorded tip trajectory (a scenario's "replay" reference)
loads into a waypoint path. Numbers must be real numbers; strings and bools
are rejected, not coerced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import POINTS, InvalidConfigError, InvalidInputError, check_fields, key, key_of

_AXIS_PERMUTATION = {
    # (radial_1, radial_2, axial) -> world (x, y, z)
    "x": (2, 0, 1),
    "y": (1, 2, 0),
    "z": (0, 1, 2),
}


@dataclass(frozen=True)
class FixedTarget:
    """A single stationary target point (mm)."""

    target: np.ndarray = key("target_mm", kind=np.ndarray, n=3)

    def __post_init__(self):
        check_fields(self)

    def samples(self, times) -> np.ndarray:
        return np.array([self.target.tolist()] * len(times))


@dataclass(frozen=True)
class Helix:
    """Helix around an axis-aligned line through `center`.

    p(t) = center + (radius*cos(rate*t + phase), radius*sin(rate*t + phase),
    pitch*rate*t / 2pi) expressed in the axis frame. radius in mm, pitch is
    the axial advance per turn (mm), rate in rad/s. radius = 0 degenerates to
    a straight line along the axis.
    """

    radius: float = key("radius_mm", ge=0.0)
    pitch: float = key("pitch_mm")
    rate: float = key("rate_rad_s")
    center: np.ndarray = key("center_mm", (0.0, 0.0, 0.0), kind=np.ndarray, n=3)
    phase: float = key("phase_rad", 0.0)
    axis: str = key("axis", "z", kind=str, choices=tuple(_AXIS_PERMUTATION))

    def __post_init__(self):
        check_fields(self)

    def samples(self, times) -> np.ndarray:
        radius, rate, phase = self.radius, self.rate, self.phase
        climb = self.pitch * rate
        i, j, k = _AXIS_PERMUTATION[self.axis]
        cx, cy, cz = self.center.tolist()
        rows = []
        for t in times:
            ang = rate * t + phase
            local = (radius * math.cos(ang), radius * math.sin(ang),
                     climb * t / (2.0 * math.pi))
            rows.append((cx + local[i], cy + local[j], cz + local[k]))
        return np.array(rows)


def _interp_path(points: np.ndarray, knots: np.ndarray, times) -> np.ndarray:
    # np.interp clamps at both ends, which implements the hold behavior
    return np.stack([np.interp(times, knots, points[:, k]) for k in range(3)], axis=1)


@dataclass(frozen=True)
class SharpTurn:
    """Piecewise-linear path through waypoints at constant speed (mm/s).

    Consecutive equal waypoints are rejected; the path is C0 only, so the
    direction jumps at every interior waypoint (that is the point).
    """

    waypoints: np.ndarray = key("waypoints_mm", kind=POINTS)
    speed: float = key("speed_mm_s", gt=0.0)
    times: np.ndarray = field(init=False)

    def __post_init__(self):
        check_fields(self)
        seg = np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)
        if np.any(seg == 0.0):
            raise InvalidConfigError(
                f"{key_of(self, 'waypoints')}: consecutive waypoints must be distinct"
            )
        times = np.concatenate([[0.0], np.cumsum(seg)]) / self.speed
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    def samples(self, times) -> np.ndarray:
        return _interp_path(self.waypoints, self.times, times)


@dataclass(frozen=True)
class Sinusoidal:
    """Straight insertion along +z with sinusoidal x/y offsets.

    p(t) = (amplitude_x*sin(2pi f_x t + phase_x),
            amplitude_y*sin(2pi f_y t + phase_y), axial_speed*t).
    """

    axial_speed: float = key("axial_speed_mm_s")
    amplitude: np.ndarray = key("amplitude_mm", (0.0, 0.0), kind=np.ndarray, n=2)
    frequency: np.ndarray = key("frequency_hz", (0.0, 0.0), kind=np.ndarray, n=2)
    phase: np.ndarray = key("phase_rad", (0.0, 0.0), kind=np.ndarray, n=2)

    def __post_init__(self):
        check_fields(self)

    def samples(self, times) -> np.ndarray:
        t = np.array(times, dtype=float)[:, None]
        arg = 2.0 * np.pi * self.frequency * t + self.phase
        return np.hstack([self.amplitude * np.sin(arg), self.axial_speed * t])


@dataclass(frozen=True)
class WaypointPath:
    """Linear interpolation through (time, point) samples, held at the ends."""

    points: np.ndarray = key("points_mm", kind=POINTS)
    times: np.ndarray = key("times_s", kind=np.ndarray)

    def __post_init__(self):
        check_fields(self)
        times_key = key_of(self, "times")
        if len(self.times) != len(self.points):
            raise InvalidConfigError(
                f"{times_key} must have {len(self.points)} entries, one per point of "
                f"{key_of(self, 'points')}, got {len(self.times)}"
            )
        if np.any(np.diff(self.times) <= 0.0):
            raise InvalidConfigError(f"{times_key} must be strictly increasing")

    def samples(self, times) -> np.ndarray:
        return _interp_path(self.points, self.times, times)


ReferenceSpec = Union[FixedTarget, Helix, SharpTurn, Sinusoidal, WaypointPath]


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise InvalidInputError(f"t must be nonnegative and finite, got {t!r}")


def sample(spec: ReferenceSpec, t: float) -> np.ndarray:
    """Target position (mm) at time t (s)."""
    t = float(t)
    _check_time(t)
    return spec.samples([t])[0]


def horizon_samples(spec: ReferenceSpec, t: float, n: int, ts: float) -> np.ndarray:
    """Targets at t, t+ts, ..., t+n*ts as an (n+1, 3) array."""
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


def check_path_speed(
    spec: ReferenceSpec, duration: float, u_s_max: float, margin: float = 1.05,
    samples: int = 512,
) -> float:
    """Largest finite-difference path speed over [0, duration] (mm/s).

    Warns when it exceeds u_s_max * margin, meaning not even straight-line
    insertion at full speed could keep up with the reference.
    """
    if duration <= 0.0:
        raise InvalidInputError(f"duration must be positive, got {duration!r}")
    grid = np.linspace(0.0, duration, samples)
    _check_time(float(grid[-1]))
    pts = spec.samples(grid.tolist())
    dt = grid[1] - grid[0]
    speeds = np.linalg.norm(np.diff(pts, axis=0), axis=1) / dt
    top = float(speeds.max()) if speeds.size else 0.0
    if top > u_s_max * margin:
        warnings.warn(
            f"reference path speed {top:.3g} mm/s exceeds the insertion speed bound "
            f"{u_s_max:.3g} mm/s by more than {100 * (margin - 1):.0f}%; "
            "the trajectory cannot be tracked",
            stacklevel=2,
        )
    return top
