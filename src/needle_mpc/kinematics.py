"""Tip kinematics of a tendon-steered needle.

The tip state is a position p (mm) together with a unit direction d. The
model is bilinear in state and input:

    pdot = u_s * d
    ddot = d x (u_x, u_y, 0)

with insertion speed u_s (mm/s) and bending rates u_x, u_y (rad/s). Stacking
s = (p, d) this is sdot = u_s*B1*s + u_x*B2*s + u_y*B3*s, where B1 couples d
into pdot and B2, B3 are the skew-symmetric direction blocks of d x e_x and
d x e_y, so the direction keeps unit norm under the exact flow.

Two integrators are provided: a forward-Euler step that renormalizes the
direction after each update, and an exact step that rotates d about the fixed
bending axis and moves p along the corresponding circular arc. Units are mm,
s and rad throughout; curvature is 1/mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfigError, InvalidInputError

Array = np.ndarray

_CONSTRUCT_TOL = 1e-6    # constructor renormalizes within this, rejects beyond
_MIN_BEND_RATE = 1e-12   # rad/s below which the step is treated as straight


def _vec3(value, name: str) -> Array:
    v = np.array(value, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise InvalidInputError(f"{name} must be a 3-vector, got shape {np.shape(value)}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite values")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class NeedleState:
    """Tip position p (mm) and unit insertion direction d.

    The direction is renormalized on construction; a norm further than 1e-6
    from 1 is rejected rather than silently rescaled.
    """

    p: Array
    d: Array

    def __post_init__(self):
        object.__setattr__(self, "p", _vec3(self.p, "p"))
        d = np.array(_vec3(self.d, "d"))
        norm = float(np.linalg.norm(d))
        if abs(norm - 1.0) > _CONSTRUCT_TOL:
            raise InvalidInputError(
                f"direction norm {norm:.6g} differs from 1 by more than {_CONSTRUCT_TOL:g}"
            )
        d /= norm
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @classmethod
    def from_vector(cls, s: Sequence[float]) -> "NeedleState":
        s = np.asarray(s, dtype=float)
        if s.shape != (6,):
            raise InvalidInputError(f"state vector must have shape (6,), got {s.shape}")
        return cls(p=s[:3], d=s[3:])


@dataclass(frozen=True)
class VirtualInput:
    """Insertion speed u_s (mm/s) and bending rates u_x, u_y (rad/s)."""

    u_s: float
    u_x: float = 0.0
    u_y: float = 0.0

    def __post_init__(self):
        for name in ("u_s", "u_x", "u_y"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidInputError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)


def _check_ts(ts: float) -> float:
    ts = float(ts)
    if not (math.isfinite(ts) and ts > 0.0):
        raise InvalidInputError(f"time step must be positive and finite, got {ts!r}")
    return ts


def _bend(d: Array, u_x: float, u_y: float) -> Array:
    # ddot = d x (u_x, u_y, 0)
    return np.array([-u_y * d[2], u_x * d[2], u_y * d[0] - u_x * d[1]])


def step_euler(state: NeedleState, u: VirtualInput, ts: float) -> NeedleState:
    """One forward-Euler step of length ts (s), direction renormalized.

    The raw Euler update leaves the direction with norm sqrt(1 + (ts*w)^2)
    for bending rate w, so the renormalization never divides by a small
    number. The position update uses the pre-step direction.
    """
    ts = _check_ts(ts)
    p_next = state.p + (ts * u.u_s) * state.d
    d_raw = state.d + ts * _bend(state.d, u.u_x, u.u_y)
    return NeedleState(p=p_next, d=d_raw / np.linalg.norm(d_raw))


def step_exact(state: NeedleState, u: VirtualInput, ts: float) -> NeedleState:
    """Exact flow of the model over ts under constant input.

    ddot = d x w with w = (u_x, u_y, 0), so d rotates at rate |w| about the
    fixed axis -w/|w| and p traces a circular arc of curvature |w| / u_s
    (a straight segment when w = 0).
    """
    ts = _check_ts(ts)
    rate = math.hypot(u.u_x, u.u_y)
    if rate < _MIN_BEND_RATE:
        return NeedleState(p=state.p + (ts * u.u_s) * state.d, d=state.d)
    axis = np.array([-u.u_x / rate, -u.u_y / rate, 0.0])
    angle = rate * ts
    c, s = math.cos(angle), math.sin(angle)
    d0 = state.d
    along = float(axis @ d0)
    cross = np.cross(axis, d0)
    d_next = c * d0 + s * cross + (1.0 - c) * along * axis
    # integral of the rotating direction over the step
    disp = (s / rate) * d0 + ((1.0 - c) / rate) * cross + (ts - s / rate) * along * axis
    p_next = state.p + u.u_s * disp
    return NeedleState(p=p_next, d=d_next / np.linalg.norm(d_next))


_INTEGRATORS = {"euler": step_euler, "exact": step_exact}


def rollout(
    state: NeedleState,
    inputs: Sequence[VirtualInput],
    ts: float,
    integrator: str = "exact",
) -> list[NeedleState]:
    """Apply a sequence of piecewise-constant inputs; returns N+1 states."""
    try:
        step = _INTEGRATORS[integrator]
    except KeyError:
        raise InvalidConfigError(
            f"unknown integrator {integrator!r}, expected one of {sorted(_INTEGRATORS)}"
        ) from None
    if len(inputs) == 0:
        raise InvalidInputError("input sequence is empty")
    states = [state]
    for u in inputs:
        states.append(step(states[-1], u, ts))
    return states
