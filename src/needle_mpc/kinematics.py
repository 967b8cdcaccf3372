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

A NeedleState holds p and d as tuples of three Python floats, and a
VirtualInput holds three floats. Their constructors are the only way to
build them: each accepts any three numbers (a tuple, a list, a 1-D array),
converts them to floats and rejects bools, strings, bytes, other counts,
nested rows and non-finite values with InvalidInputError naming the field,
through the number check that config fields use as well. Both steps
compute on those floats with the scalar `math` module and return a state
built by the public constructor (all values finite, direction norm within
1e-6 of 1, then renormalized). Sums such as a norm or a dot product are
evaluated left to right, so a step's bits do not depend on which BLAS
kernel the CPU dispatches to. The module does not use numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidConfigError, InvalidInputError, finite_float, finite_floats

_CONSTRUCT_TOL = 1e-6    # constructor renormalizes within this, rejects beyond
_MIN_BEND_RATE = 1e-12   # rad/s below which the step is treated as straight


@dataclass(frozen=True)
class NeedleState:
    """Tip position p (mm) and unit insertion direction d, three floats each.

    The direction is renormalized on construction; a norm further than 1e-6
    from 1 is rejected rather than silently rescaled.
    """

    p: tuple[float, float, float]
    d: tuple[float, float, float]

    def __post_init__(self):
        p = finite_floats(self.p, "p", 3, InvalidInputError)
        dx, dy, dz = finite_floats(self.d, "d", 3, InvalidInputError)
        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if abs(norm - 1.0) > _CONSTRUCT_TOL:
            raise InvalidInputError(
                f"direction norm {norm:.6g} differs from 1 by more than {_CONSTRUCT_TOL:g}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", (dx / norm, dy / norm, dz / norm))


@dataclass(frozen=True)
class VirtualInput:
    """Insertion speed u_s (mm/s) and bending rates u_x, u_y (rad/s)."""

    u_s: float
    u_x: float = 0.0
    u_y: float = 0.0

    def __post_init__(self):
        for name in ("u_s", "u_x", "u_y"):
            value = finite_float(getattr(self, name), name, InvalidInputError)
            object.__setattr__(self, name, value)


def _check_ts(ts: float) -> float:
    ts = float(ts)
    if not (math.isfinite(ts) and ts > 0.0):
        raise InvalidInputError(f"time step must be positive and finite, got {ts!r}")
    return ts


def _bend(dx: float, dy: float, dz: float, u_x: float, u_y: float) -> tuple:
    # ddot = d x (u_x, u_y, 0)
    return -u_y * dz, u_x * dz, u_y * dx - u_x * dy


def step_euler(state: NeedleState, u: VirtualInput, ts: float) -> NeedleState:
    """One forward-Euler step of length ts (s), direction renormalized.

    The raw Euler update leaves the direction with norm sqrt(1 + (ts*w)^2)
    for bending rate w, so the renormalization never divides by a small
    number. The position update uses the pre-step direction.
    """
    ts = _check_ts(ts)
    px, py, pz = state.p
    dx, dy, dz = state.d
    step = ts * u.u_s
    bx, by, bz = _bend(dx, dy, dz, u.u_x, u.u_y)
    rx, ry, rz = dx + ts * bx, dy + ts * by, dz + ts * bz
    norm = math.sqrt(rx * rx + ry * ry + rz * rz)
    return NeedleState(
        (px + step * dx, py + step * dy, pz + step * dz), (rx / norm, ry / norm, rz / norm)
    )


def step_exact(state: NeedleState, u: VirtualInput, ts: float) -> NeedleState:
    """Exact flow of the model over ts under constant input.

    ddot = d x w with w = (u_x, u_y, 0), so d rotates at rate |w| about the
    fixed axis -w/|w| and p traces a circular arc of curvature |w| / u_s
    (a straight segment when w = 0).
    """
    ts = _check_ts(ts)
    px, py, pz = state.p
    d = dx, dy, dz = state.d
    rate = math.hypot(u.u_x, u.u_y)
    if rate < _MIN_BEND_RATE:
        step = ts * u.u_s
        return NeedleState((px + step * dx, py + step * dy, pz + step * dz), d)
    angle = rate * ts
    if not math.isfinite(angle):
        raise InvalidInputError(f"bend angle rate*ts overflows: rate {rate!r}, ts {ts!r}")
    # the axis is (ax, ay, 0); its zero terms stay in, so zero results keep
    # the signs numpy's elementwise cross product gave them
    ax, ay = -u.u_x / rate, -u.u_y / rate
    c, s = math.cos(angle), math.sin(angle)
    along = ax * dx + ay * dy + 0.0 * dz
    cx, cy, cz = ay * dz - 0.0 * dy, 0.0 * dx - ax * dz, ax * dy - ay * dx
    # d_next = c*d + s*(axis x d) + (1 - c)*(axis . d)*axis
    k = (1.0 - c) * along
    nx, ny, nz = c * dx + s * cx + k * ax, c * dy + s * cy + k * ay, c * dz + s * cz + k * 0.0
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    # integral of the rotating direction over the step, the same three terms
    i_d, i_c, i_a = s / rate, (1.0 - c) / rate, (ts - s / rate) * along
    u_s = u.u_s
    return NeedleState(
        (px + u_s * (i_d * dx + i_c * cx + i_a * ax),
         py + u_s * (i_d * dy + i_c * cy + i_a * ay),
         pz + u_s * (i_d * dz + i_c * cz + i_a * 0.0)),
        (nx / norm, ny / norm, nz / norm),
    )


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
