"""Tip kinematics of a tendon-steered needle.

The tip state is a position p (mm) together with a unit direction d. The
model is bilinear in state and input:

    pdot = u_s * d
    ddot = d x (u_x, u_y, 0)

with insertion speed u_s (mm/s) and bending rates u_x, u_y (rad/s). Stacking
s = (p, d) this is sdot = u_s*B1*s + u_x*B2*s + u_y*B3*s, where B1 couples d
into pdot and B2, B3 are the skew-symmetric direction blocks of d x e_x and
d x e_y, so the direction keeps unit norm under the exact flow.

The plant integrates the model exactly: under constant input d rotates
about the fixed bending axis and p moves along the corresponding circular
arc, a straight segment when nothing bends. Forward Euler appears only as
the controller's prediction, in mpc. Units are mm, s and rad throughout;
curvature is 1/mm.

A NeedleState holds p and d as tuples of three Python floats, and a
VirtualInput holds three floats. Their constructors accept any three
numbers (a tuple, a list, a 1-D array), convert them to floats and reject
bools, strings, bytes, other counts, nested rows and non-finite values with
InvalidInputError naming the field, through the number check that config
fields use as well.

The exact step has one arithmetic path in two parts. _exact_flow takes a
state's p and d as float 3-tuples, the three rates and a checked ts, and
returns the raw next (p, d) computed with the scalar `math` module. _settle
then checks and settles a state as the constructor does: all values
finite, the direction norm within 1e-6 of 1, then renormalized; the
constructor calls it once its input is converted. step_exact runs the flow
on a NeedleState and a VirtualInput, settles it and builds the next
NeedleState from _settle's output through errors._prechecked, without the
constructor's conversion pass: _settle has applied the constructor's checks
with its messages, and its p and d are float 3-tuples already. Loops
that need only floats (open-loop replays, simulated calibration arcs) call
_exact_flow and _settle directly: the same bits and the same messages,
without an object per step.
Sums such as a norm or a dot product are evaluated left to right, so a
step's bits do not depend on which BLAS kernel the CPU dispatches to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidInputError, _prechecked, finite_float, finite_floats

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
        p, d = _settle(finite_floats(self.p, "p", 3),
                       finite_floats(self.d, "d", 3))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class VirtualInput:
    """Insertion speed u_s (mm/s) and bending rates u_x, u_y (rad/s)."""

    u_s: float
    u_x: float = 0.0
    u_y: float = 0.0

    def __post_init__(self):
        for name in ("u_s", "u_x", "u_y"):
            value = finite_float(getattr(self, name), name)
            object.__setattr__(self, name, value)


def distance(a: Sequence[float], b: Sequence[float]) -> float:
    """|a - b| for two 3-vectors, the squares summed left to right."""
    x, y, z = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return math.sqrt(x * x + y * y + z * z)


def _check_ts(ts: float) -> float:
    ts = finite_float(ts, "ts")
    if not ts > 0.0:
        raise InvalidInputError(f"time step must be positive and finite, got {ts!r}")
    return ts


def _settle(p: tuple, d: tuple) -> tuple[tuple, tuple]:
    """The state (p, d) as NeedleState holds it: every value finite and the
    direction's norm within 1e-6 of 1, then renormalized. p and d are float
    3-tuples; a fault raises the constructor's InvalidInputError."""
    px, py, pz = p
    dx, dy, dz = d
    if not math.isfinite(px + py + pz + dx + dy + dz):
        # a non-finite entry, or a sum that overflowed; the checks name the field
        finite_floats(p, "p", 3)
        finite_floats(d, "d", 3)
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if abs(norm - 1.0) > _CONSTRUCT_TOL:
        raise InvalidInputError(
            f"direction norm {norm:.6g} differs from 1 by more than {_CONSTRUCT_TOL:g}"
        )
    return p, (dx / norm, dy / norm, dz / norm)


def _exact_flow(p: tuple, d: tuple, u_s: float, u_x: float, u_y: float,
                ts: float) -> tuple[tuple, tuple]:
    """step_exact's arithmetic on floats: the raw (p, d) after one step."""
    px, py, pz = p
    dx, dy, dz = d
    rate = math.hypot(u_x, u_y)
    if rate < _MIN_BEND_RATE:
        step = ts * u_s
        return (px + step * dx, py + step * dy, pz + step * dz), d
    angle = rate * ts
    if not math.isfinite(angle):
        raise InvalidInputError(f"bend angle rate*ts overflows: rate {rate!r}, ts {ts!r}")
    # the axis is (ax, ay, 0); its zero terms stay in, so zero results keep
    # the signs numpy's elementwise cross product gave them
    ax, ay = -u_x / rate, -u_y / rate
    c, s = math.cos(angle), math.sin(angle)
    along = ax * dx + ay * dy + 0.0 * dz
    cx, cy, cz = ay * dz - 0.0 * dy, 0.0 * dx - ax * dz, ax * dy - ay * dx
    # d_next = c*d + s*(axis x d) + (1 - c)*(axis . d)*axis
    k = (1.0 - c) * along
    nx, ny, nz = c * dx + s * cx + k * ax, c * dy + s * cy + k * ay, c * dz + s * cz + k * 0.0
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    # integral of the rotating direction over the step, the same three terms
    i_d, i_c, i_a = s / rate, (1.0 - c) / rate, (ts - s / rate) * along
    return (
        (px + u_s * (i_d * dx + i_c * cx + i_a * ax),
         py + u_s * (i_d * dy + i_c * cy + i_a * ay),
         pz + u_s * (i_d * dz + i_c * cz + i_a * 0.0)),
        (nx / norm, ny / norm, nz / norm),
    )


def step_exact(state: NeedleState, u: VirtualInput, ts: float) -> NeedleState:
    """Exact flow of the model over ts under constant input.

    ddot = d x w with w = (u_x, u_y, 0), so d rotates at rate |w| about the
    fixed axis -w/|w| and p traces a circular arc of curvature |w| / u_s
    (a straight segment when w = 0).
    """
    p, d = _settle(*_exact_flow(state.p, state.d, u.u_s, u.u_x, u.u_y, _check_ts(ts)))
    return _prechecked(NeedleState, p=p, d=d)

