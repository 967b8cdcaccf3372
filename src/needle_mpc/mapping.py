"""Mapping between virtual bending rates and tendon tensions.

Three tendons spaced 120 degrees apart bend the needle tip. Each tendon
contributes curvature proportionally to its tension and the contributions
superpose:

    kappa_x = sum_j cos(2*pi*(j-1)/3 - theta_e) * gain * tau_j
    kappa_y = sum_j sin(2*pi*(j-1)/3 - theta_e) * gain * tau_j

Bending rates relate to curvature through the insertion speed,
u_x = kappa_x * u_s and u_y = kappa_y * u_s, so a virtual input maps to a
tension triple only while the needle is actually moving.

Write A = gain * C, where the columns of C are the unit channel
directions (cos, sin). The three directions are equally spaced, so they sum
to zero and the rows of C are orthogonal with squared norm 1.5; the
pseudo-inverse of A is therefore (2/3) C' / gain. inverse_map gives feasible
targets the exact minimum-norm tension triple. Infeasible ones are projected
onto the boundary of the feasible set first and flagged as saturated. The
projection works in tension units, kappa / gain, where the feasible set
{C tau : 0 <= tau <= tau_max} is the regular hexagon with vertices
+-tau_max * C[:, j] whatever the gain. Neither path squares the gain, so a
gain far from 1 (1e-200 or 1e300, say) neither underflows nor overflows. A
subnormal gain can put kappa / gain beyond the largest float; such a target
is projected onto the hexagon vertex furthest along its direction.

TendonGeometry builds A and C once, when it is constructed; A is the
read-only array that curvature_matrix() returns. forward_map (which
rates_from_command calls) and the unsaturated path of inverse_map, which run
every control step, read those entries as plain Python floats and sum left
to right, so they make no numpy reduction; the saturated projection stays in
numpy.

Also home to the curvature estimators used by calibration: a circle fit for
recorded tip arcs and a through-origin linear fit of curvature vs tension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateFitError, InvalidInputError, check_fields, key
from .kinematics import Array, VirtualInput

DEFAULT_GAIN = 3.7e-4  # curvature per unit tension, 1/(mm N)
DEFAULT_TAU_MAX = 7.0  # N
N_TENDONS = 3

U_S_EPS = 1e-6         # mm/s; below this no curvature is defined, tensions are zeroed
_COLLINEAR_RTOL = 1e-9  # singular-value ratio below which points count as collinear


@dataclass(frozen=True)
class TendonGeometry:
    """Tendon layout and calibration of the bending section.

    theta_e is the mounting offset of the first tendon channel (rad), gain
    the curvature produced per newton of tension (1/(mm N)), tau_max the
    largest tension the hardware may command (N)."""

    theta_e: float = key("theta_e_rad", 0.0)
    gain: float = key("gain_per_mm_N", DEFAULT_GAIN, gt=0.0)
    tau_max: float = key("tau_max_N", DEFAULT_TAU_MAX, gt=0.0)

    def __post_init__(self):
        check_fields(self)
        theta_e = self.theta_e % (2.0 * math.pi)
        # an angle just below 0 rounds up to exactly 2 pi, which would wrap
        # to 0 when the resolved geometry is parsed again
        object.__setattr__(self, "theta_e", 0.0 if theta_e == 2.0 * math.pi else theta_e)
        # C and A = gain * C, built once: as an array for curvature_matrix()
        # and as nested float lists for the per-step maps
        a = self.channel_angles()
        unit = np.vstack([np.cos(a), np.sin(a)])
        amat = self.gain * unit
        amat.setflags(write=False)
        object.__setattr__(self, "_amat", amat)
        object.__setattr__(self, "_amat_rows", amat.tolist())
        object.__setattr__(self, "_unit_rows", unit.tolist())

    def channel_angles(self) -> Array:
        """Angles 2*pi*(j-1)/3 - theta_e of the three channels (rad)."""
        return 2.0 * np.pi * np.arange(N_TENDONS) / N_TENDONS - self.theta_e

    def curvature_matrix(self) -> Array:
        """2x3 matrix A mapping tensions (N) to (kappa_x, kappa_y) (1/mm),
        read-only, built once per geometry."""
        return self._amat


def _tension_list(tau) -> list:
    v = np.asarray(tau, dtype=float).reshape(-1)
    if v.shape != (N_TENDONS,):
        raise InvalidInputError(f"tau must have shape ({N_TENDONS},), got {np.shape(tau)}")
    return v.tolist()


def _check_tensions(tau: list) -> list:
    """Three tensions, checked as TendonCommand promises: finite and nonnegative."""
    if not all(map(math.isfinite, tau)):
        raise InvalidInputError("tau contains non-finite values")
    if not all(t >= 0.0 for t in tau):
        raise InvalidInputError(f"tensions must be nonnegative, got {tau}")
    return tau


def _fill_command(command: "TendonCommand", u_s: float, tau: list) -> "TendonCommand":
    """Set command.u_s and command.tau from floats, tau checked by _check_tensions."""
    tau = np.array(_check_tensions(tau))
    tau.setflags(write=False)
    object.__setattr__(command, "u_s", u_s)
    object.__setattr__(command, "tau", tau)
    return command


@dataclass(frozen=True)
class TendonCommand:
    """Insertion speed u_s (mm/s) plus a nonnegative tension triple (N)."""

    u_s: float
    tau: Array

    def __post_init__(self):
        u_s = float(self.u_s)
        if not math.isfinite(u_s):
            raise InvalidInputError(f"u_s must be finite, got {u_s!r}")
        _fill_command(self, u_s, _tension_list(self.tau))


def _new_command(u_s: float, tau: list) -> TendonCommand:
    """A TendonCommand from a finite u_s and three floats, without converting
    them to an array first."""
    return _fill_command(object.__new__(TendonCommand), u_s, tau)


def forward_map(tau: Sequence[float], geometry: TendonGeometry) -> tuple[float, float]:
    """Curvature (kappa_x, kappa_y) (1/mm) produced by a tension triple,
    summed left to right over the entries of the cached matrix."""
    t1, t2, t3 = _check_tensions(_tension_list(tau))
    (a1, a2, a3), (b1, b2, b3) = geometry._amat_rows
    return a1 * t1 + a2 * t2 + a3 * t3, b1 * t1 + b2 * t2 + b3 * t3


def rates_from_command(command: TendonCommand, geometry: TendonGeometry) -> VirtualInput:
    """Virtual input realized by a tendon command: u_x,y = kappa_x,y * u_s."""
    kx, ky = forward_map(command.tau, geometry)
    u_s = command.u_s
    return VirtualInput(u_s=u_s, u_x=kx * u_s, u_y=ky * u_s)


@dataclass(frozen=True)
class InverseMapResult:
    """Tension solution for a requested virtual input.

    saturated is set when the requested curvature lies outside the feasible
    hexagon and had to be projected onto its boundary.
    """

    command: TendonCommand
    saturated: bool


def _project_to_feasible(kx: float, ky: float, geometry: TendonGeometry) -> Array:
    """Closest point of the feasible hexagon to an outside curvature target,
    in tension units, kappa / gain."""
    a = np.array(geometry._unit_rows).T * geometry.tau_max  # rows: tau_max * C[:, j]
    verts = np.concatenate([a, -a])
    target = np.array([kx / geometry.gain, ky / geometry.gain])
    if not np.isfinite(target).all():
        # a subnormal gain puts the target beyond the largest float; the
        # closest point to a target that far is the vertex furthest along it
        scale = max(abs(kx), abs(ky))
        return verts[np.argmax(verts @ (kx / scale, ky / scale))]
    verts = verts[np.argsort(np.arctan2(verts[:, 1], verts[:, 0]))]
    best = None
    best_dist = np.inf
    for k in range(len(verts)):
        va, vb = verts[k], verts[(k + 1) % len(verts)]
        ab = vb - va
        t = float(np.clip((target - va) @ ab / (ab @ ab), 0.0, 1.0))
        cand = va + t * ab
        # hypot, not a sum of squares: a far target at a tiny gain lies
        # beyond the square root of the largest float
        dist = float(np.hypot(*(target - cand)))
        if dist < best_dist:
            best, best_dist = cand, dist
    return best


def _pinv(x: float, y: float, geometry: TendonGeometry, gain: float) -> list:
    """Minimum-norm tensions (2/3) C' (x, y) / gain: the pseudo-inverse of
    A = gain * C at a curvature (x, y), or, with gain = 1, at a target that
    is already in tension units."""
    (c1, c2, c3), (s1, s2, s3) = geometry._unit_rows
    return [(2.0 / 3.0) * (c1 * x + s1 * y) / gain,
            (2.0 / 3.0) * (c2 * x + s2 * y) / gain,
            (2.0 / 3.0) * (c3 * x + s3 * y) / gain]


def _min_norm_in_box(tau_mn: list, tau_max: float) -> list | None:
    """Smallest-norm point of {tau_mn + t*(1,1,1)} inside [0, tau_max]^3.

    tau_mn is the pseudo-inverse solution, which is orthogonal to (1,1,1),
    so the norm over the solution line is minimized at t = 0. Returns None
    when the line misses the box.
    """
    t_lo = -min(tau_mn)
    t_hi = tau_max - max(tau_mn)
    if t_lo > t_hi:
        return None
    t = min(max(0.0, t_lo), t_hi)
    return [_clip(v + t, tau_max) for v in tau_mn]


def _clip(v: float, hi: float) -> float:
    # as np.clip(v, 0.0, hi): a -0.0 becomes 0.0
    v = v if v > 0.0 else 0.0
    return v if v < hi else hi


def inverse_map(u: VirtualInput, geometry: TendonGeometry) -> InverseMapResult:
    """Minimum-norm tension triple realizing a virtual input.

    Solves min ||tau||^2 subject to A tau = (u_x, u_y) / u_s and
    0 <= tau <= tau_max. When the target curvature is infeasible the result
    instead minimizes the curvature error (ties broken by smaller norm) and
    the saturated flag is set. |u_s| < U_S_EPS yields zero tensions, since
    curvature is undefined without insertion motion.
    """
    u_s = u.u_s
    if abs(u_s) < U_S_EPS:
        return InverseMapResult(command=_new_command(u_s, [0.0] * N_TENDONS), saturated=False)
    gain, tau_max = geometry.gain, geometry.tau_max
    kx, ky = u.u_x / u_s, u.u_y / u_s
    tau = _min_norm_in_box(_pinv(kx, ky, geometry, gain), tau_max)
    saturated = tau is None
    if saturated:
        reachable = _project_to_feasible(kx, ky, geometry)
        tau_mn = _pinv(*reachable.tolist(), geometry, 1.0)
        tau = _min_norm_in_box(tau_mn, tau_max)
        if tau is None:
            # boundary point missed the box by rounding only; recover by clipping
            t = 0.5 * (-min(tau_mn) + tau_max - max(tau_mn))
            tau = [_clip(v + t, tau_max) for v in tau_mn]
    return InverseMapResult(command=_new_command(u_s, tau), saturated=saturated)


def fit_gain(samples: Iterable[tuple[float, float]]) -> float:
    """Through-origin slope of curvature (1/mm) against tension (N).

    Least squares with zero intercept: gain = sum(tau*kappa) / sum(tau^2).
    """
    pairs = [(float(t), float(k)) for t, k in samples]
    if len(pairs) < 2:
        raise InvalidInputError(f"need at least 2 samples, got {len(pairs)}")
    tau = np.array([p[0] for p in pairs])
    kappa = np.array([p[1] for p in pairs])
    if np.any(~np.isfinite(tau)) or np.any(~np.isfinite(kappa)):
        raise InvalidInputError("samples contain non-finite values")
    if np.any(tau < 0.0):
        raise InvalidInputError("tensions must be nonnegative")
    denom = float(tau @ tau)
    if denom == 0.0:
        raise DegenerateFitError("all tensions are zero; slope through origin is undefined")
    return float(tau @ kappa) / denom


def estimate_curvature(points: Sequence[Sequence[float]]) -> float:
    """Curvature (1/mm) of a point set lying near a planar circular arc.

    Fits the best plane through the centered points, projects into it, and
    runs an algebraic least-squares circle fit. Collinear input (within a
    relative singular-value tolerance) returns 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise InvalidInputError(f"need at least 3 points of dimension 3, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("points contain non-finite values")
    centered = pts - pts.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    if sing[0] == 0.0 or sing[1] <= _COLLINEAR_RTOL * sing[0]:
        return 0.0
    xy = centered @ vt[:2].T
    x, y = xy[:, 0], xy[:, 1]
    # algebraic circle fit: center (cx, cy) solves the normal equations of
    # minimizing sum((x-cx)^2 + (y-cy)^2 - R^2) linearized in (cx, cy, R^2)
    suu, suv, svv = float(x @ x), float(x @ y), float(y @ y)
    z = x * x + y * y
    rhs = np.array([0.5 * float(x @ z), 0.5 * float(y @ z)])
    center = np.linalg.solve(np.array([[suu, suv], [suv, svv]]), rhs)
    radius = float(np.mean(np.hypot(x - center[0], y - center[1])))
    if radius == 0.0:
        return 0.0
    return 1.0 / radius

