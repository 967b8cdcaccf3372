"""Mapping between virtual bending rates and tendon tensions.

Three tendons spaced 120 degrees apart bend the needle tip. Each tendon
contributes curvature proportionally to its tension and the contributions
superpose:

    kappa_x = sum_j cos(2*pi*(j-1)/3 - theta_e) * gain * tau_j
    kappa_y = sum_j sin(2*pi*(j-1)/3 - theta_e) * gain * tau_j

Bending rates relate to curvature through the insertion speed,
u_x = kappa_x * u_s and u_y = kappa_y * u_s, so a virtual input maps to a
tension triple only while the needle is actually moving.

The feasible curvature set {A tau : 0 <= tau <= tau_max} is a regular
hexagon centered at the origin with vertices +-tau_max * A[:, j] (the three
column directions are equally spaced, so they sum to zero and the rows of A
are orthogonal with squared norm 1.5*gain^2). inverse_map exploits this:
feasible targets get the exact minimum-norm tension triple, infeasible ones
are projected onto the hexagon boundary first and flagged as saturated.

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

    def channel_angles(self) -> Array:
        """Angles 2*pi*(j-1)/3 - theta_e of the three channels (rad)."""
        return 2.0 * np.pi * np.arange(N_TENDONS) / N_TENDONS - self.theta_e

    def curvature_matrix(self) -> Array:
        """2x3 matrix A mapping tensions (N) to (kappa_x, kappa_y) (1/mm)."""
        a = self.channel_angles()
        return self.gain * np.vstack([np.cos(a), np.sin(a)])


@dataclass(frozen=True)
class TendonCommand:
    """Insertion speed u_s (mm/s) plus a nonnegative tension triple (N)."""

    u_s: float
    tau: Array

    def __post_init__(self):
        u_s = float(self.u_s)
        if not math.isfinite(u_s):
            raise InvalidInputError(f"u_s must be finite, got {u_s!r}")
        object.__setattr__(self, "u_s", u_s)
        tau = np.array(self.tau, dtype=float).reshape(-1)
        if tau.shape != (N_TENDONS,):
            raise InvalidInputError(f"tau must have shape ({N_TENDONS},), got {np.shape(self.tau)}")
        if not np.all(np.isfinite(tau)):
            raise InvalidInputError("tau contains non-finite values")
        if np.any(tau < 0.0):
            raise InvalidInputError(f"tensions must be nonnegative, got {tau}")
        tau.setflags(write=False)
        object.__setattr__(self, "tau", tau)


def forward_map(tau: Sequence[float], geometry: TendonGeometry) -> Array:
    """Curvature vector (kappa_x, kappa_y) (1/mm) produced by a tension triple."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (N_TENDONS,):
        raise InvalidInputError(f"tau must have shape ({N_TENDONS},), got {tau.shape}")
    if np.any(~np.isfinite(tau)) or np.any(tau < 0.0):
        raise InvalidInputError(f"tensions must be nonnegative and finite, got {tau}")
    return geometry.curvature_matrix() @ tau


def rates_from_command(command: TendonCommand, geometry: TendonGeometry) -> VirtualInput:
    """Virtual input realized by a tendon command: u_x,y = kappa_x,y * u_s."""
    kappa = forward_map(command.tau, geometry)
    return VirtualInput(
        u_s=command.u_s,
        u_x=float(kappa[0]) * command.u_s,
        u_y=float(kappa[1]) * command.u_s,
    )


@dataclass(frozen=True)
class InverseMapResult:
    """Tension solution for a requested virtual input.

    saturated is set when the requested curvature lies outside the feasible
    hexagon and had to be projected onto its boundary.
    """

    command: TendonCommand
    saturated: bool


def _project_to_feasible(target: Array, geometry: TendonGeometry) -> Array:
    """Closest point of the feasible curvature hexagon to an outside target."""
    a = geometry.curvature_matrix().T * geometry.tau_max  # rows: tau_max * A[:, j]
    verts = np.concatenate([a, -a])
    verts = verts[np.argsort(np.arctan2(verts[:, 1], verts[:, 0]))]
    best = None
    best_d2 = np.inf
    for k in range(len(verts)):
        va, vb = verts[k], verts[(k + 1) % len(verts)]
        ab = vb - va
        t = float(np.clip((target - va) @ ab / (ab @ ab), 0.0, 1.0))
        cand = va + t * ab
        d2 = float(np.sum((target - cand) ** 2))
        if d2 < best_d2:
            best, best_d2 = cand, d2
    return best


def _min_norm_in_box(tau_mn: Array, tau_max: float) -> Array | None:
    """Smallest-norm point of {tau_mn + t*(1,1,1)} inside [0, tau_max]^3.

    tau_mn is the pseudo-inverse solution, which is orthogonal to (1,1,1),
    so the norm over the solution line is minimized at t = 0. Returns None
    when the line misses the box.
    """
    t_lo = -float(tau_mn.min())
    t_hi = float(tau_max - tau_mn.max())
    if t_lo > t_hi:
        return None
    t = min(max(0.0, t_lo), t_hi)
    return np.clip(tau_mn + t, 0.0, tau_max)


def inverse_map(u: VirtualInput, geometry: TendonGeometry) -> InverseMapResult:
    """Minimum-norm tension triple realizing a virtual input.

    Solves min ||tau||^2 subject to A tau = (u_x, u_y) / u_s and
    0 <= tau <= tau_max. When the target curvature is infeasible the result
    instead minimizes the curvature error (ties broken by smaller norm) and
    the saturated flag is set. |u_s| < U_S_EPS yields zero tensions, since
    curvature is undefined without insertion motion.
    """
    if abs(u.u_s) < U_S_EPS:
        return InverseMapResult(
            command=TendonCommand(u_s=u.u_s, tau=np.zeros(N_TENDONS)),
            saturated=False,
        )
    target = np.array([u.u_x, u.u_y]) / u.u_s
    amat = geometry.curvature_matrix()
    # rows of A are orthogonal with squared norm 1.5 gain^2, so the
    # pseudo-inverse is a scaled transpose
    pinv_scale = 2.0 / (3.0 * geometry.gain**2)
    tau = _min_norm_in_box(amat.T @ target * pinv_scale, geometry.tau_max)
    saturated = tau is None
    if saturated:
        reachable = _project_to_feasible(target, geometry)
        tau = _min_norm_in_box(amat.T @ reachable * pinv_scale, geometry.tau_max)
        if tau is None:
            # boundary point missed the box by rounding only; recover by clipping
            tau_mn = amat.T @ reachable * pinv_scale
            t = 0.5 * (-float(tau_mn.min()) + geometry.tau_max - float(tau_mn.max()))
            tau = np.clip(tau_mn + t, 0.0, geometry.tau_max)
    return InverseMapResult(
        command=TendonCommand(u_s=u.u_s, tau=tau),
        saturated=saturated,
    )


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

