"""Mapping between virtual bending rates and tendon tensions.

Three tendons spaced 120 degrees apart bend the needle tip. Each tendon
contributes curvature proportionally to its tension and the contributions
superpose:

    kappa_x = sum_j cos(2*pi*(j-1)/3 - theta_e) * gain * tau_j
    kappa_y = sum_j sin(2*pi*(j-1)/3 - theta_e) * gain * tau_j

Bending rates relate to curvature through the insertion speed,
u_x = kappa_x * u_s and u_y = kappa_y * u_s, so a virtual input maps to a
tension triple only while the needle is actually moving.

Write A = gain * C, where the columns c_j of C are the unit channel
directions (cos, sin). The three directions are equally spaced, so they sum
to zero, c_j . c_k = -1/2 for j != k, and the rows of C are orthogonal with
squared norm 1.5; the pseudo-inverse of A is therefore (2/3) C' / gain.
inverse_map gives feasible targets the exact minimum-norm tension triple.

In tension units, kappa / gain, the feasible set {C tau : 0 <= tau <= tau_max}
is the regular hexagon with vertices +-tau_max * c_j. Each of its edges has
one tendon at tau_max and another at 0 while the third runs over
[0, tau_max]. An outside target is flagged as saturated and mapped to its
nearest boundary point in closed form: the tendon with the largest c_j . kappa
goes to tau_max, the one with the smallest to 0, and the third to its
projection onto that edge, clipped to the box. The tendons are ranked on
kappa itself, and no path squares the gain, so a gain far from 1 (1e-300 or
1e300, say) neither underflows nor overflows. A kappa that itself overflows
(u_s near U_S_EPS, bending rates near the float range) is ranked on its
direction alone and saturated the same way.

TendonGeometry builds A and C once, when it is constructed, as nested float
lists. forward_map (which rates_from_command calls) and inverse_map run
every control step; they read those entries as plain Python floats and sum
left to right, so they make no numpy reduction. A TendonCommand holds u_s
as a float and tau as a tuple of three floats. Its constructor and
forward_map check tensions with one function: three finite, nonnegative
numbers, with str, bytes and 2-D arrays refused, and each fault raises
InvalidInputError naming tau.

Also home to the curvature estimators used by calibration: a circle fit for
recorded tip arcs and a through-origin linear fit of curvature vs tension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    InvalidInputError,
    check_fields,
    finite_float,
    finite_floats,
    key,
)
from .kinematics import VirtualInput

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
        # C and A = gain * C, built once as nested float lists for the
        # per-step maps
        a = 2.0 * np.pi * np.arange(N_TENDONS) / N_TENDONS - self.theta_e
        unit = np.vstack([np.cos(a), np.sin(a)])
        object.__setattr__(self, "_amat_rows", (self.gain * unit).tolist())
        object.__setattr__(self, "_unit_rows", unit.tolist())


def _tensions(tau) -> tuple[float, float, float]:
    """Three tensions as floats, checked as TendonCommand promises: finite
    and nonnegative."""
    tau = finite_floats(tau, "tau", N_TENDONS, InvalidInputError)
    if not all(t >= 0.0 for t in tau):
        raise InvalidInputError(f"tensions must be nonnegative, got {tau}")
    return tau


@dataclass(frozen=True)
class TendonCommand:
    """Insertion speed u_s (mm/s) plus a nonnegative tension triple (N),
    held as floats."""

    u_s: float
    tau: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "u_s", finite_float(self.u_s, "u_s", InvalidInputError))
        object.__setattr__(self, "tau", _tensions(self.tau))


def forward_map(tau: Sequence[float], geometry: TendonGeometry) -> tuple[float, float]:
    """Curvature (kappa_x, kappa_y) (1/mm) produced by a tension triple,
    summed left to right over the entries of the cached matrix."""
    t1, t2, t3 = _tensions(tau)
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
    hexagon; the command then realizes the hexagon's nearest boundary point,
    with one tendon at tau_max and another at 0.
    """

    command: TendonCommand
    saturated: bool


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


def _nearest_boundary(dots: list, geometry: TendonGeometry, far: bool = False) -> list:
    """Tensions of the feasible hexagon's boundary point nearest to an
    outside curvature kappa, given dots = c_j . kappa.

    The edge faced by the target puts the best-aligned tendon a at tau_max
    and the worst-aligned tendon w at 0. The third tendon b moves along c_b,
    so its tension is the projection c_b . (kappa / gain - tau_max * c_a) =
    c_b . kappa / gain + tau_max / 2, clipped to the edge's ends.

    A far kappa, one beyond the float range, passes dots along its direction
    only; b then takes the projection's limit as kappa recedes: the edge's
    end that c_b points to, or its midpoint when c_b . kappa is 0.
    """
    w, b, a = sorted(range(N_TENDONS), key=dots.__getitem__)
    tau = [0.0] * N_TENDONS
    tau[a] = tau_max = geometry.tau_max
    if not far:
        tau[b] = _clip(dots[b] / geometry.gain + 0.5 * tau_max, tau_max)
    else:
        tau[b] = tau_max if dots[b] > 0.0 else (0.0 if dots[b] < 0.0 else 0.5 * tau_max)
    return tau


def inverse_map(u: VirtualInput, geometry: TendonGeometry) -> InverseMapResult:
    """Minimum-norm tension triple realizing a virtual input.

    Solves min ||tau||^2 subject to A tau = (u_x, u_y) / u_s and
    0 <= tau <= tau_max. When the target curvature is infeasible the result
    is the tension triple of the feasible curvature nearest to it, which is
    unique, and the saturated flag is set. |u_s| < U_S_EPS yields zero
    tensions, since curvature is undefined without insertion motion.
    """
    u_s = u.u_s
    if abs(u_s) < U_S_EPS:
        return InverseMapResult(command=TendonCommand(u_s, (0.0,) * N_TENDONS), saturated=False)
    kx, ky = u.u_x / u_s, u.u_y / u_s
    far = not (math.isfinite(kx) and math.isfinite(ky))
    if far:
        # kappa overflowed: keep its direction, scaled to at most 1 per
        # component so that no product below overflows
        scale = math.copysign(max(abs(u.u_x), abs(u.u_y)), u_s)
        kx, ky = u.u_x / scale, u.u_y / scale
    (c1, c2, c3), (s1, s2, s3) = geometry._unit_rows
    dots = [c1 * kx + s1 * ky, c2 * kx + s2 * ky, c3 * kx + s3 * ky]  # c_j . kappa
    # the pseudo-inverse (2/3) C' kappa / gain is the minimum-norm solution
    tau = None if far else _min_norm_in_box(
        [(2.0 / 3.0) * d / geometry.gain for d in dots], geometry.tau_max
    )
    saturated = tau is None
    if saturated:
        tau = _nearest_boundary(dots, geometry, far)
    return InverseMapResult(command=TendonCommand(u_s, tau), saturated=saturated)


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

