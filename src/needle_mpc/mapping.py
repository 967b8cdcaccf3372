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
lists. forward_map, rates_from_command and inverse_map run every control
step; they read those entries as plain Python floats and sum left to right.
The open-loop replay forms its rates on floats, by the same _command_rates
that rates_from_command wraps in a VirtualInput. The per-step objects are
built through errors._prechecked, each value checked once:
rates_from_command's VirtualInput holds the command's u_s, checked by
TendonCommand, and the rates _command_rates checked finite; inverse_map's
TendonCommand holds VirtualInput's finite u_s and tensions that _clip and
_nearest_boundary leave as floats in [0, tau_max] (a nan clips to 0.0),
which still pass the sign check, and its InverseMapResult holds that
command and a bool. A TendonCommand holds u_s
as a float and tau as a tuple of three floats. Its constructor and
forward_map check tensions with one function: three finite, nonnegative
numbers, with str, bytes and 2-D arrays refused, and each fault raises
InvalidInputError naming tau. The commands CSV reader has checked its
floats already and builds each command through TendonCommand._prechecked,
which checks only the tensions' sign.

Also home to the curvature estimators used by calibration: a circle fit for
recorded tip arcs and a through-origin linear fit of curvature vs tension.
estimate_curvature and fit_gain check their inputs as finite numbers (str,
bytes and bools refused), then run _arc_curvature and _origin_slope on the
checked floats; calibration calls those two directly on the floats that
CalibrationRun checked. The circle fit sums left to right, projecting each
point into the arc's plane in the same pass as its sums; the line fit sums
with math.fsum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DegenerateFitError,
    InvalidInputError,
    _prechecked,
    check_fields,
    finite_float,
    finite_floats,
    finite_points,
    key,
)
from .kinematics import VirtualInput

DEFAULT_GAIN = 3.7e-4  # curvature per unit tension, 1/(mm N)
DEFAULT_TAU_MAX = 7.0  # N
N_TENDONS = 3
# |mounting angle| bound (rad): far beyond any offset, and well below the
# 1e16 rad where reducing it modulo 2 pi keeps no significant digit
MAX_ANGLE_RAD = 1e3

U_S_EPS = 1e-6         # mm/s; below this no curvature is defined, tensions are zeroed
_COLLINEAR_RTOL = 1e-9  # in-plane spread ratio below which points count as collinear
_JACOBI_SWEEPS = 16     # a 3x3 scatter matrix takes about 4
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class TendonGeometry:
    """Tendon layout and calibration of the bending section.

    theta_e is the mounting offset of the first tendon channel (rad), gain
    the curvature produced per newton of tension (1/(mm N)), tau_max the
    largest tension the hardware may command (N)."""

    theta_e: float = key("theta_e_rad", 0.0, mag=MAX_ANGLE_RAD)
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
        a = [2.0 * math.pi * i / N_TENDONS - self.theta_e for i in range(N_TENDONS)]
        unit = [[math.cos(v) for v in a], [math.sin(v) for v in a]]
        object.__setattr__(self, "_amat_rows", [[self.gain * v for v in row] for row in unit])
        object.__setattr__(self, "_unit_rows", unit)


def _tensions(tau) -> tuple[float, float, float]:
    """Three tensions as floats, checked as TendonCommand promises: finite
    and nonnegative."""
    return _nonnegative(finite_floats(tau, "tau", N_TENDONS))


def _nonnegative(tau: tuple) -> tuple[float, float, float]:
    """A tuple of three finite floats, checked to hold no negative tension."""
    if not min(tau) >= 0.0:
        raise InvalidInputError(f"tensions must be nonnegative, got {tau}")
    return tau


@dataclass(frozen=True)
class TendonCommand:
    """Insertion speed u_s (mm/s) plus a nonnegative tension triple (N),
    held as floats."""

    u_s: float
    tau: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "u_s", finite_float(self.u_s, "u_s"))
        object.__setattr__(self, "tau", _tensions(self.tau))

    @classmethod
    def _prechecked(cls, u_s: float, tau: tuple) -> TendonCommand:
        """A command from a finite float u_s and a tuple of three finite
        floats, as the CSV reader leaves them. Only the tensions' sign is
        left to check, with the constructor's message."""
        return _prechecked(cls, u_s=u_s, tau=_nonnegative(tau))


def _curvature(tau: tuple, geometry: TendonGeometry) -> tuple[float, float]:
    """forward_map's sums, for tensions already checked."""
    t1, t2, t3 = tau
    (a1, a2, a3), (b1, b2, b3) = geometry._amat_rows
    return a1 * t1 + a2 * t2 + a3 * t3, b1 * t1 + b2 * t2 + b3 * t3


def forward_map(tau: Sequence[float], geometry: TendonGeometry) -> tuple[float, float]:
    """Curvature (kappa_x, kappa_y) (1/mm) produced by a tension triple,
    summed left to right over the entries of the cached matrix."""
    return _curvature(_tensions(tau), geometry)


def _command_rates(u_s: float, tau: tuple, geometry: TendonGeometry) -> tuple[float, float]:
    """Bending rates (u_x, u_y) = kappa * u_s of a checked command's floats.
    A rate beyond the float range raises VirtualInput's InvalidInputError."""
    kx, ky = _curvature(tau, geometry)
    u_x, u_y = kx * u_s, ky * u_s
    if not math.isfinite(u_x + u_y):
        VirtualInput(u_s, u_x, u_y)  # names the rate, unless only the sum overflowed
    return u_x, u_y


def rates_from_command(command: TendonCommand, geometry: TendonGeometry) -> VirtualInput:
    """Virtual input realized by a tendon command: u_x,y = kappa_x,y * u_s.
    The tensions and u_s are used as they are: TendonCommand checked them,
    and _command_rates checks the rates."""
    u_s = command.u_s
    u_x, u_y = _command_rates(u_s, command.tau, geometry)
    return _prechecked(VirtualInput, u_s=u_s, u_x=u_x, u_y=u_y)


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
        return _prechecked(InverseMapResult,
                           command=TendonCommand._prechecked(u_s, (0.0,) * N_TENDONS),
                           saturated=False)
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
    # u_s is VirtualInput's finite float, and every tension a float of
    # [0, tau_max] (_clip turns a nan into 0.0); the sign is checked still
    return _prechecked(InverseMapResult, command=TendonCommand._prechecked(u_s, tuple(tau)),
                       saturated=saturated)


def fit_gain(samples: Iterable[tuple[float, float]]) -> float:
    """Through-origin slope of curvature (1/mm) against tension (N).

    Least squares with zero intercept: gain = sum(tau*kappa) / sum(tau^2),
    both sums correctly rounded (math.fsum), so the order of the samples
    sets no bit. samples are at least 2 (tension, curvature) pairs of finite
    numbers, tensions nonnegative. Sums or a slope beyond the float range
    raise InvalidInputError.
    """
    pairs = [finite_floats(pair, "samples", 2) for pair in samples]
    if len(pairs) < 2:
        raise InvalidInputError(f"need at least 2 samples, got {len(pairs)}")
    tensions = [t for t, _ in pairs]
    if any(t < 0.0 for t in tensions):
        raise InvalidInputError("tensions must be nonnegative")
    return _origin_slope(tensions, [k for _, k in pairs])


def _origin_slope(tensions: list, curvatures: list) -> float:
    """fit_gain's slope on checked floats: finite tensions, all >= 0, and
    as many finite curvatures."""
    try:
        num = math.fsum([t * k for t, k in zip(tensions, curvatures)])
        denom = math.fsum([t * t for t in tensions])
    except (OverflowError, ValueError):  # a partial sum overflowed, or inf - inf
        num = denom = math.inf
    if denom == 0.0:
        raise DegenerateFitError("all tensions are zero; slope through origin is undefined")
    gain = num / denom
    if not (math.isfinite(denom) and math.isfinite(gain)):
        raise InvalidInputError(
            f"samples put sum(tau*kappa) / sum(tau^2) beyond the float range "
            f"(largest tension {max(tensions)!r} N)"
        )
    return gain


def estimate_curvature(points: Sequence[Sequence[float]]) -> float:
    """Curvature (1/mm) of a point set lying near a planar circular arc.

    Fits the best plane through the centered points, projects into it, and
    runs an algebraic least-squares circle fit. points are at least 3
    [x, y, z] points of finite numbers; str, bytes and bools are refused.

    The plane is spanned by the two leading eigenvectors of the centered
    points' scatter matrix, found by cyclic Jacobi rotations. u and v are
    the points' coordinates along those eigenvectors, and the points are
    collinear, with curvature 0, when sqrt(sum(v^2)) <= 1e-9 * sqrt(sum(u^2)).
    The circle's center (cu, cv) solves the normal equations of minimizing
    sum((u-cu)^2 + (v-cv)^2 - R^2) linearized in (cu, cv, R^2) (Kasa's fit),
    and the radius is the points' mean distance from it.
    """
    rows = finite_points(points, "points")
    if len(rows) < 3:
        raise InvalidInputError(f"need at least 3 points of dimension 3, got {len(rows)}")
    return _arc_curvature(rows)


def _arc_curvature(rows) -> float:
    """estimate_curvature's fit on checked points: at least 3 tuples of
    three finite floats. Each point is projected to (u, v) and summed into
    the Kasa sums in the same pass."""
    n = len(rows)
    mx = my = mz = 0.0
    for x, y, z in rows:
        mx += x
        my += y
        mz += z
    mx, my, mz = mx / n, my / n, mz / n
    sxx = sxy = sxz = syy = syz = szz = 0.0
    for x, y, z in rows:
        x -= mx
        y -= my
        z -= mz
        sxx += x * x
        sxy += x * y
        sxz += x * z
        syy += y * y
        syz += y * z
        szz += z * z
    a = [[sxx, sxy, sxz], [sxy, syy, syz], [sxz, syz, szz]]
    e = _jacobi_eigenvectors(a)
    i, j = sorted(range(3), key=lambda k: a[k][k], reverse=True)[:2]
    ux, uy, uz = e[0][i], e[1][i], e[2][i]
    vx, vy, vz = e[0][j], e[1][j], e[2][j]
    mu, mv = mx * ux + my * uy + mz * uz, mx * vx + my * vy + mz * vz
    us, vs = [], []
    suu = suv = svv = suw = svw = 0.0
    for x, y, z in rows:
        u = x * ux + y * uy + z * uz - mu
        v = x * vx + y * vy + z * vz - mv
        us.append(u)
        vs.append(v)
        uu = u * u
        vv = v * v
        suu += uu
        suv += u * v
        svv += vv
        w = uu + vv
        suw += u * w
        svw += v * w
    if not math.isfinite(suu + svv + suw + svw):
        raise InvalidInputError("points spread so far that the fit's sums leave the float range")
    if math.sqrt(svv) <= _COLLINEAR_RTOL * math.sqrt(suu):
        return 0.0
    # [[suu, suv], [suv, svv]] (cu, cv) = (suw, svw) / 2, eliminated on suu >= svv
    ru, rv = 0.5 * suw, 0.5 * svw
    ratio = suv / suu
    cv = (rv - ratio * ru) / (svv - ratio * suv)
    cu = (ru - suv * cv) / suu
    radius = 0.0
    for u, v in zip(us, vs):
        radius += math.hypot(u - cu, v - cv)
    radius /= n  # > 0: points that are not collinear do not all sit on the center
    return 1.0 / radius


def _jacobi_eigenvectors(a: list[list[float]]) -> list[list[float]]:
    """Eigenvectors (the columns of the result) of the symmetric 3x3 a,
    which is diagonalized in place by cyclic Jacobi rotations. A rotation
    is skipped once its off-diagonal entry is below the float resolution of
    its two diagonal entries, and the sweeps end when none rotates."""
    e = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq, app, aqq = a[p][q], a[p][p], a[q][q]
            if not abs(apq) > _EPS * (abs(app) + abs(aqq)):  # also skips inf and nan
                continue
            rotated = True
            theta = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            a[p][p] = app - t * apq
            a[q][q] = aqq + t * apq
            a[p][q] = a[q][p] = 0.0
            arp, arq = a[r][p], a[r][q]
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
            for row in e:
                ep, eq = row[p], row[q]
                row[p] = c * ep - s * eq
                row[q] = s * ep + c * eq
        if not rotated:
            break
    return e
