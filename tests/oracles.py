"""Independent reference implementations used as test oracles.

Everything here except horizon_cost, the per-entry number checks, the
object steps, the multi-pass calibration fits and the reference SPG run is
written from the model
equations directly, without importing from needle_mpc, so that agreement
between package and oracle is evidence rather than tautology. The per-entry
checks build on the package's scalar check finite_float, which is what they
compose. The object steps (step_euler, the forward-Euler step the
controller's prediction is checked against, and rollout, a chain of the
package's step_exact) take and return the package's NeedleState and
VirtualInput. The multi-pass fits (estimate_curvature_multipass and
calibrate_per_pair) are the package's arc fit and gain calibration in the
form that checked every value again inside the fit and projected the arc
in a pass of its own; they raise the package's exceptions with its messages
and share its Jacobi rotations, so the one-pass fits must match them bit
for bit. The reference SPG run (spg_run_reference) is the package's
optimizer._solve_from in the form that kept a `moved` flag beside g'd,
tracked ||x||_inf at every step and checked each accepted gradient before
the post-step pass; it reads the package's constants and result type and
raises its exceptions with its messages, so minimize must match it bit for
bit. Oracles favor clarity over speed; the only vectorized ones are
those the acceptance suite calls in bulk.
"""

import math
from collections import deque
from typing import Sequence

import numpy as np
from scipy.integrate import simpson
from scipy.spatial.transform import Rotation

from needle_mpc.errors import DegenerateFitError, InvalidInputError, finite_float
from needle_mpc.kinematics import NeedleState, VirtualInput, _check_ts, step_exact
from needle_mpc.mapping import _jacobi_eigenvectors
from needle_mpc import optimizer as _opt
from needle_mpc.mpc import _EulerHorizon

# Frozen value of the six scalar state equations at
# p=(1,2,3), d=(0.6,0,0.8), u=(u_s,u_x,u_y)=(2,0.5,-0.25).
FROZEN_DERIVATIVE = (1.2, 0.0, 1.6, 0.2, 0.4, -0.15)


def state_derivative_scalar(p, d, u):
    """The six state equations written out one by one.

    xdot = u_s*dx, ydot = u_s*dy, zdot = u_s*dz,
    dxdot = -dz*u_y, dydot = dz*u_x, dzdot = dx*u_y - dy*u_x.
    """
    u_s, u_x, u_y = u
    dx, dy, dz = d
    return (
        u_s * dx,
        u_s * dy,
        u_s * dz,
        -dz * u_y,
        dz * u_x,
        dx * u_y - dy * u_x,
    )


def exact_step_rotation(p, d, u, ts, n_samples=2001):
    """One exact constant-input step via scipy's rotation classes.

    The direction satisfies ddot = d x w with w = (u_x, u_y, 0), i.e. it
    rotates with angular velocity -w. The new position is the time
    integral of u_s * d(t), evaluated here by Simpson quadrature on a
    dense sampling of the rotated direction.
    """
    u_s, u_x, u_y = u
    w = np.array([u_x, u_y, 0.0])
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    rate = np.linalg.norm(w)
    if rate == 0.0:
        return p + ts * u_s * d, d.copy()
    times = np.linspace(0.0, ts, n_samples)
    rots = Rotation.from_rotvec(np.outer(times, -w))
    dirs = rots.apply(d)
    new_p = p + u_s * np.array(
        [simpson(dirs[:, k], x=times) for k in range(3)]
    )
    new_d = dirs[-1]
    return new_p, new_d


def _bend(dx: float, dy: float, dz: float, u_x: float, u_y: float) -> tuple:
    # ddot = d x (u_x, u_y, 0)
    return -u_y * dz, u_x * dz, u_y * dx - u_x * dy


def _euler_flow(p: tuple, d: tuple, u_s: float, u_x: float, u_y: float,
                ts: float) -> tuple[tuple, tuple]:
    """step_euler's arithmetic on floats: the raw (p, d) after one step."""
    px, py, pz = p
    dx, dy, dz = d
    step = ts * u_s
    bx, by, bz = _bend(dx, dy, dz, u_x, u_y)
    rx, ry, rz = dx + ts * bx, dy + ts * by, dz + ts * bz
    norm = math.sqrt(rx * rx + ry * ry + rz * rz)
    return (px + step * dx, py + step * dy, pz + step * dz), (rx / norm, ry / norm, rz / norm)


def step_euler(state: NeedleState, u: VirtualInput, ts: float) -> NeedleState:
    """One forward-Euler step of length ts (s), direction renormalized.

    The raw Euler update leaves the direction with norm sqrt(1 + (ts*w)^2)
    for bending rate w, so the renormalization never divides by a small
    number. The position update uses the pre-step direction.
    """
    return NeedleState(*_euler_flow(state.p, state.d, u.u_s, u.u_x, u.u_y, _check_ts(ts)))


def rollout(state: NeedleState, inputs: Sequence[VirtualInput], ts: float) -> list[NeedleState]:
    """Apply a sequence of piecewise-constant inputs by the exact step;
    returns N+1 states."""
    if len(inputs) == 0:
        raise InvalidInputError("input sequence is empty")
    states = [state]
    for u in inputs:
        states.append(step_exact(states[-1], u, ts))
    return states


def chord_deflection(kappa, length):
    """(lateral, axial) tip coordinates of a planar constant-curvature arc."""
    if kappa == 0.0:
        return 0.0, length
    return (1.0 - math.cos(kappa * length)) / kappa, math.sin(kappa * length) / kappa


def zero_intercept_gain(taus, kappas):
    """Least-squares slope of kappa = g*tau via lstsq, plus its standard error."""
    taus = np.asarray(taus, dtype=float).reshape(-1, 1)
    kappas = np.asarray(kappas, dtype=float)
    sol, _, _, _ = np.linalg.lstsq(taus, kappas, rcond=None)
    g = float(sol[0])
    resid = kappas - g * taus[:, 0]
    dof = max(len(kappas) - 1, 1)
    var = float(resid @ resid) / dof
    se = math.sqrt(var / float(taus[:, 0] @ taus[:, 0]))
    return g, se


def circle_fit_svd(points, collinear_rtol=1e-9):
    """Curvature of a point set near a planar arc: the plane of the SVD of
    the centered points, then Kasa's algebraic circle fit in that plane.

    Collinear points (second singular value at most collinear_rtol times
    the first) give 0.
    """
    pts = np.asarray(points, dtype=float)
    centered = pts - pts.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    if sing[0] == 0.0 or sing[1] <= collinear_rtol * sing[0]:
        return 0.0
    xy = centered @ vt[:2].T
    x, y = xy[:, 0], xy[:, 1]
    # the center (cx, cy) solves the normal equations of minimizing
    # sum((x-cx)^2 + (y-cy)^2 - R^2) linearized in (cx, cy, R^2)
    z = x * x + y * y
    normal = np.array([[x @ x, x @ y], [x @ y, y @ y]])
    center = np.linalg.solve(normal, 0.5 * np.array([x @ z, y @ z]))
    radius = float(np.mean(np.hypot(x - center[0], y - center[1])))
    return 0.0 if radius == 0.0 else 1.0 / radius


def curvature_pair(theta_e, gain, tau):
    """Superposed curvature components, one tendon at a time."""
    kx = 0.0
    ky = 0.0
    for j, t in enumerate(tau):
        ang = 2.0 * math.pi * j / 3.0 - theta_e
        kx += gain * t * math.cos(ang)
        ky += gain * t * math.sin(ang)
    return kx, ky


def feasible_set_excess(kx, ky, theta_e, gain, tau_max):
    """How far (kx, ky) lies outside {A tau : 0 <= tau <= tau_max}, in units
    of gain * tau_max; zero or negative inside.

    The set is the Minkowski sum of the three segments [0, tau_max * a_j],
    a zonotope whose edges run along the a_j. A point lies inside exactly
    when, for each unit normal n of an edge (both signs), n . kappa does not
    exceed the support value sum_j max(0, tau_max * n . a_j).
    """
    cols = [
        (gain * math.cos(2.0 * math.pi * j / 3.0 - theta_e),
         gain * math.sin(2.0 * math.pi * j / 3.0 - theta_e))
        for j in range(3)
    ]
    excess = -math.inf
    for ax, ay in cols:
        length = math.hypot(ax, ay)
        for sign in (1.0, -1.0):
            nx, ny = -sign * ay / length, sign * ax / length
            support = sum(max(0.0, tau_max * (nx * bx + ny * by)) for bx, by in cols)
            excess = max(excess, nx * kx + ny * ky - support)
    return excess / (gain * tau_max)


def _channel_matrix(theta_e, gain):
    angles = np.array([2.0 * math.pi * j / 3.0 - theta_e for j in range(3)])
    return gain * np.vstack([np.cos(angles), np.sin(angles)])


def tension_grid_full(u_x, u_y, u_s, theta_e, gain, tau_max, step):
    """Brute-force grid search over the full tension cube.

    Candidates are grid points whose realized bending rates deviate from
    the request by no more than the deviation a half-cell rounding can
    introduce; among candidates the smallest Euclidean norm wins. Only
    usable at coarse resolution (the cube is enumerated outright).
    """
    a = _channel_matrix(theta_e, gain)
    n = int(round(tau_max / step)) + 1
    axis = np.linspace(0.0, tau_max, n)
    t1, t2, t3 = np.meshgrid(axis, axis, axis, indexing="ij")
    taus = np.stack([t1.ravel(), t2.ravel(), t3.ravel()], axis=1)
    rates = u_s * (taus @ a.T)
    dev = np.hypot(rates[:, 0] - u_x, rates[:, 1] - u_y)
    tol = 1.5 * abs(u_s) * gain * step * 1.0001
    mask = dev <= tol
    if not mask.any():
        return None
    cand = taus[mask]
    norms = np.einsum("ij,ij->i", cand, cand)
    return cand[np.argmin(norms)]


def tension_grid_line(u_x, u_y, u_s, theta_e, gain, tau_max, step):
    """Grid minimization swept along the tau_1 axis, exact per slice.

    Exact solutions of the two rate equations form a line in tension
    space with direction (1,1,1). For each grid value of tau_1 the 2x2
    system for (tau_2, tau_3) is solved exactly, so every candidate sits
    on the solution line and the search reduces to a one-dimensional
    grid scan of a convex norm profile: the winning slice is guaranteed
    to lie within one grid step of the continuous minimum, in every
    coordinate (the line has unit slope in each). Rough agreement with
    tension_grid_full at coarse resolution is asserted by a test before
    this is trusted at fine resolution.
    """
    a = _channel_matrix(theta_e, gain)
    target = np.array([u_x, u_y]) / u_s
    sub = a[:, 1:]
    n = int(round(tau_max / step)) + 1
    best = None
    best_norm = math.inf
    for i1 in range(n):
        tau1 = i1 * step
        rest = np.linalg.solve(sub, target - a[:, 0] * tau1)
        if (rest < -1e-9).any() or (rest > tau_max + 1e-9).any():
            continue
        tau = np.array([tau1, *np.clip(rest, 0.0, tau_max)])
        nrm = float(tau @ tau)
        if nrm < best_norm - 1e-15:
            best_norm = nrm
            best = tau
    return best


def refine_minimize(f_batch, lower, upper, points_per_axis=7, rounds=8, shrink=0.4):
    """Global minimization by repeated grid refinement over a box.

    f_batch maps an (M, n) array of points to (M,) values. Each round
    evaluates a full grid on the current box, then shrinks the box
    around the incumbent. Returns (x_best, f_best).
    """
    lower = np.asarray(lower, dtype=float).copy()
    upper = np.asarray(upper, dtype=float).copy()
    lo0 = lower.copy()
    hi0 = upper.copy()
    n = len(lower)
    best_x = None
    best_f = math.inf
    for _ in range(rounds):
        axes = [np.linspace(lower[k], upper[k], points_per_axis) for k in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = f_batch(pts)
        k = int(np.argmin(vals))
        if vals[k] < best_f:
            best_f = float(vals[k])
            best_x = pts[k].copy()
        half = shrink * (upper - lower) / 2.0
        lower = np.clip(best_x - half, lo0, hi0)
        upper = np.clip(best_x + half, lo0, hi0)
    return best_x, best_f


def euler_cost_batch(p0, d0, refs, q, r, ts, inputs_batch):
    """Horizon cost of many candidate input sequences at once.

    Independent Euler-with-renormalization rollout written directly from
    the scalar update equations, broadcast over a batch. inputs_batch has
    shape (M, N, 3); refs has shape (N+1, 3). Returns (M,) costs.
    """
    inputs_batch = np.asarray(inputs_batch, dtype=float)
    m, n_steps, _ = inputs_batch.shape
    refs = np.asarray(refs, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    p = np.broadcast_to(np.asarray(p0, dtype=float), (m, 3)).copy()
    d = np.broadcast_to(np.asarray(d0, dtype=float), (m, 3)).copy()
    cost = np.zeros(m)
    for i in range(n_steps):
        e = p - refs[i]
        cost += (e * e) @ q
        u = inputs_batch[:, i, :]
        cost += (u * u) @ r
        us, ux, uy = u[:, 0], u[:, 1], u[:, 2]
        p = p + ts * us[:, None] * d
        dn = np.empty_like(d)
        dn[:, 0] = d[:, 0] + ts * (-d[:, 2] * uy)
        dn[:, 1] = d[:, 1] + ts * (d[:, 2] * ux)
        dn[:, 2] = d[:, 2] + ts * (d[:, 0] * uy - d[:, 1] * ux)
        d = dn / np.linalg.norm(dn, axis=1, keepdims=True)
    e = p - refs[n_steps]
    cost += (e * e) @ q
    return cost


def helix_point(t, radius, pitch, rate, center, phase, axis="z"):
    """Closed-form helix sample used to cross-check reference generators."""
    ang = rate * t + phase
    circ1 = radius * math.cos(ang)
    circ2 = radius * math.sin(ang)
    axial = pitch * rate * t / (2.0 * math.pi)
    if axis == "z":
        local = (circ1, circ2, axial)
    elif axis == "x":
        local = (axial, circ1, circ2)
    else:
        local = (circ2, axial, circ1)
    return np.asarray(center, dtype=float) + np.array(local)


def gradient_check(objective, x, h_scale=1e-6):
    """Largest relative disagreement between an analytic gradient and
    central differences with per-coordinate step h = h_scale * (1 + |x_i|).

    objective maps a list of floats to (value, gradient), as a BoxNlp
    objective does.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(objective(x.tolist())[1], dtype=float)
    fd = np.empty_like(x)
    for i in range(x.size):
        h = h_scale * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (objective((x + e).tolist())[0] - objective((x - e).tolist())[0]) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(fd))) if fd.size else 0.0)
    return float(np.max(np.abs(g - fd))) / scale


def horizon_cost(s0, inputs, refs, config):
    """Cost of a VirtualInput sequence and its gradient (3N,) from the
    package's own Euler core, ordered (u_s_0, u_x_0, u_y_0, u_s_1, ...).

    Not an oracle: tests that check the core against the equations use
    euler_cost_batch; this lets the others state inputs as VirtualInputs.
    """
    core = _EulerHorizon(s0, np.asarray(refs, dtype=float), config)
    cost, grad = core.value_and_grad([v for u in inputs for v in (u.u_s, u.u_x, u.u_y)])
    return cost, np.array(grad)


def finite_floats_per_entry(value, name, count):
    """errors.finite_floats without its one-pass path: every entry through
    finite_float, then the count."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise InvalidInputError(f"{name} must be a list of numbers, got {value!r}")
    vals = tuple([finite_float(v, name) for v in value])
    if count is not None and len(vals) != count:
        raise InvalidInputError(f"{name} must have shape ({count},), got {len(vals)} entries")
    return vals


def finite_points_per_entry(value, name):
    """errors.finite_points without its one-pass path: every row through
    finite_floats_per_entry."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise InvalidInputError(f"{name} must be a list of [x, y, z] points, got {value!r}")
    return tuple([finite_floats_per_entry(row, name, 3) for row in value])


def estimate_curvature_multipass(points, collinear_rtol=1e-9):
    """mapping._arc_curvature with its points checked entry by entry and
    its passes apart: the in-plane coordinates u and v are projected into
    lists of their own, the Kasa sums run over those lists, and the radius
    over them again."""
    rows = finite_points_per_entry(points, "points")
    n = len(rows)
    if n < 3:
        raise InvalidInputError(f"need at least 3 points of dimension 3, got {n}")
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
    us = [x * ux + y * uy + z * uz - mu for x, y, z in rows]
    vs = [x * vx + y * vy + z * vz - mv for x, y, z in rows]
    suu = suv = svv = suw = svw = 0.0
    for u, v in zip(us, vs):
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
    if math.sqrt(svv) <= collinear_rtol * math.sqrt(suu):
        return 0.0
    ru, rv = 0.5 * suw, 0.5 * svw
    ratio = suv / suu
    cv = (rv - ratio * ru) / (svv - ratio * suv)
    cu = (ru - suv * cv) / suu
    radius = 0.0
    for u, v in zip(us, vs):
        radius += math.hypot(u - cu, v - cv)
    return 1.0 / (radius / n)


def calibrate_per_pair(tensions, curvatures):
    """calibration.calibrate's arithmetic with each (tension, curvature)
    pair checked again as a gain-fit sample: (gain, residual_rms), both
    from correctly rounded sums. Each fault raises the package's exception
    class with calibrate's message."""
    if len(tensions) < 2:
        raise InvalidInputError(f"need at least 2 calibration runs, got {len(tensions)}")
    if len(set(tensions)) < 2:
        raise DegenerateFitError(
            f"calibration needs at least 2 distinct tensions, got {sorted(set(tensions))}"
        )
    pairs = [finite_floats_per_entry(pair, "samples", 2) for pair in zip(tensions, curvatures)]
    if any(t < 0.0 for t, _ in pairs):
        raise InvalidInputError("tensions must be nonnegative")
    try:
        num = math.fsum([t * k for t, k in pairs])
        denom = math.fsum([t * t for t, _ in pairs])
    except (OverflowError, ValueError):  # a partial sum overflowed, or inf - inf
        num = denom = math.inf
    if denom == 0.0:
        raise DegenerateFitError("all tensions are zero; slope through origin is undefined")
    gain = num / denom
    if not (math.isfinite(denom) and math.isfinite(gain)):
        raise InvalidInputError(
            f"samples put sum(tau*kappa) / sum(tau^2) beyond the float range "
            f"(largest tension {max(t for t, _ in pairs)!r} N)"
        )
    if not gain > 0.0:
        raise DegenerateFitError(
            f"the fitted gain must be > 0, got {gain!r}: no run under tension bent"
        )
    residuals = [k - gain * t for t, k in pairs]
    try:
        square_sum = math.fsum([r * r for r in residuals])
    except OverflowError:
        square_sum = math.inf
    if not math.isfinite(square_sum):
        raise InvalidInputError("curvatures put the residual rms beyond the float range")
    return gain, math.sqrt(square_sum / len(pairs))


def spg_run_reference(problem, x0, start=None, steplength=None):
    """One SPG run from x0 (finite floats), as optimizer._solve_from ran it
    with the `moved` flag, ||x||_inf tracked in the post-step pass and the
    accepted evaluation checked before that pass."""
    objective = problem.objective
    lower, upper = problem.lower, problem.upper
    metric = problem.scale or (1.0,) * len(lower)
    gtol = problem.gradient_tolerance
    check = _opt._check_evaluation

    x = [lo if v < lo else (hi if v > hi else v) for v, lo, hi in zip(x0, lower, upper)]
    f, g = objective(x) if start is None else start
    check(f, g, x, 0)
    evaluations, backtracks = 1, 0

    pg_norm = pg_metric = 0.0
    for v, gi, h, lo, hi in zip(x, g, metric, lower, upper):
        if gi > 0.0:
            if v > lo and gi > pg_norm:
                pg_norm = gi
        elif v < hi and -gi > pg_norm:
            pg_norm = -gi
        t = v - gi / h
        a = abs(v - (lo if t < lo else (hi if t > hi else t)))
        if a > pg_metric:
            pg_metric = a
    alpha = min(_opt._ALPHA_MAX, max(_opt._ALPHA_MIN, 1.0 / max(pg_metric, 1e-10)))
    if steplength is not None and steplength < alpha:
        alpha = steplength

    recent = deque((f,), maxlen=_opt._GLL_WINDOW)
    best = (x, f, pg_norm)

    status = _opt.STATUS_MAX_ITER
    stop = _opt.STOP_MAX_ITER
    iteration = 0
    for iteration in range(1, problem.max_iterations + 1):
        if pg_norm <= gtol * (1.0 + abs(f)):
            status, stop = _opt.STATUS_CONVERGED, _opt.STOP_GTOL
            break

        d = []
        trial = []
        gtd = 0.0
        moved = False
        for v, gi, h, lo, hi in zip(x, g, metric, lower, upper):
            t = v - alpha * gi / h
            di = (lo if t < lo else (hi if t > hi else t)) - v
            d.append(di)
            gtd += gi * di
            if di != 0.0:
                moved = True
            t = v + di
            trial.append(lo if t < lo else (hi if t > hi else t))
        if not moved or gtd >= 0.0:
            status = _opt.STATUS_CONVERGED if pg_norm <= math.sqrt(gtol) * (
                1.0 + abs(f)
            ) else _opt.STATUS_STALLED
            stop = _opt.STOP_NO_DESCENT
            break

        lam = 1.0
        f_ref = max(recent)
        floor = _opt._DECREASE_FLOOR * (1.0 + abs(f))
        while True:
            f_new, g_new = objective(trial)
            evaluations += 1
            if math.isfinite(f_new) and f_new <= f_ref + _opt._ARMIJO * lam * gtd:
                break
            backtracks += 1
            if iteration == 1 and math.isfinite(f_new):
                q = -0.5 * lam * lam * gtd / (f_new - f - lam * gtd)
                lam = max(_opt._INTERP_MIN * lam, min(_opt._INTERP_MAX * lam, q))
            else:
                lam *= 0.5
            if lam < _opt._LAMBDA_MIN or -lam * gtd <= floor:
                stop = _opt.STOP_LAMBDA_MIN if lam < _opt._LAMBDA_MIN else _opt.STOP_FLOOR
                trial = None
                break
            trial = []
            for v, di, lo, hi in zip(x, d, lower, upper):
                t = v + lam * di
                trial.append(lo if t < lo else (hi if t > hi else t))
        if trial is None:
            status = _opt.STATUS_STALLED
            break
        check(f_new, g_new, trial, iteration)

        sy = shs = step_norm = pg_norm = x_norm = 0.0
        for v, vn, gi, gn, h, lo, hi in zip(x, trial, g, g_new, metric, lower, upper):
            si = vn - v
            sy += si * (gn - gi)
            shs += h * si * si
            if si < 0.0:
                if -si > step_norm:
                    step_norm = -si
            elif si > step_norm:
                step_norm = si
            if gn > 0.0:
                if vn > lo and gn > pg_norm:
                    pg_norm = gn
            elif vn < hi and -gn > pg_norm:
                pg_norm = -gn
            if vn < 0.0:
                if -vn > x_norm:
                    x_norm = -vn
            elif vn > x_norm:
                x_norm = vn
        alpha = min(_opt._ALPHA_MAX, max(_opt._ALPHA_MIN, shs / sy)) if sy > 0.0 \
            else _opt._ALPHA_MAX
        x, f, g = trial, f_new, g_new
        recent.append(f)
        if f < best[1]:
            best = (x, f, pg_norm)

        if step_norm <= _opt._STEP_TOL * (1.0 + x_norm):
            status = _opt.STATUS_CONVERGED if pg_norm <= gtol * (1.0 + abs(f)) \
                else _opt.STATUS_STALLED
            stop = _opt.STOP_STEP_TOL
            break

    if stop in (_opt.STOP_MAX_ITER, _opt.STOP_FLOOR, _opt.STOP_LAMBDA_MIN):
        x, f, pg_norm = best
    return _opt.MinimizeResult(
        x=tuple(x), value=f, status=status, iterations=iteration,
        projected_gradient_norm=pg_norm, stop=stop, evaluations=evaluations,
        backtracks=backtracks, steplength=alpha,
    )
