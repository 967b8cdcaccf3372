"""Receding-horizon tracking controller for the bilinear needle model.

Each control step minimizes

    J = sum_{i=0..N} (p_i - ref_i)' Q (p_i - ref_i) + sum_{i=0..N-1} u_i' R u_i

over the N inputs of a short horizon, subject to per-channel box bounds.
Predictions use the Euler-discretized model with direction renormalization.

One scalar core serves a solve: `_EulerHorizon._rollout` runs the Euler
rollout once over plain Python floats and keeps one tuple per stage: the
tracking error, the directions before and after, the pre-normalization
norm and the inputs. It rolls out in the tip-relative frame: the
positions are displacements from the start p_0 and the references are
shifted to ref_i - p_0, so the cost is J exactly but its rounding error
scales with the horizon's travel and tracking error, not with |p_0| (up to
a few hundred mm). Near a target J is tiny, and in absolute coordinates its
rounding noise would sit far above the solver's rounding floor, which
scales with |J|. `_EulerHorizon._reverse` reads that output for the cost
and accumulates the gradient in reverse over the stage tuples,
renormalization included, so it is exact to roundoff. The solver's one
objective, `value_and_grad`, is the two in turn: one rollout per
line-search trial, and no state kept between calls. A solve's start point
is already rolled out when the start is chosen, so its reverse pass alone
gives the solver its start evaluation.
`NeedleState` and `VirtualInput` objects appear only at the API boundary.
The first SPG iteration of a solve backtracks by quadratic interpolation
(see `optimizer`); the solution reports the solver's evaluation count,
backtracks, stop reason and last steplength.
The solver steps in a diagonal metric that `_EulerHorizon.metric` builds
once per solve: the square root of the Gauss-Newton diagonal of J with the
direction frozen at d_0. At T_s = 1 s J's curvature in a stage's bending
rate is hundreds of times its curvature in insertion speed, and one
unit-metric steplength cannot serve both. The solver's stop test reads the
projected gradient, in the cost's units, whatever the metric.
The first input of the optimized sequence is applied, and the whole
sequence warm-starts the next step, from the previous plan held or
shifted by one input (see `solve_horizon` for the rule). The held plan is
turned with the tip's heading. The model steers about frame-fixed axes,
ddot = d x (u_x, u_y, 0), so turning the state, the references and every
stage's (u_x, u_y) about z turns each rollout with them; with q_x = q_y and
r_x = r_y the cost does not change. A solution records the direction it
was solved from, and the next solve turns the held plan's bending rates
by the turn of the heading's horizontal part since then. On a reference
that turns with the tip (the helix) the turned plan starts near the new
optimum, where the unturned one would be learned again. A warm start
carries the solver's last Barzilai-Borwein steplength too, which caps the
next solve's first one. The bounds, iteration cap and tolerance of the
solver's problem are checked once, by `MpcConfig`, and not again per solve;
the config also doubles the weights for the gradient once. A solve's
`HorizonSolution` and the controller's applied `VirtualInput` are built
through `errors._prechecked` from the solver's tuple of floats, without the
constructors' conversion and checks: every entry is a float inside the
config's bounds, which are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    InvalidInputError,
    NumericalFailureError,
    _prechecked,
    check_fields,
    finite_floats,
    finite_points,
    key,
    key_of,
)
from .kinematics import NeedleState, VirtualInput
from .optimizer import STATUS_STALLED, BoxNlp, minimize

# not a rollout, and always None; perfbench/tracer.py wraps that name
rollout = None
STATUS_FAULT = "fault"
MAX_PERIOD_S = 10.0


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, weights and input bounds of the tracking controller.

    planar_mode collapses the u_y bounds to [0, 0] so the tip stays in the
    plane spanned by the initial direction and the u_x bending axis. The
    bounds of the flat input vector and the doubled weights of the
    gradient are built once, as tuples of floats, so the default pickle and
    deepcopy of the frozen dataclass restore them.
    """

    # control period, s; at 10 s one step at the default 24 mm/s covers
    # 240 mm, a whole insertion (the presets use 0.05 s and 1 s)
    ts: float = key("T_s_s", 0.05, gt=0.0, le=MAX_PERIOD_S)
    horizon: int = key("horizon", 5, kind=int, ge=1, le=1000)  # number of inputs N
    q_weights: tuple[float, float, float] = key("q_weights", (100.0, 100.0, 200.0),
                                                kind=tuple, n=3, ge=0.0)
    r_weights: tuple[float, float, float] = key("r_weights", (1.0, 1.0, 1.0),
                                                kind=tuple, n=3, ge=0.0)
    u_s_bounds: tuple[float, float] = key("u_s_bounds_mm_s", (-1.0, 24.0), kind=tuple, n=2)
    u_x_bounds: tuple[float, float] = key("u_x_bounds_rad_s", (-5.0, 5.0), kind=tuple, n=2)
    u_y_bounds: tuple[float, float] = key("u_y_bounds_rad_s", (-5.0, 5.0), kind=tuple, n=2)
    planar_mode: bool = key("planar_mode", False, kind=bool)
    max_iterations: int = key("max_iterations", 500, kind=int, ge=1)
    gradient_tolerance: float = key("gradient_tolerance", 1e-8, gt=0.0, le=1e-4)
    multi_start: int = key("multi_start", 0, kind=int, ge=0)
    seed: int = key("seed", 0, kind=int, ge=0)

    def __post_init__(self):
        check_fields(self)
        for name in ("u_s_bounds", "u_x_bounds", "u_y_bounds"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidInputError(
                    f"{key_of(self, name)}: lower bound {lo:g} exceeds upper bound {hi:g}"
                )
        u_y = (0.0, 0.0) if self.planar_mode else self.u_y_bounds
        lo, hi = zip(self.u_s_bounds, self.u_x_bounds, u_y)
        object.__setattr__(self, "_horizon_bounds", (lo * self.horizon, hi * self.horizon))
        # the doubled weights of the gradient; doubling a float is exact
        object.__setattr__(self, "_q2", tuple(2.0 * w for w in self.q_weights))
        object.__setattr__(self, "_r2", tuple(2.0 * w for w in self.r_weights))

    def horizon_bounds(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Bounds (lower, upper) of the flat 3N-entry input vector, planar
        mode applied: tuples of floats, built once per config."""
        return self._horizon_bounds


@dataclass(frozen=True)
class HorizonSolution:
    """Optimized input sequence with its cost and solver outcome.

    input_vector holds the inputs flat, (u_s_0, u_x_0, u_y_0, u_s_1, ...),
    as a tuple of floats (any sequence of numbers given is converted);
    inputs reads it as VirtualInputs, and the next solve starts from it
    held or shifted.
    stop says why the solver stopped (see `optimizer.MinimizeResult`), or is
    "fault" for the zero-input fallback, whose counts are 0 and whose
    steplength is None: a failed solve returns no result to count from.
    projected_gradient_norm is the solver's stop measure, the projected
    gradient in the cost's units. steplength is the returned run's last
    steplength, which a solve warm-started from this one begins with when
    it is smaller than its own first; None starts from the solver's own.
    start_direction is the tip direction d_0 the solve started from (three
    finite floats), or None: a warm-started solve turns the held plan by
    the heading's turn since then, and None holds it as it is.
    """

    input_vector: tuple[float, ...]
    cost: float
    solver_status: str
    projected_gradient_norm: float = float("nan")
    iterations: int = 0
    stop: str = ""
    evaluations: int = 0
    backtracks: int = 0
    steplength: Optional[float] = None
    start_direction: Optional[tuple[float, float, float]] = None

    def __post_init__(self):
        object.__setattr__(self, "input_vector", tuple(map(float, self.input_vector)))
        if self.start_direction is not None:
            object.__setattr__(self, "start_direction",
                               finite_floats(self.start_direction, "start_direction", 3))

    @property
    def inputs(self) -> tuple[VirtualInput, ...]:
        """input_vector as VirtualInputs; non-finite entries raise InvalidInputError."""
        x = self.input_vector
        return tuple(map(VirtualInput, x[0::3], x[1::3], x[2::3]))


def _check_refs(refs, horizon: int, p0: tuple[float, float, float]) -> list:
    """The N+1 references, checked (three finite numbers each; str, bytes
    and bools refused), as the flat float list of ref_i - p_0."""
    rows = finite_points(refs, "refs")
    if len(rows) != horizon + 1:
        raise InvalidInputError(
            f"refs must have shape ({horizon + 1}, 3) for horizon {horizon}, "
            f"got ({len(rows)}, 3)"
        )
    x0, y0, z0 = p0
    return [v for x, y, z in rows for v in (x - x0, y - y0, z - z0)]


class _EulerHorizon:
    """The horizon cost of one solve, over plain Python floats.

    Holds the per-solve constants (start direction, references, weights).
    Positions are tip-relative: the rollout starts at the origin and the
    references are stored as ref_i - p_0, so the errors p_i - ref_i and the
    cost are the same as in absolute coordinates, with rounding noise that
    no longer grows with |p_0|. _rollout() is the only Euler rollout;
    _reverse() reads its stage tuples, and value_and_grad() is the two.
    Flat vectors are lists ordered (x_0, y_0, z_0, x_1, ...), three entries
    per step. metric() gives the solver's diagonal metric for the solve's
    start point.
    """

    __slots__ = ("n", "ts", "d0", "refs", "q", "r", "q2", "r2")

    def __init__(self, s0: NeedleState, refs, config: MpcConfig):
        self.n = config.horizon
        self.ts = config.ts
        self.d0 = s0.d
        self.refs = _check_refs(refs, self.n, s0.p)
        self.q = config.q_weights
        self.r = config.r_weights
        self.q2 = config._q2
        self.r2 = config._r2

    def _rollout(self, x: list) -> tuple[float, list, tuple]:
        """Roll the flat inputs x out once; returns (cost, stages, terminal).

        stages holds one tuple per stage i < N,

            (e_i, d_i, d_i+1, norm_i, u_i)

        flattened to 13 floats: the error e_i = p_i - ref_i, the directions
        before and after the stage, the norm of the raw Euler direction
        before renormalization and the stage's inputs (u_s, u_x, u_y).
        terminal is e_N, 3 floats.
        """
        ts, refs = self.ts, self.refs
        qx, qy, qz = self.q
        rs, rx, ry = self.r
        px = py = pz = 0.0
        dx, dy, dz = self.d0
        stages = []
        ex, ey, ez = px - refs[0], py - refs[1], pz - refs[2]
        cost = qx * ex * ex + qy * ey * ey + qz * ez * ez
        for k in range(0, 3 * self.n, 3):
            us, ux, uy = x[k], x[k + 1], x[k + 2]
            # raw = d + ts * (d x (u_x, u_y, 0))
            ax = dx - ts * (uy * dz)
            ay = dy + ts * (ux * dz)
            az = dz + ts * (uy * dx - ux * dy)
            nrm = math.sqrt(ax * ax + ay * ay + az * az)
            nx, ny, nz = ax / nrm, ay / nrm, az / nrm
            stages.append((ex, ey, ez, dx, dy, dz, nx, ny, nz, nrm, us, ux, uy))
            step = ts * us
            px += step * dx
            py += step * dy
            pz += step * dz
            dx, dy, dz = nx, ny, nz
            ex, ey, ez = px - refs[k + 3], py - refs[k + 4], pz - refs[k + 5]
            cost += rs * us * us + rx * ux * ux + ry * uy * uy
            cost += qx * ex * ex + qy * ey * ey + qz * ez * ez
        return cost, stages, (ex, ey, ez)

    def metric(self, x0) -> Optional[tuple[float, ...]]:
        """The solver's diagonal metric at the start point x0 (3N floats):
        the square roots of the Gauss-Newton diagonal of J, with every
        direction frozen at d_0 and the stage speeds u_s,j read from x0.

            h(u_s,i) = 2 r_s + 2 T_s^2 (N - i) sum_a q_a d_0a^2
            h(u_x,i) = 2 r_x + 2 T_s^4 (q_y d_0z^2 + q_z d_0y^2) sum_k S_ik^2
            h(u_y,i) = 2 r_y + 2 T_s^4 (q_x d_0z^2 + q_z d_0x^2) sum_k S_ik^2

        with S_ik = u_s,i+1 + ... + u_s,k summed over k = i+1 .. N-1: a bend
        at stage i moves p_k+1 by T_s^2 S_ik times the rotated direction.
        A zero entry (a zero weight on an input the horizon cannot see)
        takes the smallest positive one. None, the identity, when an entry
        is not finite or none is positive.
        """
        n, ts = self.n, self.ts
        dx, dy, dz = self.d0
        qx, qy, qz = self.q
        rs, rx, ry = self.r2
        # each Jacobian entry is formed and squared before it is weighted,
        # so a square that rounds into the subnormals is not scaled up by
        # T_s or S_ik afterwards
        sx, sy, sz = dx * ts, dy * ts, dz * ts      # d p_k / d u_s,i
        cx, cy, cz = sx * ts, sy * ts, sz * ts      # T_s^2 d_0
        h_s = sx * sx * qx + sy * sy * qy + sz * sz * qz
        us = x0[0::3]
        diag = []
        for i in range(n):
            s = h_x = h_y = 0.0
            for u in us[i + 1:]:
                s += u
                jx, jy, jz = cx * s, cy * s, cz * s
                zz = jz * jz
                h_x += zz * qy + jy * jy * qz
                h_y += zz * qx + jx * jx * qz
            diag += (rs + 2.0 * (n - i) * h_s, rx + 2.0 * h_x, ry + 2.0 * h_y)
        if not all(map(math.isfinite, diag)):
            return None
        if not min(diag) > 0.0:
            smallest = min((h for h in diag if h > 0.0), default=0.0)
            if smallest == 0.0:
                return None
            diag = [h if h > 0.0 else smallest for h in diag]
        return tuple(map(math.sqrt, diag))

    def value_and_grad(self, x: list) -> tuple[float, list]:
        """Cost and its gradient (3N floats) at x, by one rollout."""
        return self._reverse(self._rollout(x))

    def _reverse(self, rollout: tuple) -> tuple[float, list]:
        """Cost and its gradient (3N floats) from the output of _rollout(),
        the gradient accumulated in reverse over its stages."""
        cost, stages, (ex, ey, ez) = rollout
        ts = self.ts
        qx, qy, qz = self.q2
        rs, rx, ry = self.r2
        # adjoints of p_i and d_i, seeded at the terminal error
        lpx, lpy, lpz = qx * ex, qy * ey, qz * ez
        ldx = ldy = ldz = 0.0
        grad = []   # built last stage first, (u_y, u_x, u_s) each, then reversed
        for ex, ey, ez, dx, dy, dz, nx, ny, nz, nrm, us, ux, uy in reversed(stages):
            # d_{i+1} = raw / ||raw||, raw = (I + ts*K) d_i with skew K
            c = nx * ldx + ny * ldy + nz * ldz
            lrx = (ldx - c * nx) / nrm
            lry = (ldy - c * ny) / nrm
            lrz = (ldz - c * nz) / nrm
            grad += (
                ts * (dx * lrz - dz * lrx) + ry * uy,
                ts * (dz * lry - dy * lrz) + rx * ux,
                # p_{i+1} = p_i + ts*us*d_i
                ts * (dx * lpx + dy * lpy + dz * lpz) + rs * us,
            )
            step = ts * us
            # (I + ts*K)' = I - ts*K
            ldx = step * lpx + lrx + ts * (uy * lrz)
            ldy = step * lpy + lry - ts * (ux * lrz)
            ldz = step * lpz + lrz - ts * (uy * lrx - ux * lry)
            lpx += qx * ex
            lpy += qy * ey
            lpz += qz * ez
        grad.reverse()
        return cost, grad


def _shift_warm_start(warm: HorizonSolution, horizon: int) -> tuple[float, ...]:
    x_prev = warm.input_vector
    if len(x_prev) != 3 * horizon:
        raise InvalidInputError(
            f"warm start has {len(x_prev) // 3} inputs, expected {horizon}"
        )
    return x_prev[3:] + x_prev[-3:]


def _turned_plan(warm: HorizonSolution, d0, config: MpcConfig) -> tuple[float, ...]:
    """warm's plan with each stage's bending rates (u_x, u_y) turned about z
    by the angle from the horizontal part of warm.start_direction to that
    of d0: the model and, with q_x = q_y and r_x = r_y, the cost do not
    change under that turn. The plan is held as it is without a start
    direction, in planar mode (u_y is pinned to 0) or when either
    horizontal part is zero or the angle is."""
    x = warm.input_vector
    d_prev = warm.start_direction
    if d_prev is None or config.planar_mode:
        return x
    if (d_prev[0] == 0.0 and d_prev[1] == 0.0) or (d0[0] == 0.0 and d0[1] == 0.0):
        return x
    angle = math.atan2(d0[1], d0[0]) - math.atan2(d_prev[1], d_prev[0])
    if angle == 0.0:
        return x
    c, s = math.cos(angle), math.sin(angle)
    turned = list(x)
    for k in range(1, len(x), 3):
        ux, uy = x[k], x[k + 1]
        turned[k] = c * ux - s * uy
        turned[k + 1] = s * ux + c * uy
    return tuple(turned)


def _project(x, lo, hi) -> tuple[float, ...]:
    return tuple([a if v < a else (b if v > b else v) for v, a, b in zip(x, lo, hi)])


def _minimize_from(core: _EulerHorizon, x0: tuple, rollout: tuple, steplength,
                   config: MpcConfig):
    """One solve of the horizon from x0, a point in the bounds that
    rollout is the rollout of, in the metric built at x0. The config
    checked the bounds, the iteration cap and the tolerance; metric()
    returns finite positive floats or None."""
    lo, hi = config.horizon_bounds()
    problem = BoxNlp._prechecked(
        objective=core.value_and_grad,
        lower=lo,
        upper=hi,
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
        scale=core.metric(x0),
    )
    return minimize(problem, x0, multi_start=config.multi_start, seed=config.seed,
                    start=core._reverse(rollout), steplength=steplength)


def solve_horizon(
    s0: NeedleState,
    refs,
    config: MpcConfig,
    warm_start: Optional[HorizonSolution] = None,
) -> HorizonSolution:
    """Optimize the input sequence for one horizon.

    Without a warm start the solve starts from zero inputs, projected into
    the bounds. With one it costs two candidates, each projected into the
    bounds, by one rollout each: the shifted previous solution (last input
    repeated) and the previous solution held, each stage's (u_x, u_y)
    turned about z by the angle from the horizontal part of
    warm_start.start_direction to that of s0.d. The held plan is not turned
    when the warm start has no start direction, when either horizontal part
    is zero (no heading to turn from or to) or in planar mode, where u_y is
    pinned to 0. The solve starts from the held plan only when that is
    strictly cheaper, and otherwise from the shifted one. A solve from the
    held plan that ends stalled is run again from the shifted plan, and
    that second run is returned, with the evaluations and backtracks of
    both. The turn changes only the held candidate, which must win on cost
    to be used, so the returned cost never exceeds the shifted candidate's
    cost, and it does not exceed the held candidate's cost unless the held
    run stalled. A numerical failure
    inside the solver falls back to zero input and is reported via
    solver_status = "fault" instead of raising.

    A warm start carries its plan and its steplength: the run from the
    first start begins at the smaller of warm_start.steplength and the
    solver's own first steplength. The fallback run from the shifted plan,
    multi_start's random starts and a warm start whose steplength is None
    begin at the solver's own. Each run's start evaluation is the reverse
    pass of its start's rollout, counted as one evaluation.
    """
    n = config.horizon
    core = _EulerHorizon(s0, refs, config)
    lo, hi = config.horizon_bounds()
    if warm_start is None:
        zero = _project((0.0,) * (3 * n), lo, hi)
        runs = [(zero, core._rollout(zero), None)]
    else:
        shifted = _project(_shift_warm_start(warm_start, n), lo, hi)
        held = _project(_turned_plan(warm_start, s0.d, config), lo, hi)
        shifted_rollout, held_rollout = core._rollout(shifted), core._rollout(held)
        carried = warm_start.steplength
        if held_rollout[0] < shifted_rollout[0]:
            runs = [(held, held_rollout, carried), (shifted, shifted_rollout, None)]
        else:
            runs = [(shifted, shifted_rollout, carried)]

    try:
        res = _minimize_from(core, *runs[0], config)
        if len(runs) == 2 and res.status == STATUS_STALLED:
            again = _minimize_from(core, *runs[1], config)
            again.evaluations += res.evaluations
            again.backtracks += res.backtracks
            res = again
    except NumericalFailureError:
        x = _project((0.0,) * (3 * n), lo, hi)   # zero input, projected
        return HorizonSolution(
            x, cost=core._rollout(x)[0], solver_status=STATUS_FAULT, stop=STATUS_FAULT,
        )

    # res.x is already a tuple of floats, the form the constructor leaves
    return _prechecked(
        HorizonSolution,
        input_vector=res.x,
        cost=res.value,
        solver_status=res.status,
        projected_gradient_norm=res.projected_gradient_norm,
        iterations=res.iterations,
        stop=res.stop,
        evaluations=res.evaluations,
        backtracks=res.backtracks,
        steplength=res.steplength,
        start_direction=s0.d,
    )


class RecedingHorizonController:
    """Solves one horizon per step and holds the warm start between steps.

    One instance drives one control loop; it owns no other mutable state, so
    independent loops can run in parallel with a controller each.
    """

    def __init__(self, config: MpcConfig):
        self.config = config
        self._warm: Optional[HorizonSolution] = None

    def step(self, measured: NeedleState, refs) -> tuple[VirtualInput, HorizonSolution]:
        """Solve from the measured state; returns (applied first input, solution)."""
        solution = solve_horizon(measured, refs, self.config, self._warm)
        self._warm = None if solution.solver_status == STATUS_FAULT else solution
        # every entry lies in the config's finite bounds, as floats
        u_s, u_x, u_y = solution.input_vector[:3]
        return _prechecked(VirtualInput, u_s=u_s, u_x=u_x, u_y=u_y), solution
