"""Receding-horizon tracking controller for the bilinear needle model.

Each control step minimizes

    J = sum_{i=0..N} (p_i - ref_i)' Q (p_i - ref_i) + sum_{i=0..N-1} u_i' R u_i

over the N inputs of a short horizon, subject to per-channel box bounds.
Predictions use the Euler-discretized model with direction renormalization.

One scalar core serves a solve: `_EulerHorizon.predict` runs the Euler
rollout once over plain Python floats and keeps the positions, directions
and pre-normalization norms. It rolls out in the tip-relative frame: the
positions are displacements from the start p_0 and the references are
shifted to ref_i - p_0, so the cost is J exactly but its rounding error
scales with the horizon's travel and tracking error, not with |p_0| (up to
a few hundred mm). Near a target J is tiny, and in absolute coordinates its
rounding noise would sit far above the solver's rounding floor, which
scales with |J|. The cost value and its gradient both read that output.
The gradient is accumulated in reverse through the rollout,
renormalization included, so it is exact to roundoff. The optimizer passes
points as lists of floats and accepts the point its line search evaluated
last, so the core keeps that rollout and computes the gradient there without
rolling out again: one rollout per accepted iterate.
`NeedleState` and `VirtualInput` objects appear only at the API boundary.
The first SPG iteration of a solve backtracks by quadratic interpolation
(see `optimizer`); the solution reports the solver's evaluation counts and
stop reason.
The first input of the optimized sequence is applied; the shifted remainder
of the flat input vector warm-starts the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NumericalFailureError,
    check_fields,
    key,
    key_of,
)
# rollout is kept importable as mpc.rollout; perfbench/tracer.py wraps that name
from .kinematics import NeedleState, VirtualInput, rollout  # noqa: F401
from .optimizer import BoxNlp, minimize

STATUS_FAULT = "fault"


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, weights and input bounds of the tracking controller.

    planar_mode collapses the u_y bounds to [0, 0] so the tip stays in the
    plane spanned by the initial direction and the u_x bending axis. The
    bounds of the flat input vector are built once, as tuples of floats, so
    the default pickle and deepcopy of the frozen dataclass restore them.
    """

    ts: float = key("T_s_s", 0.05, gt=0.0)            # control period, s
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
    gradient_tolerance: float = key("gradient_tolerance", 1e-8, gt=0.0)
    multi_start: int = key("multi_start", 0, kind=int, ge=0)
    seed: int = key("seed", 0, kind=int, ge=0)

    def __post_init__(self):
        check_fields(self)
        for name in ("u_s_bounds", "u_x_bounds", "u_y_bounds"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidConfigError(
                    f"{key_of(self, name)}: lower bound {lo:g} exceeds upper bound {hi:g}"
                )
        u_y = (0.0, 0.0) if self.planar_mode else self.u_y_bounds
        lo, hi = zip(self.u_s_bounds, self.u_x_bounds, u_y)
        object.__setattr__(self, "_horizon_bounds", (lo * self.horizon, hi * self.horizon))

    def horizon_bounds(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Bounds (lower, upper) of the flat 3N-entry input vector, planar
        mode applied: tuples of floats, built once per config."""
        return self._horizon_bounds


@dataclass(frozen=True)
class HorizonSolution:
    """Optimized input sequence with its cost and solver outcome.

    input_vector holds the inputs flat, (u_s_0, u_x_0, u_y_0, u_s_1, ...),
    as a tuple of floats (any sequence of numbers given is converted);
    inputs reads it as VirtualInputs and the warm start shifts it.
    stop says why the solver stopped (see `optimizer.MinimizeResult`), or is
    "fault" for the zero-input fallback, whose counts are 0: a failed solve
    returns no result to count from.
    """

    input_vector: tuple[float, ...]
    cost: float
    solver_status: str
    projected_gradient_norm: float = float("nan")
    iterations: int = 0
    stop: str = ""
    value_evals: int = 0
    grad_evals: int = 0
    backtracks: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_vector", tuple(map(float, self.input_vector)))

    @property
    def inputs(self) -> tuple[VirtualInput, ...]:
        """input_vector as VirtualInputs; non-finite entries raise InvalidInputError."""
        x = self.input_vector
        return tuple(map(VirtualInput, x[0::3], x[1::3], x[2::3]))


def _check_refs(refs, horizon: int, p0: tuple[float, float, float]) -> list:
    """The (N+1, 3) references, checked, as the flat float list of ref_i - p_0."""
    refs = np.asarray(refs, dtype=float)
    if refs.shape != (horizon + 1, 3):
        raise InvalidInputError(
            f"refs must have shape ({horizon + 1}, 3) for horizon {horizon}, got {refs.shape}"
        )
    if not np.all(np.isfinite(refs)):
        raise InvalidInputError("refs contain non-finite values")
    return (refs - p0).ravel().tolist()


class _EulerHorizon:
    """The horizon cost of one solve, over plain Python floats.

    Holds the per-solve constants (start direction, references, weights).
    Positions are tip-relative: the rollout starts at the origin and the
    references are stored as ref_i - p_0, so predict() returns the
    displacements p_i - p_0 and the cost is the same J as in absolute
    coordinates, with rounding noise that no longer grows with |p_0|.
    predict() is the only Euler rollout; value() and value_and_grad() both
    read its output. Flat vectors are lists ordered (x_0, y_0, z_0, x_1,
    ...), three entries per step.

    value() keeps the last point it evaluated with its rollout, and
    value_and_grad() at an equal point (== on the lists) reads that rollout
    instead of predicting again. The optimizer accepts the point its line
    search evaluated last, so each accepted iterate costs one rollout.
    """

    __slots__ = ("n", "ts", "d0", "refs", "q", "r", "_last_x", "_last")

    def __init__(self, s0: NeedleState, refs, config: MpcConfig):
        self.n = config.horizon
        self.ts = config.ts
        self.d0 = s0.d
        self.refs = _check_refs(refs, self.n, s0.p)
        self.q = config.q_weights
        self.r = config.r_weights
        self._last_x = self._last = None

    def predict(self, x: list) -> tuple[float, list, list, list]:
        """Roll the flat inputs x out; returns (cost, p, d, norms).

        p and d hold the N+1 displacements p_i - p_0 and directions, flat.
        norms holds the N norms of the raw Euler directions before
        renormalization.
        """
        ts, refs = self.ts, self.refs
        qx, qy, qz = self.q
        rs, rx, ry = self.r
        px = py = pz = 0.0
        dx, dy, dz = self.d0
        p = [px, py, pz]
        d = [dx, dy, dz]
        norms = []
        ex, ey, ez = px - refs[0], py - refs[1], pz - refs[2]
        cost = qx * ex * ex + qy * ey * ey + qz * ez * ez
        for k in range(0, 3 * self.n, 3):
            us, ux, uy = x[k], x[k + 1], x[k + 2]
            step = ts * us
            px += step * dx
            py += step * dy
            pz += step * dz
            # raw = d + ts * (d x (u_x, u_y, 0))
            ax = dx - ts * (uy * dz)
            ay = dy + ts * (ux * dz)
            az = dz + ts * (uy * dx - ux * dy)
            nrm = math.sqrt(ax * ax + ay * ay + az * az)
            dx, dy, dz = ax / nrm, ay / nrm, az / nrm
            p += (px, py, pz)
            d += (dx, dy, dz)
            norms.append(nrm)
            ex, ey, ez = px - refs[k + 3], py - refs[k + 4], pz - refs[k + 5]
            cost += rs * us * us + rx * ux * ux + ry * uy * uy
            cost += qx * ex * ex + qy * ey * ey + qz * ez * ez
        return cost, p, d, norms

    def value(self, x: list) -> float:
        rolled = self.predict(x)
        self._last_x, self._last = list(x), rolled
        return rolled[0]

    def value_and_grad(self, x: list) -> tuple[float, list]:
        """Cost and its gradient (3N floats), accumulated in reverse."""
        cost, p, d, norms = self._last if x == self._last_x else self.predict(x)
        ts, refs = self.ts, self.refs
        qx, qy, qz = (2.0 * w for w in self.q)
        rs, rx, ry = (2.0 * w for w in self.r)
        grad = [0.0] * (3 * self.n)
        k = 3 * self.n
        # adjoints of p_i and d_i, seeded at the terminal error
        lpx = qx * (p[k] - refs[k])
        lpy = qy * (p[k + 1] - refs[k + 1])
        lpz = qz * (p[k + 2] - refs[k + 2])
        ldx = ldy = ldz = 0.0
        for i in range(self.n - 1, -1, -1):
            k = 3 * i
            us, ux, uy = x[k], x[k + 1], x[k + 2]
            dx, dy, dz = d[k], d[k + 1], d[k + 2]
            nx, ny, nz = d[k + 3], d[k + 4], d[k + 5]
            # p_{i+1} = p_i + ts*us*d_i
            grad[k] = ts * (dx * lpx + dy * lpy + dz * lpz) + rs * us
            # d_{i+1} = raw / ||raw||, raw = (I + ts*K) d_i with skew K
            c = nx * ldx + ny * ldy + nz * ldz
            nrm = norms[i]
            lrx = (ldx - c * nx) / nrm
            lry = (ldy - c * ny) / nrm
            lrz = (ldz - c * nz) / nrm
            grad[k + 1] = ts * (dz * lry - dy * lrz) + rx * ux
            grad[k + 2] = ts * (dx * lrz - dz * lrx) + ry * uy
            step = ts * us
            # (I + ts*K)' = I - ts*K
            ldx = step * lpx + lrx + ts * (uy * lrz)
            ldy = step * lpy + lry - ts * (ux * lrz)
            ldz = step * lpz + lrz - ts * (uy * lrx - ux * lry)
            lpx += qx * (p[k] - refs[k])
            lpy += qy * (p[k + 1] - refs[k + 1])
            lpz += qz * (p[k + 2] - refs[k + 2])
        return cost, grad


def _shift_warm_start(warm: HorizonSolution, horizon: int) -> tuple[float, ...]:
    x_prev = warm.input_vector
    if len(x_prev) != 3 * horizon:
        raise InvalidInputError(
            f"warm start has {len(x_prev) // 3} inputs, expected {horizon}"
        )
    return x_prev[3:] + x_prev[-3:]


def solve_horizon(
    s0: NeedleState,
    refs,
    config: MpcConfig,
    warm_start: Optional[HorizonSolution] = None,
) -> HorizonSolution:
    """Optimize the input sequence for one horizon.

    The start point is the shifted previous solution (last input repeated)
    when given, otherwise zero inputs; either way it is projected into the
    bounds first, so the returned cost never exceeds the warm-start cost. A
    numerical failure inside the solver falls back to zero input and is
    reported via solver_status = "fault" instead of raising.
    """
    n = config.horizon
    core = _EulerHorizon(s0, refs, config)
    lo, hi = config.horizon_bounds()

    problem = BoxNlp(
        objective=core.value_and_grad,
        lower=lo,
        upper=hi,
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
        objective_value=core.value,
    )
    x0 = (0.0,) * (3 * n) if warm_start is None else _shift_warm_start(warm_start, n)

    try:
        res = minimize(problem, x0, multi_start=config.multi_start, seed=config.seed)
    except NumericalFailureError:
        x = [min(max(0.0, a), b) for a, b in zip(lo, hi)]   # zero input, projected
        return HorizonSolution(
            x, cost=core.value(x), solver_status=STATUS_FAULT, stop=STATUS_FAULT,
        )

    return HorizonSolution(
        res.x,
        cost=res.value,
        solver_status=res.status,
        projected_gradient_norm=res.projected_gradient_norm,
        iterations=res.iterations,
        stop=res.stop,
        value_evals=res.value_evals,
        grad_evals=res.grad_evals,
        backtracks=res.backtracks,
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
        return VirtualInput(*solution.input_vector[:3]), solution
