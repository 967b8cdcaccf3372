"""Receding-horizon tracking controller for the bilinear needle model.

Each control step minimizes

    J = sum_{i=0..N} (p_i - ref_i)' Q (p_i - ref_i) + sum_{i=0..N-1} u_i' R u_i

over the N inputs of a short horizon, subject to per-channel box bounds.
Predictions use the Euler-discretized model with direction renormalization.

One scalar core serves a solve: `_EulerHorizon.predict` runs the Euler
rollout once over plain Python floats and keeps the positions, directions
and pre-normalization norms. The cost value, its gradient and the predicted
states all read that output. The gradient is accumulated in reverse through
the rollout, renormalization included, so it is exact to roundoff.
`NeedleState` and `VirtualInput` objects appear only at the API boundary.
The first input of the optimized sequence is applied; the shifted remainder
of the flat input vector warm-starts the next step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, NumericalFailureError
# rollout is kept importable as mpc.rollout; perfbench/tracer.py wraps that name
from .kinematics import Array, NeedleState, VirtualInput, rollout  # noqa: F401
from .optimizer import BoxNlp, minimize

STATUS_FAULT = "fault"


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfigError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InvalidConfigError(f"{name} must be finite, got {value!r}")
    return value


def _integer(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _reals(value, name: str, count: int) -> tuple[float, ...]:
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise InvalidConfigError(f"{name} must be a list of {count} numbers, got {value!r}")
    vals = tuple(_real(v, name) for v in value)
    if len(vals) != count:
        raise InvalidConfigError(f"{name} must have {count} entries, got {len(vals)}")
    return vals


def _pair(value, name: str) -> tuple[float, float]:
    lo, hi = _reals(value, name, 2)
    if lo > hi:
        raise InvalidConfigError(f"{name}: lower bound {lo:g} exceeds upper bound {hi:g}")
    return lo, hi


def _triple(value, name: str) -> tuple[float, float, float]:
    vals = _reals(value, name, 3)
    if any(v < 0.0 for v in vals):
        raise InvalidConfigError(f"{name} entries must be finite and nonnegative, got {value}")
    return vals


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, weights and input bounds of the tracking controller.

    planar_mode collapses the u_y bounds to [0, 0] so the tip stays in the
    plane spanned by the initial direction and the u_x bending axis.
    Numeric fields must be numbers, integer fields integers and planar_mode
    a bool; nothing is truncated or coerced.
    """

    ts: float = 0.05                                # control period, s
    horizon: int = 5                                # number of inputs N
    q_weights: tuple[float, float, float] = (100.0, 100.0, 200.0)
    r_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    u_s_bounds: tuple[float, float] = (-1.0, 24.0)  # mm/s
    u_x_bounds: tuple[float, float] = (-5.0, 5.0)   # rad/s
    u_y_bounds: tuple[float, float] = (-5.0, 5.0)   # rad/s
    planar_mode: bool = False
    max_iterations: int = 500
    gradient_tolerance: float = 1e-8
    multi_start: int = 0
    seed: int = 0

    def __post_init__(self):
        ts = _real(self.ts, "ts")
        if ts <= 0.0:
            raise InvalidConfigError(f"ts must be positive and finite, got {self.ts!r}")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "horizon", _integer(self.horizon, "horizon", 1))
        object.__setattr__(self, "q_weights", _triple(self.q_weights, "q_weights"))
        object.__setattr__(self, "r_weights", _triple(self.r_weights, "r_weights"))
        object.__setattr__(self, "u_s_bounds", _pair(self.u_s_bounds, "u_s_bounds"))
        object.__setattr__(self, "u_x_bounds", _pair(self.u_x_bounds, "u_x_bounds"))
        object.__setattr__(self, "u_y_bounds", _pair(self.u_y_bounds, "u_y_bounds"))
        if not isinstance(self.planar_mode, (bool, np.bool_)):
            raise InvalidConfigError(f"planar_mode must be true or false, got {self.planar_mode!r}")
        object.__setattr__(self, "planar_mode", bool(self.planar_mode))
        object.__setattr__(
            self, "max_iterations", _integer(self.max_iterations, "max_iterations", 1)
        )
        gtol = _real(self.gradient_tolerance, "gradient_tolerance")
        if gtol <= 0.0:
            raise InvalidConfigError("gradient_tolerance must be positive")
        object.__setattr__(self, "gradient_tolerance", gtol)
        object.__setattr__(self, "multi_start", _integer(self.multi_start, "multi_start", 0))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))

    def input_bounds(self) -> tuple[Array, Array]:
        """Per-step (lower, upper) bound triples, planar mode applied."""
        u_y = (0.0, 0.0) if self.planar_mode else self.u_y_bounds
        lo = np.array([self.u_s_bounds[0], self.u_x_bounds[0], u_y[0]])
        hi = np.array([self.u_s_bounds[1], self.u_x_bounds[1], u_y[1]])
        return lo, hi

    def horizon_bounds(self) -> tuple[Array, Array]:
        lo, hi = self.input_bounds()
        return np.tile(lo, self.horizon), np.tile(hi, self.horizon)


@dataclass(frozen=True)
class HorizonSolution:
    """Optimized input sequence with its cost and Euler-predicted states.

    input_vector holds the same inputs flattened as
    (u_s_0, u_x_0, u_y_0, u_s_1, ...), read-only; the warm start shifts it.
    predicted_states is rolled out by the solve's scalar core on first
    access, since the control loop itself never reads it.
    """

    inputs: tuple[VirtualInput, ...]
    cost: float
    solver_status: str
    projected_gradient_norm: float = float("nan")
    iterations: int = 0
    input_vector: Array = field(kw_only=True, repr=False, compare=False)
    _core: _EulerHorizon = field(kw_only=True, repr=False, compare=False)

    @cached_property
    def predicted_states(self) -> tuple[NeedleState, ...]:
        """The start state followed by the N predicted states."""
        return self._core.states(self.input_vector.tolist())


def _check_refs(refs, horizon: int) -> Array:
    refs = np.asarray(refs, dtype=float)
    if refs.shape != (horizon + 1, 3):
        raise InvalidInputError(
            f"refs must have shape ({horizon + 1}, 3) for horizon {horizon}, got {refs.shape}"
        )
    if not np.all(np.isfinite(refs)):
        raise InvalidInputError("refs contain non-finite values")
    return refs


class _EulerHorizon:
    """The horizon cost of one solve, over plain Python floats.

    Holds the per-solve constants (start state, flattened references,
    weights). predict() is the only Euler rollout; value(),
    value_and_grad() and states() all read its output. Flat vectors are
    ordered (x_0, y_0, z_0, x_1, ...), three entries per step.
    """

    __slots__ = ("s0", "n", "ts", "p0", "d0", "refs", "q", "r")

    def __init__(self, s0: NeedleState, refs: Array, config: MpcConfig):
        self.s0 = s0
        self.n = config.horizon
        self.ts = config.ts
        self.p0 = s0.p.tolist()
        self.d0 = s0.d.tolist()
        self.refs = refs.ravel().tolist()
        self.q = config.q_weights
        self.r = config.r_weights

    def predict(self, x: list) -> tuple[float, list, list, list]:
        """Roll the flat inputs x out; returns (cost, p, d, norms).

        p and d hold the N+1 positions and directions, flat. norms holds the
        N norms of the raw Euler directions before renormalization.
        """
        ts, refs = self.ts, self.refs
        qx, qy, qz = self.q
        rs, rx, ry = self.r
        px, py, pz = self.p0
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

    def value(self, x: Array) -> float:
        return self.predict(x.tolist())[0]

    def value_and_grad(self, x: Array) -> tuple[float, Array]:
        """Cost and its gradient (3N,), accumulated in reverse."""
        x = x.tolist()
        cost, p, d, norms = self.predict(x)
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
        return cost, np.array(grad)

    def states(self, x: list) -> tuple[NeedleState, ...]:
        """The start state followed by the N predicted states."""
        _, p, d, _ = self.predict(x)
        return (self.s0,) + tuple(
            NeedleState(p=p[k:k + 3], d=d[k:k + 3]) for k in range(3, 3 * self.n + 3, 3)
        )


def horizon_cost(
    s0: NeedleState,
    inputs: Sequence[VirtualInput],
    refs,
    config: MpcConfig,
) -> tuple[float, Array]:
    """Tracking cost of an input sequence and its gradient (3N,).

    The gradient is ordered (u_s_0, u_x_0, u_y_0, u_s_1, ...) and is exact
    through the Euler rollout including direction renormalization.
    """
    if len(inputs) != config.horizon:
        raise InvalidInputError(
            f"expected {config.horizon} inputs for horizon {config.horizon}, got {len(inputs)}"
        )
    core = _EulerHorizon(s0, _check_refs(refs, config.horizon), config)
    x = np.array([v for u in inputs for v in (u.u_s, u.u_x, u.u_y)])
    return core.value_and_grad(x)


def _shift_warm_start(warm: HorizonSolution, horizon: int) -> Array:
    x_prev = warm.input_vector
    if x_prev.size != 3 * horizon:
        raise InvalidInputError(
            f"warm start has {x_prev.size // 3} inputs, expected {horizon}"
        )
    return np.concatenate((x_prev[3:], x_prev[-3:]))


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
    core = _EulerHorizon(s0, _check_refs(refs, n), config)
    lo, hi = config.horizon_bounds()

    problem = BoxNlp(
        dimension=3 * n,
        objective=core.value_and_grad,
        lower=lo,
        upper=hi,
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
        objective_value=core.value,
    )
    x0 = np.zeros(3 * n) if warm_start is None else _shift_warm_start(warm_start, n)

    try:
        res = minimize(problem, np.clip(x0, lo, hi), multi_start=config.multi_start,
                       seed=config.seed)
        x = res.x
        status = res.status
        cost = res.value
        pg = res.projected_gradient_norm
        iterations = res.iterations
    except NumericalFailureError:
        x = np.clip(np.zeros(3 * n), lo, hi)
        cost = core.value(x)
        status = STATUS_FAULT
        pg = float("nan")
        iterations = 0

    x = np.array(x)
    x.setflags(write=False)
    flat = x.tolist()
    return HorizonSolution(
        inputs=tuple(VirtualInput(*flat[k:k + 3]) for k in range(0, 3 * n, 3)),
        cost=cost,
        solver_status=status,
        projected_gradient_norm=pg,
        iterations=iterations,
        input_vector=x,
        _core=core,
    )


class RecedingHorizonController:
    """Solves one horizon per step and holds the warm start between steps.

    One instance drives one control loop; it owns no other mutable state, so
    independent loops can run in parallel with a controller each.
    """

    def __init__(self, config: MpcConfig):
        self.config = config
        self._warm: Optional[HorizonSolution] = None
        self.fault_count = 0

    def reset(self) -> None:
        self._warm = None
        self.fault_count = 0

    def step(self, measured: NeedleState, refs) -> tuple[VirtualInput, HorizonSolution]:
        """Solve from the measured state; returns (applied first input, solution)."""
        solution = solve_horizon(measured, refs, self.config, self._warm)
        if solution.solver_status == STATUS_FAULT:
            self.fault_count += 1
            self._warm = None
        else:
            self._warm = solution
        return solution.inputs[0], solution
