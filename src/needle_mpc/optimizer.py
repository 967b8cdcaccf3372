"""Box-constrained smooth minimization via spectral projected gradient.

Iterates x+ = x + lam * (P(x - alpha*g/h) - x) with P the box projection,
h a fixed positive diagonal metric (the problem's `scale`, the identity by
default), alpha a safeguarded Barzilai-Borwein steplength in that metric,
alpha = sum(h*s*s) / sum(s*y) (a one-pair curvature estimate refreshed
every iteration), and lam from a nonmonotone Armijo backtracking line
search: a trial passes when

    f(trial) <= max(last 10 accepted values) + 1e-4 * lam * g'd,

the test of Grippo, Lampariello and Lucidi (SIAM J. Numer. Anal. 1986)
with the window of Birgin, Martinez and Raydan's SPG (SIAM J. Optim.
2000). Barzilai-Borwein steps raise f now and then, and a monotone test
(a window of 1) rejects them. Every evaluated point, line-search trials
included, is projected into the box. No accepted value exceeds f(x0), as
the window's largest value never does. A run returns the point that passed
its stop test when it stops on gtol, no_descent or step_tol, and otherwise
(max_iter, floor, lambda_min) its lowest accepted point, with that point's
projected-gradient norm; so a run cut by its iteration budget returns the
lowest value that budget reached.

Convergence is declared when the projected gradient, g zeroed where x
sits on a bound and -g points out of the box, has an inf-norm at most
gradient_tolerance * (1 + |f|). Both sides scale with f, so scaling f
leaves the test as it is once |f| >> 1; the unit step ||x - P(x - g)||_inf
would not, as it never exceeds the box width. A run also stops (step_tol)
once an accepted step has an inf-norm at most 1e-12 * (1 + ||x||_inf), a
constant; it is converged if the gradient test holds there, and stalled
otherwise. The metric changes the steps only: the stop tests ignore h. A
metric that follows the objective's curvature, entry by entry, lets one
steplength serve variables whose curvatures differ by orders of magnitude
(scaled gradient projection: Bonettini, Zanella and Zanni, Inverse Problems
2009).
Under the identity every division by h and product with it is exact, so a
problem without a scale runs the unscaled method bit for bit.

A run's first steplength is alpha_0 = 1/||x - P(x - g/h)||_inf, the
inverse of the unit step in the metric, which knows nothing of the
problem's scale. A run that warm-starts from an earlier solve's plan may
be given that solve's last steplength, the Barzilai-Borwein value it would
have stepped with next and so a measure of the scale; the run then begins
at min(alpha_0, carried). The min keeps a long step carried from a flatter
problem from overshooting this one: the carried value alone raised the
stalled and max_iter solves of planar_slow's noise sweep. A run without a
carried steplength, the random starts of multi_start included, begins at
alpha_0.

The backtracking halves lam until a trial passes the Armijo test, except in
the first iteration of a solve. There the first steplength may not fit the
problem's scale, so a rejected trial sets lam to the minimizer of the
quadratic through f, g'd and the trial value,

    lam <- -lam^2 g'd / (2 (f(lam) - f - lam g'd)),

clamped to [1e-3 lam, lam/2] (the safeguarded interpolation of SPG2,
Birgin, Martinez and Raydan, SIAM J. Optim. 2000). From iteration 2 on the
BB steplength carries the scale and halving wastes fewer trials than
interpolation. In the first iteration the window holds f(x0) alone, so the
test there is the monotone one. The search gives up, and the solve returns
its lowest accepted point as stalled, once the next trial's predicted
decrease lam * |g'd| is at most eps/10 * (1 + |f|), f the current value
and eps the machine epsilon: such a trial can only round back to f, so
backtracking further spends evaluations for nothing (the rounding stop of
More and Thuente, ACM TOMS 1994). The floor sits at eps/10 rather than eps
because the trials between the two still reach the minimizer of badly
scaled problems; lam < 1e-14 stays as the guard against non-finite trials.

Each line-search trial is one objective call for value and gradient. A
trial whose value is not finite or fails the test is rejected, its gradient
unread; the accepted trial's gradient, checked finite, is the next
iteration's. One post-step pass over the accepted trial forms s'y and
s'Hs for the next steplength, the step's inf-norm and the new projected
gradient. The accepted value passed the line search finite. A gradient
list of the right length is checked finite through s'y, which any
non-finite entry makes non-finite; only then is every entry checked, for
the message. A gradient of another type (a numpy array, say) or length is
checked before the pass. ||x||_inf, which only the step_tol test reads, is
formed only for a step of at most 1e-12 * (1 + the largest |bound|): every
point lies in the box, so no longer step can pass that test. A direction
that is zero in every entry has g'd = +0.0, and the g'd >= 0 test alone
ends the run as no_descent. A result records why its run stopped (`stop`: gtol,
no_descent, floor, lambda_min, step_tol or max_iter), its objective calls
(`evaluations`) and its rejected trials (`backtracks`). A caller that has
already evaluated the start point may hand that evaluation to the run in
place of its first objective call; it is checked and counted as one.

The iteration runs over plain Python floats: at the problem sizes of a
control horizon (a few dozen variables) per-element interpreter work is
cheaper than the fixed cost of numpy calls. The bounds and the returned
point are therefore tuples of floats, and the objective receives list[float]
points. The lam = 1 trial is built in the pass that builds the direction;
only a backtrack builds another.
"""

from __future__ import annotations

import math
import numbers
import random
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import InvalidInputError, NumericalFailureError, _prechecked, finite_floats

_ALPHA_MIN = 1e-12
_ALPHA_MAX = 1e10
_ARMIJO = 1e-4
_GLL_WINDOW = 10   # a trial is tested against the largest of this many accepted values
_LAMBDA_MIN = 1e-14
_STEP_TOL = 1e-12  # step_tol: a step of at most this times 1 + ||x||_inf
# a trial whose predicted decrease lam*|g'd| is at most this times 1 + |f|
# cannot show in f; the module docstring says why eps/10
_DECREASE_FLOOR = sys.float_info.epsilon / 10.0

_INTERP_MIN = 1e-3    # the first-iteration interpolation keeps lam in
_INTERP_MAX = 0.5     # [_INTERP_MIN * lam, _INTERP_MAX * lam]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_STALLED = "stalled"

# why a run stopped; gtol and step_tol test the tolerances, no_descent a
# projection arc without descent, floor and lambda_min end a line search
STOP_GTOL = "gtol"
STOP_NO_DESCENT = "no_descent"
STOP_FLOOR = "floor"
STOP_LAMBDA_MIN = "lambda_min"
STOP_STEP_TOL = "step_tol"
STOP_MAX_ITER = "max_iter"


@dataclass
class BoxNlp:
    """A smooth objective with elementwise bounds.

    objective maps a point, a list of n floats inside the bounds, to
    (value, gradient), the gradient a sequence of n floats. The solver
    reads it when a solve starts and calls it once per line-search trial.

    lower and upper may be any sequences of numbers. They are checked once,
    here, and kept as tuples of floats, whose length n is the dimension and
    which every solve reads; they must not change after construction.

    scale, when given, is the solver's diagonal metric h: n finite positive
    numbers, checked once and kept as a tuple of floats. The steps run in
    it (see the module docstring); the stop tests do not. None is the
    identity.
    """

    objective: Callable[[list], tuple[float, Sequence[float]]]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    max_iterations: int = 500
    gradient_tolerance: float = 1e-8   # scaled by 1 + |f|
    scale: Optional[tuple[float, ...]] = None
    # not a field, and always None; perfbench/tracer.py reads that name
    objective_value = None

    def __post_init__(self):
        lower, upper = _bounds(self.lower), _bounds(self.upper)
        if not lower or len(lower) != len(upper):
            raise InvalidInputError(
                f"bounds must have equal lengths of at least 1, got {len(lower)} and {len(upper)}"
            )
        if any(map(math.isnan, lower + upper)):
            raise InvalidInputError("bounds contain NaN")
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            if lo > hi:
                raise InvalidInputError(
                    f"lower bound exceeds upper bound at index {i}: {lo} > {hi}"
                )
        if self.max_iterations < 1:
            raise InvalidInputError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.gradient_tolerance > 0.0:
            raise InvalidInputError("gradient_tolerance must be positive")
        if self.scale is not None:
            self.scale = finite_floats(self.scale, "scale", len(lower))
            if not all(h > 0.0 for h in self.scale):
                raise InvalidInputError("scale must be positive")
        self.lower, self.upper = lower, upper

    @classmethod
    def _prechecked(cls, objective, lower, upper, max_iterations, gradient_tolerance,
                    scale) -> BoxNlp:
        """A BoxNlp from fields that hold what __post_init__ would leave:
        bounds and scale as tuples of floats that pass its checks. Built
        without checking them again, for a caller that checked them once
        (mpc builds one per solve from an MpcConfig)."""
        return _prechecked(
            cls, objective=objective, lower=lower, upper=upper, max_iterations=max_iterations,
            gradient_tolerance=gradient_tolerance, scale=scale,
        )


def _bounds(values) -> tuple[float, ...]:
    """values as a tuple of floats, inf included; str, bytes and bools are refused."""
    if type(values) is tuple and all(type(v) is float for v in values):
        return values  # a solve's own bounds, the common case
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise InvalidInputError("bounds must hold numbers only")
    vals = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):  # numpy bools are not Real
            raise InvalidInputError("bounds must hold numbers only")
        try:
            vals.append(float(v))
        except OverflowError:  # an integer beyond the float range
            vals.append(math.inf if v > 0 else -math.inf)
    return tuple(vals)


@dataclass
class MinimizeResult:
    """The returned point, a tuple of floats, and how the solve got there.

    x is the point that passed the stop test when stop is gtol, no_descent
    or step_tol, and the lowest accepted point of the run when stop is
    max_iter, floor or lambda_min; value and projected_gradient_norm are
    that point's. iterations, stop and steplength describe the run that
    found x, steplength being the one its next iteration would have taken;
    evaluations (objective calls) and backtracks (rejected trials) total
    every run of a multi-start solve.
    """

    x: tuple[float, ...]
    value: float
    status: str
    iterations: int = 0
    projected_gradient_norm: float = float("nan")
    stop: str = STOP_MAX_ITER
    evaluations: int = 0
    backtracks: int = 0
    steplength: Optional[float] = None


def _check_evaluation(f: float, g: Sequence[float], x: list, iteration: int) -> None:
    if len(g) != len(x):
        raise InvalidInputError(
            f"objective returned a gradient of length {len(g)}, expected {len(x)}"
        )
    if not (math.isfinite(f) and all(map(math.isfinite, g))):
        raise NumericalFailureError(
            f"objective returned non-finite value or gradient at iteration {iteration}, x={x}"
        )


def _solve_from(problem: BoxNlp, x0, start=None, steplength=None) -> MinimizeResult:
    """One SPG run from x0; start and steplength as in minimize."""
    objective = problem.objective
    lower, upper = problem.lower, problem.upper
    n = len(lower)
    metric = problem.scale or (1.0,) * n
    gtol = problem.gradient_tolerance
    # every point lies in the box, so ||x||_inf <= the largest |bound| and
    # no step above this cap passes the step_tol test (inf for an open box);
    # with lower <= upper entrywise, the largest |bound| is max(upper) or
    # -min(lower)
    step_cap = _STEP_TOL * (1.0 + max(max(upper), -min(lower)))

    x = [lo if v < lo else (hi if v > hi else v) for v, lo, hi in zip(x0, lower, upper)]
    f, g = objective(x) if start is None else start
    _check_evaluation(f, g, x, 0)
    evaluations, backtracks = 1, 0

    # the projected gradient's norm, and the unit step in the metric
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
    alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, 1.0 / max(pg_metric, 1e-10)))
    if steplength is not None and steplength < alpha:
        alpha = steplength

    recent = deque((f,), maxlen=_GLL_WINDOW)   # the last accepted values
    best = (x, f, pg_norm)                     # the lowest accepted point

    status = STATUS_MAX_ITER
    stop = STOP_MAX_ITER
    iteration = 0
    for iteration in range(1, problem.max_iterations + 1):
        if pg_norm <= gtol * (1.0 + abs(f)):
            status, stop = STATUS_CONVERGED, STOP_GTOL
            break

        # d = P(x - alpha*g/h) - x, with g'd and the lam = 1 trial
        # P(x + d), which most line searches accept
        d = []
        trial = []
        gtd = 0.0
        for v, gi, h, lo, hi in zip(x, g, metric, lower, upper):
            t = v - alpha * gi / h
            di = (lo if t < lo else (hi if t > hi else t)) - v
            d.append(di)
            gtd += gi * di
            t = v + di
            trial.append(lo if t < lo else (hi if t > hi else t))
        if gtd >= 0.0:
            # projection arc gives no descent direction: x is stationary (a
            # zero d, finite g, sums g'd to +0.0)
            status = STATUS_CONVERGED if pg_norm <= math.sqrt(gtol) * (
                1.0 + abs(f)
            ) else STATUS_STALLED
            stop = STOP_NO_DESCENT
            break

        lam = 1.0
        f_ref = max(recent)
        floor = _DECREASE_FLOOR * (1.0 + abs(f))
        while True:
            f_new, g_new = objective(trial)
            evaluations += 1
            if math.isfinite(f_new) and f_new <= f_ref + _ARMIJO * lam * gtd:
                break
            backtracks += 1
            if iteration == 1 and math.isfinite(f_new):
                # minimizer of the quadratic through f, g'd and f_new
                q = -0.5 * lam * lam * gtd / (f_new - f - lam * gtd)
                lam = max(_INTERP_MIN * lam, min(_INTERP_MAX * lam, q))
            else:
                lam *= 0.5
            if lam < _LAMBDA_MIN or -lam * gtd <= floor:
                # the next trial could not show its decrease in f
                stop = STOP_LAMBDA_MIN if lam < _LAMBDA_MIN else STOP_FLOOR
                trial = None
                break
            trial = []
            for v, di, lo, hi in zip(x, d, lower, upper):
                t = v + lam * di
                trial.append(lo if t < lo else (hi if t > hi else t))
        if trial is None:
            status = STATUS_STALLED
            break
        if type(g_new) is not list or len(g_new) != n:
            # a gradient of another type (a numpy array) is checked before
            # its entries meet the arithmetic below, which would warn
            _check_evaluation(f_new, g_new, trial, iteration)

        # s = x_new - x, y = g_new - g; pg and the step norm at the new
        # point. f_new passed the acceptance test finite, and a non-finite
        # entry of a list g_new makes sy non-finite, so it is checked only then.
        sy = shs = step_norm = pg_norm = 0.0
        for v, vn, gi, gn, h, lo, hi in zip(x, trial, g, g_new, metric, lower, upper):
            si = vn - v
            sy += si * (gn - gi)
            shs += h * si * si
            # the norms by sign, not abs(): this loop runs once per iteration
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
        if not math.isfinite(sy):
            _check_evaluation(f_new, g_new, trial, iteration)
        alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, shs / sy)) if sy > 0.0 else _ALPHA_MAX
        x, f, g = trial, f_new, g_new
        recent.append(f)
        if f < best[1]:
            best = (x, f, pg_norm)

        if step_norm <= step_cap:
            # the step_tol test; ||x||_inf is read only here, as no step
            # above step_cap can pass it
            x_norm = 0.0
            for vn in x:
                if vn < 0.0:
                    if -vn > x_norm:
                        x_norm = -vn
                elif vn > x_norm:
                    x_norm = vn
            if step_norm <= _STEP_TOL * (1.0 + x_norm):
                status = STATUS_CONVERGED if pg_norm <= gtol * (1.0 + abs(f)) else STATUS_STALLED
                stop = STOP_STEP_TOL
                break

    if stop in (STOP_MAX_ITER, STOP_FLOOR, STOP_LAMBDA_MIN):
        x, f, pg_norm = best
    return MinimizeResult(
        x=tuple(x), value=f, status=status, iterations=iteration,
        projected_gradient_norm=pg_norm, stop=stop, evaluations=evaluations,
        backtracks=backtracks, steplength=alpha,
    )


def minimize(
    problem: BoxNlp,
    x0,
    multi_start: int = 0,
    seed: int = 0,
    start: Optional[tuple[float, Sequence[float]]] = None,
    steplength: Optional[float] = None,
) -> MinimizeResult:
    """Minimize a BoxNlp from x0 (clipped into the box first).

    multi_start > 0 additionally solves from that many uniform random points
    in the box (seeded, so results are reproducible) and returns the best
    solution by value. Requires finite bounds. Each point draws its
    coordinates in order from a random.Random seeded with seed.

    start, when given, is the objective's (value, gradient) at x0 clipped
    into the box, taken in place of the run's first objective call.
    steplength, when given, is a previous run's last steplength, a number
    in [1e-12, 1e10]; the run from x0 begins at the smaller of it and its
    own first steplength (see the module docstring). Neither applies to the
    random starts.
    """
    lower, upper = problem.lower, problem.upper
    x0 = finite_floats(x0, "x0", len(lower))
    if steplength is not None and not _ALPHA_MIN <= steplength <= _ALPHA_MAX:
        raise InvalidInputError(
            f"steplength must be in [{_ALPHA_MIN:g}, {_ALPHA_MAX:g}], got {steplength!r}"
        )
    if multi_start > 0 and not all(map(math.isfinite, lower + upper)):
        raise InvalidInputError("multi_start requires finite bounds")

    best = _solve_from(problem, x0, start, steplength)
    if multi_start > 0:
        uniform = random.Random(seed).uniform
        runs = [best]
        for _ in range(multi_start):
            res = _solve_from(problem, [uniform(lo, hi) for lo, hi in zip(lower, upper)])
            runs.append(res)
            if res.value < best.value:
                best = res
        best.evaluations = sum(r.evaluations for r in runs)
        best.backtracks = sum(r.backtracks for r in runs)
    return best
