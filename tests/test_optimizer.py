import math
import random
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needle_mpc import optimizer
from needle_mpc.errors import InvalidInputError, NumericalFailureError
from needle_mpc.optimizer import (
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    STATUS_STALLED,
    BoxNlp,
    minimize,
)
from oracles import gradient_check, refine_minimize


def quadratic_problem(center, lower, upper, **kw):
    center = np.asarray(center, dtype=float)

    def objective(x):
        e = x - center
        return float(e @ e), 2.0 * e

    return BoxNlp(
        objective=objective,
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        **kw,
    )


def rosenbrock(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] ** 2),
            2.0 * b * (x[1] - x[0] ** 2),
        ]
    )
    return float(f), g


def logged_minimize(problem, x0, **kwargs):
    """minimize(problem, x0) and a log of the solve: ("eval", x, f, g) per
    objective call, in order, and ("accept",) after each line-search trial
    that is accepted. The solver accepts a trial by appending its value to
    its window of recent values, which the log watches; the accepted trial
    is the one evaluated last."""
    log = []
    objective = problem.objective

    def logged(x):
        f, g = objective(x)
        log.append(("eval", x, f, g))
        return f, g

    class Window(deque):
        def append(self, f):
            assert f == log[-1][2]
            log.append(("accept",))
            super().append(f)

    problem.objective = logged
    with mock.patch.object(optimizer, "deque", Window):
        return minimize(problem, x0, **kwargs), log


def accepted_points(log):
    """The ("eval", x, f, g) entries of the trials a line search accepted."""
    return [log[k - 1] for k, entry in enumerate(log) if entry[0] == "accept"]


def projected_gradient_norm(x, g, lower, upper):
    """The solver's stop measure: ||g||_inf with the entries zeroed where x
    sits on a bound and -g points out of the box."""
    return max(0.0 if (gi > 0.0 and v <= lo) or (gi < 0.0 and v >= hi) else abs(gi)
               for v, gi, lo, hi in zip(x, g, lower, upper))


class TestProblemValidation:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(InvalidInputError):
            quadratic_problem([0.0], lower=[1.0], upper=[-1.0])

    def test_tolerances_positive(self):
        with pytest.raises(InvalidInputError):
            quadratic_problem([0.0], lower=[-1.0], upper=[1.0], gradient_tolerance=0.0)

    def test_gradient_of_wrong_length_rejected(self):
        p = quadratic_problem([0.0, 0.0], lower=[-1, -1], upper=[1, 1])
        p.objective = lambda x: (0.0, [0.0])
        with pytest.raises(InvalidInputError, match="length 1, expected 2"):
            minimize(p, x0=[0.5, 0.5])

    def test_nan_in_upper_only_named(self):
        with pytest.raises(InvalidInputError, match=r"^bounds contain NaN$"):
            quadratic_problem([0.0, 0.0], lower=[-1, -1], upper=[1, float("nan")])

    def test_nan_reported_before_an_earlier_disorder(self):
        # as in the elementwise checks it replaces: NaN first, then order
        with pytest.raises(InvalidInputError, match=r"^bounds contain NaN$"):
            quadratic_problem([0.0, 0.0], lower=[2, 0], upper=[1, float("nan")])

    def test_disorder_names_its_first_index(self):
        with pytest.raises(
            InvalidInputError,
            match=r"^lower bound exceeds upper bound at index 1: 2\.0 > 1\.0$",
        ):
            quadratic_problem([0.0] * 3, lower=[0, 2, 5], upper=[1, 1, 1])

    def test_shape_mismatch_names_both_shapes(self):
        # the dimension is len(lower); upper must match it
        with pytest.raises(
            InvalidInputError,
            match=r"^bounds must have equal lengths of at least 1, got 2 and 3$",
        ):
            quadratic_problem([0.0] * 3, lower=[0, 0], upper=[1, 1, 1])
        with pytest.raises(InvalidInputError, match=r"got 0 and 0$"):
            quadratic_problem([], lower=[], upper=[])
        with pytest.raises(InvalidInputError, match=r"^bounds must hold numbers only$"):
            quadratic_problem([0.0] * 2, lower=[[0, 0]], upper=[1, 1])

    @pytest.mark.parametrize("lower, upper", [
        (("-1", b"-1"), (True, "1")),
        ((-1.0, -1.0), (True, 1.0)),
        ((-1.0, -1.0), (1.0, np.bool_(True))),
        ((-1.0, b"-1"), (1.0, 1.0)),
        (["-1", "-1"], [1, 1]),
        (b"\x00\x00", (1.0, 1.0)),
        ("00", (1.0, 1.0)),
        (-1.0, 1.0),
    ])
    def test_bounds_are_not_coerced(self, lower, upper):
        with pytest.raises(InvalidInputError, match=r"^bounds must hold numbers only$"):
            BoxNlp(objective=rosenbrock, lower=lower, upper=upper)

    def test_bounds_beyond_the_float_range_are_infinite(self):
        p = BoxNlp(objective=rosenbrock, lower=[-(10**400), np.int64(-1)], upper=[1, 10**400])
        assert (p.lower, p.upper) == ((-math.inf, -1.0), (1.0, math.inf))
        assert all(type(v) is float for v in p.lower + p.upper)

    @pytest.mark.parametrize("x0, message", [
        (["0.5", True], "x0 must be a number, got '0.5'"),
        ([0.5, True], "x0 must be a number, got True"),
        ([0.5, b"0.5"], "x0 must be a number, got b'0.5'"),
        ("05", "x0 must be a list of numbers, got '05'"),
        (0.5, "x0 must be a list of numbers, got 0.5"),
        ([0.5], r"x0 must have shape \(2,\), got 1 entries"),
        ([0.5, 0.5, 0.5], r"x0 must have shape \(2,\), got 3 entries"),
        ([0.5, math.inf], "x0 has a non-finite value inf"),
        (np.array([math.nan, 0.5]), r"x0 has a non-finite value \S*nan\S*"),
    ])
    def test_start_must_be_finite_numbers(self, x0, message):
        p = BoxNlp(objective=rosenbrock, lower=(-1.0, -1.0), upper=(1.0, 1.0))
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            minimize(p, x0)

    def test_no_value_only_objective(self):
        # one objective for value and gradient; the name stays readable
        with pytest.raises(TypeError, match="objective_value"):
            BoxNlp(objective=rosenbrock, lower=(-1.0,), upper=(1.0,),
                   objective_value=lambda x: rosenbrock(x)[0])
        assert BoxNlp(objective=rosenbrock, lower=(-1.0,), upper=(1.0,)).objective_value is None

    def test_max_iterations_at_least_one(self):
        with pytest.raises(InvalidInputError, match=r"^max_iterations must be >= 1, got 0$"):
            quadratic_problem([0.0], lower=[-1.0], upper=[1.0], max_iterations=0)

    def test_infinite_bounds_accepted(self):
        inf = float("inf")
        p = quadratic_problem([0.5] * 3, lower=[-inf, -inf, 0.0], upper=[inf, 0.0, inf])
        assert (p.lower, p.upper) == ((-inf, -inf, 0.0), (inf, 0.0, inf))
        assert all(type(v) is float for v in p.lower + p.upper)
        assert minimize(p, x0=[0.0, 0.0, 0.0]).x == (0.5, 0.0, 0.5)
        # equal infinite ends are ordered, as -inf <= -inf and inf <= inf
        p = quadratic_problem([0.0] * 2, lower=[-inf, inf], upper=[-inf, inf])
        assert (p.lower, p.upper) == ((-inf, inf), (-inf, inf))

    def test_start_outside_box_is_projected(self):
        p = quadratic_problem([0.0, 0.0], lower=[-1, -1], upper=[1, 1])
        res = minimize(p, x0=[10.0, -10.0])
        # elementwise: a tuple comparison would be lexicographic
        assert np.all(np.asarray(res.x) >= p.lower) and np.all(np.asarray(res.x) <= p.upper)
        assert res.value == pytest.approx(0.0, abs=1e-12)


class TestQuadratics:
    def test_interior_minimum(self):
        p = quadratic_problem([0.3, -0.4, 0.1], lower=[-1] * 3, upper=[1] * 3)
        res = minimize(p, x0=[0.9, 0.9, 0.9])
        assert res.status == STATUS_CONVERGED
        assert res.x == pytest.approx([0.3, -0.4, 0.1], abs=1e-7)

    def test_exterior_minimum_clamps(self):
        p = quadratic_problem([2.0, -3.0, 0.5], lower=[-1] * 3, upper=[1] * 3)
        res = minimize(p, x0=[0.0, 0.0, 0.0])
        assert res.x == pytest.approx([1.0, -1.0, 0.5], abs=1e-8)

    @given(
        c=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        x0=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
    )
    @settings(max_examples=100, deadline=None)
    def test_clamp_formula_property(self, c, x0):
        p = quadratic_problem(c, lower=[-1, -1], upper=[1, 1])
        res = minimize(p, x0=np.array(x0))
        want = np.clip(c, -1.0, 1.0)
        assert res.x == pytest.approx(want, abs=1e-6)
        assert np.all(np.asarray(res.x) >= -1.0) and np.all(np.asarray(res.x) <= 1.0)


class TestRosenbrock:
    def test_value_matches_grid_refinement_oracle(self):
        p = BoxNlp(
            objective=rosenbrock,
            lower=np.array([-2.0, -2.0]),
            upper=np.array([2.0, 2.0]),
            max_iterations=5000,
            gradient_tolerance=1e-12,
        )
        res = minimize(p, x0=[-1.2, 1.0], multi_start=8, seed=0)

        def batch(pts):
            return np.array([rosenbrock(x)[0] for x in pts])

        _, f_oracle = refine_minimize(
            batch, [-2.0, -2.0], [2.0, 2.0], points_per_axis=33, rounds=10
        )
        assert abs(res.value - f_oracle) <= 1e-4

    def test_monotone_in_iteration_budget(self):
        # black-box monotone descent: more allowed iterations never hurts
        values = []
        for k in (1, 3, 10, 30, 100, 300):
            p = BoxNlp(
                objective=rosenbrock,
                lower=np.array([-2.0, -2.0]),
                upper=np.array([2.0, 2.0]),
                max_iterations=k,
            )
            values.append(minimize(p, x0=[-1.2, 1.0]).value)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_iteration_cap_reported(self):
        p = BoxNlp(
            objective=rosenbrock,
            lower=np.array([-2.0, -2.0]),
            upper=np.array([2.0, 2.0]),
            max_iterations=2,
            gradient_tolerance=1e-14,
        )
        res = minimize(p, x0=[-1.2, 1.0])
        assert res.status == STATUS_MAX_ITER
        assert res.iterations == 2


class TestFeasibility:
    @given(
        lo=st.floats(-5.0, -0.1),
        hi=st.floats(0.1, 5.0),
        cx=st.floats(-10.0, 10.0),
        cy=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_iterates_feasible_at_return(self, lo, hi, cx, cy):
        p = quadratic_problem([cx, cy], lower=[lo, lo], upper=[hi, hi])
        res = minimize(p, x0=[0.0, 0.0])
        assert np.all(np.asarray(res.x) >= lo) and np.all(np.asarray(res.x) <= hi)

    def test_every_objective_call_is_feasible(self):
        seen = []

        def objective(x):
            seen.append(x.copy())
            e = x - np.array([5.0, 5.0])
            return float(e @ e), 2.0 * e

        p = BoxNlp(
            objective=objective,
            lower=np.array([-1.0, -1.0]),
            upper=np.array([1.0, 1.0]),
        )
        minimize(p, x0=[0.5, -0.5])
        pts = np.array(seen)
        assert np.all(pts >= -1.0 - 1e-15) and np.all(pts <= 1.0 + 1e-15)


class TestMultiStart:
    def bumpy(self, x):
        # two basins, global at (0.7, 0.7)
        f1 = float((x[0] + 0.6) ** 2 + (x[1] + 0.6) ** 2) + 0.5
        f2 = 2.0 * float((x[0] - 0.7) ** 2 + (x[1] - 0.7) ** 2)
        if f1 < f2:
            return f1, 2.0 * (x - np.array([-0.6, -0.6]))
        return f2, 4.0 * (x - np.array([0.7, 0.7]))

    def test_multi_start_escapes_local_basin(self):
        p = BoxNlp(
            objective=self.bumpy,
            lower=np.array([-1.0, -1.0]),
            upper=np.array([1.0, 1.0]),
        )
        local = minimize(p, x0=[-0.9, -0.9])
        assert local.value == pytest.approx(0.5, abs=1e-6)
        multi = minimize(p, x0=[-0.9, -0.9], multi_start=16, seed=3)
        assert multi.value == pytest.approx(0.0, abs=1e-6)

    def test_same_seed_same_answer(self):
        p = BoxNlp(
            objective=self.bumpy,
            lower=np.array([-1.0, -1.0]),
            upper=np.array([1.0, 1.0]),
        )
        a = minimize(p, x0=[0.0, 0.0], multi_start=5, seed=11)
        b = minimize(p, x0=[0.0, 0.0], multi_start=5, seed=11)
        assert a.x == b.x
        assert a.value == b.value

    def test_multi_start_requires_finite_bounds(self):
        p = BoxNlp(
            objective=lambda x: (float(x[0] ** 2), 2.0 * x),
            lower=np.array([-np.inf]),
            upper=np.array([np.inf]),
        )
        with pytest.raises(InvalidInputError):
            minimize(p, x0=[1.0], multi_start=4, seed=0)

    def test_infinite_bounds_rejected_before_any_solve(self):
        calls = []
        p = quadratic_problem([0.0], lower=[-np.inf], upper=[np.inf])
        p.objective = lambda x: calls.append(x) or (0.0, [0.0])
        with pytest.raises(InvalidInputError):
            minimize(p, x0=[1.0], multi_start=4, seed=0)
        assert calls == []


class TestFloatListLoop:
    """The solver's contract with its objective callables."""

    @staticmethod
    def rosenbrock_box(lower=(-0.5, 0.2), upper=(0.8, 1.5)):
        return BoxNlp(
            objective=rosenbrock,
            lower=np.array(lower),
            upper=np.array(upper),
            max_iterations=300,
        )

    def test_every_call_gets_a_list_of_floats_inside_the_box(self):
        p = self.rosenbrock_box()
        _, log = logged_minimize(p, x0=[-1.2, 1.0], multi_start=3, seed=1)
        calls = [entry[1] for entry in log if entry[0] == "eval"]
        assert calls
        for x in calls:
            assert type(x) is list and len(x) == len(p.lower)
            assert all(isinstance(v, float) for v in x)
            assert all(lo <= v <= hi for v, lo, hi in zip(x, p.lower, p.upper))

    @pytest.mark.parametrize("multi_start", [0, 3])
    def test_result_point_is_a_tuple_of_floats(self, multi_start):
        # numpy bounds and start; the objective computes on Python floats
        def objective(x):
            return (x[0] - 2.0) ** 2 + x[1] ** 2, [2.0 * (x[0] - 2.0), 2.0 * x[1]]

        p = BoxNlp(objective=objective, lower=np.array([-1.0, -1.0]), upper=np.ones(2))
        assert all(type(v) is float for v in p.lower + p.upper)
        res = minimize(p, x0=np.array([0.5, 0.5]), multi_start=multi_start, seed=1)
        assert type(res.x) is tuple and all(type(v) is float for v in res.x)
        assert res.x == pytest.approx((1.0, 0.0), abs=1e-8)

    def test_accepted_values_never_exceed_the_window_maximum(self):
        _, log = logged_minimize(self.rosenbrock_box(), x0=[-1.2, 1.0])
        accepted = [f for _, _, f, _ in [log[0]] + accepted_points(log)]
        assert len(accepted) > 10
        assert all(f <= max(accepted[max(0, k - 10):k]) for k, f in enumerate(accepted) if k)
        # the window is used: some accepted step raises the value
        assert any(b > a for a, b in zip(accepted, accepted[1:]))

    def test_accepted_point_is_the_last_trial_list(self):
        # the window takes the value of the trial evaluated last (checked in
        # logged_minimize), and a gtol stop returns that very point
        res, log = logged_minimize(self.rosenbrock_box(), x0=[-1.2, 1.0])
        assert res.stop == "gtol"
        last = accepted_points(log)[-1]
        assert res.x == tuple(last[1]) and res.value == last[2]
        assert res.projected_gradient_norm == projected_gradient_norm(
            last[1], last[3], (-0.5, 0.2), (0.8, 1.5))

    @given(
        st.integers(1, 15).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
                st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
                st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_weighted_clamp_formula_property(self, draw):
        center, weights, x0 = draw

        def objective(x):
            e = [v - c for v, c in zip(x, center)]
            return (
                sum(w * t * t for w, t in zip(weights, e)),
                [2.0 * w * t for w, t in zip(weights, e)],
            )

        n = len(center)
        p = BoxNlp(
            objective=objective, lower=-np.ones(n), upper=np.ones(n),
            gradient_tolerance=1e-10,
        )
        res = minimize(p, x0=x0)
        assert res.x == pytest.approx(np.clip(center, -1.0, 1.0), abs=1e-6)
        assert np.all(np.asarray(res.x) >= -1.0) and np.all(np.asarray(res.x) <= 1.0)

    @staticmethod
    def clamp_draws(seed, count):
        """(center, weights, x0) triples; about 30% of the entries are range
        ends, box bounds or short decimals, where ties in f are likeliest."""
        rng = random.Random(seed)

        def entry(lo, hi, ends):
            u = rng.random()
            if u < 0.15:
                return rng.choice(ends)
            if u < 0.3:
                return round(rng.uniform(lo, hi), rng.randint(1, 2))
            return rng.uniform(lo, hi)

        for _ in range(count):
            n = rng.randint(1, 15)
            yield (
                [entry(-3.0, 3.0, (-3.0, -1.0, 0.0, 1.0, 3.0)) for _ in range(n)],
                [entry(0.1, 10.0, (0.1, 10.0)) for _ in range(n)],
                [entry(-1.0, 1.0, (-1.0, 0.0, 1.0)) for _ in range(n)],
            )

    def test_weighted_clamp_seeded_sweep(self):
        # guards the line search's rounding floor: at eps instead of eps/10
        # the search gives up on draws that the gradient still leads to x
        failed = []
        for i, (center, weights, x0) in enumerate(self.clamp_draws(0, 4000)):
            def objective(x):
                e = [v - c for v, c in zip(x, center)]
                return (
                    sum(w * t * t for w, t in zip(weights, e)),
                    [2.0 * w * t for w, t in zip(weights, e)],
                )

            n = len(center)
            p = BoxNlp(
                objective=objective, lower=-np.ones(n), upper=np.ones(n),
                gradient_tolerance=1e-10,
            )
            res = minimize(p, x0=x0)
            if np.max(np.abs(np.asarray(res.x) - np.clip(center, -1.0, 1.0))) > 1e-6:
                failed.append(i)
        assert failed == []


class TestCounts:
    """evaluations counts the objective calls, backtracks the rejected trials."""

    def test_counts_match_the_calls(self):
        # a box on which the nonmonotone line search still rejects trials
        res, log = logged_minimize(
            TestFloatListLoop.rosenbrock_box(lower=(-2.0, -2.0), upper=(2.0, 2.0)),
            x0=[-1.2, 1.0],
        )
        calls = sum(entry[0] == "eval" for entry in log)
        assert res.evaluations == calls > res.iterations
        assert res.backtracks > 0
        # one call at the start; every trial is either rejected or accepted
        assert res.evaluations == 1 + res.backtracks + len(accepted_points(log))

    def test_multi_start_counts_total_every_run(self):
        res, log = logged_minimize(TestFloatListLoop.rosenbrock_box(), x0=[-1.2, 1.0],
                                   multi_start=3, seed=1)
        assert res.evaluations == sum(entry[0] == "eval" for entry in log)
        assert res.evaluations == 4 + res.backtracks + len(accepted_points(log))


class TestWarmStartedRun:
    """minimize's start and steplength: an evaluation of x0 taken in place
    of the first objective call, and a cap on the first steplength. Both
    apply to the run from x0 alone."""

    @staticmethod
    def problem():
        # unbounded, so the first trial is x0 - alpha g
        center = (0.3, -0.2, 0.1)

        def objective(x):
            e = [v - c for v, c in zip(x, center)]
            return sum(v * v for v in e), [2.0 * v for v in e]

        return BoxNlp(objective=objective, lower=(-math.inf,) * 3, upper=(math.inf,) * 3)

    X0 = [2.0, 1.0, -3.0]

    def test_given_start_replaces_the_first_call(self):
        p = self.problem()
        evaluated, log = logged_minimize(self.problem(), self.X0)
        start = log[0][2], log[0][3]
        given, given_log = logged_minimize(p, self.X0, start=start)
        assert given == evaluated
        assert given_log == log[1:]

    def test_non_finite_start_raises(self):
        with pytest.raises(NumericalFailureError):
            minimize(self.problem(), self.X0, start=(math.nan, [0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("steplength", [1e-6, 1e-3, 0.1, 1e10])
    def test_first_steplength_is_the_smaller(self, steplength):
        res, log = logged_minimize(self.problem(), self.X0, steplength=steplength)
        x0, g = np.array(log[0][1]), np.array(log[0][3])
        alpha_0 = 1.0 / np.abs(g).max()       # identity metric, no bounds
        alpha = (x0 - np.array(log[1][1])) / g
        # read back from x0 - trial, to the rounding of that difference
        np.testing.assert_allclose(alpha, min(alpha_0, steplength), rtol=1e-9)
        assert optimizer._ALPHA_MIN <= res.steplength <= optimizer._ALPHA_MAX
        if steplength >= alpha_0:
            assert (res, log) == logged_minimize(self.problem(), self.X0)

    @pytest.mark.parametrize("steplength", [0.0, -1.0, 1e-13, 1e11, math.nan, math.inf])
    def test_steplength_out_of_range_rejected(self, steplength):
        with pytest.raises(InvalidInputError, match=r"steplength must be in \[1e-12, 1e\+10\]"):
            minimize(self.problem(), self.X0, steplength=steplength)

    def test_random_starts_keep_their_own_steplength(self):
        p = TestFloatListLoop.rosenbrock_box()
        logs = {}
        for steplength in (None, 1e-6):
            single = minimize(p, [-1.2, 1.0], steplength=steplength).evaluations
            _, log = logged_minimize(p, [-1.2, 1.0], multi_start=3, seed=1,
                                     steplength=steplength)
            calls = [entry[1] for entry in log if entry[0] == "eval"]
            logs[steplength] = calls[:single], calls[single:]
        assert logs[None][0] != logs[1e-6][0]
        assert logs[None][1] == logs[1e-6][1] != []


class TestNonmonotoneLineSearch:
    """A trial is tested against the largest of the last 10 accepted values
    (the line search of Grippo, Lampariello and Lucidi); a run that stops on
    max_iter or at the rounding floor returns its lowest accepted point."""

    @staticmethod
    def recorded_run(objective, lower, upper, x0, max_iterations):
        """The result and every accepted (point, value, pg norm), f(x0) first."""
        p = BoxNlp(objective=objective, lower=lower, upper=upper, max_iterations=max_iterations)
        res, log = logged_minimize(p, x0)
        return res, [(tuple(x), f, projected_gradient_norm(x, g, p.lower, p.upper))
                     for _, x, f, g in [log[0]] + accepted_points(log)]

    @staticmethod
    def check_run(res, accepted):
        values = [f for _, f, _ in accepted]
        assert all(f <= values[0] for f in values)
        assert all(f <= max(values[max(0, k - 10):k]) for k, f in enumerate(values) if k)
        if res.stop in ("max_iter", "floor"):
            lowest = values.index(min(values))
            assert (res.x, res.value, res.projected_gradient_norm) == accepted[lowest]
        # the start and every trial: accepted (after the start) or rejected
        assert res.evaluations == res.backtracks + len(accepted)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
                st.lists(st.floats(-2.0, 4.0), min_size=n, max_size=n),
                st.lists(st.floats(-2.0, 0.0), min_size=n, max_size=n),
                st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n),
                st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
            )
        ),
        st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaled_quadratics(self, draw, max_iterations):
        center, log_weights, lower, upper, x0 = draw
        weights = [10.0 ** e for e in log_weights]

        def objective(x):
            e = [v - c for v, c in zip(x, center)]
            return (
                sum(w * t * t for w, t in zip(weights, e)),
                [2.0 * w * t for w, t in zip(weights, e)],
            )

        self.check_run(*self.recorded_run(objective, lower, upper, x0, max_iterations))

    @given(
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        st.integers(1, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_rosenbrock_starts(self, x0, max_iterations):
        self.check_run(*self.recorded_run(rosenbrock, [-2.0, -2.0], [2.0, 2.0], x0, max_iterations))

    def test_max_iter_returns_the_lowest_accepted_point(self):
        # budgets that end on an accepted increase return an earlier point
        earlier = 0
        for k in range(1, 70):
            res, accepted = self.recorded_run(rosenbrock, [-2.0, -2.0], [2.0, 2.0], [-1.2, 1.0], k)
            if res.stop != "max_iter":
                break
            self.check_run(res, accepted)
            earlier += accepted[-1][1] > res.value
        assert earlier > 0


def result_bits(res):
    """Every field of a MinimizeResult, floats by their hex form."""
    return (tuple(map(float.hex, res.x)), res.value.hex(), res.projected_gradient_norm.hex(),
            res.status, res.stop, res.iterations, res.evaluations, res.backtracks)


class TestScaledMetric:
    """BoxNlp.scale, the solver's diagonal metric h: the steps run in it,
    the stop tests stay in the problem's units."""

    @pytest.mark.parametrize("scale, message", [
        ((1.0,), "scale must have shape"),
        ((1.0, 0.0), "scale must be positive"),
        ((1.0, -2.0), "scale must be positive"),
        ((1.0, math.inf), "scale has a non-finite"),
        ((math.nan, 1.0), "scale has a non-finite"),
        ((True, 1.0), "scale must be a number"),
        ("12", "scale must be a list"),
    ])
    def test_scale_is_checked(self, scale, message):
        with pytest.raises(InvalidInputError, match=message):
            quadratic_problem([0.0, 0.0], [-1.0, -1.0], [1.0, 1.0], scale=scale)

    def test_scale_kept_as_float_tuple(self):
        p = quadratic_problem([0.0, 0.0], [-1.0, -1.0], [1.0, 1.0], scale=np.array([2, 3]))
        assert p.scale == (2.0, 3.0) and all(type(h) is float for h in p.scale)

    @staticmethod
    def runs(objective, lower, upper, x0, max_iterations):
        """(result bits, every evaluated point) under scale None and ones."""
        out = []
        for scale in (None, (1.0,) * len(lower)):
            calls = []

            def recorded(x):
                calls.append(tuple(map(float.hex, x)))
                return objective(x)

            p = BoxNlp(objective=recorded, lower=lower, upper=upper,
                       max_iterations=max_iterations, scale=scale)
            out.append((result_bits(minimize(p, x0)), calls))
        return out

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
                st.lists(st.floats(-2.0, 4.0), min_size=n, max_size=n),
                st.lists(st.floats(-2.0, 0.0), min_size=n, max_size=n),
                st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n),
                st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
            )
        ),
        st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_unit_scale_is_the_unscaled_solver_on_quadratics(self, draw, max_iterations):
        center, log_weights, lower, upper, x0 = draw
        weights = [10.0 ** e for e in log_weights]

        def objective(x):
            e = [v - c for v, c in zip(x, center)]
            return (
                sum(w * t * t for w, t in zip(weights, e)),
                [2.0 * w * t for w, t in zip(weights, e)],
            )

        unscaled, unit = self.runs(objective, lower, upper, x0, max_iterations)
        assert unit == unscaled

    @given(
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        st.integers(1, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_unit_scale_is_the_unscaled_solver_on_rosenbrock(self, x0, max_iterations):
        unscaled, unit = self.runs(rosenbrock, [-2.0, -2.0], [2.0, 2.0], x0, max_iterations)
        assert unit == unscaled

    def test_curvature_metric_ends_an_ill_conditioned_tail(self):
        # a diagonal quadratic with curvatures spread over 6 decades, some
        # minimizers outside the box; the metric h = the Hessian's diagonal
        # makes every BB step after the first a Newton step (the first,
        # alpha_0 = 1/||x0 - P(x0 - g/h)||_inf, is not one from this x0)
        n = 12
        weights = [10.0 ** (6 * i / (n - 1)) for i in range(n)]
        center = [0.5 * (-1) ** i * (1 + i % 3) for i in range(n)]

        def objective(x):
            e = [v - c for v, c in zip(x, center)]
            return (sum(w * t * t for w, t in zip(weights, e)),
                    [2.0 * w * t for w, t in zip(weights, e)])

        def solve(scale):
            return minimize(BoxNlp(objective=objective, lower=(-1.0,) * n, upper=(1.0,) * n,
                                   gradient_tolerance=1e-12, scale=scale), [0.2] * n)

        unscaled = solve(None)
        scaled = solve(tuple(2.0 * w for w in weights))
        assert scaled.stop == unscaled.stop == "gtol"
        assert scaled.iterations == 3 and unscaled.iterations > 50
        assert scaled.x == pytest.approx(np.clip(center, -1.0, 1.0), abs=1e-12)
        # the stop test measures the projected gradient, in the problem's units
        g = objective(list(scaled.x))[1]
        pg = projected_gradient_norm(scaled.x, g, (-1.0,) * n, (1.0,) * n)
        assert scaled.projected_gradient_norm == pg <= 1e-12 * (1.0 + abs(scaled.value))


class TestFirstIterationInterpolation:
    """The first line search of a solve interpolates; later ones halve."""

    SLACK = 1e-6   # relative; lam is read back from trial - x

    @staticmethod
    def scaled_quadratic_draws(seed, count):
        """(center, weights, x0): weights over six decades and starts from
        1e-6 to 3 away from the center, so that first trials overshoot, some
        far enough for the interpolation to reach its lower clamp."""
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 6)
            center = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            yield (
                center,
                [10.0 ** rng.uniform(-2.0, 4.0) for _ in range(n)],
                [c + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 0.5) for c in center],
            )

    def test_steplength_ratios_and_window_values(self):
        first, later = [], []
        for center, weights, x0 in self.scaled_quadratic_draws(0, 150):
            def value(x):
                return sum(w * (v - c) ** 2 for v, c, w in zip(x, center, weights))

            def objective(x):
                return value(x), [2.0 * w * (v - c) for v, c, w in zip(x, center, weights)]

            n = len(center)
            _, log = logged_minimize(BoxNlp(objective=objective, lower=np.full(n, -np.inf),
                                            upper=np.full(n, np.inf), gradient_tolerance=1e-10),
                                     x0=x0)
            # (accepted point, its value, the line-search trials from it)
            iterations = [(log[0][1], log[0][2], [])]
            for last, entry in zip(log, log[1:]):
                if entry[0] == "eval":
                    iterations[-1][2].append(entry[1])
                else:
                    iterations.append((last[1], last[2], []))
            accepted = [f for _, f, _ in iterations]
            assert all(f <= max(accepted[max(0, k - 10):k]) for k, f in enumerate(accepted) if k)
            for k, (x, _, trials) in enumerate(iterations):
                # no bounds, so trial - x = lam * d: successive trials give lam'/lam
                for a, b in zip(trials, trials[1:]):
                    i = max(range(n), key=lambda j: abs(a[j] - x[j]))
                    if abs(b[i] - x[i]) < 1e-8 * (1.0 + abs(x[i])):
                        continue    # too short to read lam back to SLACK
                    (first if k == 0 else later).append((b[i] - x[i]) / (a[i] - x[i]))
        lo, hi = 1e-3 * (1.0 - self.SLACK), 0.5 * (1.0 + self.SLACK)
        assert first and all(lo <= r <= hi for r in first)
        # the sweep reaches both the interpolated interior and the lower clamp
        assert any(r < 0.49 for r in first)
        assert any(r <= 1e-3 * (1.0 + self.SLACK) for r in first)
        assert later and all(abs(r - 0.5) <= 0.5 * self.SLACK for r in later)


class TestExitPaths:
    def test_converged_on_projected_gradient(self):
        # unit Hessian: the Barzilai-Borwein step lands on the minimum
        p = quadratic_problem([0.3, -0.4, 2.0], lower=[-1] * 3, upper=[1] * 3)
        res = minimize(p, x0=[0.9, 0.9, 0.9])
        assert res.status == STATUS_CONVERGED
        assert res.stop == "gtol"
        assert res.projected_gradient_norm <= p.gradient_tolerance * (1.0 + abs(res.value))
        assert res.x == pytest.approx([0.3, -0.4, 1.0], abs=1e-12)

    def test_converged_on_no_descent_branch(self):
        # alpha * g * g underflows, so g'd is 0 although pg exceeds the tolerance
        p = BoxNlp(
            objective=lambda x: (1e-170 * x[0], [1e-170]),
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            gradient_tolerance=1e-300,
        )
        res = minimize(p, x0=[0.0])
        assert res.status == STATUS_CONVERGED
        assert res.stop == "no_descent"
        assert res.iterations == 1
        assert res.projected_gradient_norm > p.gradient_tolerance * (1.0 + abs(res.value))

    def test_stalled_on_line_search_underflow(self):
        # every trial's value is nan, and so rejected
        p = BoxNlp(
            objective=lambda x: (0.25 if x == [0.0] else math.nan, [2.0 * (x[0] - 0.5)]),
            lower=(-1.0,), upper=(1.0,),
        )
        res = minimize(p, x0=[0.0])
        assert res.status == STATUS_STALLED
        assert res.stop == "lambda_min"
        assert res.iterations == 1
        assert res.x == (0.0,)
        # a non-finite trial is halved, not interpolated: 1, 1/2, ... 2^-46
        assert (res.evaluations, res.backtracks) == (48, 47)

    def test_stalled_on_rounding_floor(self):
        # every trial is rejected; at f = 1e10 the floor eps/10*(1 + |f|)
        # is about 2e-7, reached long before lam < 1e-14
        p = BoxNlp(
            objective=lambda x: (1e10 + (0.25 if x == [0.0] else 1.0), [2.0 * (x[0] - 0.5)]),
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            gradient_tolerance=1e-300,
        )
        res = minimize(p, x0=[0.0])
        assert (res.status, res.stop, res.iterations) == (STATUS_STALLED, "floor", 1)
        assert res.x == (0.0,)
        assert res.evaluations - 1 == res.backtracks < 47

    def test_stalled_on_step_tolerance(self):
        # a valley of curvature 1e8 across and 2 along: near the minimum at
        # 0 the steps shrink below 1e-12 before the gradient reaches 1e-8
        def valley(x):
            a, b = x
            r = b - a * a
            return a * a + 1e8 * r * r, [2.0 * a - 4e8 * a * r, 2e8 * r]

        p = BoxNlp(objective=valley, lower=[-2.0, -2.0], upper=[2.0, 2.0])
        res, log = logged_minimize(p, x0=[1.5, 1.0])
        assert (res.status, res.stop, res.iterations) == (STATUS_STALLED, "step_tol", 78)
        assert res.value < valley([1.5, 1.0])[0]
        assert res.projected_gradient_norm > p.gradient_tolerance * (1.0 + abs(res.value))
        # the last accepted step is within the constant tolerance, no other is
        points = [entry[1] for entry in accepted_points(log)]
        steps = [
            max(abs(u - v) for u, v in zip(x1, x0)) / (1.0 + max(map(abs, x1)))
            for x0, x1 in zip([[1.5, 1.0]] + points, points)
        ]
        assert steps[-1] <= 1e-12 < min(steps[:-1])

    def test_max_iter_returns_last_accepted_iterate(self):
        p = BoxNlp(
            objective=rosenbrock,
            lower=np.array([-2.0, -2.0]),
            upper=np.array([2.0, 2.0]),
            max_iterations=1,
        )
        res = minimize(p, x0=[-1.2, 1.0])
        assert res.status == STATUS_MAX_ITER
        assert res.stop == "max_iter"
        assert res.iterations == 1
        assert res.value == rosenbrock(res.x)[0] < rosenbrock([-1.2, 1.0])[0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_gradient_raises(self, bad):
        def objective(x):
            e = x[0] - 0.5
            return e * e, [2.0 * e if x[0] < 0.25 else bad]

        p = BoxNlp(
            objective=objective, lower=np.array([-1.0]), upper=np.array([1.0])
        )
        with pytest.raises(NumericalFailureError):
            minimize(p, x0=[-1.0])

    @pytest.mark.parametrize("value", [None, math.nan, math.inf])
    def test_rejected_trial_with_non_finite_gradient_does_not_raise(self, value):
        # from x0 = 0 the first trial, x = 1, is rejected (its value is
        # f(x0) or not finite); only an accepted trial's gradient is checked
        rejected = []

        def objective(x):
            e = x[0] - 0.5
            if x[0] > 0.75:
                rejected.append(x)
                return (e * e if value is None else value), [math.nan]
            return e * e, [2.0 * e]

        res = minimize(BoxNlp(objective=objective, lower=(-1.0,), upper=(1.0,)), x0=[0.0])
        assert rejected == [[1.0]] and res.backtracks == 1
        assert (res.status, res.x) == (STATUS_CONVERGED, (0.5,))


class TestGradientCheck:
    def test_correct_gradient_passes(self):
        def obj(x):
            return float(np.sin(x[0]) + x[1] ** 3), np.array([np.cos(x[0]), 3 * x[1] ** 2])

        err = gradient_check(obj, np.array([0.3, -0.7]))
        assert err <= 1e-8

    def test_wrong_gradient_flagged(self):
        def obj(x):
            return float(np.sin(x[0])), np.array([1.5 * np.cos(x[0])])

        err = gradient_check(obj, np.array([0.3]))
        assert err > 1e-2


@st.composite
def reference_draws(draw):
    """A TestReferenceRun problem of 1-30 variables, each with the bounds
    of one of a drawn subset of the bound kinds."""
    n = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.sampled_from(TestReferenceRun.BOUND_KINDS),
                          min_size=1, max_size=4, unique=True))
    coords = st.floats(-20.0, 20.0)
    bounds = [TestReferenceRun.bound(draw(st.sampled_from(kinds)), draw(coords), draw(coords))
              for _ in range(n)]
    log_floats = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    return dict(
        bounds=bounds,
        x0=draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n)),
        weights=draw(st.lists(st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e),
                              min_size=n, max_size=n)),
        center=draw(st.lists(coords, min_size=n, max_size=n)),
        coupling=draw(st.sampled_from([0.0, 0.1, 10.0])),
        valley=draw(st.sampled_from([0.0, 1e8])),
        wave=draw(st.sampled_from([0.0, 3.0])),
        offset=draw(st.sampled_from([0.0, 1e10])),
        scale=draw(st.none() | st.lists(log_floats, min_size=n, max_size=n)),
        steplength=draw(st.none() | st.floats(-12.0, 10.0).map(lambda e: 10.0 ** e)),
        use_start=draw(st.booleans()),
        max_iterations=draw(st.integers(1, 300)),
        gradient_tolerance=draw(st.sampled_from([1e-8, 1e-12, 1e-300])),
        fault=draw(st.none() | st.tuples(
            st.integers(1, 40),
            st.sampled_from(["nan", "inf", "-inf", "short", "long", "value", "rise"]),
            st.integers(0, 29))),
        as_array=draw(st.booleans()),
    )


def reference_example(**changes):
    """A hand-set TestReferenceRun problem: one variable in [-1, 1] from 0,
    a unit square centred on 0.5, with changes applied."""
    d = dict(bounds=[(-1.0, 1.0)], x0=[0.0], weights=[1.0], center=[0.5], coupling=0.0,
             valley=0.0, wave=0.0, offset=0.0, scale=None, steplength=None, use_start=False,
             max_iterations=300, gradient_tolerance=1e-300, fault=None, as_array=False)
    d.update(changes)
    return d


# explicit examples that reach each exit and both exceptions, whatever the
# drawn examples of a Hypothesis version reach
REFERENCE_EXAMPLES = [
    reference_example(gradient_tolerance=1e-8),                           # gtol
    reference_example(x0=[0.3086900204526444], center=[0.30806971991087645],
                      weights=[0.01876181863941267], wave=3.0,
                      bounds=[(-20.0, 20.0)]),                              # no_descent
    reference_example(bounds=[(-20.0, 20.0)] * 2, x0=[1.5, 1.0], center=[0.0, 0.0],
                      weights=[1.0, 1e-4], valley=1e8),                     # step_tol
    # step_tol with ||x||_inf pinned at the largest |bound|, where the step
    # cap equals the step_tol threshold; a smaller cap ends it later
    reference_example(bounds=[(-1.0, 1.0), (1.0, 1.0)], x0=[0.25, 0.44],
                      center=[-0.38, -0.03], weights=[1e-4, 1e-3], valley=1e8),
    reference_example(bounds=[(-20.0, 20.0)] * 2, x0=[1.5, 1.0], center=[0.0, 0.0],
                      weights=[1.0, 1e-4], valley=1e8, max_iterations=5),   # max_iter
    reference_example(offset=1e10, fault=(2, "rise", 0)),                  # floor
    reference_example(fault=(2, "rise", 0)),                               # lambda_min
    reference_example(fault=(2, "short", 0)),                              # InvalidInputError
    reference_example(fault=(2, "nan", 0)),                                # NumericalFailureError
    reference_example(fault=(2, "inf", 0), as_array=True),                 # the same, numpy
]


class TestReferenceRun:
    """minimize against oracles.spg_run_reference, the SPG run before its
    `moved` flag, its ||x||_inf at every step and its check of the accepted
    gradient ahead of the post-step pass were dropped: the same point,
    value, counts and steplength bit for bit, or the same exception class
    and message."""

    BOUND_KINDS = ("box", "pin", "open", "huge")

    @staticmethod
    def bound(kind, a, b):
        if kind == "box":
            return min(a, b), max(a, b)
        if kind == "pin":       # lo == hi, a nonzero pin unless a is 0
            return a, a
        if kind == "open":
            return (-math.inf, math.inf) if a < 0.0 else (-math.inf, max(a, b))
        return -1e300, 1e300

    @staticmethod
    def objective(weights, center, coupling, valley, wave, offset, fault, as_array):
        """A fresh objective (one per run, since a fault fires at its k-th
        call): weighted squares, a coupling of the sum, a steep valley
        between the first two variables, a sine term and a constant offset,
        whose rounding floor ends line searches. fault is None or
        (k, what, j): at the k-th call (from 1) entry j of the gradient
        becomes nan or +-inf, the gradient loses or gains an entry, or the
        value is nan; or, with what "rise", every value from the k-th call
        on is raised by 1, so that line searches fail until they stop."""
        calls = [0]

        def f(x):
            calls[0] += 1
            total = sum(x)
            value = offset + coupling * total * total
            grad = []
            for v, w, c in zip(x, weights, center):
                e = v - c
                value += w * e * e + wave * math.sin(v)
                grad.append(2.0 * w * e + 2.0 * coupling * total + wave * math.cos(v))
            if valley and len(x) >= 2:
                r = x[1] - x[0] * x[0]
                value += valley * r * r
                grad[0] -= 4.0 * valley * x[0] * r
                grad[1] += 2.0 * valley * r
            if fault is not None and fault[1] == "rise" and calls[0] >= fault[0]:
                value += 1.0
            elif fault is not None and fault[0] == calls[0]:
                _, what, j = fault
                if what == "short":
                    grad = grad[:-1]
                elif what == "long":
                    grad = grad + [0.0]
                elif what == "value":
                    value = math.nan
                else:
                    grad[j % len(grad)] = float(what)
            return value, (np.array(grad) if as_array else grad)

        return f

    @staticmethod
    def outcome(run):
        try:
            res = run()
        except (InvalidInputError, NumericalFailureError) as exc:
            return type(exc), str(exc)
        return result_bits(res) + (
            None if res.steplength is None else float(res.steplength).hex(),)

    def test_sweep_matches_the_reference_bit_for_bit(self):
        from oracles import spg_run_reference

        seen = set()

        def check(d):
            lower = tuple(lo for lo, _ in d["bounds"])
            upper = tuple(hi for _, hi in d["bounds"])
            args = (d["weights"], d["center"], d["coupling"], d["valley"], d["wave"],
                    d["offset"], d["fault"], d["as_array"])
            sides = []
            for solve in (minimize, spg_run_reference):
                objective = self.objective(*args)
                problem = BoxNlp(objective=objective, lower=lower, upper=upper,
                                 max_iterations=d["max_iterations"],
                                 gradient_tolerance=d["gradient_tolerance"], scale=d["scale"])
                x0 = tuple(d["x0"])
                start = None
                if d["use_start"]:
                    start = objective([min(max(v, lo), hi)
                                       for v, lo, hi in zip(x0, lower, upper)])
                sides.append(self.outcome(lambda: solve(
                    problem, x0, start=start, steplength=d["steplength"])))
            assert sides[0] == sides[1]
            seen.add(sides[0][4] if len(sides[0]) > 2 else sides[0][0].__name__)

        for d in REFERENCE_EXAMPLES:
            check = example(d)(check)
        settings(max_examples=300, derandomize=True, deadline=None)(
            given(reference_draws())(check))()
        assert seen == {"gtol", "no_descent", "step_tol", "max_iter", "floor", "lambda_min",
                        "InvalidInputError", "NumericalFailureError"}
