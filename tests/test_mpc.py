import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from needle_mpc import mpc, optimizer
from needle_mpc.errors import InvalidInputError
from needle_mpc.harness import run_closed_loop
from needle_mpc.kinematics import NeedleState, VirtualInput
from needle_mpc.mpc import (
    HorizonSolution,
    MpcConfig,
    RecedingHorizonController,
    _EulerHorizon,
    solve_horizon,
)
from needle_mpc.optimizer import BoxNlp, minimize
from needle_mpc.scenario import load_preset, with_seed
from oracles import euler_cost_batch, horizon_cost, refine_minimize, step_euler

CFG = MpcConfig()


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def to_inputs(arr):
    return [VirtualInput(*row) for row in np.asarray(arr, dtype=float)]


def random_instance(rng, horizon):
    state = NeedleState(
        p=rng.normal(scale=30.0, size=3), d=unit(rng.normal(size=3))
    )
    refs = state.p + rng.normal(scale=20.0, size=(horizon + 1, 3))
    inputs = np.stack(
        [
            rng.uniform(-1.0, 24.0, size=horizon),
            rng.uniform(-5.0, 5.0, size=horizon),
            rng.uniform(-5.0, 5.0, size=horizon),
        ],
        axis=1,
    )
    return state, refs, inputs


def fd_gradient(cfg, state, refs, inputs, h=1e-6):
    flat = np.asarray(inputs, dtype=float).reshape(-1)
    grad = np.empty_like(flat)
    for k in range(flat.size):
        step = h * (1.0 + abs(flat[k]))
        up = flat.copy()
        up[k] += step
        dn = flat.copy()
        dn[k] -= step
        fu, _ = horizon_cost(state, to_inputs(up.reshape(-1, 3)), refs, cfg)
        fd, _ = horizon_cost(state, to_inputs(dn.reshape(-1, 3)), refs, cfg)
        grad[k] = (fu - fd) / (2.0 * step)
    return grad


class TestConfig:
    def test_defaults_match_control_design(self):
        assert CFG.ts == 0.05
        assert CFG.horizon == 5
        assert CFG.q_weights == (100.0, 100.0, 200.0)
        assert CFG.r_weights == (1.0, 1.0, 1.0)
        assert CFG.u_s_bounds == (-1.0, 24.0)
        assert CFG.u_x_bounds == (-5.0, 5.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            MpcConfig(ts=0.0)
        assert MpcConfig(ts=mpc.MAX_PERIOD_S).ts == 10.0
        with pytest.raises(InvalidInputError,
                           match="^T_s_s must be <= 10, got 10.000000000000002$"):
            MpcConfig(ts=math.nextafter(mpc.MAX_PERIOD_S, math.inf))
        with pytest.raises(InvalidInputError):
            MpcConfig(horizon=0)
        with pytest.raises(InvalidInputError, match="horizon"):
            MpcConfig(horizon=1001)
        with pytest.raises(InvalidInputError):
            MpcConfig(q_weights=(-1.0, 1.0, 1.0))
        with pytest.raises(InvalidInputError):
            MpcConfig(u_s_bounds=(5.0, -5.0))

    def test_planar_mode_collapses_u_y(self):
        cfg = MpcConfig(planar_mode=True)
        lo, hi = cfg.horizon_bounds()
        assert lo[2::3] == hi[2::3] == (0.0,) * cfg.horizon
        assert lo[:2] == (-1.0, -5.0) and hi[:2] == (24.0, 5.0)

    @pytest.mark.parametrize(
        "roundtrip", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copied_config_keeps_bounds(self, roundtrip):
        cfg = MpcConfig(horizon=7, planar_mode=True, u_x_bounds=(-0.5, 0.25))
        back = roundtrip(cfg)
        assert back == cfg
        assert back.horizon_bounds() == cfg.horizon_bounds()
        lo, hi = back.horizon_bounds()
        assert lo == (-1.0, -0.5, 0.0) * 7 and hi == (24.0, 0.25, 0.0) * 7

    def test_horizon_bounds_tiling(self):
        lo, hi = CFG.horizon_bounds()
        assert all(type(v) is float for v in lo + hi)
        assert lo == (-1.0, -5.0, -5.0) * CFG.horizon
        assert hi == (24.0, 5.0, 5.0) * CFG.horizon


class TestHorizonCost:
    def test_zero_inputs_on_target_is_free(self):
        s = NeedleState(p=(1.0, 2.0, 3.0), d=(0, 0, 1))
        refs = np.tile(s.p, (CFG.horizon + 1, 1))
        cost, grad = horizon_cost(s, to_inputs(np.zeros((CFG.horizon, 3))), refs, CFG)
        assert cost == 0.0
        assert np.array_equal(grad, np.zeros(3 * CFG.horizon))

    def test_one_step_algebra(self):
        cfg = MpcConfig(horizon=1, q_weights=(1.0, 1.0, 1.0), r_weights=(0.0, 0.0, 0.0))
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = np.zeros((2, 3))
        cost, _ = horizon_cost(s, to_inputs([[10.0, 0.0, 0.0]]), refs, cfg)
        # only the post-step error term is nonzero: (u_s*T_s)^2
        assert cost == pytest.approx((10.0 * cfg.ts) ** 2, rel=1e-15)

    def test_matches_independent_batch_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            state, refs, inputs = random_instance(rng, CFG.horizon)
            got, _ = horizon_cost(state, to_inputs(inputs), refs, CFG)
            want = euler_cost_batch(
                state.p, state.d, refs, CFG.q_weights, CFG.r_weights, CFG.ts,
                inputs[None, :, :],
            )[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_shape_validation(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        with pytest.raises(InvalidInputError):
            solve_horizon(s, np.zeros((5, 3)), CFG)
        short = HorizonSolution(np.zeros(9), cost=0.0, solver_status="converged")
        with pytest.raises(InvalidInputError):
            solve_horizon(s, np.zeros((6, 3)), CFG, warm_start=short)


class TestGradient:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(20):
            state, refs, inputs = random_instance(rng, CFG.horizon)
            _, grad = horizon_cost(state, to_inputs(inputs), refs, CFG)
            fd = fd_gradient(CFG, state, refs, inputs)
            scale = max(1.0, float(np.max(np.abs(fd))))
            worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
        assert worst <= 1e-5


GRAD_BOUND = 1e-5    # criterion 7: max|g - fd| / (1 + max|fd|)

_coord = st.floats(-100.0, 100.0)
_far_coord = st.floats(-577.0, 577.0)    # |p_0| up to 1e3 mm
_offset = st.floats(-20.0, 20.0)


def fd5_gradient(core, x, h_scale=1e-3):
    """Five-point central differences of the rollout's cost.

    The rounding error of a difference quotient grows like eps*|J|/h. With
    h = 1e-6 a cost near 1e6 and a gradient near 0 alone exceed GRAD_BOUND,
    which an adversarial draw finds; with h = 1e-3 the fourth-order stencil
    keeps both its rounding and its truncation error far below the bound.
    """
    fd = np.empty_like(x)
    for k in range(x.size):
        h = h_scale * (1.0 + abs(x[k]))

        def f(t):
            y = x.copy()
            y[k] += t
            return core._rollout(y.tolist())[0]

        fd[k] = (f(-2.0 * h) - 8.0 * f(-h) + 8.0 * f(h) - f(2.0 * h)) / (12.0 * h)
    return fd


@st.composite
def horizon_instances(draw, coord=_coord):
    """(config, start state, refs, flat inputs) at N in {1, 5, 10}.

    Each input is drawn from its bounds, zero or the open box, so u_s = 0,
    saturated inputs and, in planar mode, u_y = 0 all occur. The start
    position's coordinates come from coord. References lie within 20 mm per
    axis of the start, the scale of criterion 7.
    """
    n = draw(st.sampled_from((1, 5, 10)))
    cfg = MpcConfig(horizon=n, planar_mode=draw(st.booleans()))
    d = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] >= 1e-2
    )))
    state = NeedleState(p=draw(st.tuples(coord, coord, coord)), d=d / np.linalg.norm(d))
    refs = state.p + np.array(draw(st.lists(
        st.tuples(_offset, _offset, _offset), min_size=n + 1, max_size=n + 1
    )))
    lo, hi = cfg.horizon_bounds()
    x = [
        draw(st.one_of(
            st.sampled_from((lo[j], hi[j], 0.0)),
            st.floats(lo[j], hi[j]),
        ))
        for _ in range(n)
        for j in range(3)
    ]
    return cfg, state, refs, np.array(x)


class TestEulerCore:
    @given(horizon_instances())
    @settings(max_examples=100, deadline=None)
    def test_value_path_equals_gradient_path_value(self, inst):
        cfg, state, refs, x = inst
        core = _EulerHorizon(state, refs, cfg)
        assert core._rollout(x.tolist())[0] == core.value_and_grad(x.tolist())[0]

    @given(horizon_instances())
    @settings(max_examples=100, deadline=None)
    def test_value_matches_batch_oracle(self, inst):
        cfg, state, refs, x = inst
        got = _EulerHorizon(state, refs, cfg)._rollout(x.tolist())[0]
        want = euler_cost_batch(
            state.p, state.d, refs, cfg.q_weights, cfg.r_weights, cfg.ts,
            x.reshape(1, -1, 3),
        )[0]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(horizon_instances())
    @settings(max_examples=100, deadline=None)
    def test_predicted_states_match_step_euler_chain(self, inst):
        cfg, state, refs, x = inst
        # each stage starts (e_i, d_i, d_i+1), e_i = p_i - ref_i; the terminal is e_N
        _, stages, terminal = _EulerHorizon(state, refs, cfg)._rollout(x.tolist())
        assert len(stages) == cfg.horizon
        s = state
        for stage, ref, u in zip(stages, refs, to_inputs(x.reshape(-1, 3))):
            nxt = step_euler(s, u, cfg.ts)
            assert np.max(np.abs(np.array(stage[0:3]) - np.subtract(s.p, ref))) <= 1e-12
            assert np.max(np.abs(np.array(stage[3:6]) - s.d)) <= 1e-12
            assert np.max(np.abs(np.array(stage[6:9]) - nxt.d)) <= 1e-12
            s = nxt
        assert np.max(np.abs(np.array(terminal) - np.subtract(s.p, refs[-1]))) <= 1e-12

    @given(horizon_instances())
    @settings(max_examples=50, deadline=None)
    def test_gradient_matches_central_differences(self, inst):
        cfg, state, refs, x = inst
        core = _EulerHorizon(state, refs, cfg)
        _, grad = core.value_and_grad(x.tolist())
        fd = fd5_gradient(core, x)
        assert float(np.max(np.abs(grad - fd))) / (1.0 + float(np.max(np.abs(fd)))) <= GRAD_BOUND

    @given(horizon_instances())
    @settings(max_examples=40, deadline=None)
    def test_solve_never_exceeds_projected_warm_start_cost(self, inst):
        cfg, state, refs, x_prev = inst
        warm = HorizonSolution(x_prev, cost=0.0, solver_status="converged")
        lo, hi = cfg.horizon_bounds()
        x0 = np.clip(np.concatenate((x_prev[3:], x_prev[-3:])), lo, hi)
        warm_cost, _ = horizon_cost(state, to_inputs(x0.reshape(-1, 3)), refs, cfg)
        sol = solve_horizon(state, refs, cfg, warm_start=warm)
        assert sol.cost <= warm_cost


class TestTipRelativeFrame:
    """The cost is rolled out from p_0 = 0 against ref_i - p_0; far from the
    origin it must still be the absolute-frame cost and keep its guarantee."""

    @given(horizon_instances(_far_coord))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_cost_equals_absolute_frame_cost(self, inst):
        cfg, state, refs, x = inst
        got = _EulerHorizon(state, refs, cfg)._rollout(x.tolist())[0]
        want = euler_cost_batch(
            state.p, state.d, refs, cfg.q_weights, cfg.r_weights, cfg.ts,
            x.reshape(1, -1, 3),
        )[0]
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    @given(horizon_instances(_far_coord))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_warm_start_guarantee_far_from_origin(self, inst):
        cfg, state, refs, x_prev = inst
        warm = HorizonSolution(x_prev, cost=0.0, solver_status="converged")
        lo, hi = cfg.horizon_bounds()
        x0 = np.clip(np.concatenate((x_prev[3:], x_prev[-3:])), lo, hi)
        sol = solve_horizon(state, refs, cfg, warm_start=warm)
        assert sol.cost <= horizon_cost(state, to_inputs(x0.reshape(-1, 3)), refs, cfg)[0]
        # and in absolute coordinates, to the roundoff of that frame
        warm_abs = euler_cost_batch(
            state.p, state.d, refs, cfg.q_weights, cfg.r_weights, cfg.ts,
            x0.reshape(1, -1, 3),
        )[0]
        assert sol.cost <= warm_abs + 1e-9 * (1.0 + abs(warm_abs))


class _CountingCore(_EulerHorizon):
    __slots__ = ("predictions",)

    def _rollout(self, x):
        self.predictions += 1
        return super()._rollout(x)


class TestRolloutReuse:
    """Each evaluation rolls out once; none reads an earlier call's rollout."""

    @given(horizon_instances())
    @settings(max_examples=100, deadline=None)
    def test_gradient_after_other_point_is_bit_exact(self, inst):
        cfg, state, refs, x = inst
        core = _EulerHorizon(state, refs, cfg)
        core.value_and_grad([v + 0.5 for v in x.tolist()])
        want = _EulerHorizon(state, refs, cfg).value_and_grad(x.tolist())
        assert core.value_and_grad(x.tolist()) == want

    @given(horizon_instances())
    @settings(max_examples=100, deadline=None)
    def test_gradient_after_same_point_is_bit_exact(self, inst):
        cfg, state, refs, x = inst
        core = _EulerHorizon(state, refs, cfg)
        core.value_and_grad(x.tolist())
        want = _EulerHorizon(state, refs, cfg).value_and_grad(x.tolist())
        assert core.value_and_grad(list(x.tolist())) == want

    def test_one_rollout_per_evaluation(self):
        rng = np.random.default_rng(4)
        cfg = MpcConfig(horizon=5)
        state, refs, _ = random_instance(rng, cfg.horizon)
        core = _CountingCore(state, refs, cfg)
        core.predictions = 0
        calls = []

        def objective(x):
            calls.append(x)
            return core.value_and_grad(x)

        lo, hi = cfg.horizon_bounds()
        res = minimize(BoxNlp(objective=objective, lower=lo, upper=hi), np.zeros(3 * cfg.horizon))
        assert res.iterations > 3 and len(calls) > 3
        assert core.predictions == len(calls) == res.evaluations


class TestSolveHorizon:
    def test_symmetric_target_needs_no_bending(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = np.tile([0.0, 0.0, 50.0], (CFG.horizon + 1, 1))
        sol = solve_horizon(s, refs, CFG)
        assert abs(sol.inputs[0].u_x) <= 1e-6
        assert abs(sol.inputs[0].u_y) <= 1e-6
        assert sol.inputs[0].u_s > 0.0

    def test_target_behind_tip_drives_retraction(self):
        s = NeedleState(p=(0, 0, 10.0), d=(0, 0, 1))
        refs = np.tile([0.0, 0.0, 5.0], (CFG.horizon + 1, 1))
        sol = solve_horizon(s, refs, CFG)
        assert sol.inputs[0].u_s < 0.0

    def test_inputs_respect_bounds(self):
        rng = np.random.default_rng(23)
        lo, hi = CFG.horizon_bounds()
        for _ in range(10):
            state, refs, _ = random_instance(rng, CFG.horizon)
            sol = solve_horizon(state, refs, CFG)
            arr = np.array([(u.u_s, u.u_x, u.u_y) for u in sol.inputs]).ravel()
            # elementwise: a tuple comparison would be lexicographic
            assert np.all(arr >= np.asarray(lo) - 1e-15)
            assert np.all(arr <= np.asarray(hi) + 1e-15)

    def test_predicted_states_consistent_with_euler(self):
        rng = np.random.default_rng(24)
        state, refs, _ = random_instance(rng, CFG.horizon)
        sol = solve_horizon(state, refs, CFG)
        # stage i holds e_i = p_i - ref_i and d_i+1 at [6:9]; the terminal is e_N
        _, stages, terminal = _EulerHorizon(state, refs, CFG)._rollout(list(sol.input_vector))
        errors = [stage[:3] for stage in stages[1:]] + [terminal]
        s = state
        for i, u in enumerate(sol.inputs):
            s = step_euler(s, u, CFG.ts)
            assert np.allclose(errors[i], np.subtract(s.p, refs[i + 1]), atol=1e-12)
            assert np.allclose(stages[i][6:9], s.d, atol=1e-12)

    def test_non_finite_cost_is_a_fault(self):
        # the cost at a target 1e200 mm away overflows to inf
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = np.tile([0.0, 0.0, 1e200], (CFG.horizon + 1, 1))
        sol = solve_horizon(s, refs, CFG)
        assert (sol.solver_status, sol.stop) == ("fault", "fault")
        assert sol.input_vector == (0.0,) * (3 * CFG.horizon)
        assert all(type(v) is float for v in sol.input_vector)
        assert all(u == VirtualInput(0.0) for u in sol.inputs)
        assert sol.cost == float("inf")
        assert (sol.iterations, sol.evaluations, sol.backtracks) == (0, 0, 0)

    def test_solution_reports_the_solver_counts(self):
        rng = np.random.default_rng(27)
        state, refs, _ = random_instance(rng, CFG.horizon)
        sol = solve_horizon(state, refs, CFG)
        lo, hi = CFG.horizon_bounds()
        core = _EulerHorizon(state, refs, CFG)
        res = minimize(
            BoxNlp(objective=core.value_and_grad, lower=lo, upper=hi),
            np.zeros(3 * CFG.horizon),
        )
        # at least one accepted trial
        assert res.evaluations - res.backtracks > 1
        assert (sol.stop, sol.iterations, sol.evaluations, sol.backtracks) == (
            res.stop, res.iterations, res.evaluations, res.backtracks
        )

    def test_solution_holds_one_float_tuple(self):
        rng = np.random.default_rng(28)
        state, refs, _ = random_instance(rng, CFG.horizon)
        sol = solve_horizon(state, refs, CFG)
        assert type(sol.input_vector) is tuple and len(sol.input_vector) == 3 * CFG.horizon
        assert all(type(v) is float for v in sol.input_vector)
        x = sol.input_vector
        assert sol.inputs == tuple(VirtualInput(*x[k:k + 3]) for k in range(0, len(x), 3))

    def test_non_finite_inputs_rejected_at_the_boundary(self):
        sol = HorizonSolution((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), cost=0.0, solver_status="converged")
        assert sol.inputs == (VirtualInput(1.0, 2.0, 3.0), VirtualInput(4.0, 5.0, 6.0))
        sol = HorizonSolution((1.0, float("nan"), 0.0), cost=0.0, solver_status="converged")
        with pytest.raises(InvalidInputError, match="u_x has a non-finite value"):
            sol.inputs

    def test_small_horizon_reaches_grid_refinement_cost(self):
        rng = np.random.default_rng(25)
        cfg = MpcConfig(horizon=2, multi_start=8, seed=1)
        lo, hi = cfg.horizon_bounds()
        for _ in range(3):
            state, refs, _ = random_instance(rng, 2)

            def batch(pts, state=state, refs=refs):
                return euler_cost_batch(
                    state.p, state.d, refs, cfg.q_weights, cfg.r_weights, cfg.ts,
                    pts.reshape(-1, 2, 3),
                )

            _, f_oracle = refine_minimize(
                batch, lo, hi, points_per_axis=7, rounds=8
            )
            sol = solve_horizon(state, refs, cfg)
            rel = (sol.cost - f_oracle) / max(1.0, abs(f_oracle))
            assert rel <= 1e-3


class TestRefsContract:
    """References are checked, not coerced: three finite numbers per row."""

    S0 = NeedleState(p=(0, 0, 0), d=(0, 0, 1))

    @pytest.mark.parametrize("bad", ["1.0", b"1.0", True, np.bool_(True), math.nan])
    def test_entries_are_not_coerced(self, bad):
        refs = [[0.0, 0.0, 50.0]] * (CFG.horizon + 1)
        refs[2] = [0.0, bad, 50.0]
        with pytest.raises(InvalidInputError, match="^refs "):
            solve_horizon(self.S0, refs, CFG)

    def test_shape_messages(self):
        with pytest.raises(InvalidInputError,
                           match=r"^refs must have shape \(6, 3\) for horizon 5, got \(5, 3\)$"):
            solve_horizon(self.S0, np.zeros((5, 3)), CFG)
        with pytest.raises(InvalidInputError, match=r"^refs must have shape \(3,\)"):
            solve_horizon(self.S0, np.zeros((6, 2)), CFG)
        with pytest.raises(InvalidInputError, match="^refs must be a list of"):
            solve_horizon(self.S0, "refs", CFG)

    # the tuple of three-float tuples that horizon_samples returns has a
    # fast path; every other tuple takes the checked path and its messages
    @pytest.mark.parametrize("bad", ["1.0", b"1.0", True, np.bool_(True), math.nan, math.inf,
                                     -math.inf, np.float64(math.nan)])
    def test_tuple_entries_are_not_coerced(self, bad):
        refs = [(0.0, 0.0, 50.0)] * (CFG.horizon + 1)
        refs[2] = (0.0, bad, 50.0)
        with pytest.raises(InvalidInputError, match="^refs "):
            solve_horizon(self.S0, tuple(refs), CFG)

    def test_tuple_shape_messages(self):
        with pytest.raises(InvalidInputError,
                           match=r"^refs must have shape \(6, 3\) for horizon 5, got \(5, 3\)$"):
            solve_horizon(self.S0, ((0.0, 0.0, 1.0),) * 5, CFG)
        with pytest.raises(InvalidInputError, match=r"^refs must have shape \(3,\)"):
            solve_horizon(self.S0, ((0.0, 0.0),) * 6, CFG)
        with pytest.raises(InvalidInputError, match=r"^refs must have shape \(3,\)"):
            solve_horizon(self.S0, ((0.0, 0.0, 1.0, 0.0),) * 6, CFG)
        with pytest.raises(InvalidInputError, match="^refs must be a list of numbers"):
            solve_horizon(self.S0, ((0.0, 0.0, 1.0),) * 5 + ("abc",), CFG)

    def test_any_sequence_of_rows_gives_the_same_solve(self):
        refs = [(1.0, -2.0, 30.0 + i) for i in range(CFG.horizon + 1)]
        want = solve_horizon(self.S0, np.array(refs), CFG)
        assert solve_horizon(self.S0, tuple(refs), CFG) == want
        assert solve_horizon(self.S0, refs, CFG) == want
        assert solve_horizon(self.S0, [list(r) for r in refs], CFG) == want
        # numbers that are not floats take the checked path
        assert solve_horizon(self.S0, tuple((1, -2, 30 + i) for i in range(6)), CFG) == want

    @pytest.mark.parametrize("p0", [(0.0, 0.0, 0.0), (1e307, -3.5, 7.25)])
    def test_fast_path_flattens_as_the_checked_path(self, p0):
        # rows whose sum overflows are finite, and the checked path takes them
        refs = ((1.0, -2.0, 30.0), (1e308, 1e308, -1.0), (-1e308, 5e-324, 0.1))
        flat = [v - o for row in refs for v, o in zip(row, p0)]
        assert mpc._check_refs(refs, 2, p0) == flat
        assert mpc._check_refs([list(r) for r in refs], 2, p0) == flat


class TestRecedingStep:
    """One receding-horizon step through RecedingHorizonController.step."""

    def test_at_target_applies_near_zero_input(self):
        s = NeedleState(p=(4.0, -2.0, 30.0), d=(0, 0, 1))
        refs = np.tile(s.p, (CFG.horizon + 1, 1))
        applied, _ = RecedingHorizonController(CFG).step(s, refs)
        assert abs(applied.u_s) <= 1e-6
        assert abs(applied.u_x) <= 1e-6
        assert abs(applied.u_y) <= 1e-6

    def test_far_target_saturates_insertion_speed(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = np.tile([0.0, 0.0, 500.0], (CFG.horizon + 1, 1))
        applied, _ = RecedingHorizonController(CFG).step(s, refs)
        assert applied.u_s == pytest.approx(24.0, abs=1e-9)

    def test_applied_is_first_solved_input(self):
        rng = np.random.default_rng(26)
        state, refs, _ = random_instance(rng, CFG.horizon)
        applied, sol = RecedingHorizonController(CFG).step(state, refs)
        assert applied == sol.inputs[0]

    def test_planar_mode_zeroes_u_y_exactly(self):
        cfg = MpcConfig(planar_mode=True)
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = np.tile([8.0, 5.0, 40.0], (cfg.horizon + 1, 1))
        applied, sol = RecedingHorizonController(cfg).step(s, refs)
        assert applied.u_y == 0.0
        assert all(u.u_y == 0.0 for u in sol.inputs)


class TestController:
    def test_warm_start_changes_nothing_for_repeat_solves(self):
        # identical measurements: warm-started resolve must not worsen cost
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = np.tile([5.0, -15.0, 150.0], (CFG.horizon + 1, 1))
        ctrl = RecedingHorizonController(CFG)
        _, sol1 = ctrl.step(s, refs)
        _, sol2 = ctrl.step(s, refs)
        # both converged solves; allow solver-tolerance-level slack
        assert sol2.cost <= sol1.cost * (1.0 + 1e-10)

    def test_reset_clears_warm_start(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = np.tile([5.0, -15.0, 150.0], (CFG.horizon + 1, 1))
        ctrl = RecedingHorizonController(CFG)
        a1, _ = ctrl.step(s, refs)
        ctrl.step(s, refs)
        # a fresh controller starts cold, as the first step of ctrl did
        a2, _ = RecedingHorizonController(CFG).step(s, refs)
        assert a2 == a1


class TestWarmStartShift:
    """A hand-built HorizonSolution may hold any sequence of numbers; the
    warm start shifts its float tuple by one input and repeats the last."""

    X = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]    # N = 3

    @pytest.mark.parametrize("make", [tuple, list, np.array], ids=["tuple", "list", "array"])
    def test_shift_accepts_any_sequence(self, make):
        warm = HorizonSolution(make(self.X), cost=0.0, solver_status="converged")
        assert type(warm.input_vector) is tuple
        assert all(type(v) is float for v in warm.input_vector)
        assert warm == HorizonSolution(tuple(self.X), cost=0.0, solver_status="converged")
        assert warm.inputs == (
            VirtualInput(1.0, 2.0, 3.0), VirtualInput(4.0, 5.0, 6.0), VirtualInput(7.0, 8.0, 9.0)
        )
        assert mpc._shift_warm_start(warm, 3) == (4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 7.0, 8.0, 9.0)

        cfg = MpcConfig(horizon=3)
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = np.tile([5.0, -15.0, 150.0], (4, 1))
        x0 = [4.0, 5.0, 5.0, 7.0, 5.0, 5.0, 7.0, 5.0, 5.0]    # shifted, then clipped
        sol = solve_horizon(s, refs, cfg, warm_start=warm)
        assert sol.cost <= horizon_cost(s, to_inputs(np.reshape(x0, (-1, 3))), refs, cfg)[0]


def record_starts(patch) -> list:
    """Patch mpc.minimize to record the start point of every solver run."""
    starts = []
    run = mpc.minimize

    def recorded(problem, x0, *args, **kwargs):
        starts.append(list(x0))
        return run(problem, x0, *args, **kwargs)

    patch.setattr(mpc, "minimize", recorded)
    return starts


def turn_about_z(v, angle):
    """v (x, y, z) turned by angle about the z axis."""
    c, s = math.cos(angle), math.sin(angle)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1], v[2])


def turn_plan(x, angle):
    """A flat plan with each stage's (u_x, u_y) turned by angle about z."""
    return [v for k in range(0, len(x), 3)
            for v in (x[k],) + turn_about_z((x[k + 1], x[k + 2], 0.0), angle)[:2]]


_headings = st.one_of(
    st.sampled_from(((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0))),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] >= 1e-2),
).map(lambda v: tuple(unit(v).tolist()))


class TestStartSelection:
    """A warm-started solve costs the shifted and the held plan (turned with
    the heading), both projected into the bounds, and starts from the held
    plan only when it is strictly cheaper. A run from the held plan that
    stalls is run again from the shifted plan, and that run is returned."""

    @given(horizon_instances(), st.booleans(), st.one_of(st.none(), _headings))
    @settings(max_examples=80, deadline=None)
    def test_cost_bounded_by_the_candidates_and_ties_shift(self, inst, tie, prev):
        # prev is the warm start's start direction (None: no turn)
        cfg, state, refs, x_prev = inst
        if tie:
            # no insertion and no input weight: every plan costs the same
            cfg = dataclasses.replace(cfg, r_weights=(0.0, 0.0, 0.0))
            x_prev = x_prev.copy()
            x_prev[0::3] = 0.0
        warm = HorizonSolution(x_prev, cost=0.0, solver_status="converged",
                               start_direction=prev)
        lo, hi = cfg.horizon_bounds()
        shifted = np.clip(np.concatenate((x_prev[3:], x_prev[-3:])), lo, hi).tolist()
        held = np.clip(mpc._turned_plan(warm, state.d, cfg), lo, hi).tolist()
        core = _EulerHorizon(state, refs, cfg)
        c_shifted, c_held = core._rollout(shifted)[0], core._rollout(held)[0]
        if tie:
            assert c_held == c_shifted
        with pytest.MonkeyPatch.context() as patch:
            starts = record_starts(patch)
            sol = solve_horizon(state, refs, cfg, warm_start=warm)
        if sol.solver_status == "fault":
            return
        assert starts[0] == (held if c_held < c_shifted else shifted)
        assert sol.cost <= c_shifted
        if len(starts) == 1:
            assert sol.cost <= min(c_shifted, c_held)
        else:
            # the held run stalled: the shifted run is returned
            assert starts == [held, shifted]

    def test_tie_starts_from_the_shifted_plan(self, monkeypatch):
        cfg = MpcConfig(horizon=3, r_weights=(0.0, 0.0, 0.0))
        state = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = [(1.0, -2.0, 30.0)] * 4
        x_prev = [0.0, 1.0, -1.0, 0.0, 2.0, 0.5, 0.0, -3.0, 4.0]
        shifted = x_prev[3:] + x_prev[-3:]
        core = _EulerHorizon(state, refs, cfg)
        assert core._rollout(x_prev)[0] == core._rollout(shifted)[0]
        starts = record_starts(monkeypatch)
        warm = HorizonSolution(x_prev, cost=0.0, solver_status="converged")
        solve_horizon(state, refs, cfg, warm_start=warm)
        assert starts == [shifted]

    def test_stalled_held_run_is_solved_again_from_the_shifted_plan(self, monkeypatch):
        solutions = []
        solve = mpc.solve_horizon

        def recorded_solve(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(mpc, "solve_horizon", recorded_solve)
        starts = record_starts(monkeypatch)
        run_closed_loop(load_preset("planar_fast"))
        # without the fallback, 23 standstill solves stop on floor from the
        # held plan; the shifted reruns all end on gtol
        assert len(solutions) == 210
        assert all(s.stop == "gtol" for s in solutions)
        assert len(starts) > len(solutions)


class TestTurnedHeldPlan:
    """The held plan is turned about z by the heading's turn since the warm
    start was solved, unless the warm start has no start direction, planar
    mode pins u_y or either heading has no horizontal part."""

    STATE = NeedleState(p=(1.0, -2.0, 3.0), d=unit((0.3, -0.4, 1.0)))
    REFS = [(1.0 + 0.4 * k, -2.0 - 0.2 * k, 3.0 + 1.2 * k) for k in range(CFG.horizon + 1)]
    PLAN = [12.0, 0.7, -0.3, 11.0, -0.2, 0.4, 10.0, 0.1, 0.2, 9.0, 0.0, -0.1, 8.0, 0.3, 0.0]

    @pytest.mark.parametrize("cfg, prev, d0", [
        (CFG, None, STATE.d),
        (dataclasses.replace(CFG, planar_mode=True), (0.6, 0.0, 0.8), STATE.d),
        (CFG, (0.0, 0.0, 1.0), STATE.d),
        (CFG, (0.36, 0.48, 0.8), (0.0, 0.0, -1.0)),
        (CFG, STATE.d, STATE.d),
    ], ids=["no_direction", "planar_mode", "vertical_before", "vertical_now", "no_turn"])
    def test_held_plan_left_as_it_is(self, cfg, prev, d0):
        warm = HorizonSolution(self.PLAN, cost=0.0, solver_status="converged",
                               start_direction=prev)
        assert mpc._turned_plan(warm, d0, cfg) is warm.input_vector
        state = NeedleState(p=self.STATE.p, d=d0)
        unturned = solve_horizon(state, self.REFS, cfg, warm_start=dataclasses.replace(
            warm, start_direction=None))
        assert solve_horizon(state, self.REFS, cfg, warm_start=warm) == unturned

    def test_solution_carries_its_start_direction(self):
        sol = solve_horizon(self.STATE, self.REFS, CFG)
        assert sol.start_direction == self.STATE.d
        warm = HorizonSolution(self.PLAN, cost=0.0, solver_status="converged",
                               start_direction=np.array([0.6, 0.0, 0.8]))
        assert warm.start_direction == (0.6, 0.0, 0.8)
        for bad in ((0.6, 0.8), (0.6, math.nan, 0.8), "xyz"):
            with pytest.raises(InvalidInputError, match="start_direction"):
                HorizonSolution(self.PLAN, cost=0.0, solver_status="converged",
                                start_direction=bad)

    @given(st.floats(-math.pi, math.pi), st.floats(-0.6, 0.6), st.floats(-0.6, 0.6),
           st.lists(st.tuples(_offset, _offset), min_size=CFG.horizon + 1,
                    max_size=CFG.horizon + 1))
    @settings(max_examples=60, deadline=None)
    def test_turned_solution_solves_the_turned_problem(self, angle, tx, ty, offsets):
        # a problem, and the same problem turned about z: insertion along d
        # past references offset sideways by up to a tenth of a millimetre
        state = NeedleState(p=(5.0, -3.0, 20.0), d=unit((tx, ty, 1.0)))
        refs = [tuple(p + 1.2 * k * v + 0.005 * o for p, v, o in zip(state.p, state.d, off + (0.0,)))
                for k, off in enumerate(offsets)]
        # the stop test reads the inf-norm of the projected gradient, which
        # a turn of (u_x, u_y) may raise by sqrt(2): the first solve goes to
        # half the tolerance
        first = solve_horizon(state, refs, dataclasses.replace(
            CFG, gradient_tolerance=CFG.gradient_tolerance / 2.0))
        x = first.input_vector
        assume(first.stop == "gtol" and all(
            math.hypot(x[k], x[k + 1]) < CFG.u_x_bounds[1] for k in range(1, len(x), 3)))
        turned_state = NeedleState(p=turn_about_z(state.p, angle), d=turn_about_z(state.d, angle))
        turned_refs = [turn_about_z(r, angle) for r in refs]
        expected = turn_plan(x, angle)
        held = mpc._turned_plan(first, turned_state.d, CFG)
        assert held == pytest.approx(expected, rel=1e-12, abs=1e-12)
        sol = solve_horizon(turned_state, turned_refs, CFG, warm_start=first)
        assert (sol.stop, sol.evaluations) == ("gtol", 1)
        assert sol.input_vector == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert sol.cost == pytest.approx(first.cost, rel=1e-12, abs=1e-12)


def record_runs(patch) -> list:
    """Patch mpc.minimize to record (problem, x0, kwargs, result, first
    objective call or None) of every solver run."""
    runs = []
    run = mpc.minimize

    def recorded(problem, x0, **kwargs):
        objective, calls = problem.objective, []

        def logged(x):
            calls.append(list(x))
            return objective(x)

        problem.objective = logged
        res = run(problem, x0, **kwargs)
        problem.objective = objective
        runs.append((problem, x0, kwargs, res, calls[0] if calls else None))
        return res

    patch.setattr(mpc, "minimize", recorded)
    return runs


_steplengths = st.floats(math.log10(optimizer._ALPHA_MIN), math.log10(optimizer._ALPHA_MAX)).map(
    lambda e: 10.0 ** e)


class TestCarriedState:
    """A warm start carries its plan and its last steplength; the run from
    its first start begins at the smaller of that steplength and the
    solver's own first one, and takes its start evaluation from the
    rollout that chose the start."""

    @given(horizon_instances(), _steplengths)
    @settings(max_examples=60, deadline=None)
    def test_first_step_never_longer_and_steplength_in_range(self, inst, steplength):
        cfg, state, refs, x_prev = inst
        solutions, trials = [], []
        for carried in (None, steplength):
            warm = HorizonSolution(x_prev, cost=0.0, solver_status="converged",
                                   steplength=carried)
            with pytest.MonkeyPatch.context() as patch:
                runs = record_runs(patch)
                solutions.append(solve_horizon(state, refs, cfg, warm_start=warm))
            trials.append((runs[0][1], runs[0][4]))
        own, capped = solutions
        if capped.solver_status == "fault":
            assert own.solver_status == "fault" and capped.steplength is None
            return
        assert optimizer._ALPHA_MIN <= capped.steplength <= optimizer._ALPHA_MAX
        (x0, t_own), (x0_capped, t_capped) = trials
        assert x0 == x0_capped
        if t_own is None:   # the start passed the stop test
            assert t_capped is None
            return
        # the trial is P(x0 - alpha g/h), which moves each coordinate
        # monotonically in alpha: a smaller alpha moves none further
        for v, a, b in zip(x0, t_own, t_capped):
            assert (b - v) * (a - v) >= 0.0 and abs(b - v) <= abs(a - v)

    @given(horizon_instances())
    @settings(max_examples=40, deadline=None)
    def test_no_steplength_solves_as_the_solver_alone(self, inst):
        cfg, state, refs, x_prev = inst
        warm = HorizonSolution(x_prev, cost=0.0, solver_status="converged")
        with pytest.MonkeyPatch.context() as patch:
            runs = record_runs(patch)
            sol = solve_horizon(state, refs, cfg, warm_start=warm)
        assert sol == solve_horizon(state, refs, cfg, warm_start=dataclasses.replace(
            warm, steplength=optimizer._ALPHA_MAX))
        if sol.solver_status == "fault":
            return
        # each run as a checked problem, evaluated at its start by the solver
        lo, hi = cfg.horizon_bounds()
        for problem, x0, kwargs, res, _ in runs:
            assert kwargs["steplength"] is None
            alone = minimize(BoxNlp(objective=problem.objective, lower=lo, upper=hi,
                                    max_iterations=cfg.max_iterations,
                                    gradient_tolerance=cfg.gradient_tolerance,
                                    scale=problem.scale), x0)
            assert alone == res

    @given(horizon_instances(), _steplengths)
    @settings(max_examples=40, deadline=None)
    def test_reused_start_is_the_evaluated_start(self, inst, steplength):
        cfg, state, refs, x_prev = inst
        warm = HorizonSolution(x_prev, cost=0.0, solver_status="converged",
                               steplength=steplength)
        with pytest.MonkeyPatch.context() as patch:
            runs = record_runs(patch)
            solve_horizon(state, refs, cfg, warm_start=warm)
        for problem, x0, kwargs, res, _ in runs:
            start = problem.objective(list(x0))
            assert kwargs["start"] == start
            evaluated = dict(kwargs, start=None)
            assert minimize(problem, x0, **evaluated) == res

    def test_fallback_run_uses_the_solver_steplength(self, monkeypatch):
        runs = record_runs(monkeypatch)
        solutions = []
        solve = mpc.solve_horizon

        def recorded_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            solutions.append((len(runs), sol))
            return sol

        monkeypatch.setattr(mpc, "solve_horizon", recorded_solve)
        run_closed_loop(load_preset("planar_fast"))
        carried = [None] + [sol.steplength for _, sol in solutions[:-1]]
        first = [0] + [end for end, _ in solutions[:-1]]
        fallbacks = 0
        for (end, _), start, warm in zip(solutions, first, carried):
            assert runs[start][2]["steplength"] == warm
            assert all(kwargs["steplength"] is None for _, _, kwargs, _, _ in runs[start + 1:end])
            fallbacks += end - start - 1
        assert fallbacks > 0

    def test_fault_carries_no_steplength(self):
        state = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = np.tile([0.0, 0.0, 1e200], (CFG.horizon + 1, 1))
        warm = HorizonSolution((1.0,) * (3 * CFG.horizon), cost=0.0, solver_status="converged",
                               steplength=0.5)
        for start in (None, warm):
            sol = solve_horizon(state, refs, CFG, warm_start=start)
            assert (sol.solver_status, sol.steplength) == ("fault", None)


def frozen_gauss_newton_diagonal(cfg, d0, x0):
    """2 diag(J'QJ) + 2 diag(R) of the horizon cost, J the Jacobian of the
    positions p_1..p_N in the inputs with every direction frozen at d_0,
    built column by column with numpy (inf and nan pass through)."""
    n, ts = cfg.horizon, cfg.ts
    d0 = np.asarray(d0, dtype=float)
    us = np.asarray(x0, dtype=float)[0::3]
    with np.errstate(all="ignore"):
        cols = {0: d0 * ts, 1: np.cross(d0, [1.0, 0.0, 0.0]) * ts * ts,
                2: np.cross(d0, [0.0, 1.0, 0.0]) * ts * ts}
        diag = np.empty(3 * n)
        for i in range(n):
            for c in range(3):
                jac = np.zeros((n, 3))   # row k-1: d p_k / d x_(3i+c)
                for k in range(i + 1, n + 1):
                    # a speed moves every later position; a bend at stage i
                    # moves p_k by T_s^2 (u_s,i+1 + ... + u_s,k-1)
                    jac[k - 1] = cols[c] if c == 0 else cols[c] * us[i + 1:k].sum()
                q = np.asarray(cfg.q_weights)
                diag[3 * i + c] = 2.0 * cfg.r_weights[c] + 2.0 * (jac * jac * q).sum()
    return diag


class TestHorizonMetric:
    """The solver's metric: the square root of the frozen-direction
    Gauss-Newton diagonal, or the identity (None) when it is not finite."""

    @given(
        st.integers(1, 8),
        st.floats(0.01, 10.0),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=6, max_size=6),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.1, 1.0)),
        st.integers(0, 2**32 - 1),
    )
    # a squared metric in the subnormals, 1 spacing (5e-324) from the oracle
    @example(n=2, ts=1.0, weights=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
             d0=(0.0, 1.5439687497155313e-158, 1.0), seed=0)
    # a subnormal d_0a^2 or (T_s^2 d_0a)^2, scaled up by 2 T_s^2 (N - i) or
    # by S_ik^2 after rounding, once landed 8, ~60 and 19 spacings from the
    # oracle
    @example(n=1, ts=3.0, weights=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
             d0=(7.452975657424565e-158, 0.0, 1.0), seed=0)
    @example(n=3, ts=1.0, weights=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
             d0=(0.0, 1.9688879194649657e-160, 1.0), seed=0)
    @example(n=3, ts=1.0, weights=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
             d0=(0.0, 3.099555435415325e-162, 1.0), seed=0)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_frozen_direction_jacobian(self, n, ts, weights, d0, seed):
        cfg = MpcConfig(ts=ts, horizon=n, q_weights=weights[:3], r_weights=weights[3:])
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1.0, 24.0, size=3 * n).tolist()
        refs = [(0.0, 0.0, 50.0)] * (n + 1)
        core = _EulerHorizon(NeedleState(p=(0, 0, 0), d=unit(d0)), refs, cfg)
        metric = core.metric(x0)
        want = frozen_gauss_newton_diagonal(cfg, core.d0, x0)
        if not (want > 0.0).any():
            assert metric is None
            return
        want[want == 0.0] = want[want > 0.0].min()
        got = np.square(metric)
        normal = want >= sys.float_info.min
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12)
        # a subnormal keeps too few bits for a relative bound: a few spacings
        np.testing.assert_allclose(got[~normal], want[~normal], rtol=0.0, atol=4 * math.ulp(0.0))

    @given(
        st.integers(1, 6),
        st.floats(0.0, mpc.MAX_PERIOD_S, exclude_min=True),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e300)), min_size=6, max_size=6),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.1, 1.0)),
        st.lists(st.floats(-25.0, 25.0), min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_finite_and_positive_or_the_identity(self, n, ts, weights, d0, speeds):
        # warm starts with retraction: u_s of either sign
        cfg = MpcConfig(ts=ts, horizon=n, q_weights=weights[:3], r_weights=weights[3:])
        state = NeedleState(p=(0, 0, 0), d=unit(d0))
        refs = [(0.0, 0.0, 50.0)] * (n + 1)
        x0 = [v for u_s in speeds[:n] for v in (u_s, 0.0, 0.0)]
        metric = _EulerHorizon(state, refs, cfg).metric(x0)
        if metric is None:
            want = frozen_gauss_newton_diagonal(cfg, state.d, x0)
            assert not np.isfinite(want).all() or want.max() > 1e300 or not (want > 0.0).any()
        else:
            assert type(metric) is tuple and len(metric) == 3 * n
            assert all(type(h) is float and 0.0 < h < math.inf for h in metric)
        # the solver takes it as it is, and the solve runs (a cost that
        # overflows is reported as a fault, as without the metric)
        warm = HorizonSolution(x0, cost=0.0, solver_status="converged")
        sol = solve_horizon(state, refs, cfg, warm_start=warm)
        assert sol.solver_status in ("converged", "stalled", "max_iter", "fault")

    def test_solve_uses_the_metric_and_falls_back_to_the_identity(self, monkeypatch):
        scales = []
        run = mpc.minimize

        def recorded(problem, *args, **kwargs):
            scales.append(problem.scale)
            return run(problem, *args, **kwargs)

        monkeypatch.setattr(mpc, "minimize", recorded)
        state = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        refs = [(3.0, -2.0, 40.0)] * (CFG.horizon + 1)
        solve_horizon(state, refs, CFG)
        # 2 T_s^2 N q_z overflows; a zero cost has no positive entry
        solve_horizon(state, refs, MpcConfig(ts=10.0, q_weights=(1e307, 1e307, 1e307)))
        solve_horizon(state, refs, MpcConfig(q_weights=(0.0, 0.0, 0.0), r_weights=(0.0, 0.0, 0.0)))
        assert scales[0] == _EulerHorizon(state, refs, CFG).metric((0.0,) * (3 * CFG.horizon))
        assert scales[1:] == [None, None]

    def test_zero_entries_take_the_smallest_positive_one(self):
        # cold start: no bend moves a later position, so with r_x = r_y = 0
        # the bending entries are 0
        cfg = MpcConfig(horizon=3, r_weights=(1.0, 0.0, 0.0))
        core = _EulerHorizon(NeedleState(p=(0, 0, 0), d=(0, 0, 1)), [(0.0, 0.0, 9.0)] * 4, cfg)
        metric = core.metric((0.0,) * 9)
        speed = [math.sqrt(2.0 + 2.0 * 0.05**2 * (3 - i) * 200.0) for i in range(3)]
        want = [speed[i // 3] if i % 3 == 0 else speed[2] for i in range(9)]
        assert metric == pytest.approx(want, rel=1e-15)


class TestRoundingFloor:
    """A planar_slow horizon (noise seed 145, step 7, 17 digits) whose solve
    stalls on a line search that cannot lower the cost any more."""

    CFG = MpcConfig(
        ts=1.0, u_s_bounds=(0.0, 20.0), u_x_bounds=(-0.04, 0.04), planar_mode=True,
        gradient_tolerance=1e-12,
    )
    STATE = NeedleState(
        p=[0.2911224769564638, 18.534116040689614, 138.63834147626554],
        d=[0.027190868126175518, 0.24810538827556528, 0.9683513685636924],
    )
    REFS = np.tile([0.0, 20.0, 150.0], (6, 1))
    WARM = np.array([
        20.0, 0.016665852437143427, 0.0, 11.475689720330829, 0.04, 0.0,
        0.058631094976195335, 0.0001224558828629363, 0.0,
        0.00030024063437770213, -6.659041893517632e-08, 0.0,
        1.5335135498902462e-06, 0.0, 0.0,
    ])

    def test_final_line_search_stops_at_the_floor(self):
        warm = HorizonSolution(self.WARM, cost=0.0, solver_status="stalled")
        sol = solve_horizon(self.STATE, self.REFS, self.CFG, warm_start=warm)
        assert (sol.solver_status, sol.stop) == ("stalled", "floor")
        # the same solve cut before its last iteration makes every call but
        # those of the final line search; here its first trial is rejected
        # and the halved one would fall below the floor, so it makes 1 call
        cut = dataclasses.replace(self.CFG, max_iterations=sol.iterations - 1)
        before = solve_horizon(self.STATE, self.REFS, cut, warm_start=warm)
        final_search = sol.evaluations - before.evaluations
        assert 1 <= final_search <= 4
        assert sol.backtracks - before.backtracks == final_search

        lo, hi = self.CFG.horizon_bounds()
        x0 = np.clip(np.concatenate((self.WARM[3:], self.WARM[-3:])), lo, hi)
        assert sol.cost <= _EulerHorizon(self.STATE, self.REFS, self.CFG)._rollout(x0.tolist())[0]


class TestEvaluationBudget:
    """Solver work over the six 20 Hz presets, read from the counts that
    every HorizonSolution carries: line-search trials, one objective call
    each, are a solve's evaluations less its start point's, the reverse
    pass of the start's rollout.

    Measured: 7089 trials and no stalled solve; helix took 611 of them.
    Holding the previous plan as it is, not turned with the tip's heading,
    they took 9978, helix 3519. With each solve's first steplength rebuilt
    from the start point, not capped by the one the warm start carries,
    they took 11695. Started from the shifted plan
    alone, as before the held plan was a candidate, the same runs took
    17126 trials. With the unit metric in place of the horizon's
    Gauss-Newton metric they took 18401 trials and stalled once; under a
    monotone Armijo test, which rejected Barzilai-Borwein steps that raise
    the cost, 26971 trials and 2 stalls. Before the cost moved to the
    tip-relative frame and the first line search interpolated, they took
    34279 trials and stalled 126 times: the cost's rounding noise, which
    grew with |p|, sat above the rounding floor.

    The planar presets, measured: planar_fast 1874 trials, planar_slow 641,
    every planar_fast solve on gtol. Without the carried steplength they
    took 2174 and 745; from the shifted plan alone 2769 and 700. With the
    unit metric they took 3486 and 1281 and stalled once each; under the
    monotone test 6254 and 2776, stalling 134 and 4 times.

    planar_slow over noise seeds 0-29, measured: 1 solve cut at
    max_iterations and 13131 trials (13464 without the carried
    steplength). With the unit metric 13 solves ran into the 500-iteration
    cap and the sweep took 30810 trials: at T_s = 1 s the cost's curvature
    in a bending rate is hundreds of times its curvature in insertion
    speed.
    """

    PRESETS = ("target1", "target2", "target3", "helix", "sharp_turn", "sinusoidal")
    MAX_VALUE_EVALS = 7800
    MAX_STALLED = 5
    PLANAR_MAX_VALUE_EVALS = 2750
    SWEEP_MAX_VALUE_EVALS = 14500
    SWEEP_MAX_ITER_SOLVES = 2

    def test_twenty_hz_presets_within_budget(self, monkeypatch):
        calls = []
        solutions = {}
        reverse = _EulerHorizon._reverse
        solve = mpc.solve_horizon

        def counted_reverse(core, rollout):
            calls.append(rollout)
            return reverse(core, rollout)

        def recorded_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            solutions[name].append((args, sol))
            return sol

        monkeypatch.setattr(_EulerHorizon, "_reverse", counted_reverse)
        monkeypatch.setattr(mpc, "solve_horizon", recorded_solve)
        for name in self.PRESETS:
            calls.clear()
            solutions[name] = []
            run_closed_loop(load_preset(name))
            assert sum(s.evaluations for _, s in solutions[name]) == len(calls)

        every = [s for sols in solutions.values() for _, s in sols]
        assert all(s.solver_status != "fault" for s in every)
        assert sum(s.evaluations - 1 for s in every) <= self.MAX_VALUE_EVALS
        assert sum(s.solver_status == "stalled" for s in every) <= self.MAX_STALLED
        # the first line search of a tracking solve accepts its first or its
        # interpolated second trial: each solve cut after its first
        # iteration backtracks at most once (measured: once in 11 of 210
        # helix solves and 71 of 210 sinusoidal ones; with the held plan
        # unturned, 36 and 64; without the carried steplength too, 202 and
        # 207). Only a turned helix start may pass gtol, with no line search
        # (measured: 106 of its 210 solves).
        for name in ("helix", "sinusoidal"):
            assert len(solutions[name]) == 210
            for (s0, refs, config, warm), _ in solutions[name]:
                first = solve(s0, refs, dataclasses.replace(config, max_iterations=1), warm)
                if first.stop == "gtol":
                    assert (name, first.evaluations, first.backtracks) == ("helix", 1, 0)
                    continue
                assert (first.stop, first.evaluations - first.backtracks) == ("max_iter", 2)
                assert first.backtracks <= 1

    def test_planar_presets_within_budget(self, monkeypatch):
        solutions = []
        solve = mpc.solve_horizon

        def recorded_solve(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(mpc, "solve_horizon", recorded_solve)
        for name in ("planar_fast", "planar_slow"):
            run_closed_loop(load_preset(name))
        assert all(s.solver_status != "fault" for s in solutions)
        assert sum(s.evaluations - 1 for s in solutions) <= self.PLANAR_MAX_VALUE_EVALS
        assert sum(s.solver_status == "stalled" for s in solutions) <= self.MAX_STALLED

    def test_planar_slow_noise_sweep_within_budget(self, monkeypatch):
        solutions = []
        solve = mpc.solve_horizon

        def recorded_solve(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(mpc, "solve_horizon", recorded_solve)
        slow = load_preset("planar_slow")
        for seed in range(30):
            run_closed_loop(with_seed(slow, seed))
        assert all(s.solver_status != "fault" for s in solutions)
        assert sum(s.stop == "max_iter" for s in solutions) <= self.SWEEP_MAX_ITER_SOLVES
        assert sum(s.evaluations - 1 for s in solutions) <= self.SWEEP_MAX_VALUE_EVALS


class TestCostScale:
    """Scaling Q and R by one constant c leaves every horizon's minimizer,
    and so the closed loop, in place. The solver's stop test compares the
    projected gradient with gradient_tolerance * (1 + |J|), both in the
    cost's units.

    Measured on the eight closed-loop presets at c = 1e-3, 1e3 and 1e6:
    final and max errors within 3.7e-6 mm of c = 1 (target3 at 1e6). With
    the unit step |x - P(x - g)| as the stop measure, which never exceeds
    the box width, every start point passed the test once |J| was large:
    target1-3 stayed at their start errors (150.8 to 236.1 mm) from
    c = 1e3, and at c = 1e6 helix ended 80.2 mm off and planar_fast
    161.2 mm.
    """

    BOUND_MM = 1e-4
    PRESETS = ("target1", "target2", "target3", "helix", "sharp_turn", "sinusoidal",
               "planar_fast", "planar_slow")

    @pytest.mark.parametrize("name", PRESETS)
    def test_errors_do_not_depend_on_the_cost_scale(self, name):
        scenario = load_preset(name)
        base = run_closed_loop(scenario).summary
        for c in (1e-3, 1e3, 1e6):
            scaled = dataclasses.replace(
                scenario.mpc,
                q_weights=tuple(c * w for w in scenario.mpc.q_weights),
                r_weights=tuple(c * w for w in scenario.mpc.r_weights),
            )
            got = run_closed_loop(dataclasses.replace(scenario, mpc=scaled)).summary
            assert abs(got.final_error_mm - base.final_error_mm) <= self.BOUND_MM, c
            assert abs(got.max_error_mm - base.max_error_mm) <= self.BOUND_MM, c
