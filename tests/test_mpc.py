import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needle_mpc.errors import InvalidConfigError, InvalidInputError
from needle_mpc.kinematics import NeedleState, VirtualInput, step_euler
from needle_mpc.mpc import (
    HorizonSolution,
    MpcConfig,
    RecedingHorizonController,
    _EulerHorizon,
    horizon_cost,
    solve_horizon,
)
from oracles import euler_cost_batch, refine_minimize

CFG = MpcConfig()


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def to_inputs(arr):
    return [VirtualInput.from_array(row) for row in np.asarray(arr, dtype=float)]


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
        with pytest.raises(InvalidConfigError):
            MpcConfig(ts=0.0)
        with pytest.raises(InvalidConfigError):
            MpcConfig(horizon=0)
        with pytest.raises(InvalidConfigError):
            MpcConfig(q_weights=(-1.0, 1.0, 1.0))
        with pytest.raises(InvalidConfigError):
            MpcConfig(u_s_bounds=(5.0, -5.0))

    def test_planar_mode_collapses_u_y(self):
        cfg = MpcConfig(planar_mode=True)
        lo, hi = cfg.input_bounds()
        assert lo[2] == 0.0 and hi[2] == 0.0

    def test_horizon_bounds_tiling(self):
        lo, hi = CFG.horizon_bounds()
        assert lo.shape == (3 * CFG.horizon,)
        assert np.all(lo[0::3] == -1.0) and np.all(hi[0::3] == 24.0)


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
            horizon_cost(s, to_inputs(np.zeros((3, 3))), np.zeros((6, 3)), CFG)
        with pytest.raises(InvalidInputError):
            horizon_cost(s, to_inputs(np.zeros((5, 3))), np.zeros((5, 3)), CFG)


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
_offset = st.floats(-20.0, 20.0)


def fd5_gradient(core, x, h_scale=1e-3):
    """Five-point central differences of the value path.

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
            return core.value(y)

        fd[k] = (f(-2.0 * h) - 8.0 * f(-h) + 8.0 * f(h) - f(2.0 * h)) / (12.0 * h)
    return fd


@st.composite
def horizon_instances(draw):
    """(config, start state, refs, flat inputs) at N in {1, 5, 10}.

    Each input is drawn from its bounds, zero or the open box, so u_s = 0,
    saturated inputs and, in planar mode, u_y = 0 all occur. References lie
    within 20 mm per axis of the start, the scale of criterion 7.
    """
    n = draw(st.sampled_from((1, 5, 10)))
    cfg = MpcConfig(horizon=n, planar_mode=draw(st.booleans()))
    d = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] >= 1e-2
    )))
    state = NeedleState(p=draw(st.tuples(_coord, _coord, _coord)), d=d / np.linalg.norm(d))
    refs = state.p + np.array(draw(st.lists(
        st.tuples(_offset, _offset, _offset), min_size=n + 1, max_size=n + 1
    )))
    lo, hi = cfg.input_bounds()
    x = [
        draw(st.one_of(
            st.sampled_from((float(lo[j]), float(hi[j]), 0.0)),
            st.floats(float(lo[j]), float(hi[j])),
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
        assert core.value(x) == core.value_and_grad(x)[0]

    @given(horizon_instances())
    @settings(max_examples=100, deadline=None)
    def test_value_matches_batch_oracle(self, inst):
        cfg, state, refs, x = inst
        got = _EulerHorizon(state, refs, cfg).value(x)
        want = euler_cost_batch(
            state.p, state.d, refs, cfg.q_weights, cfg.r_weights, cfg.ts,
            x.reshape(1, -1, 3),
        )[0]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(horizon_instances())
    @settings(max_examples=100, deadline=None)
    def test_predicted_states_match_step_euler_chain(self, inst):
        cfg, state, refs, x = inst
        states = _EulerHorizon(state, refs, cfg).states(x.tolist())
        assert len(states) == cfg.horizon + 1
        s = state
        for k, u in enumerate(to_inputs(x.reshape(-1, 3))):
            assert np.max(np.abs(states[k].p - s.p)) <= 1e-12
            assert np.max(np.abs(states[k].d - s.d)) <= 1e-12
            s = step_euler(s, u, cfg.ts)
        assert np.max(np.abs(states[-1].p - s.p)) <= 1e-12

    @given(horizon_instances())
    @settings(max_examples=50, deadline=None)
    def test_gradient_matches_central_differences(self, inst):
        cfg, state, refs, x = inst
        core = _EulerHorizon(state, refs, cfg)
        _, grad = core.value_and_grad(x)
        fd = fd5_gradient(core, x)
        assert float(np.max(np.abs(grad - fd))) / (1.0 + float(np.max(np.abs(fd)))) <= GRAD_BOUND

    @given(horizon_instances())
    @settings(max_examples=40, deadline=None)
    def test_solve_never_exceeds_projected_warm_start_cost(self, inst):
        cfg, state, refs, x_prev = inst
        warm = HorizonSolution(
            inputs=tuple(to_inputs(x_prev.reshape(-1, 3))), cost=0.0,
            solver_status="converged", input_vector=x_prev,
            _core=_EulerHorizon(state, refs, cfg),
        )
        lo, hi = cfg.horizon_bounds()
        x0 = np.clip(np.concatenate((x_prev[3:], x_prev[-3:])), lo, hi)
        warm_cost, _ = horizon_cost(state, to_inputs(x0.reshape(-1, 3)), refs, cfg)
        sol = solve_horizon(state, refs, cfg, warm_start=warm)
        assert sol.cost <= warm_cost


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
            arr = np.concatenate([u.as_array() for u in sol.inputs])
            assert np.all(arr >= lo - 1e-15)
            assert np.all(arr <= hi + 1e-15)

    def test_predicted_states_consistent_with_euler(self):
        rng = np.random.default_rng(24)
        state, refs, _ = random_instance(rng, CFG.horizon)
        sol = solve_horizon(state, refs, CFG)
        s = state
        for i, u in enumerate(sol.inputs):
            s = step_euler(s, u, CFG.ts)
            assert np.allclose(sol.predicted_states[i + 1].p, s.p, atol=1e-12)

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
        assert applied.as_array() == pytest.approx(sol.inputs[0].as_array(), abs=0.0)

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
        ctrl.reset()
        a2, _ = ctrl.step(s, refs)
        assert a1.as_array() == pytest.approx(a2.as_array(), abs=0.0)

    def test_fault_count_starts_zero(self):
        ctrl = RecedingHorizonController(CFG)
        assert ctrl.fault_count == 0
