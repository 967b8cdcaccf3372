import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needle_mpc.errors import InvalidInputError
from needle_mpc.kinematics import (
    _MIN_BEND_RATE,
    NeedleState,
    VirtualInput,
    _bend,
    _euler_flow,
    _exact_flow,
    _settle,
    rollout,
    step_euler,
    step_exact,
)
from needle_mpc.mapping import TendonCommand, TendonGeometry, _command_rates, rates_from_command
from oracles import FROZEN_DERIVATIVE, exact_step_rotation, state_derivative_scalar


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_state(rng):
    return NeedleState(p=rng.normal(scale=50.0, size=3), d=unit(rng.normal(size=3)))


def bend(d, u_x, u_y):
    """The bending term ddot = _bend(d) of step_euler, as an array."""
    return np.array(_bend(*d, u_x, u_y))


def derivative(state, u):
    """sdot at (state, u): position rows from the step_euler position update
    over a unit step, direction rows from the bending term ddot = _bend(d)."""
    pdot = np.subtract(step_euler(state, u, 1.0).p, state.p)
    return np.concatenate([pdot, bend(state.d, u.u_x, u.u_y)])


def random_input(rng):
    return VirtualInput(
        u_s=rng.uniform(-1.0, 24.0),
        u_x=rng.uniform(-5.0, 5.0),
        u_y=rng.uniform(-5.0, 5.0),
    )


finite_coord = st.floats(-100.0, 100.0)
direction_raw = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda d: 0.3 < math.hypot(*d) < 1.7)


# three numbers in the forms the per-step constructors accept, and values
# they reject; each accepted form holds 0, 0, 1, a unit direction
UNIT_TRIPLES = [
    (0, 0, 1), [0.0, 0.0, 1.0], np.array([0.0, 0.0, 1.0]), np.array([0, 0, 1]),
    (np.int64(0), np.float32(0.0), np.float64(1.0)),
]
BAD_TRIPLES = [
    (0.0, 1.0), (0.0, 0.0, 1.0, 0.0), "001", b"001", None, ("0", 0.0, 1.0), (0, False, 1),
    (0.0, math.nan, 1.0), (0.0, 0.0, math.inf), (-math.inf, 0.0, 1.0),
    np.array([[0.0], [0.0], [1.0]]), np.array([[0.0, 0.0, 1.0]]),
]
BAD_SCALARS = ["3", b"1", None, True, math.nan, math.inf, -math.inf, np.array([3.0])]


class TestValueContracts:
    @pytest.mark.parametrize("field", ["p", "d"])
    @pytest.mark.parametrize("value", UNIT_TRIPLES)
    def test_state_holds_a_float_tuple(self, field, value):
        s = NeedleState(**{"p": (1.0, 2.0, 3.0), "d": (0.0, 0.0, 1.0), field: value})
        got = getattr(s, field)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert got == (0.0, 0.0, 1.0)
        with pytest.raises(TypeError):
            got[0] = 1.0

    @pytest.mark.parametrize("field", ["p", "d"])
    @pytest.mark.parametrize("value", BAD_TRIPLES)
    def test_state_rejects_naming_the_field(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} "):
            NeedleState(**{"p": (1.0, 2.0, 3.0), "d": (0.0, 0.0, 1.0), field: value})

    @pytest.mark.parametrize("value", [3, 3.0, np.float64(3.0), np.int64(3), np.float32(3.0)])
    def test_input_holds_floats(self, value):
        u = VirtualInput(value, value, value)
        assert all(type(v) is float and v == 3.0 for v in (u.u_s, u.u_x, u.u_y))

    @pytest.mark.parametrize("field", ["u_s", "u_x", "u_y"])
    @pytest.mark.parametrize("value", BAD_SCALARS)
    def test_input_rejects_naming_the_field(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} "):
            VirtualInput(**{"u_s": 1.0, field: value})

    def test_strings_are_not_parsed(self):
        with pytest.raises(InvalidInputError, match="^u_s "):
            VirtualInput("3", "0.5", b"1")
        with pytest.raises(InvalidInputError, match="^p "):
            NeedleState(p="123", d=(0.0, 0.0, 1.0))


class TestStateValidation:
    def test_near_unit_direction_is_renormalized(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1 + 5e-7))
        assert np.linalg.norm(s.d) == pytest.approx(1.0, abs=1e-12)

    def test_far_from_unit_direction_rejected(self):
        with pytest.raises(InvalidInputError):
            NeedleState(p=(0, 0, 0), d=(0, 0, 1.01))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            NeedleState(p=(0, np.nan, 0), d=(0, 0, 1))

    def test_vector_roundtrip(self):
        s = NeedleState(p=(1.0, -2.0, 3.0), d=unit((1.0, 2.0, 2.0)))
        v = np.concatenate([s.p, s.d])
        s2 = NeedleState(p=v[:3], d=v[3:])
        assert np.array_equal(s.p, s2.p)
        assert np.allclose(s.d, s2.d, atol=1e-15)

    def test_state_arrays_are_read_only(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        with pytest.raises(TypeError):
            s.p[0] = 1.0


class TestDerivative:
    def test_straight_insertion(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        ds = derivative(s, VirtualInput(1.0, 0.0, 0.0))
        assert np.array_equal(ds, [0, 0, 1, 0, 0, 0])

    def test_unit_rate_bending(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        ds = derivative(s, VirtualInput(0.0, 1.0, 0.0))
        assert np.array_equal(ds, [0, 0, 0, 0, 1, 0])

    def test_frozen_worked_example(self):
        s = NeedleState(p=(1, 2, 3), d=(0.6, 0.0, 0.8))
        ds = derivative(s, VirtualInput(2.0, 0.5, -0.25))
        assert ds == pytest.approx(FROZEN_DERIVATIVE, abs=1e-15)

    @given(
        p=st.tuples(finite_coord, finite_coord, finite_coord),
        d=direction_raw,
        us=st.floats(-1.0, 24.0),
        ux=st.floats(-5.0, 5.0),
        uy=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_equations(self, p, d, us, ux, uy):
        dn = unit(d)
        s = NeedleState(p=p, d=dn)
        got = derivative(s, VirtualInput(us, ux, uy))
        want = state_derivative_scalar(p, dn, (us, ux, uy))
        assert got == pytest.approx(want, abs=1e-12)

    def test_block_structure(self):
        # pdot = u_s d: bending rates leave p alone and u_s leaves d alone
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_state(rng)
            u = random_input(rng)
            bend_only = derivative(s, VirtualInput(0.0, u.u_x, u.u_y))
            assert np.array_equal(bend_only[:3], np.zeros(3))
            insert_only = derivative(s, VirtualInput(u.u_s, 0.0, 0.0))
            assert np.array_equal(insert_only[3:], np.zeros(3))
        # the direction blocks d -> d x e_x and d -> d x e_y are skew-symmetric
        basis = np.eye(3)
        for ux, uy in ((1.0, 0.0), (0.0, 1.0)):
            block = np.stack([bend(e, ux, uy) for e in basis], axis=1)
            assert np.array_equal(block, -block.T)

    def test_linear_in_state(self):
        rng = np.random.default_rng(11)
        u = random_input(rng)
        s = random_state(rng)
        for alpha in (0.5, 2.0, -3.0):
            assert np.allclose(
                bend(alpha * np.asarray(s.d), u.u_x, u.u_y), alpha * bend(s.d, u.u_x, u.u_y)
            )
        # the position rows have no p columns
        moved = NeedleState(p=np.add(s.p, [7.0, -3.0, 11.0]), d=s.d)
        assert np.allclose(derivative(moved, u)[:3], derivative(s, u)[:3], atol=1e-12)

    def test_additive_in_inputs(self):
        rng = np.random.default_rng(12)
        s = random_state(rng)
        a = random_input(rng)
        b = random_input(rng)
        both = VirtualInput(a.u_s + b.u_s, a.u_x + b.u_x, a.u_y + b.u_y)
        zero = derivative(s, VirtualInput(0.0, 0.0, 0.0))
        assert np.array_equal(zero, np.zeros(6))
        assert np.allclose(
            derivative(s, both), derivative(s, a) + derivative(s, b), atol=1e-12
        )

    def test_direction_block_orthogonal_to_d(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            s = random_state(rng)
            u = random_input(rng)
            ds = derivative(s, u)
            assert abs(float(ds[3:] @ s.d)) <= 1e-12


class TestStepEuler:
    def test_one_mm_straight_step(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        out = step_euler(s, VirtualInput(20.0, 0.0, 0.0), 0.05)
        assert np.allclose(out.p, [0, 0, 1], atol=1e-15)
        assert np.array_equal(out.d, [0, 0, 1])

    def test_zero_input_fixed_point(self):
        rng = np.random.default_rng(5)
        s = random_state(rng)
        out = step_euler(s, VirtualInput(0.0, 0.0, 0.0), 0.05)
        assert np.array_equal(out.p, s.p)
        assert np.allclose(out.d, s.d, atol=1e-15)

    def test_bending_rotates_toward_plus_y(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        out = step_euler(s, VirtualInput(20.0, 5.0, 0.0), 0.05)
        assert out.d[1] > 0.0
        assert np.linalg.norm(out.d) == pytest.approx(1.0, abs=1e-12)
        # position advances along the pre-step direction
        assert np.allclose(out.p, [0, 0, 1], atol=1e-15)

    def test_euler_error_is_second_order_in_ts(self):
        s = NeedleState(p=(0, 0, 0), d=unit((0.1, -0.2, 1.0)))
        u = VirtualInput(20.0, 3.0, -2.0)
        errs = []
        for ts in (0.1, 0.05, 0.025, 0.0125):
            a = step_euler(s, u, ts)
            b = step_exact(s, u, ts)
            errs.append(np.linalg.norm(np.subtract((*a.p, *a.d), (*b.p, *b.d))))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        for r in ratios:
            assert 3.0 < r < 5.0

    @given(
        d=direction_raw,
        us=st.floats(-1.0, 24.0),
        ux=st.floats(-5.0, 5.0),
        uy=st.floats(-5.0, 5.0),
        ts=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_unit_norm_preserved(self, d, us, ux, uy, ts):
        s = NeedleState(p=(0, 0, 0), d=unit(d))
        out = step_euler(s, VirtualInput(us, ux, uy), ts)
        assert abs(np.linalg.norm(out.d) - 1.0) <= 1e-9


class TestStepExact:
    def test_straight_line(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        out = step_exact(s, VirtualInput(20.0, 0.0, 0.0), 1.0)
        assert np.allclose(out.p, [0, 0, 20], atol=1e-12)
        assert np.array_equal(out.d, [0, 0, 1])

    def test_direction_flip_by_pi(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        out = step_exact(s, VirtualInput(0.0, 5.0, 0.0), math.pi / 5.0)
        assert np.allclose(out.d, [0, 0, -1], atol=1e-12)
        assert np.allclose(out.p, 0.0, atol=1e-12)

    def test_constant_input_traces_circle(self):
        # u_s/u_x = 10 mm radius, bending about x so motion stays in y-z
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        u = VirtualInput(10.0, 1.0, 0.0)
        ts = 2.0 * math.pi / 200.0
        states = rollout(s, [u] * 200, ts)
        pts = np.array([st_.p for st_ in states])
        assert pts[:, 0] == pytest.approx(0.0, abs=1e-12)
        center = np.array([0.0, 10.0, 0.0])
        radii = np.linalg.norm(pts - center, axis=1)
        assert radii == pytest.approx(10.0, abs=1e-9)
        assert np.linalg.norm(np.subtract(states[-1].p, states[0].p)) < 1e-9

    def test_three_point_circle_fit_curvature(self):
        from needle_mpc.mapping import estimate_curvature

        # start perpendicular to the bending axis so the path is a circle,
        # not a helix; the angle between d and (u_x, u_y, 0) is invariant
        s = NeedleState(p=(0, 0, 0), d=(0.0, 0.0, 1.0))
        u = VirtualInput(12.0, 0.9, -0.7)
        states = rollout(s, [u] * 40, 0.05)
        pts = np.array([st_.p for st_ in states])
        want = math.hypot(u.u_x, u.u_y) / u.u_s
        got = estimate_curvature(pts[[0, 20, 40]])
        assert got == pytest.approx(want, rel=1e-6)

    @given(
        d=direction_raw,
        us=st.floats(-1.0, 24.0),
        ux=st.floats(-5.0, 5.0),
        uy=st.floats(-5.0, 5.0),
        ts=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_rotation_oracle(self, d, us, ux, uy, ts):
        dn = unit(d)
        s = NeedleState(p=(1.0, -2.0, 3.0), d=dn)
        out = step_exact(s, VirtualInput(us, ux, uy), ts)
        want_p, want_d = exact_step_rotation((1.0, -2.0, 3.0), dn, (us, ux, uy), ts)
        assert np.allclose(out.d, want_d, atol=1e-9)
        assert np.allclose(out.p, want_p, atol=1e-6)

    @given(
        d=direction_raw,
        us=st.just(0.0) | st.floats(-1.0, 24.0),
        log_rate=st.floats(-14.0, 0.7),
        psi=st.floats(0.0, 2.0 * math.pi),
        ts=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_rotation_oracle_near_straight(self, d, us, log_rate, psi, ts):
        # bend rates from 1e-14 to 5 rad/s straddle the straight-step cutoff
        rate = 10.0**log_rate
        ux, uy = rate * math.cos(psi), rate * math.sin(psi)
        dn = unit(d)
        s = NeedleState(p=(1.0, -2.0, 3.0), d=dn)
        out = step_exact(s, VirtualInput(us, ux, uy), ts)
        want_p, want_d = exact_step_rotation((1.0, -2.0, 3.0), dn, (us, ux, uy), ts)
        assert np.allclose(out.d, want_d, atol=1e-9)
        assert np.allclose(out.p, want_p, atol=1e-6)
        if us == 0.0:
            assert np.array_equal(out.p, s.p)

    def test_rate_just_below_cutoff_is_straight(self):
        s = NeedleState(p=(1.0, 2.0, 3.0), d=unit((0.3, -0.4, 1.0)))
        below = step_exact(s, VirtualInput(10.0, 0.5 * _MIN_BEND_RATE, 0.0), 0.05)
        assert np.array_equal(below.d, s.d)
        assert np.array_equal(below.p, np.add(s.p, 0.5 * np.asarray(s.d)))
        above = step_exact(s, VirtualInput(10.0, 2.0 * _MIN_BEND_RATE, 0.0), 0.05)
        assert np.allclose(above.p, below.p, atol=1e-12)

    def test_retraction_reverses_motion(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        out = step_exact(s, VirtualInput(-1.0, 0.0, 0.0), 1.0)
        assert np.allclose(out.p, [0, 0, -1], atol=1e-15)


class TestStepChecks:
    @pytest.mark.parametrize("step", [step_euler, step_exact])
    @pytest.mark.parametrize("u", [VirtualInput(1e308, 0.0, 0.0), VirtualInput(1e308, 0.01, 0.0),
                                   VirtualInput(1.0, 1e308, 1e308)])
    def test_overflowing_step_is_invalid_input(self, step, u):
        s = NeedleState(p=(0, 0, 0), d=unit((0.1, 0.2, 1.0)))
        with pytest.raises(InvalidInputError):
            step(s, u, 10.0)

    @pytest.mark.parametrize("step", [step_euler, step_exact])
    @pytest.mark.parametrize("u", [VirtualInput(20.0, 0.0, 0.0), VirtualInput(20.0, 1.5, -0.5)])
    def test_returned_state_is_read_only_and_unit(self, step, u):
        out = step(NeedleState(p=(1, 2, 3), d=unit((0.1, 0.2, 1.0))), u, 0.05)
        for arr in (out.p, out.d):
            with pytest.raises(TypeError):
                arr[0] = 1.0
        assert abs(math.sqrt(sum(v * v for v in out.d)) - 1.0) <= 1e-15

    @pytest.mark.parametrize("ts", ["0.05", b"0.05", True])
    def test_time_step_must_be_a_number(self, ts):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        u = VirtualInput(20.0, 1.0, 0.0)
        for step in (step_euler, step_exact):
            with pytest.raises(InvalidInputError, match="ts must be a number"):
                step(s, u, ts)
        with pytest.raises(InvalidInputError, match="ts must be a number"):
            rollout(s, [u], ts)

    @pytest.mark.parametrize("ts", [0.0, -0.0, -0.05])
    def test_time_step_must_be_positive(self, ts):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        u = VirtualInput(20.0, 1.0, 0.0)
        message = "^time step must be positive and finite, got "
        for step in (step_euler, step_exact):
            with pytest.raises(InvalidInputError, match=message):
                step(s, u, ts)
        with pytest.raises(InvalidInputError, match=message):
            rollout(s, [u], ts)

    def test_rollout_needs_an_input(self):
        with pytest.raises(InvalidInputError, match="^input sequence is empty$"):
            rollout(NeedleState(p=(0, 0, 0), d=(0, 0, 1)), [], 0.05)


class TestRollout:
    def test_zero_inputs_constant_sequence(self):
        s = NeedleState(p=(3, 2, 1), d=(1, 0, 0))
        states = rollout(s, [VirtualInput(0, 0, 0)] * 5, 0.05)
        assert len(states) == 6
        for st_ in states:
            assert np.array_equal(st_.p, s.p)
            assert np.allclose(st_.d, s.d, atol=1e-15)

    def test_straight_insertion_total_length(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        states = rollout(s, [VirtualInput(24.0, 0.0, 0.0)] * 210, 0.05)
        assert states[-1].p[2] == pytest.approx(252.0, abs=1e-9)

    def test_unit_norm_over_long_mixed_rollout(self):
        rng = np.random.default_rng(17)
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        inputs = [
            VirtualInput(rng.uniform(-1, 24), rng.uniform(-5, 5), rng.uniform(-5, 5))
            for _ in range(500)
        ]
        euler = [s]
        for u in inputs:
            euler.append(step_euler(euler[-1], u, 0.05))
        for st_ in euler + rollout(s, inputs, 0.05):
            assert abs(np.linalg.norm(st_.d) - 1.0) <= 1e-9


def _outcome(fn):
    """fn()'s state as float.hex text, so -0.0 and 0.0 differ, or the
    message of the InvalidInputError it raised."""
    try:
        out = fn()
    except InvalidInputError as exc:
        return "raised", str(exc)
    if isinstance(out, NeedleState):
        out = out.p, out.d
    return tuple(tuple(v.hex() for v in vector) for vector in out)


# rates across the straight-step cutoff, ordinary bends and the float range
bend_rate = (
    st.just(0.0)
    | st.floats(-0.5 * _MIN_BEND_RATE, 0.5 * _MIN_BEND_RATE)
    | st.floats(-2.0 * _MIN_BEND_RATE, 2.0 * _MIN_BEND_RATE)
    | st.floats(-10.0, 10.0)
    | st.floats(-1e308, 1e308)
)


class TestFloatPath:
    """The float-level flows that replays and calibration arcs step with,
    each state settled by _settle, agree bit for bit with step_exact and
    step_euler on NeedleState and VirtualInput, faults included."""

    @pytest.mark.parametrize("flow, step", [(_exact_flow, step_exact), (_euler_flow, step_euler)])
    @given(
        p=st.tuples(finite_coord, finite_coord, finite_coord),
        d=direction_raw,
        u_s=st.just(0.0) | st.floats(-50.0, 50.0) | st.floats(-1e308, 1e308),
        u_x=bend_rate,
        u_y=bend_rate,
        ts=st.floats(1e-6, 1.0) | st.floats(1.0, 1e12),
    )
    @example(p=(1.0, 2.0, 3.0), d=(0.3, -0.4, 1.0), u_s=10.0, u_x=0.5 * _MIN_BEND_RATE,
             u_y=0.0, ts=0.05)                                 # the straight branch
    @example(p=(1.0, 2.0, 3.0), d=(0.3, -0.4, 1.0), u_s=0.0, u_x=1.5, u_y=-0.5, ts=0.05)
    @example(p=(1.0, 2.0, 3.0), d=(0.3, -0.4, 1.0), u_s=-1.0, u_x=1.5, u_y=-0.5, ts=0.05)
    @example(p=(1.0, 2.0, 3.0), d=(0.3, -0.4, 1.0), u_s=20.0, u_x=1.5, u_y=-0.5, ts=1e6)
    @example(p=(0.0, 0.0, 0.0), d=(0.0, 0.0, 1.0), u_s=1.0, u_x=1e300, u_y=1e300,
             ts=1e10)                                          # the bend angle overflows
    @example(p=(0.0, 0.0, 0.0), d=(0.0, 0.0, 1.0), u_s=1e308, u_x=0.0, u_y=0.0,
             ts=10.0)                                          # the position overflows
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_flow_then_settle_is_the_step(self, flow, step, p, d, u_s, u_x, u_y, ts):
        state = NeedleState(p=p, d=unit(d))
        floats = _outcome(lambda: _settle(*flow(state.p, state.d, u_s, u_x, u_y, ts)))
        objects = _outcome(lambda: step(state, VirtualInput(u_s, u_x, u_y), ts))
        assert floats == objects

    @given(
        p=st.tuples(finite_coord, finite_coord, finite_coord),
        d=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    )
    @example(p=(0.0, 0.0, 0.0), d=(0.0, 0.0, 1.0 + 2e-6))      # off the unit norm
    @example(p=(0.0, 0.0, 0.0), d=(0.0, 0.0, 1.0 + 5e-7))      # renormalized
    @example(p=(1e308, 1e308, 0.0), d=(0.0, 0.0, 1.0))         # the sum overflows
    @example(p=(math.inf, 0.0, 0.0), d=(0.0, math.nan, 1.0))
    @example(p=(0.0, 0.0, 0.0), d=(math.nan, 0.0, 1.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_settle_is_the_constructor(self, p, d):
        assert _outcome(lambda: _settle(p, d)) == _outcome(lambda: NeedleState(p=p, d=d))

    @given(
        u_s=st.floats(-1e308, 1e308),
        tau=st.tuples(*[st.floats(0.0, 1e308)] * 3),
        log_gain=st.floats(-300.0, 307.0),
        theta_e=st.floats(0.0, 6.3),
    )
    @example(u_s=1e300, tau=(7.0, 0.0, 0.0), log_gain=10.0, theta_e=0.0)  # u_x overflows
    @example(u_s=1e300, tau=(7.0, 0.0, 0.0), log_gain=10.0,
             theta_e=1.5 * math.pi)                                  # u_y overflows
    @example(u_s=1e300, tau=(7.0, 0.0, 0.0), log_gain=7.384,
             theta_e=1.75 * math.pi)                                 # only the sum overflows
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_command_rates_are_rates_from_command(self, u_s, tau, log_gain, theta_e):
        geometry = TendonGeometry(theta_e=theta_e, gain=10.0**log_gain)

        def objects():
            u = rates_from_command(TendonCommand(u_s, tau), geometry)
            return ((u.u_s, u.u_x, u.u_y),)

        def floats():
            return ((u_s, *_command_rates(u_s, tau, geometry)),)

        assert _outcome(floats) == _outcome(objects)
