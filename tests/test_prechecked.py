"""The values a control step builds through errors._prechecked, against the
public constructors: each object equals the one its constructor builds
from the same fields, field for field (floats by their hex form, and the
same types), and each fault still surfaces with the constructor's message."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needle_mpc import mpc, scenario
from needle_mpc.errors import InvalidInputError, _prechecked
from needle_mpc.harness import StepRecord, run_closed_loop
from needle_mpc.kinematics import NeedleState, VirtualInput, _exact_flow, step_exact
from needle_mpc.mapping import (
    U_S_EPS,
    InverseMapResult,
    TendonCommand,
    TendonGeometry,
    _command_rates,
    inverse_map,
    rates_from_command,
)
from needle_mpc.mpc import HorizonSolution, MpcConfig, RecedingHorizonController, solve_horizon


def bits(value):
    """value with every float as its hex form and every dataclass, tuple and
    list tagged with its type, so that equal bits mean equal fields of equal
    types."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            (f.name, bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(bits, value))
    if type(value) is float:
        return value.hex()
    return type(value).__name__, value


def rebuilt(value):
    """value built again through the public constructors, nested values
    first. A NeedleState stays as it is: its constructor renormalizes d
    again, which may move its last bit, so a stepped state is compared with
    the constructor on its raw flow instead."""
    if dataclasses.is_dataclass(value) and type(value) is not NeedleState:
        return type(value)(**{f.name: rebuilt(getattr(value, f.name))
                              for f in dataclasses.fields(value)})
    return value


def assert_public_form(value):
    public = rebuilt(value)
    assert bits(value) == bits(public)
    assert vars(value).keys() == vars(public).keys()


finite = st.floats(-1e3, 1e3)
unit = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.1, 1.0)).map(
    lambda v: tuple(c / math.sqrt(sum(x * x for x in v)) for c in v))
states = st.builds(NeedleState, st.tuples(finite, finite, finite), unit)
geometries = st.builds(TendonGeometry, st.floats(-7.0, 7.0), st.floats(1e-5, 1e-2),
                       st.floats(0.5, 50.0))


class TestSteppedValues:
    @given(states, st.floats(-30.0, 30.0), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0),
           st.floats(1e-3, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_step_exact_state(self, state, u_s, u_x, u_y, ts):
        nxt = step_exact(state, VirtualInput(u_s, u_x, u_y), ts)
        public = NeedleState(*_exact_flow(state.p, state.d, u_s, u_x, u_y, ts))
        assert bits(nxt) == bits(public)
        assert vars(nxt).keys() == vars(public).keys()

    @given(st.floats(-30.0, 30.0), st.tuples(*[st.floats(0.0, 50.0)] * 3), geometries)
    @settings(max_examples=200, deadline=None)
    def test_rates_from_command(self, u_s, tau, geometry):
        u = rates_from_command(TendonCommand(u_s, tau), geometry)
        assert_public_form(u)
        assert bits(u) == bits(VirtualInput(u_s, *_command_rates(u_s, tau, geometry)))

    @given(st.one_of(st.floats(-30.0, 30.0), st.floats(-2e-6, 2e-6)),
           st.one_of(st.floats(-8.0, 8.0), st.floats(-1e300, 1e300)),
           st.floats(-8.0, 8.0), geometries)
    @settings(max_examples=300, deadline=None)
    def test_inverse_map(self, u_s, u_x, u_y, geometry):
        result = inverse_map(VirtualInput(u_s, u_x, u_y), geometry)
        assert_public_form(result)
        assert type(result.command.tau) is tuple and min(result.command.tau) >= 0.0

    def test_inverse_map_at_standstill_commands_zero_tensions(self):
        for u_s in (0.0, -0.0, 0.5 * U_S_EPS, -0.9 * U_S_EPS):
            result = inverse_map(VirtualInput(u_s, 3.0, -2.0), TendonGeometry())
            assert bits(result) == bits(
                InverseMapResult(TendonCommand(u_s, [0.0, 0.0, 0.0]), saturated=False))


class TestSolvedValues:
    @given(states, st.tuples(finite, finite, finite), st.integers(1, 8), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_solutions_and_applied_inputs(self, s0, target, horizon, steps):
        config = MpcConfig(horizon=horizon)
        refs = [target] * (horizon + 1)
        controller = RecedingHorizonController(config)
        for _ in range(steps):   # the first solve is cold, the others warm-started
            applied, solution = controller.step(s0, refs)
            assert_public_form(solution)
            assert_public_form(applied)
            assert bits(applied) == bits(VirtualInput(*solution.input_vector[:3]))

    def test_non_finite_objective_still_gives_the_fault_solution(self, monkeypatch):
        # every trial's gradient is nan; its value passes the line search
        monkeypatch.setattr(mpc._EulerHorizon, "value_and_grad",
                            lambda self, x: (-1.0, [math.nan] * len(x)))
        config = MpcConfig()
        s0 = NeedleState((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        refs = [(1.0, 2.0, 0.5 * k) for k in range(config.horizon + 1)]
        applied, solution = RecedingHorizonController(config).step(s0, refs)
        lo, hi = config.horizon_bounds()
        zero = tuple(min(max(0.0, a), b) for a, b in zip(lo, hi))
        assert (solution.solver_status, solution.stop) == ("fault", "fault")
        assert bits(solution) == bits(HorizonSolution(
            zero, cost=solution.cost, solver_status="fault", stop="fault"))
        assert bits(applied) == bits(VirtualInput(*zero[:3]))
        assert bits(solve_horizon(s0, refs, config)) == bits(solution)


class TestFaultsKeepTheirMessages:
    @staticmethod
    def message(call):
        with pytest.raises(InvalidInputError) as info:
            call()
        return str(info.value)

    def test_step_exact_whose_position_overflows(self):
        state = NeedleState((1e308, 0.0, 0.0), (1.0, 0.0, 0.0))
        for u in (VirtualInput(1e308), VirtualInput(1e308, 0.0, 1e-3)):
            flow = _exact_flow(state.p, state.d, u.u_s, u.u_x, u.u_y, 10.0)
            assert self.message(lambda: step_exact(state, u, 10.0)) == \
                self.message(lambda: NeedleState(*flow))
        assert self.message(lambda: step_exact(state, VirtualInput(1e308), 10.0)) == \
            "p has a non-finite value inf"

    @pytest.mark.parametrize("tau, name", [((1e10, 0.0, 0.0), "u_x"), ((0.0, 0.0, 0.0), None)])
    def test_rates_beyond_the_float_range(self, tau, name):
        geometry = TendonGeometry(theta_e=0.0, gain=1e10)
        command = TendonCommand(1e300, tau)
        if name is None:
            assert_public_form(rates_from_command(command, geometry))
            return
        u_x, u_y = (v * 1e300 for v in
                    (geometry._amat_rows[0][0] * 1e10, geometry._amat_rows[1][0] * 1e10))
        assert self.message(lambda: rates_from_command(command, geometry)) == \
            self.message(lambda: VirtualInput(1e300, u_x, u_y)) == \
            f"{name} has a non-finite value inf"


def test_step_records_and_their_values_are_the_constructors():
    # planar_fast saturates its 7 N box and ends with u_s below U_S_EPS
    records = run_closed_loop(scenario.load_preset("planar_fast")).records
    assert any(r.saturated for r in records)
    assert any(abs(r.applied.u_s) < U_S_EPS for r in records)
    for r in records:
        assert type(r) is StepRecord
        assert_public_form(r)


def test_prechecked_sets_fields_without_checks():
    u = _prechecked(VirtualInput, u_s=1.0, u_x=2.0, u_y=3.0)
    assert u == VirtualInput(1.0, 2.0, 3.0) and hash(u) == hash(VirtualInput(1.0, 2.0, 3.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.u_s = 2.0
