import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needle_mpc.errors import (
    InvalidConfigError,
    InvalidInputError,
    NumericalFailureError,
)
from needle_mpc import harness, mpc
from needle_mpc.harness import (
    CSV_COLUMNS,
    OPEN_LOOP_CSV_COLUMNS,
    OpenLoopResult,
    PlantConfig,
    RunConfig,
    StepRecord,
    compute_metrics,
    read_commands_csv,
    run_closed_loop,
    run_open_loop,
    summary_dict,
    write_open_loop_csv,
    write_step_csv,
    write_summary_json,
)
from needle_mpc.kinematics import NeedleState, VirtualInput, step_exact
from needle_mpc.mapping import TendonCommand, TendonGeometry, forward_map, rates_from_command
from needle_mpc.mpc import MpcConfig, _EulerHorizon
from needle_mpc.references import FixedTarget
from needle_mpc.scenario import Scenario, load_preset, scenario_from_dict, scenario_to_dict
from oracles import chord_deflection, step_euler

# what a CSV row may hold: floats (nan, infinities, signed zeros and
# subnormals included), bools and ints
csv_value_st = st.one_of(st.floats(), st.booleans(), st.integers(-10**20, 10**20))

WIDE_GEO = TendonGeometry(tau_max=1.0e6)   # virtual bounds bind, tendons never saturate
HW_GEO = TendonGeometry()                  # hardware tension ceiling


def make_scenario(
    reference,
    steps,
    geometry=WIDE_GEO,
    mpc_kwargs=None,
    plant_kwargs=None,
    run_kwargs=None,
):
    return Scenario(
        mpc=MpcConfig(**(mpc_kwargs or {})),
        geometry=geometry,
        plant=PlantConfig(**(plant_kwargs or {})),
        reference=reference,
        run=RunConfig(steps=steps, **(run_kwargs or {})),
    )


class TestPlantConfig:
    def test_defaults_are_unperturbed(self):
        plant = PlantConfig()
        assert plant.integrator == "exact"
        assert plant.gain_error == 0.0 and plant.theta_e_error == 0.0
        assert plant.measurement_noise_std == (0.0, 0.0, 0.0)
        assert plant.latency_steps == 0

    def test_true_geometry_applies_perturbations(self):
        plant = PlantConfig(gain_error=0.05, theta_e_error=0.1)
        true = plant.true_geometry(HW_GEO)
        assert true.gain == pytest.approx(HW_GEO.gain * 1.05, rel=1e-15)
        assert true.theta_e == pytest.approx(HW_GEO.theta_e + 0.1, abs=1e-15)
        assert true.tau_max == HW_GEO.tau_max

    def test_validation(self):
        for integrator in ("rk4", "euler"):
            with pytest.raises(InvalidConfigError, match="^integrator must be one of 'exact'"):
                PlantConfig(integrator=integrator)
        with pytest.raises(InvalidConfigError):
            PlantConfig(gain_error=-1.0)
        with pytest.raises(InvalidConfigError):
            PlantConfig(measurement_noise_std=(0.1, -0.1, 0.1))
        with pytest.raises(InvalidConfigError):
            PlantConfig(latency_steps=-1)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            RunConfig(steps=0)
        with pytest.raises(InvalidConfigError):
            RunConfig(initial_state=(0.0, 0.0, 0.0, 0.0, 1.0))
        with pytest.raises(InvalidInputError, match=r"^initial_state: direction norm 2 "):
            RunConfig(initial_state=(0.0, 0.0, 0.0, 0.0, 0.0, 2.0))
        with pytest.raises(InvalidConfigError):
            RunConfig(stop_tolerance_mm=-0.1)

    def test_state_roundtrip(self):
        run = RunConfig(initial_state=(1.0, 2.0, 3.0, 0.0, 1.0, 0.0))
        s = run.state()
        assert np.array_equal(s.p, [1.0, 2.0, 3.0])
        assert np.array_equal(s.d, [0.0, 1.0, 0.0])


class TestClosedLoop:
    def test_zero_distance_target_stays_put(self):
        scenario = make_scenario(FixedTarget(target=(0.0, 0.0, 0.0)), steps=10)
        result = run_closed_loop(scenario)
        assert result.summary.final_error_mm == 0.0
        assert np.array_equal(result.terminal_state.p, [0.0, 0.0, 0.0])
        for r in result.records:
            assert abs(r.applied.u_s) < 1e-9
            assert r.err == 0.0

    def test_straight_ahead_planar_needs_no_tension(self):
        # target on the initial axis: by symmetry the optimal plan never bends,
        # so the commanded tensions stay at zero
        scenario = make_scenario(
            FixedTarget(target=(0.0, 0.0, 60.0)),
            steps=75,
            geometry=HW_GEO,
            mpc_kwargs={
                "u_s_bounds": (-1.0, 20.0),
                "u_x_bounds": (-0.04, 0.04),
                "planar_mode": True,
                "gradient_tolerance": 1e-12,
            },
        )
        result = run_closed_loop(scenario)
        for r in result.records:
            assert max(abs(v) for v in r.command.tau) <= 1e-9
        assert result.summary.final_error_mm < 0.2

    def test_deterministic_under_noise(self, tmp_path):
        def run_once(path):
            scenario = make_scenario(
                FixedTarget(target=(5.0, -15.0, 150.0)),
                steps=30,
                plant_kwargs={"measurement_noise_std": (0.3, 0.3, 0.3), "seed": 11},
            )
            result = run_closed_loop(scenario)
            write_step_csv(result, path)
            return result

        r1 = run_once(tmp_path / "a.csv")
        r2 = run_once(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert summary_dict(r1) == summary_dict(r2)

    def test_euler_plant_matches_prediction_chain(self, monkeypatch):
        # every plan the loop applies is predicted by the Euler rollout it
        # was optimized over: a step_euler chain from the measured state
        solves = []
        solve = mpc.solve_horizon

        def recorded(s0, refs, config, warm_start=None):
            solves.append((s0, refs, config, solve(s0, refs, config, warm_start)))
            return solves[-1][-1]

        monkeypatch.setattr(mpc, "solve_horizon", recorded)
        scenario = make_scenario(FixedTarget(target=(5.0, -15.0, 150.0)), steps=40)
        result = run_closed_loop(scenario)
        assert len(solves) == len(result.records)
        for r, (s0, refs, config, solution) in zip(result.records, solves):
            assert s0 == r.measured and solution.inputs[0] == r.applied
            _, stages, terminal = _EulerHorizon(s0, refs, config)._rollout(
                list(solution.input_vector)
            )
            # stage i holds e_i = p_i - ref_i and d_i+1 at [6:9]; the terminal is e_N
            errors = [stage[:3] for stage in stages[1:]] + [terminal]
            s = s0
            for i, u in enumerate(solution.inputs):
                s = step_euler(s, u, config.ts)
                gap = np.linalg.norm(np.subtract(errors[i], np.subtract(s.p, refs[i + 1])))
                assert gap <= 1e-9
                assert np.linalg.norm(np.subtract(stages[i][6:9], s.d)) <= 1e-9

    def test_mapping_consistent_inside_loop(self):
        scenario = make_scenario(
            FixedTarget(target=(5.0, -15.0, 150.0)), steps=40, geometry=HW_GEO
        )
        result = run_closed_loop(scenario)
        for r in result.records:
            realized = rates_from_command(r.command, HW_GEO)
            assert realized.u_s == r.applied.u_s
            if not r.saturated:
                assert abs(realized.u_x - r.applied.u_x) <= 1e-6
                assert abs(realized.u_y - r.applied.u_y) <= 1e-6

    def test_metric_identity(self):
        scenario = make_scenario(FixedTarget(target=(5.0, -15.0, 150.0)), steps=30)
        s = run_closed_loop(scenario).summary
        assert s.inserted_length_mm > 0.0
        recovered = s.error_pct_of_insertion * s.inserted_length_mm / 100.0
        assert recovered == pytest.approx(s.final_error_mm, rel=1e-12, abs=1e-15)

    def test_early_stop_on_fixed_target(self):
        scenario = make_scenario(
            FixedTarget(target=(0.0, 0.0, 10.0)),
            steps=210,
            run_kwargs={"early_stop": True, "stop_tolerance_mm": 0.2, "stop_speed_mm_s": 0.1},
        )
        result = run_closed_loop(scenario)
        assert result.summary.steps < 210
        assert result.summary.final_error_mm < 0.2

    def test_latency_delays_the_measured_state(self):
        scenario = make_scenario(
            FixedTarget(target=(5.0, -15.0, 150.0)),
            steps=20,
            plant_kwargs={"latency_steps": 2},
        )
        result = run_closed_loop(scenario)
        recs = result.records
        for k in range(len(recs)):
            expected = recs[max(0, k - 2)].state
            assert np.array_equal(recs[k].measured.p, expected.p)
            assert np.array_equal(recs[k].measured.d, expected.d)

    def test_layer_hooks_are_looked_up_at_call_time(self, monkeypatch):
        # perfbench's tracer times each layer by wrapping these module
        # attributes; a call site bound at import time would bypass the
        # wrapper, and its layer would read 0 without any failure
        calls = {}

        def count(owner, name):
            inner = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("step_exact", "rates_from_command", "inverse_map", "horizon_samples",
                     "check_path_speed"):
            count(harness, name)
        count(mpc, "minimize")
        scn = load_preset("target1")
        run_closed_loop(dataclasses.replace(scn, run=dataclasses.replace(scn.run, steps=3)))
        assert calls == {
            "check_path_speed": 1, "horizon_samples": 4,  # 3 steps and the terminal reference
            "minimize": 3, "inverse_map": 3, "rates_from_command": 3, "step_exact": 3,
        }

    def test_fault_budget(self, monkeypatch):
        class FaultyController:
            def __init__(self, cfg):
                pass

            def step(self, measured, refs):
                sol = type(
                    "Sol", (), {"solver_status": "fault", "cost": 0.0,
                                "projected_gradient_norm": 0.0}
                )()
                return VirtualInput(u_s=0.0, u_x=0.0, u_y=0.0), sol

        monkeypatch.setattr(harness, "RecedingHorizonController", FaultyController)
        target = FixedTarget(target=(5.0, -15.0, 150.0))

        scenario = make_scenario(target, steps=10, run_kwargs={"fault_budget": 3})
        with pytest.raises(NumericalFailureError):
            run_closed_loop(scenario)

        scenario = make_scenario(target, steps=5, run_kwargs={"fault_budget": 10})
        result = run_closed_loop(scenario)
        assert all(r.fault for r in result.records)
        assert summary_dict(result)["fault_steps"] == 5
        assert result.summary.error_pct_of_insertion is None  # nothing inserted


def _record(t, err, u_s):
    state = NeedleState(p=(0.0, 0.0, 0.0), d=(0.0, 0.0, 1.0))
    return StepRecord(
        t=t, state=state, measured=state, ref=np.zeros(3),
        applied=VirtualInput(u_s=u_s, u_x=0.0, u_y=0.0),
        command=TendonCommand(u_s=u_s, tau=(0.0, 0.0, 0.0)),
        saturated=False, cost=0.0, solve_time=0.0, err=err, fault=False,
        pg_norm_scaled=0.0,
    )


class TestNoisySensor:
    STD = (0.3, 1.5, 0.0)
    DRAWS = 4000

    def measured(self, seed, state):
        sensor = harness._NoisySensor(PlantConfig(measurement_noise_std=self.STD, seed=seed),
                                      state.d)
        return [sensor.measure(state) for _ in range(self.DRAWS)]

    def test_noise_statistics(self):
        # zero-mean, std sigma per axis: over n draws the sample mean lies
        # within 4 sigma/sqrt(n) of 0 and the sample std within
        # 4 sigma/sqrt(2n) of sigma (four standard errors each)
        state = NeedleState(p=(1.0, -2.0, 30.0), d=(0.0, 0.0, 1.0))
        noise = np.array([m.p for m in self.measured(5, state)]) - np.array(state.p)
        n = self.DRAWS
        for axis, sigma in enumerate(self.STD[:2]):
            assert abs(noise[:, axis].mean()) <= 4.0 * sigma / math.sqrt(n)
            assert abs(noise[:, axis].std(ddof=1) - sigma) <= 4.0 * sigma / math.sqrt(2 * n)

    def test_zero_std_axis_stays_exact(self):
        state = NeedleState(p=(1.0, -2.0, 30.0), d=(0.0, 0.0, 1.0))
        assert all(m.p[2] == 30.0 for m in self.measured(5, state))

    def test_same_seed_same_draws(self):
        state = NeedleState(p=(1.0, -2.0, 30.0), d=(0.0, 0.0, 1.0))
        first, again, other = (self.measured(seed, state) for seed in (9, 9, 10))
        assert [(m.p, m.d) for m in first] == [(m.p, m.d) for m in again]
        assert [m.p for m in first] != [m.p for m in other]

    def test_direction_from_the_last_two_positions(self):
        state = NeedleState(p=(1.0, -2.0, 30.0), d=(0.0, 0.0, 1.0))
        measured = self.measured(3, state)
        assert measured[0].d == state.d  # one position has no displacement yet
        for prev, cur in zip(measured, measured[1:]):
            motion = np.subtract(cur.p, prev.p)
            np.testing.assert_allclose(cur.d, motion / np.linalg.norm(motion), rtol=1e-12)


class TestComputeMetrics:
    def test_single_step_onto_target(self):
        summary = compute_metrics([_record(0.0, 1.0, 20.0)], terminal_err=0.0, ts=0.05)
        assert summary.final_error_mm == 0.0
        assert summary.inserted_length_mm == pytest.approx(1.0, rel=1e-15)
        assert summary.max_error_mm == 1.0
        assert summary.error_pct_of_insertion == 0.0
        assert summary.steps == 1

    def test_synthetic_errors_reproduced(self):
        records = [_record(k * 1.0, e, 10.0) for k, e in enumerate([3.0, 1.0, 2.0])]
        summary = compute_metrics(records, terminal_err=0.5, ts=1.0)
        assert summary.max_error_mm == 3.0
        assert summary.final_error_mm == 0.5
        assert summary.inserted_length_mm == pytest.approx(30.0)

    def test_terminal_window_excluded_from_max(self):
        records = [_record(k * 1.0, e, 10.0) for k, e in enumerate([1.0, 1.0, 5.0])]
        summary = compute_metrics(records, terminal_err=7.0, ts=1.0, exclude_terminal_s=1.5)
        assert summary.max_error_mm == 1.0
        assert summary.final_error_mm == 7.0  # final is always reported

    def test_empty_records_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_metrics([], terminal_err=0.0, ts=0.05)

    def test_insertion_sums_left_to_right(self):
        # 1e16 + 1 is a tie that rounds back to 1e16, twice; a compensated
        # sum (builtin sum() from Python 3.12 on) gives 1e16 + 2
        records = [_record(k * 1.0, 0.0, u_s) for k, u_s in enumerate([1e16, -1.0, 1.0])]
        summary = compute_metrics(records, terminal_err=0.0, ts=1.0)
        assert summary.inserted_length_mm == 1e16
        result = run_open_loop([TendonCommand(u_s=u_s, tau=(0.0, 0.0, 0.0))
                                for u_s in (1e16, -1.0, 1.0)], PlantConfig(), HW_GEO, ts=1.0)
        assert result.inserted_length_mm == 1e16


class TestOpenLoop:
    def test_zero_perturbation_zero_error(self):
        commands = [TendonCommand(u_s=20.0, tau=(3.0, 0.0, 0.0))] * 35
        result = run_open_loop(commands, PlantConfig(), HW_GEO, ts=0.05)
        assert result.max_error_mm <= 1e-9
        assert result.inserted_length_mm == pytest.approx(35.0, rel=1e-12)

    def test_gain_error_matches_two_arc_chords(self):
        # constant single-tendon tension bends both model and plant along
        # circular arcs of the same length in the same plane; the terminal
        # gap follows from the two chord deflections
        plant = PlantConfig(gain_error=0.10)
        commands = [TendonCommand(u_s=20.0, tau=(3.0, 0.0, 0.0))] * 60
        result = run_open_loop(commands, plant, HW_GEO, ts=0.05)

        arc = 60.0
        kappa = float(np.linalg.norm(forward_map((3.0, 0.0, 0.0), HW_GEO)))
        lat_m, ax_m = chord_deflection(kappa, arc)
        lat_p, ax_p = chord_deflection(1.1 * kappa, arc)
        expected = math.hypot(lat_m - lat_p, ax_m - ax_p)
        assert result.errors[-1] == pytest.approx(expected, rel=1e-9)

    def test_error_grows_with_depth(self):
        plant = PlantConfig(gain_error=0.05)
        commands = [TendonCommand(u_s=20.0, tau=(3.0, 0.0, 0.0))] * 100
        result = run_open_loop(commands, plant, HW_GEO, ts=0.05)
        assert result.inserted_length_mm == pytest.approx(100.0, rel=1e-12)
        assert np.all(np.diff(result.errors) > 0.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            run_open_loop([], PlantConfig(), HW_GEO, ts=0.05)
        with pytest.raises(InvalidInputError):
            run_open_loop(
                [TendonCommand(u_s=20.0, tau=(0.0, 0.0, 0.0))], PlantConfig(), HW_GEO, ts=0.0
            )

    @pytest.mark.parametrize("ts, message", [
        ("0.05", "^ts must be a number, got '0.05'$"), (b"0.05", "^ts must be a number"),
        (True, "^ts must be a number"), (-0.05, "^time step must be positive and finite"),
        (math.nan, "^ts has a non-finite value nan$"), (math.inf, "^ts has a non-finite value"),
    ])
    def test_time_step_checked_up_front(self, ts, message):
        commands = [TendonCommand(u_s=20.0, tau=(3.0, 0.0, 0.0))] * 3
        with pytest.raises(InvalidInputError, match=message):
            run_open_loop(commands, PlantConfig(), HW_GEO, ts=ts)

    def test_overflowing_rate_raises_the_virtual_input_message(self):
        geometry = TendonGeometry(gain=1e307)
        command = TendonCommand(u_s=24.0, tau=(7.0, 0.0, 0.0))
        with pytest.raises(InvalidInputError) as want:
            rates_from_command(command, geometry)
        with pytest.raises(InvalidInputError) as got:
            run_open_loop([command], PlantConfig(), geometry, ts=0.05)
        assert str(got.value) == str(want.value) == "u_x has a non-finite value inf"

    @pytest.mark.parametrize("integrator", ["exact"])
    def test_positions_are_step_chains_on_objects(self, integrator):
        rng = np.random.default_rng(5)
        commands = [TendonCommand(u_s=rng.uniform(-1.0, 24.0), tau=rng.uniform(0.0, 7.0, 3))
                    for _ in range(40)]
        plant = PlantConfig(integrator=integrator, gain_error=0.2, theta_e_error=0.1)
        start = NeedleState(p=(1.0, -2.0, 3.0), d=(0.6, 0.0, 0.8))
        result = run_open_loop(commands, plant, HW_GEO, ts=0.05, initial_state=start)
        true_geometry = plant.true_geometry(HW_GEO)
        model, true = [start], [start]
        for cmd in commands:
            model.append(step_exact(model[-1], rates_from_command(cmd, HW_GEO), 0.05))
            true.append(step_exact(true[-1], rates_from_command(cmd, true_geometry), 0.05))
        assert result.model_positions == tuple(s.p for s in model)
        assert result.plant_positions == tuple(s.p for s in true)


class TestSerialization:
    def _short_result(self):
        scenario = make_scenario(FixedTarget(target=(5.0, -15.0, 150.0)), steps=10)
        return scenario, run_closed_loop(scenario)

    def test_step_csv_format(self, tmp_path):
        _, result = self._short_result()
        path = tmp_path / "steps.csv"
        write_step_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(result.records)
        first = lines[1].split(",")
        assert len(first) == len(CSV_COLUMNS)
        assert first[0] == "0"  # t = 0 under 9-significant-digit formatting
        assert float(first[10]) == pytest.approx(result.records[0].applied.u_s, rel=1e-8)

    def test_open_loop_csv_format(self, tmp_path):
        commands = [TendonCommand(u_s=20.0, tau=(3.0, 0.0, 0.0))] * 5
        result = run_open_loop(commands, PlantConfig(gain_error=0.1), HW_GEO, ts=0.05)
        path = tmp_path / "open.csv"
        write_open_loop_csv(result, 0.05, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(OPEN_LOOP_CSV_COLUMNS)
        assert len(lines) == 1 + len(result.model_positions)

    def test_commands_csv_roundtrip(self, tmp_path):
        commands = [
            TendonCommand(u_s=20.0, tau=(3.0, 0.0, 0.0)),
            TendonCommand(u_s=12.5, tau=(0.0, 1.5, 2.25)),
        ]
        path = tmp_path / "cmd.csv"
        harness._write_csv(path, harness.COMMANDS_CSV_COLUMNS, ([c.u_s, *c.tau] for c in commands))
        back = read_commands_csv(path)
        assert len(back) == 2
        for orig, rt in zip(commands, back):
            assert rt.u_s == orig.u_s
            assert tuple(rt.tau) == tuple(orig.tau)

    def test_commands_csv_rejects_bad_files(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("us,t1,t2,t3\n20,0,0,0\n")
        with pytest.raises(InvalidInputError):
            read_commands_csv(bad_header)

        bad_value = tmp_path / "v.csv"
        bad_value.write_text("us_mm_s,tau1_N,tau2_N,tau3_N\n20,oops,0,0\n")
        with pytest.raises(InvalidInputError):
            read_commands_csv(bad_value)

        empty = tmp_path / "e.csv"
        empty.write_text("us_mm_s,tau1_N,tau2_N,tau3_N\n")
        with pytest.raises(InvalidInputError):
            read_commands_csv(empty)

    def test_summary_json_echo_reruns_identically(self, tmp_path):
        scenario, result = self._short_result()
        path = tmp_path / "summary.json"
        write_summary_json(result, scenario_to_dict(scenario), path)

        doc = json.loads(path.read_text())
        assert set(doc) == {"summary", "scenario"}
        assert doc["summary"]["final_error_mm"] == result.summary.final_error_mm

        rerun = run_closed_loop(scenario_from_dict(doc["scenario"]))
        assert summary_dict(rerun) == doc["summary"]

    @given(st.integers(1, 19).flatmap(lambda width: st.lists(
        st.lists(csv_value_st, min_size=width, max_size=width), max_size=8)))
    @example([[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, True, False,
               0, -7, 10**20, 1e16, 123456789.5, 0.1]])
    @settings(max_examples=200, deadline=None)
    def test_writer_writes_the_bytes_of_csv_writer(self, tmp_path_factory, rows):
        # the reference is the writer the package used before: csv.writer
        # with one f-string per value
        width = len(rows[0]) if rows else 3
        columns = [f"c{k}_mm" for k in range(width)]
        out = tmp_path_factory.mktemp("csv")
        harness._write_csv(out / "got.csv", columns, rows)
        with open(out / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([f"{v:.9g}" for v in row] for row in rows)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
