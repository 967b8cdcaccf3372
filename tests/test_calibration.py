import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needle_mpc import calibration
from needle_mpc.calibration import (
    CalibrationRun,
    calibrate,
    load_runs_dir,
    simulate_calibration_run,
    write_runs_dir,
)
from needle_mpc.errors import DegenerateFitError, InvalidInputError
from needle_mpc.harness import PlantConfig, run_open_loop
from needle_mpc.kinematics import NeedleState, step_exact
from needle_mpc.mapping import (
    TendonCommand,
    TendonGeometry,
    _arc_curvature,
    rates_from_command,
)
from oracles import calibrate_per_pair, estimate_curvature_multipass, zero_intercept_gain

TRUE_GEO = TendonGeometry(gain=3.7e-4)
# a session of three tensions per tendon; each run fits its arc at its first use
SESSION_RUNS = [
    simulate_calibration_run(j, t, TendonGeometry(theta_e=0.7, gain=4.1e-4))
    for j in (1, 2, 3) for t in (1.3, 3.9, 6.2)
]


def synthetic_runs(tensions, geometry=TRUE_GEO, tendon_index=1, steps=100):
    return [
        simulate_calibration_run(tendon_index, t, geometry, steps=steps)
        for t in tensions
    ]


class TestCalibrationRun:
    def test_validation(self):
        pts = np.zeros((5, 3))
        pts[:, 2] = np.arange(5.0)
        with pytest.raises(InvalidInputError):
            CalibrationRun(tendon_index=0, tension=1.0, tip_points=pts)
        with pytest.raises(InvalidInputError):
            CalibrationRun(tendon_index=1, tension=-1.0, tip_points=pts)
        with pytest.raises(InvalidInputError):
            CalibrationRun(tendon_index=1, tension=1.0, tip_points=pts[:2])
        bad = pts.copy()
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            CalibrationRun(tendon_index=1, tension=1.0, tip_points=bad)

    @pytest.mark.parametrize("count", [3, 5])
    def test_a_tip_that_never_moves_is_refused(self, count):
        with pytest.raises(InvalidInputError, match=r"^tip_points all lie at \[1\.0, 2\.0, 3\.0\]"):
            CalibrationRun(tendon_index=1, tension=2.0, tip_points=[(1.0, 2.0, 3.0)] * count)
        moved = [(1.0, 2.0, 3.0)] * (count - 1) + [(1.0, 2.0, 3.5)]
        assert CalibrationRun(tendon_index=1, tension=2.0, tip_points=moved).curvature == 0.0


class TestSimulatedRuns:
    def test_arc_curvature_matches_commanded(self):
        run = simulate_calibration_run(1, 4.0, TRUE_GEO)
        kappa = _arc_curvature(run.tip_points)
        assert kappa == pytest.approx(4.0 * TRUE_GEO.gain, rel=1e-9)

    def test_point_count(self):
        run = simulate_calibration_run(2, 1.0, TRUE_GEO, steps=50)
        assert np.shape(run.tip_points) == (51, 3)

    @pytest.mark.parametrize("index", [0, 4, -1, True])
    def test_tendon_index_checked_before_the_rollout(self, index, monkeypatch):
        pts = np.zeros((3, 3))
        with pytest.raises(InvalidInputError) as want:
            CalibrationRun(tendon_index=index, tension=2.0, tip_points=pts)
        monkeypatch.setattr(calibration, "_exact_flow", None)  # any step would fail differently
        with pytest.raises(InvalidInputError) as got:
            simulate_calibration_run(index, 2.0, TRUE_GEO)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("tendon_index ")

    @pytest.mark.parametrize("steps", [2.5, True, False, 1, 0, -3, "100", None, 2.0])
    def test_steps_must_be_an_integer_of_at_least_two(self, steps):
        with pytest.raises(InvalidInputError, match=r"^steps must be an integer >= 2, got "):
            simulate_calibration_run(1, 2.0, TRUE_GEO, steps=steps)

    @pytest.mark.parametrize("steps", [2, np.int64(3)])
    def test_fewest_steps_give_three_points(self, steps):
        assert len(simulate_calibration_run(1, 2.0, TRUE_GEO, steps=steps).tip_points) == steps + 1

    def test_points_are_a_step_exact_chain(self):
        geometry = TendonGeometry(theta_e=0.7, gain=4.1e-4)
        run = simulate_calibration_run(3, 6.2, geometry, u_s=12.0, ts=0.1, steps=40)
        u = rates_from_command(TendonCommand(12.0, (0.0, 0.0, 6.2)), geometry)
        state = NeedleState(p=(0.0, 0.0, 0.0), d=(0.0, 0.0, 1.0))
        points = [state.p]
        for _ in range(40):
            state = step_exact(state, u, 0.1)
            points.append(state.p)
        assert run.tip_points == tuple(points)

    def test_standing_tip_is_refused(self):
        with pytest.raises(InvalidInputError, match=r"^tip_points all lie at \[0\.0, 0\.0, 0\.0\]"):
            simulate_calibration_run(1, 2.0, TRUE_GEO, u_s=0.0)

    @pytest.mark.parametrize("ts, message", [
        ("0.05", "^ts must be a number"), (0.0, "^time step must be positive"),
        (float("nan"), "^ts has a non-finite value"),
    ])
    def test_time_step_checked(self, ts, message):
        with pytest.raises(InvalidInputError, match=message):
            simulate_calibration_run(1, 2.0, TRUE_GEO, ts=ts)


class TestCalibrate:
    def test_recovers_gain_from_clean_runs(self):
        result = calibrate(synthetic_runs([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))
        assert result.gain == pytest.approx(TRUE_GEO.gain, rel=5e-3)
        assert result.residual_rms < 1e-10
        assert len(result.curvatures) == 7
        np.testing.assert_allclose(result.tensions, np.arange(1.0, 8.0))

    def test_zero_tension_everywhere_is_degenerate(self):
        runs = synthetic_runs([0.0, 0.0, 0.0])
        with pytest.raises(DegenerateFitError):
            calibrate(runs)

    def test_straight_arcs_fit_no_gain(self):
        runs = synthetic_runs([2.0, 5.0], geometry=TendonGeometry(gain=1e-300))
        assert [run.curvature for run in runs] == [0.0, 0.0]
        with pytest.raises(DegenerateFitError, match=r"^the fitted gain must be > 0, got 0\.0"):
            calibrate(runs)

    def test_single_run_rejected(self):
        with pytest.raises(InvalidInputError):
            calibrate(synthetic_runs([2.0]))

    def test_noisy_runs_within_fit_confidence(self):
        rng = np.random.default_rng(5)
        runs = []
        for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
            clean = simulate_calibration_run(1, t, TRUE_GEO)
            noisy = clean.tip_points + rng.standard_normal(np.shape(clean.tip_points)) * 0.1
            runs.append(CalibrationRun(tendon_index=1, tension=t, tip_points=noisy))
        result = calibrate(runs)

        g_oracle, se = zero_intercept_gain(result.tensions, result.curvatures)
        assert result.gain == pytest.approx(g_oracle, rel=1e-9)
        assert abs(result.gain - TRUE_GEO.gain) <= 4.0 * se + 1e-8

    def test_each_run_fits_its_arc_once(self, monkeypatch):
        runs = synthetic_runs([1.0, 2.0, 3.0, 4.0], steps=20)
        want = [calibrate(subset) for subset in (runs[:3], runs[1:], runs[::3])]
        calls = []

        def counting_fit(points):
            calls.append(points)
            return _arc_curvature(points)

        monkeypatch.setattr(calibration, "_arc_curvature", counting_fit)
        runs = synthetic_runs([1.0, 2.0, 3.0, 4.0], steps=20)
        got = [calibrate(subset) for subset in (runs[:3], runs[1:], runs[::3])]
        assert got == want
        assert len(calls) == 4  # one fit per run, not one per run and subset
        assert [r.curvature for r in runs] == [_arc_curvature(r.tip_points) for r in runs]
        assert len(calls) == 4  # a cached curvature fits nothing

    @given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 10.0), min_size=2, max_size=9),
           st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 1.0]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_bit_equal_to_the_per_pair_oracle(self, seed, tensions, noise):
        # noisy runs on random tendons of a random geometry: the fits on the
        # floats CalibrationRun checked give the bits, and the errors, of
        # fits that check every value again
        rng = random.Random(seed)
        geometry = TendonGeometry(theta_e=rng.uniform(0.0, 2.0 * math.pi),
                                  gain=rng.uniform(2.5e-4, 5e-4))
        runs = []
        for t in tensions:
            clean = simulate_calibration_run(rng.choice((1, 2, 3)), t, geometry, steps=20)
            points = tuple((x + rng.gauss(0.0, noise), y + rng.gauss(0.0, noise),
                            z + rng.gauss(0.0, noise)) for x, y, z in clean.tip_points)
            runs.append(CalibrationRun(clean.tendon_index, t, points))
        curvatures = [estimate_curvature_multipass(run.tip_points) for run in runs]
        try:
            want = calibrate_per_pair(tensions, curvatures)
        except InvalidInputError as exc:
            with pytest.raises(type(exc)) as info:
                calibrate(runs)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
            return
        got = calibrate(runs)
        assert [k.hex() for k in got.curvatures] == [k.hex() for k in curvatures]
        assert (got.gain.hex(), got.residual_rms.hex()) == (want[0].hex(), want[1].hex())

    @pytest.mark.parametrize("tensions, curvatures, error, message", [
        ((1.0, 2.0), (4e-4, math.inf), InvalidInputError, "samples has a non-finite value inf"),
        ((0.0, 2.0), (-math.inf, 8e-4), InvalidInputError, "samples has a non-finite value -inf"),
        ((1.0, 2.0), (math.nan, math.inf), InvalidInputError, "samples has a non-finite value nan"),
        # named before the tensions' squares underflow
        ((1e-200, 2e-200), (4e-4, math.nan), InvalidInputError,
         "samples has a non-finite value nan"),
        ((1e-200, 2e-200), (4e-4, 8e-4), DegenerateFitError,
         "all tensions are zero; slope through origin is undefined"),
        ((1.0, 1e200), (4e-4, 8e-4), InvalidInputError,
         "samples put sum(tau*kappa) / sum(tau^2) beyond the float range "
         "(largest tension 1e+200 N)"),
        ((2.0, 5.0), (None, None), DegenerateFitError,  # straight arcs, fitted
         "the fitted gain must be > 0, got 0.0: no run under tension bent"),
    ])
    def test_each_reachable_error_message_is_kept(self, tensions, curvatures, error, message):
        line = ((0.0, 0.0, 0.0), (0.0, 0.6, 0.8), (0.0, 1.2, 1.6))
        runs = [CalibrationRun(1, t, line) for t in tensions]
        for run, kappa in zip(runs, curvatures):
            if kappa is not None:
                object.__setattr__(run, "curvature", kappa)  # as if fitted from an arc
        fitted = [run.curvature for run in runs]
        for fit in (lambda: calibrate(runs), lambda: calibrate_per_pair(list(tensions), fitted)):
            with pytest.raises(error) as info:
                fit()
            assert type(info.value) is error and str(info.value) == message

    @given(st.permutations(range(9)))
    @settings(max_examples=100, deadline=None)
    def test_the_order_of_the_runs_sets_no_bit(self, order):
        # noise-free runs: the residual rms is pure roundoff, the most
        # order-sensitive bits a fit has
        runs = SESSION_RUNS
        want = calibrate(runs)
        got = calibrate([runs[k] for k in order])
        assert got.gain.hex() == want.gain.hex()
        assert got.residual_rms.hex() == want.residual_rms.hex()

    def test_residual_rms_beyond_the_float_range_is_invalid_input(self):
        runs = synthetic_runs([1.0, 2.0], steps=20)
        for run, kappa in zip(runs, (1e200, 1e-200)):
            object.__setattr__(run, "curvature", kappa)  # as if fitted from an arc
        # the gain, 2e199, is finite; the residuals' squares are not
        with pytest.raises(InvalidInputError, match="residual rms beyond the float range"):
            calibrate(runs)

    def test_curvature_is_not_a_field(self):
        run, same = synthetic_runs([2.0, 2.0], steps=20)
        assert run.curvature > 0.0
        assert run == same and hash(run) == hash(same)
        assert "curvature" not in {f.name for f in dataclasses.fields(CalibrationRun)}
        with pytest.raises(TypeError):
            CalibrationRun(tendon_index=1, tension=2.0, tip_points=run.tip_points, curvature=0.0)

    def test_scale_consistency(self):
        low = calibrate(synthetic_runs([1.0, 2.0, 3.0]))
        high = calibrate(synthetic_runs([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(
            high.curvatures, 2.0 * np.array(low.curvatures), rtol=1e-9
        )
        assert high.gain == pytest.approx(low.gain, rel=1e-9)

    def test_recovered_gain_reproduces_trajectories(self):
        # install the fitted gain in the model geometry and replay the same
        # constant-tension command against the true plant: closure demands
        # the two stay together over a full 100 mm insertion
        result = calibrate(synthetic_runs([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))
        model_geo = TendonGeometry(gain=result.gain)
        plant = PlantConfig(gain_error=TRUE_GEO.gain / result.gain - 1.0)
        commands = [TendonCommand(u_s=20.0, tau=(3.0, 0.0, 0.0))] * 100
        open_loop = run_open_loop(commands, plant, model_geo, ts=0.05)
        assert open_loop.inserted_length_mm == pytest.approx(100.0, rel=1e-12)
        assert open_loop.max_error_mm <= 0.1


class TestRunsDirectory:
    def test_write_load_roundtrip(self, tmp_path):
        runs = synthetic_runs([1.0, 3.0, 5.0], steps=20)
        write_runs_dir(runs, tmp_path)
        back = load_runs_dir(tmp_path)
        assert len(back) == 3
        for orig, rt in zip(runs, back):
            assert rt.tendon_index == orig.tendon_index
            assert rt.tension == orig.tension
            np.testing.assert_allclose(rt.tip_points, orig.tip_points, rtol=1e-8)

    def test_loaded_runs_are_the_constructors_and_keep_its_messages(self, tmp_path):
        # the loader keeps the reader's floats without a second finite
        # check; each run equals the public constructor's, field for field
        runs = SESSION_RUNS[:4]
        write_runs_dir(runs, tmp_path)
        back = load_runs_dir(tmp_path)
        for rt in back:
            public = CalibrationRun(rt.tendon_index, rt.tension, list(rt.tip_points))
            assert vars(rt).keys() == vars(public).keys()
            assert type(rt.tendon_index) is int and type(rt.tension) is float
            assert type(rt.tip_points) is tuple
            for name in ("tendon_index", "tension", "tip_points"):
                assert repr(getattr(rt, name)) == repr(getattr(public, name))
            assert [tuple(map(float.hex, p)) for p in rt.tip_points] == \
                [tuple(map(float.hex, p)) for p in public.tip_points]
            assert rt.curvature.hex() == public.curvature.hex()
        # the files hold 9 significant digits, so only the setup round-trips
        assert [(r.tendon_index, r.tension) for r in back] == \
            [(r.tendon_index, r.tension) for r in runs]

        (tmp_path / "still.csv").write_text("x_mm,y_mm,z_mm\n1,2,3\n1,2,3\n1,2,3\n")
        manifest = tmp_path / "manifest.json"
        for entry, message in [
            ({"file": "run00.csv", "tendon_index": 4, "tension_N": 1.0},
             "runs[0].tendon_index must be one of 1, 2, 3, got 4"),
            ({"file": "run00.csv", "tendon_index": True, "tension_N": 1.0},
             "runs[0].tendon_index must be an integer, got True"),
            ({"file": "run00.csv", "tendon_index": 1, "tension_N": -0.5},
             "runs[0].tension_N must be >= 0, got -0.5"),
            ({"file": "run00.csv", "tendon_index": 1, "tension_N": "2"},
             "runs[0].tension_N must be a number, got '2'"),
            ({"file": "still.csv", "tendon_index": 2, "tension_N": 1.0},
             "runs[0].tip_points all lie at [1.0, 2.0, 3.0]: the tip never moved"),
        ]:
            manifest.write_text(json.dumps({"runs": [entry]}))
            with pytest.raises(InvalidInputError) as info:
                load_runs_dir(tmp_path)
            assert str(info.value) == f"{manifest}: {message}"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_runs_dir(tmp_path)

    def test_invalid_manifest_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(InvalidInputError):
            load_runs_dir(tmp_path)

    def test_manifest_integer_too_long_is_schema_error(self, tmp_path):
        entry = '{"file": "run00.csv", "tendon_index": 1, "tension_N": ' + "1" * 5000 + "}"
        (tmp_path / "manifest.json").write_text('{"runs": [' + entry + "]}")
        with pytest.raises(InvalidInputError, match="not valid JSON"):
            load_runs_dir(tmp_path)

    def test_manifest_schema_enforced(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"trials": []}))
        with pytest.raises(InvalidInputError):
            load_runs_dir(tmp_path)

        (tmp_path / "manifest.json").write_text(json.dumps({"runs": []}))
        with pytest.raises(InvalidInputError):
            load_runs_dir(tmp_path)

        entry = {"file": "run00.csv", "tendon_index": 1, "tension_N": 1.0, "extra": 1}
        (tmp_path / "manifest.json").write_text(json.dumps({"runs": [entry]}))
        with pytest.raises(InvalidInputError, match="extra"):
            load_runs_dir(tmp_path)

        entry = {"file": "run00.csv", "tendon_index": 1}
        (tmp_path / "manifest.json").write_text(json.dumps({"runs": [entry]}))
        with pytest.raises(InvalidInputError, match="tension_N"):
            load_runs_dir(tmp_path)

        (tmp_path / "manifest.json").write_text(json.dumps({"runs": [["run00.csv", 1, 1.0]]}))
        with pytest.raises(InvalidInputError, match=r"runs\[0\] must be an object$"):
            load_runs_dir(tmp_path)

    def test_run_csv_validation(self, tmp_path):
        entry = {"file": "run00.csv", "tendon_index": 1, "tension_N": 1.0}
        (tmp_path / "manifest.json").write_text(json.dumps({"runs": [entry]}))

        (tmp_path / "run00.csv").write_text("a_mm,b_mm,c_mm\n0,0,0\n0,0,1\n0,0,2\n")
        with pytest.raises(InvalidInputError):
            load_runs_dir(tmp_path)

        (tmp_path / "run00.csv").write_text("x_mm,y_mm,z_mm\n0,0,0\n0,0,1\n")
        with pytest.raises(InvalidInputError):
            load_runs_dir(tmp_path)
