import argparse
import csv
import dataclasses
import json
import math
import re
from importlib import resources

import numpy as np
import pytest

from needle_mpc import cli, scenario
from needle_mpc.calibration import simulate_calibration_run, write_runs_dir
from needle_mpc.errors import InvalidInputError, json_fields
from needle_mpc.mapping import TendonGeometry, forward_map
from oracles import chord_deflection

GEO = TendonGeometry()
HELIX = {"kind": "helix", "radius_mm": 5.0, "pitch_mm": 40.0, "rate_rad_s": 1.2, "axis": "z"}
TIP_CSV = "t_s,x_mm,y_mm,z_mm\n0,0,0,0\n1,0,0,20\n2,1,-1,40\n"

# a complete reference section of every kind; a replay reads tip.csv beside the scenario
REFERENCES = {
    "fixed_target": {"target_mm": [0.0, 0.0, 60.0]},
    "helix": HELIX,
    "sharp_turn": {"waypoints_mm": [[0, 0, 0], [0, 0, 60]], "speed_mm_s": 12.0},
    "sinusoidal": {"axial_speed_mm_s": 18.0},
    "waypoint_path": {"points_mm": [[0, 0, 0], [0, 0, 50]], "times_s": [0.0, 5.0]},
    "replay": {"csv_path": "tip.csv"},
}

REQUIRED_REFERENCE_KEYS = [
    (kind, key)
    for kind, cls in scenario._KINDS.items()
    for key, f in json_fields(cls).items()
    if f.default is dataclasses.MISSING
]


def quick_scenario(tmp_path, name="quick.json", **plant):
    doc = {
        "schema_version": 1,
        "mpc": {"T_s_s": 0.05, "horizon": 5},
        "geometry": {},
        "plant": {"measurement_noise_std_mm": [0.3, 0.3, 0.3], "seed": 3, **plant},
        "reference": {"kind": "fixed_target", "target_mm": [0.0, -10.0, 40.0]},
        "run": {"steps": 25},
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_bundled_target_reaches_spec_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--preset", "target1", "--out", str(out)])
        assert code == 0
        assert "final error" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())["summary"]
        assert summary["final_error_mm"] <= 0.5

    def test_zero_horizon_rejected_naming_the_field(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "mpc": {"horizon": 0},
            "geometry": {},
            "plant": {},
            "reference": {"kind": "fixed_target", "target_mm": [0.0, 0.0, 10.0]},
            "run": {"steps": 5},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, named",
        [
            (name, value, name)
            for name in ("horizon", "max_iterations", "multi_start", "seed")
            for value in (2.7, "abc", True)
        ]
        + [
            ("planar_mode", "no", "planar_mode"),
            ("planar_mode", 1, "planar_mode"),
            ("T_s_s", "0.05", "T_s_s"),
            ("gradient_tolerance", "abc", "gradient_tolerance"),
            ("q_weights", "abc", "q_weights"),
            ("u_x_bounds_rad_s", [-5.0, "5"], "u_x_bounds_rad_s"),
        ],
    )
    def test_mistyped_mpc_field_rejected_naming_the_field(
        self, tmp_path, capsys, key, value, named
    ):
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "target1.json").read_text()
        )
        doc["mpc"][key] = value
        path = tmp_path / "target1.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("plant", "measurement_noise_std_mm", "abc", "measurement_noise_std_mm"),
            ("plant", "gain_error", "abc", "gain_error"),
            ("plant", "integrator", "euler", "integrator"),
            ("plant", "latency_steps", "x", "latency_steps"),
            ("plant", "latency_steps", 1.5, "latency_steps"),
            ("plant", "seed", 2.5, "seed"),
            ("plant", "seed", True, "seed"),
            ("plant", "seed", -1, "seed"),
            ("run", "stop_tolerance_mm", "abc", "stop_tolerance_mm"),
            ("run", "steps", 2.7, "steps"),
            ("run", "steps", True, "steps"),
            ("run", "fault_budget", 1.5, "fault_budget"),
            ("run", "early_stop", "no", "early_stop"),
            ("run", "initial_state", [0, 0, 0, 0, 0, "1"], "initial_state"),
            ("geometry", "gain_per_mm_N", "abc", "gain_per_mm_N"),
            ("geometry", "gain_per_mm_N", True, "gain_per_mm_N"),
        ],
    )
    def test_mistyped_plant_run_geometry_field_rejected_naming_the_field(
        self, tmp_path, capsys, section, key, value, named
    ):
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "target1.json").read_text()
        )
        doc[section][key] = value
        path = tmp_path / "target1.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"section '{section}'" in err and f"{named} must be" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run"], ["replay", "replay1"]])
    def test_overflowing_plant_gain_named_at_load(self, tmp_path, capsys, command):
        # gain_per_mm_N * (1 + gain_error) overflows: the plant's own gain
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "target1.json").read_text()
        )
        doc["geometry"]["gain_per_mm_N"] = 1e10
        doc["plant"]["gain_error"] = 1e300
        path = tmp_path / "target1.json"
        path.write_text(json.dumps(doc))
        code = cli.main([*command, str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "sections 'geometry' and 'plant'" in err
        assert "gain_error" in err and "gain_per_mm_N has a non-finite value inf" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key", [("geometry", "theta_e_rad"),
                                              ("plant", "theta_e_error_rad")])
    @pytest.mark.parametrize("angle", [1e17, math.nextafter(1e17, math.inf), -1e17])
    def test_mounting_angle_beyond_any_offset_named(self, tmp_path, capsys, section, key, angle):
        # reduced modulo 2 pi, 1e17 rad once ran as 1.2397 rad and the next
        # float as 4.6733 rad: no digit of the input set the tendon layout
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "target1.json").read_text()
        )
        doc[section][key] = angle
        path = tmp_path / "target1.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: section '{section}': {key} must be within +-1000, got {angle!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, echoed", [
        ("helix", "helix"),
        ("sharp_turn", "sharp_turn"),
        ("sinusoidal", "sinusoidal"),
        ("waypoint_path", "waypoint_path"),
        ("replay", "waypoint_path"),  # a replay loads into a waypoint path
    ])
    def test_early_stop_needs_a_fixed_target(self, tmp_path, capsys, kind, echoed):
        # the loop stops early only at a fixed target; elsewhere the option
        # once did nothing and the run exited 0
        (tmp_path / "tip.csv").write_text(TIP_CSV)
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "target1.json").read_text()
        )
        doc["reference"] = {**REFERENCES[kind], "kind": kind}
        doc["run"]["early_stop"] = True
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: sections 'run' and 'reference': run.early_stop stops only a fixed_target "
            f"reference, got kind '{echoed}'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "reference, named",
        [
            ({"kind": ["fixed_target"], "target_mm": [0.0, 0.0, 60.0]}, "kind"),
            ({**HELIX, "axis": ["z"]}, "axis"),
            ({**HELIX, "radius_mm": "5"}, "radius_mm"),
            ({**HELIX, "rate_rad_s": True}, "rate_rad_s"),
            ({**HELIX, "center_mm": ["0", "0", "0"]}, "center_mm"),
            ({"kind": "fixed_target", "target_mm": ["0", "0", "60"]}, "target_mm"),
            ({"kind": "fixed_target", "target_mm": [True, False, 60]}, "target_mm"),
        ],
    )
    def test_mistyped_reference_field_rejected_naming_the_field(
        self, tmp_path, capsys, reference, named
    ):
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "target1.json").read_text()
        )
        doc["reference"] = reference
        path = tmp_path / "target1.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{named} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key", REQUIRED_REFERENCE_KEYS)
    def test_missing_required_reference_key_named(self, tmp_path, capsys, kind, key):
        (tmp_path / "tip.csv").write_text(TIP_CSV)
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "target1.json").read_text()
        )
        doc["reference"] = {**REFERENCES[kind], "kind": kind}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        scenario.load_scenario(path)  # complete, it parses
        del doc["reference"][key]
        path.write_text(json.dumps(doc))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"missing required key(s): {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_replay_csv_path_resolves_against_the_scenario_file(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "tip.csv").write_text(TIP_CSV)
        doc = {
            "schema_version": 1,
            "mpc": {},
            "geometry": {},
            "plant": {},
            "reference": {"kind": "replay", "csv_path": "tip.csv"},
            "run": {"steps": 5},
        }
        (sub / "scn.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "sub/scn.json", "--out", "out"]) == 0
        assert (tmp_path / "out/steps.csv").is_file()

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        path = quick_scenario(tmp_path)
        for out in ("a", "b"):
            assert cli.main(["run", str(path), "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "a/steps.csv").read_bytes() == (tmp_path / "b/steps.csv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()

    def test_echoed_scenario_reproduces_run(self, tmp_path):
        path = quick_scenario(tmp_path)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "first")]) == 0
        echoed = json.loads((tmp_path / "first/summary.json").read_text())["scenario"]
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(echoed))
        assert cli.main(["run", str(echo_path), "--out", str(tmp_path / "second")]) == 0
        assert (
            (tmp_path / "first/steps.csv").read_bytes()
            == (tmp_path / "second/steps.csv").read_bytes()
        )

    def test_seed_override_changes_noise(self, tmp_path):
        path = quick_scenario(tmp_path)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "a"), "--seed", "3"]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path / "b"), "--seed", "4"]) == 0
        assert (tmp_path / "a/steps.csv").read_bytes() != (tmp_path / "b/steps.csv").read_bytes()

    @pytest.mark.parametrize("gain", [1e-320, 1e-200, 1e-170, 1e300])
    def test_extreme_gain_runs_with_tensions_in_the_box(self, tmp_path, gain):
        # the schema accepts any positive gain; squaring one of these
        # underflows to 0 or overflows to inf, and at the subnormal one
        # kappa / gain overflows too
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "helix.json").read_text()
        )
        doc["geometry"]["gain_per_mm_N"] = gain
        path = tmp_path / "helix.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        tau_max = doc["geometry"]["tau_max_N"]
        with open(tmp_path / "out/steps.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == doc["run"]["steps"]
        tensions = [float(r[k]) for r in rows for k in ("tau1_N", "tau2_N", "tau3_N")]
        assert all(0.0 <= t <= tau_max for t in tensions)

    @pytest.mark.parametrize("preset, section, key, value", [
        ("target1", "reference", "target_mm", [1e200, 0.0, 0.0]),
        ("target1", "plant", "measurement_noise_std_mm", [1e200, 0.0, 0.0]),
        ("helix", "reference", "radius_mm", 1e154),
        ("helix", "reference", "radius_mm", 1e308),
        ("helix", "reference", "pitch_mm", 1e308),
        ("sinusoidal", "reference", "amplitude_mm", [1e308, 0.0]),
        ("sharp_turn", "reference", "waypoints_mm", [[0.0, 0.0, 0.0], [0.0, 0.0, -2e200]]),
        ("target1", "run", "initial_state", [1e200, 0.0, 0.0, 0.0, 0.0, 1.0]),
    ], ids=["target_mm", "measurement_noise_std_mm", "radius_mm-1e154", "radius_mm-1e308",
            "pitch_mm", "amplitude_mm", "waypoints_mm", "initial_state"])
    def test_position_or_noise_beyond_a_needle_named(
        self, tmp_path, capsys, preset, section, key, value
    ):
        # each of these once reached the optimizer fault budget (exit 3) or
        # a reference range check; the schema bounds them to 1e6 mm
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", f"{preset}.json").read_text()
        )
        doc[section][key] = value
        path = tmp_path / f"{preset}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        if section == "reference":
            section = f"reference (kind {doc['reference']['kind']})"
        bound = "<= 1e+06" if section == "plant" else "within +-1e+06"
        assert re.fullmatch(
            rf"error: section '{re.escape(section)}': {key} must be {re.escape(bound)}, "
            r"got -?\d(\.\d+)?e\+\d+\n", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("period", [1e30, 1e300])
    def test_absurd_control_period_named(self, tmp_path, capsys, period):
        # such a period once ran the whole run without inserting the needle
        # and exited 0
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "target1.json").read_text()
        )
        doc["mpc"]["T_s_s"] = period
        path = tmp_path / "target1.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert re.fullmatch(
            r"error: section 'mpc': T_s_s must be <= 10, got 1e\+\d+\n", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tolerance, shown", [(1e-3, "0.001"), (1e300, "1e+300")])
    def test_loose_gradient_tolerance_named(self, tmp_path, capsys, tolerance, shown):
        # the stop test is relative, so at such a tolerance every start
        # point passed it: target1 once exited 0 with 0 mm inserted
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", "target1.json").read_text()
        )
        doc["mpc"]["gradient_tolerance"] = tolerance
        path = tmp_path / "target1.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: section 'mpc': gradient_tolerance must be <= 0.0001, got {shown}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset, key, value", [
        ("helix", "rate_rad_s", 1e308),
        ("sinusoidal", "frequency_hz", [1e307, 0.1]),
    ])
    def test_overflowing_reference_angle_named(self, tmp_path, capsys, preset, key, value):
        # the angle (rate * t, or 2 pi f t) overflows to inf within the run
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", f"{preset}.json").read_text()
        )
        doc["reference"][key] = value
        path = tmp_path / f"{preset}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: {key} overflows the reference angle at t = \d+\.\d+ s\n", err
        )

    @pytest.mark.parametrize("preset, changes, key", [
        ("helix", {"pitch_mm": 1e6, "rate_rad_s": 1e303}, "pitch_mm"),
        ("helix", {"pitch_mm": 1e6, "rate_rad_s": 1e300}, "pitch_mm"),
        ("sinusoidal", {"axial_speed_mm_s": 1e200}, "axial_speed_mm_s"),
        ("sinusoidal", {"axial_speed_mm_s": 1e308}, "axial_speed_mm_s"),
        ("helix", {"rate_rad_s": 1e160}, "rate_rad_s"),
    ])
    def test_out_of_range_reference_named(self, tmp_path, capsys, preset, changes, key):
        # a point whose squared norm overflows (or that is nan, as pitch*rate
        # = inf times t = 0) can never be costed by the horizon; within the
        # schema's position bounds only the climb and the axial advance,
        # which grow with time, get there. The climb is pitch*rate*t, so a
        # helix's message names both keys, whichever of them was raised
        doc = json.loads(
            resources.files("needle_mpc").joinpath("presets", f"{preset}.json").read_text()
        )
        doc["reference"].update(changes)
        path = tmp_path / f"{preset}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        named = {"helix": r"pitch_mm \* rate_rad_s", "sinusoidal": key}[preset]
        assert re.fullmatch(
            rf"error: {named} puts the reference out of range at t = \d+\.\d+ s\n", err
        )
        assert key in err

    @pytest.mark.parametrize("t0", ["1", "-5"])
    def test_replay_must_start_at_zero(self, tmp_path, capsys, t0):
        (tmp_path / "tip.csv").write_text(f"t_s,x_mm,y_mm,z_mm\n{t0},0,0,0\n10,0,0,20\n")
        doc = {
            "schema_version": 1,
            "mpc": {},
            "geometry": {},
            "plant": {},
            "reference": {"kind": "replay", "csv_path": "tip.csv"},
            "run": {"steps": 5},
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "csv_path" in err
        assert f"the first replay sample is at {t0} s; a replay must start at t = 0" in err
        assert not (tmp_path / "out").exists()

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_json_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_deeply_nested_json_is_a_schema_error(self, tmp_path, capsys):
        # the JSON decoder recurses once per level: 100000 exhaust the stack
        path = tmp_path / "deep.json"
        path.write_text('{"mpc": ' + "[" * 100000 + "]" * 100000 + "}")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to read\n"
        assert not (tmp_path / "out").exists()

    def test_preset_and_path_are_exclusive(self, tmp_path, capsys):
        path = quick_scenario(tmp_path)
        code = cli.main(["run", str(path), "--preset", "target1", "--out", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_run_needs_a_source(self, tmp_path, capsys):
        assert cli.main(["run", "--out", str(tmp_path)]) == 2
        capsys.readouterr()


class TestCalibrate:
    def test_synthetic_directory_recovers_gain(self, tmp_path, capsys):
        runs = [
            simulate_calibration_run(1, t, GEO, steps=60)
            for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        ]
        runs_dir = tmp_path / "runs"
        write_runs_dir(runs, runs_dir)
        out = tmp_path / "calibration.json"
        code = cli.main(["calibrate", str(runs_dir), "--out", str(out)])
        assert code == 0
        assert "gain" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["gain_per_mm_N"] == pytest.approx(GEO.gain, rel=5e-3)
        assert doc["residual_rms_per_mm"] >= 0.0
        assert len(doc["runs"]) == 7

    def test_empty_directory(self, tmp_path, capsys):
        code = cli.main(["calibrate", str(tmp_path), "--out", str(tmp_path / "c.json")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tendon_index", "1"),
            ("tendon_index", 1.7),
            ("tendon_index", True),
            ("tendon_index", None),
            ("tendon_index", "abc"),
            ("tension_N", "2"),
            ("tension_N", None),
            ("file", 3),
            ("file", "."),
        ],
    )
    def test_mistyped_manifest_field_rejected_naming_the_field(
        self, tmp_path, capsys, field, value
    ):
        runs_dir = tmp_path / "runs"
        write_runs_dir([simulate_calibration_run(1, t, GEO, steps=20) for t in (1.0, 2.0)], runs_dir)
        manifest = json.loads((runs_dir / "manifest.json").read_text())
        manifest["runs"][1][field] = value
        (runs_dir / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(["calibrate", str(runs_dir), "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert f"runs[1].{field}" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_tensions_whose_sums_overflow_are_invalid_input(self, tmp_path, capsys):
        # sum(tau^2) of tensions scaled by 1e200 overflows; it once divided
        # the slope to 0.0 and exited 0
        runs_dir = tmp_path / "runs"
        write_runs_dir([simulate_calibration_run(1, t, GEO, steps=20) for t in (1.0, 2.0)], runs_dir)
        manifest = json.loads((runs_dir / "manifest.json").read_text())
        for entry in manifest["runs"]:
            entry["tension_N"] *= 1e200
        (runs_dir / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(["calibrate", str(runs_dir), "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert re.fullmatch(r"error: samples put sum\(tau\*kappa\) / sum\(tau\^2\) beyond the "
                            r"float range \(largest tension 2e\+200 N\)\n", capsys.readouterr().err)
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("moving", [0, 2])
    def test_runs_whose_tip_never_moves_are_refused(self, tmp_path, capsys, moving):
        # two standing runs of five identical points, alone or mixed into a
        # session of moving ones, once fitted a gain of 0 or half the true one
        runs_dir = tmp_path / "runs"
        runs = [simulate_calibration_run(1, t, GEO, steps=20) for t in (2.0, 5.0)][:moving]
        write_runs_dir(runs, runs_dir)
        manifest = json.loads((runs_dir / "manifest.json").read_text())
        for k, tension in enumerate((2.0, 5.0), start=moving):
            (runs_dir / f"still{k}.csv").write_text("x_mm,y_mm,z_mm\n" + "1,2,3\n" * 5)
            manifest["runs"].append({"file": f"still{k}.csv", "tendon_index": 1,
                                     "tension_N": tension})
        (runs_dir / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(["calibrate", str(runs_dir), "--out", str(tmp_path / "c.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"runs[{moving}].tip_points all lie at [1.0, 2.0, 3.0]: the tip never moved" in err
        assert not (tmp_path / "c.json").exists()

    def test_undecodable_run_csv_is_invalid_input(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        write_runs_dir([simulate_calibration_run(1, t, GEO, steps=20) for t in (1.0, 2.0)], runs_dir)
        (runs_dir / "run00.csv").write_bytes(b"x_mm,y_mm,z_mm\n0,0,\xff\n0,0,1\n0,0,2\n")
        code = cli.main(["calibrate", str(runs_dir), "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert "run00.csv" in capsys.readouterr().err


    def test_deeply_nested_manifest_is_a_schema_error(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        write_runs_dir([simulate_calibration_run(1, t, GEO, steps=20) for t in (1.0, 2.0)], runs_dir)
        manifest = runs_dir / "manifest.json"
        manifest.write_text('{"runs": ' + "[" * 100000 + "]" * 100000 + "}")
        code = cli.main(["calibrate", str(runs_dir), "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {manifest}: JSON nested too deeply to read\n"
        assert not (tmp_path / "c.json").exists()

    def test_oversized_csv_field_names_file_and_line(self, tmp_path, capsys):
        # the csv module refuses a field over its 131072-character limit
        runs_dir = tmp_path / "runs"
        write_runs_dir([simulate_calibration_run(1, t, GEO, steps=20) for t in (1.0, 2.0)], runs_dir)
        (runs_dir / "run00.csv").write_text("x_mm,y_mm,z_mm\n0,0,0\n0,0," + "1" * 140000 + "\n0,0,2\n")
        code = cli.main(["calibrate", str(runs_dir), "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert "run00.csv:3: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()


class TestReplay:
    def test_zero_perturbation_bundled_commands(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["replay", "replay1", "--preset", "replay_clean", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "open_loop_summary.json").read_text())
        assert doc["max_error_mm"] <= 1e-9

    def test_gain_error_matches_arc_oracle(self, tmp_path):
        commands_path = tmp_path / "cmd.csv"
        commands_path.write_text("us_mm_s,tau1_N,tau2_N,tau3_N\n" + "20,3,0,0\n" * 60)
        scenario = quick_scenario(
            tmp_path, name="mismatch.json", measurement_noise_std_mm=[0, 0, 0], gain_error=0.10
        )
        out = tmp_path / "out"
        code = cli.main(["replay", str(commands_path), str(scenario), "--out", str(out)])
        assert code == 0

        kappa = float(np.linalg.norm(forward_map((3.0, 0.0, 0.0), GEO)))
        lat_m, ax_m = chord_deflection(kappa, 60.0)
        lat_p, ax_p = chord_deflection(1.1 * kappa, 60.0)
        expected = math.hypot(lat_m - lat_p, ax_m - ax_p)
        doc = json.loads((out / "open_loop_summary.json").read_text())
        # the discrepancy grows with depth, so the max sits at the endpoint
        assert doc["max_error_mm"] == pytest.approx(expected, rel=0.01)

    def test_three_run_batch_reports_percentages(self, tmp_path):
        for name in ("replay1", "replay2", "replay3"):
            out = tmp_path / name
            code = cli.main(["replay", name, "--preset", "replay_mismatch", "--out", str(out)])
            assert code == 0
            doc = json.loads((out / "open_loop_summary.json").read_text())
            assert doc["error_pct_of_insertion"] is not None
            assert 0.0 <= doc["error_pct_of_insertion"] <= 3.0

    def test_malformed_row_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "cmd.csv"
        bad.write_text("us_mm_s,tau1_N,tau2_N,tau3_N\n20,oops,0,0\n")
        code = cli.main(["replay", str(bad), "--preset", "replay_clean", "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":2" in capsys.readouterr().err

    def test_row_after_a_multiline_field_names_its_own_line(self, tmp_path, capsys):
        bad = tmp_path / "cmd.csv"
        bad.write_text('us_mm_s,tau1_N,tau2_N,tau3_N\n"20\n",0,0,0\n20,oops,0,0\n')
        code = cli.main(["replay", str(bad), "--preset", "replay_clean", "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {bad}:4: non-numeric value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("20,nan,0,0", "non-finite value"),
            ("inf,0,0,0", "non-finite value"),
            ("20,-1,0,0", "tensions must be nonnegative"),
            ("20,0,0", "expected 4 columns, got 3"),
        ],
    )
    def test_invalid_command_row_names_file_and_line(self, tmp_path, capsys, row, message):
        bad = tmp_path / "cmd.csv"
        bad.write_text(f"us_mm_s,tau1_N,tau2_N,tau3_N\n20,0,0,0\n{row}\n")
        code = cli.main(["replay", str(bad), "--preset", "replay_clean", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: " in err and message in err

    def test_blank_rows_are_skipped_and_counted(self, tmp_path, capsys):
        commands = tmp_path / "cmd.csv"
        commands.write_text("us_mm_s,tau1_N,tau2_N,tau3_N\n20,0,0,0\n\n20,1,0,0\n")
        out = tmp_path / "o"
        assert cli.main(["replay", str(commands), "--preset", "replay_clean", "--out", str(out)]) == 0
        with open(out / "open_loop.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 3  # the start and two commands
        commands.write_text("us_mm_s,tau1_N,tau2_N,tau3_N\n20,0,0,0\n\n20,1\n")
        assert cli.main(["replay", str(commands), "--preset", "replay_clean", "--out", str(out)]) == 2
        assert f"{commands}:4: expected 4 columns, got 2" in capsys.readouterr().err

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start the file with a BOM
        bundled = resources.files("needle_mpc").joinpath("presets/replays/replay1.csv")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + bundled.read_bytes())
        outs = tmp_path / "plain", tmp_path / "bom"
        for commands, out in zip(("replay1", str(bom)), outs):
            code = cli.main(["replay", commands, "--preset", "replay_clean", "--out", str(out)])
            assert code == 0
        for name in ("open_loop.csv", "open_loop_summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_oversized_csv_field_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "cmd.csv"
        bad.write_text("us_mm_s,tau1_N,tau2_N,tau3_N\n20,0,0,0\n20," + "1" * 140000 + ",0,0\n")
        code = cli.main(["replay", str(bad), "--preset", "replay_clean", "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {bad}:3: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_undecodable_commands_csv_is_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "cmd.csv"
        bad.write_bytes(b"us_mm_s,tau1_N,tau2_N,tau3_N\n20,\xff,0,0\n")
        code = cli.main(["replay", str(bad), "--preset", "replay_clean", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cmd.csv" in capsys.readouterr().err

    def test_directory_as_commands_path_is_invalid_input(self, tmp_path, capsys):
        folder = tmp_path / "commands"
        folder.mkdir()
        code = cli.main(["replay", str(folder), "--preset", "replay_clean", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "commands" in capsys.readouterr().err

    def test_seed_option_is_rejected(self, tmp_path, capsys):
        # an open-loop replay draws no plant noise, so it takes no seed
        with pytest.raises(SystemExit) as exc:
            cli.main(["replay", "replay1", "--preset", "replay_clean", "--seed", "5",
                      "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_open_loop_csv_written(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["replay", "replay2", "--preset", "replay_clean", "--out", str(out)]) == 0
        lines = (out / "open_loop.csv").read_text().splitlines()
        assert lines[0].startswith("t_s,model_x_mm")
        assert len(lines) == 72  # header + 71 state boundaries


    def test_missing_command_file_is_named(self, tmp_path, capsys, monkeypatch):
        # a .csv suffix or a separator makes the argument a path, never a name
        monkeypatch.chdir(tmp_path)
        for commands in ("missing.csv", str(tmp_path / "replay1")):
            code = cli.main(["replay", commands, "--preset", "replay_clean", "--out", "o"])
            assert code == 2
            assert capsys.readouterr().err == f"error: no such command file {commands!r}\n"
        assert not (tmp_path / "o").exists()

    def test_bare_name_runs_the_bundled_file_not_a_local_one(self, tmp_path, capsys, monkeypatch):
        # a one-row command file named replay1 in the working directory;
        # the bare name replay1 still runs the bundled 70-row replay1
        monkeypatch.chdir(tmp_path)
        (tmp_path / "replay1").write_text("us_mm_s,tau1_N,tau2_N,tau3_N\n10,0,0,0\n")
        assert cli.main(["replay", "replay1", "--preset", "replay_clean", "--out", "bare"]) == 0
        assert cli.main(["replay", "./replay1", "--preset", "replay_clean", "--out", "local"]) == 0
        capsys.readouterr()
        bare = json.loads((tmp_path / "bare/open_loop_summary.json").read_text())
        local = json.loads((tmp_path / "local/open_loop_summary.json").read_text())
        assert bare["inserted_length_mm"] == pytest.approx(70.0)
        assert local["inserted_length_mm"] == pytest.approx(0.5)

    @pytest.mark.parametrize("name", ["../replays/replay1", "replays/replay1", "replay1.csv"])
    def test_bundled_lookup_takes_names_only(self, name):
        with pytest.raises(InvalidInputError, match=re.escape(f"unknown command file {name!r}")):
            scenario.replay_commands_path(name)


class TestBatch:
    def test_serial_batch_runs_all_jobs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "1")
        s1 = quick_scenario(tmp_path, name="one.json")
        s2 = quick_scenario(tmp_path, name="two.json")
        out = tmp_path / "batch"
        code = cli.main(["batch", str(s1), str(s2), "--out", str(out)])
        assert code == 0
        assert (out / "one/steps.csv").is_file()
        assert (out / "two/summary.json").is_file()
        assert capsys.readouterr().out.count("final error") == 2

    def test_thread_cap_validation(self, tmp_path, capsys, monkeypatch):
        s1 = quick_scenario(tmp_path)
        monkeypatch.setenv(cli.THREADS_ENV, "0")
        assert cli.main(["batch", str(s1), "--out", str(tmp_path / "o")]) == 2
        monkeypatch.setenv(cli.THREADS_ENV, "many")
        assert cli.main(["batch", str(s1), "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_batch_needs_sources(self, tmp_path, capsys):
        assert cli.main(["batch", "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_file_named_like_a_preset_does_not_shadow_it(self, tmp_path, capsys, monkeypatch):
        # a scenario file named target1 in the working directory; --preset
        # target1 still runs the bundled preset
        monkeypatch.setenv(cli.THREADS_ENV, "1")
        monkeypatch.chdir(tmp_path)
        quick_scenario(tmp_path, name="target1")
        assert cli.main(["batch", "--preset", "target1", "--out", "batch"]) == 0
        assert cli.main(["run", "--preset", "target1", "--out", "run"]) == 0
        capsys.readouterr()
        for name in ("steps.csv", "summary.json"):
            assert (tmp_path / "batch/target1" / name).read_bytes() == (
                tmp_path / "run" / name).read_bytes()

    @pytest.mark.parametrize("command", ["run", "batch"])
    def test_preset_takes_names_only(self, tmp_path, capsys, monkeypatch, command):
        # mine.json exists, and replays/../target1 joined onto the presets
        # directory is target1.json; --preset names bundled presets only
        monkeypatch.setenv(cli.THREADS_ENV, "1")
        quick_scenario(tmp_path, name="mine.json")
        for value in (str(tmp_path / "mine"), "../target1", "replays/../target1"):
            code = cli.main([command, "--preset", value, "--out", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: unknown preset {value!r}; available: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_shared_base_name_is_refused_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                        threads):
        # both would write out/x; the second used to overwrite the first
        monkeypatch.setenv(cli.THREADS_ENV, threads)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = quick_scenario(tmp_path / "a", name="x.json")
        second = quick_scenario(tmp_path / "b", name="x.json")
        out = tmp_path / "out"
        code = cli.main(["batch", str(first), str(second), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {first} and {second} both write {out / 'x'}\n")
        assert not out.exists()

    def test_missing_path_is_named(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["batch", str(missing), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_path_and_preset_are_exclusive(self, tmp_path, capsys):
        path = quick_scenario(tmp_path)
        code = cli.main(["batch", str(path), "--preset", "target2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: give either a scenario path or --preset, not both\n")
        assert not (tmp_path / "out").exists()


class TestOutputs:
    @pytest.mark.parametrize("command", ["run", "replay", "batch", "calibrate"])
    def test_unwritable_out_is_invalid_input(self, tmp_path, capsys, command):
        runs_dir = tmp_path / "runs"
        write_runs_dir([simulate_calibration_run(1, t, GEO, steps=20) for t in (1.0, 2.0)], runs_dir)
        blocker = tmp_path / "taken"
        if command == "calibrate":
            blocker.mkdir()  # a directory where the JSON file goes
        else:
            blocker.write_text("")  # a file where the output directory goes
        argv = {
            "run": ["run", "--preset", "target1"],
            "replay": ["replay", "replay1", "--preset", "replay_clean"],
            "batch": ["batch", "--preset", "target1"],
            "calibrate": ["calibrate", str(runs_dir)],
        }[command]
        assert cli.main(argv + ["--out", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {blocker}")

    @pytest.mark.parametrize(
        "name", ["summary.json", "open_loop_summary.json", "calibration.json", "manifest.json"]
    )
    def test_json_outputs_share_one_layout(self, tmp_path, capsys, name):
        out = tmp_path / "out"  # write_runs_dir writes manifest.json here
        write_runs_dir([simulate_calibration_run(1, t, GEO, steps=20) for t in (1.0, 2.0)], out)
        argv = {
            "summary.json": ["run", str(quick_scenario(tmp_path)), "--out", str(out)],
            "open_loop_summary.json": ["replay", "replay1", "--preset", "replay_clean",
                                       "--out", str(out)],
            "calibration.json": ["calibrate", str(out), "--out", str(out / name)],
        }.get(name)
        assert argv is None or cli.main(argv) == 0
        capsys.readouterr()
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestPresetListing:
    def test_lists_scenarios_and_command_files(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "target1" in out
        assert "planar_slow" in out
        assert "replays/replay3" in out


def _parsers(parser, name="needle-mpc"):
    """(name, parser) for parser and each of its subcommands, depth first."""
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub, subparser in action.choices.items():
                yield from _parsers(subparser, f"{name} {sub}")


class TestHelpText:
    def test_every_named_flag_and_subcommand_exists(self):
        parser = cli.build_parser()
        commands = {name for name, _ in _parsers(parser)}
        for name, sub in _parsers(parser):
            options = {opt for action in sub._actions for opt in action.option_strings}
            texts = [sub.description or ""] + [action.help or "" for action in sub._actions]
            texts += [choice.help or "" for action in sub._actions
                      if isinstance(action, argparse._SubParsersAction)
                      for choice in action._choices_actions]
            for text in texts:
                for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", text):
                    assert flag in options, f"{name}: help names {flag}, not an option"
                for command in re.findall(r"needle-mpc(?: [a-z]+)+", text):
                    assert command in commands, f"{name}: help names {command!r}"

    def test_run_help_points_at_the_presets_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--help"])
        assert "needle-mpc presets" in " ".join(capsys.readouterr().out.split())
