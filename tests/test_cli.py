import json
import math
from importlib import resources

import numpy as np
import pytest

from needle_mpc import cli
from needle_mpc.calibration import simulate_calibration_run, write_runs_dir
from needle_mpc.harness import write_commands_csv
from needle_mpc.mapping import TendonCommand, TendonGeometry, forward_map
from oracles import chord_deflection

GEO = TendonGeometry()


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
            ("T_s_s", "0.05", "ts"),
            ("gradient_tolerance", "abc", "gradient_tolerance"),
            ("q_weights", "abc", "q_weights"),
            ("u_x_bounds_rad_s", [-5.0, "5"], "u_x_bounds"),
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

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_json_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "JSON" in capsys.readouterr().err

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


class TestReplay:
    def test_zero_perturbation_bundled_commands(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["replay", "replay1", "--preset", "replay_clean", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "open_loop_summary.json").read_text())
        assert doc["max_error_mm"] <= 1e-9

    def test_gain_error_matches_arc_oracle(self, tmp_path):
        commands_path = tmp_path / "cmd.csv"
        write_commands_csv([TendonCommand(u_s=20.0, tau=(3.0, 0.0, 0.0))] * 60, commands_path)
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

    def test_open_loop_csv_written(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["replay", "replay2", "--preset", "replay_clean", "--out", str(out)]) == 0
        lines = (out / "open_loop.csv").read_text().splitlines()
        assert lines[0].startswith("t_s,model_x_mm")
        assert len(lines) == 72  # header + 71 state boundaries


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


class TestPresetListing:
    def test_lists_scenarios_and_command_files(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "target1" in out
        assert "planar_slow" in out
        assert "replays/replay3" in out
