"""Every subcommand runs with numpy blocked.

The package draws its noise and multi-start points with random.Random and
fits calibration arcs on floats, so numpy is no runtime dependency. One
fresh interpreter, in which sys.modules["numpy"] = None makes every import
of numpy fail, runs each subcommand through cli.main: `run` (a noise-free
and a noisy preset), a multi-start scenario, `batch`, `replay`,
`calibrate` and `presets`. The test process itself has numpy loaded, so
its results are compared with the blocked interpreter's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import needle_mpc
from needle_mpc import harness, scenario
from needle_mpc.calibration import calibrate, load_runs_dir

SRC = str(Path(needle_mpc.__file__).resolve().parent.parent)

SCRIPT = """
import json, sys
from pathlib import Path

sys.modules["numpy"] = None  # any import of numpy now raises ImportError

from needle_mpc import calibration, cli, mapping, scenario

out = Path(sys.argv[1])
doc = scenario.scenario_to_dict(scenario.load_preset("target1"))
doc["mpc"]["multi_start"] = 8
doc["run"]["steps"] = 20
(out / "multi_start.json").write_text(json.dumps(doc))
geometry = mapping.TendonGeometry(theta_e=0.4, gain=3.2e-4)
runs = [calibration.simulate_calibration_run(j, t, geometry, steps=40)
        for j in (1, 2, 3) for t in (2.0, 5.5)]
calibration.write_runs_dir(runs, out / "runs")

commands = {
    "run target1": ["run", "--preset", "target1", "--out", str(out / "target1")],
    "run planar_slow": ["run", "--preset", "planar_slow", "--out", str(out / "planar_slow")],
    "run multi_start": ["run", str(out / "multi_start.json"), "--out", str(out / "multi_start")],
    "batch": ["batch", "--preset", "all", "--out", str(out / "batch")],
    "replay": ["replay", "replay1", "--preset", "replay_mismatch", "--out", str(out / "replay1")],
    "calibrate": ["calibrate", str(out / "runs"), "--out", str(out / "calibration.json")],
    "presets": ["presets"],
}
report = {"codes": {}}
for name, argv in commands.items():
    report["codes"][name] = cli.main(argv)
    if name == "run planar_slow":
        report["after_noisy_run"] = sys.modules["numpy"] is not None
report["after_all"] = sys.modules["numpy"] is not None
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def blocked(tmp_path_factory):
    """The report of the script, run once, and its output directory."""
    out = tmp_path_factory.mktemp("numpy_blocked")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(out)], capture_output=True,
                          text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), out


def test_noise_free_runs_and_replays_do_not_load_numpy(blocked):
    report, out = blocked
    assert report["codes"] == {name: 0 for name in (
        "run target1", "run planar_slow", "run multi_start", "batch", "replay",
        "calibrate", "presets")}
    # a noisy run draws its noise with random.Random: numpy stays unloaded
    assert not report["after_noisy_run"]
    assert not report["after_all"]
    for name in ("target1", "planar_slow", "multi_start"):
        assert sorted(p.name for p in (out / name).iterdir()) == ["steps.csv", "summary.json"]
    assert sorted(p.name for p in (out / "batch").iterdir()) == sorted(scenario.preset_names())
    assert sorted(p.name for p in (out / "replay1").iterdir()) == [
        "open_loop.csv", "open_loop_summary.json"]
    # the same noisy run in this process, where numpy is loaded, sets the same bits
    here = harness.summary_dict(harness.run_closed_loop(scenario.load_preset("planar_slow")))
    there = json.loads((out / "planar_slow" / "summary.json").read_text())["summary"]
    assert there == json.loads(json.dumps(here))


def test_runs_directories_and_fits_on_fitted_arcs_do_not_load_numpy(blocked):
    report, out = blocked
    assert report["codes"]["calibrate"] == 0
    want = calibrate(load_runs_dir(out / "runs"))  # here numpy is loaded
    doc = json.loads((out / "calibration.json").read_text())
    assert (doc["gain_per_mm_N"], doc["residual_rms_per_mm"]) == (want.gain, want.residual_rms)
    assert [r["curvature_per_mm"] for r in doc["runs"]] == list(want.curvatures)
