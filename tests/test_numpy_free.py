"""A noise-free closed loop, the replays, every writer and the gain fit run
without numpy.

numpy is imported only where its algorithms set the bits: the noise draw of
a noisy run, multi-start sampling and the circle fit of a calibration arc.
The gain fit and its residual rms sum floats with math.fsum, so writing and
loading a runs directory and calibrating runs whose arcs are already fitted
need no numpy. Each check runs in a fresh interpreter, since the test
process itself has numpy loaded.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import needle_mpc
from needle_mpc.calibration import calibrate, simulate_calibration_run
from needle_mpc.mapping import TendonGeometry

SRC = str(Path(needle_mpc.__file__).resolve().parent.parent)

SCRIPT = """
import json, sys
from pathlib import Path

import needle_mpc
from needle_mpc import cli, scenario

report = {"after_import": "numpy" in sys.modules}
for name in scenario.preset_names():
    scenario.load_preset(name)
report["after_loading_presets"] = "numpy" in sys.modules
out = Path(sys.argv[1])
codes = {}
for name in ("target1", "helix", "sharp_turn", "sinusoidal"):
    codes[name] = cli.main(["run", "--preset", name, "--out", str(out / name)])
codes["replay1"] = cli.main(["replay", "replay1", "--preset", "replay_mismatch",
                             "--out", str(out / "replay1")])
report["files"] = sorted(p.name for p in out.glob("*/*"))
report["after_runs"] = "numpy" in sys.modules
codes["planar_slow"] = cli.main(["run", "--preset", "planar_slow", "--out",
                                 str(out / "planar_slow")])
report["after_noisy_run"] = "numpy" in sys.modules
report["codes"] = codes
print(json.dumps(report))
"""


CALIBRATION_SCRIPT = """
import json, pickle, sys
from pathlib import Path

from needle_mpc import calibration, mapping

out = Path(sys.argv[1])
runs = pickle.loads((out / "runs.pickle").read_bytes())  # arcs fitted, curvatures cached
report = {"after_unpickling": "numpy" in sys.modules}
calibration.write_runs_dir(runs, out / "runs")
loaded = calibration.load_runs_dir(out / "runs")
report["loaded"] = len(loaded)
report["after_runs_dir"] = "numpy" in sys.modules
report["fit_gain"] = mapping.fit_gain([(r.tension, r.curvature) for r in runs]).hex()
result = calibration.calibrate(runs)
report["gain"], report["residual_rms"] = result.gain.hex(), result.residual_rms.hex()
report["after_fits"] = "numpy" in sys.modules
print(json.dumps(report))
"""


def _run(script: str, tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_noise_free_runs_and_replays_do_not_load_numpy(tmp_path):
    report = _run(SCRIPT, tmp_path)
    assert report["codes"] == {name: 0 for name in (
        "target1", "helix", "sharp_turn", "sinusoidal", "replay1", "planar_slow")}
    assert report["files"] == sorted(["steps.csv", "summary.json"] * 4
                                     + ["open_loop.csv", "open_loop_summary.json"])
    assert not report["after_import"]
    assert not report["after_loading_presets"]
    assert not report["after_runs"]
    # a noisy run draws its noise with numpy, which it imports on demand
    assert report["after_noisy_run"]


def test_runs_directories_and_fits_on_fitted_arcs_do_not_load_numpy(tmp_path):
    geometry = TendonGeometry(theta_e=0.4, gain=3.2e-4)
    runs = [simulate_calibration_run(j, t, geometry, steps=40)
            for j in (1, 2, 3) for t in (2.0, 5.5)]
    want = calibrate(runs)  # fits each arc, with numpy, and caches its curvature
    (tmp_path / "runs.pickle").write_bytes(pickle.dumps(runs))
    report = _run(CALIBRATION_SCRIPT, tmp_path)
    assert not report["after_unpickling"]
    assert report["loaded"] == len(runs)
    assert not report["after_runs_dir"]
    assert report["fit_gain"] == want.gain.hex()
    assert not report["after_fits"]
    assert (report["gain"], report["residual_rms"]) == (want.gain.hex(), want.residual_rms.hex())
