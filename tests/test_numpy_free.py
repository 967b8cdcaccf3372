"""A noise-free closed loop, the replays and every writer run without numpy.

numpy is imported only where its algorithms set the bits: the noise draw of
a noisy run, multi-start sampling and the calibration fits. Each check runs
in a fresh interpreter, since the test process itself has numpy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import needle_mpc

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


def test_noise_free_runs_and_replays_do_not_load_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == {name: 0 for name in (
        "target1", "helix", "sharp_turn", "sinusoidal", "replay1", "planar_slow")}
    assert report["files"] == sorted(["steps.csv", "summary.json"] * 4
                                     + ["open_loop.csv", "open_loop_summary.json"])
    assert not report["after_import"]
    assert not report["after_loading_presets"]
    assert not report["after_runs"]
    # a noisy run draws its noise with numpy, which it imports on demand
    assert report["after_noisy_run"]
