"""The package root imports nothing: every name comes from its own module.

The test process has every module loaded, so a fresh interpreter imports
the root, then one module, and reports which of the package's modules each
import left loaded.
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

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "needle_mpc")

import needle_mpc
root = loaded()
import needle_mpc.kinematics
print(json.dumps([root, loaded()]))
"""


def test_root_and_kinematics_load_no_harness_scenario_or_calibration():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    root, kinematics = json.loads(proc.stdout)
    assert root == ["needle_mpc"]
    assert "needle_mpc.kinematics" in kinematics
    assert not {"needle_mpc.harness", "needle_mpc.scenario", "needle_mpc.calibration"} & set(kinematics)
