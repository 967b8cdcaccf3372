"""Golden outputs: what each bundled preset, each bundled replay and one
calibration document produce, kept as JSON files under tests/golden/.

A golden file holds the run's summary fields (floats at full precision),
the sha256 of the CSV the run writes and, for a closed-loop run, its solver
counts (solves, evaluations, iterations, backtracks and the count of each
stop reason), read from every HorizonSolution. The calibration document is
`needle-mpc calibrate` on six arcs from simulate_calibration_run (tendons
1-3 at 2 N and 5 N, the default geometry), with the sha256 of the run files
it reads and of the arcs' tip points as float.hex text, so that a one-ulp
change to a synthesized point shows too.

tests/test_golden.py compares fresh outputs with these files. A change that
moves outputs on purpose regenerates them with

    PYTHONPATH=src python tests/golden_outputs.py

and tables the diff of tests/golden/ in its change notes.
"""

import collections
import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile

from needle_mpc import calibration, cli, mpc, scenario
from needle_mpc.mapping import TendonGeometry

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REPLAY_PLANTS = ("replay_clean", "replay_mismatch")
CALIBRATION_ARCS = [(j, t) for j in (1, 2, 3) for t in (2.0, 5.0)]


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _sha256(path) -> str:
    return hashlib.sha256(_read(path)).hexdigest()


def _cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"needle-mpc {' '.join(argv)} exited {code}")


def _closed_loop(name: str, out: str) -> dict:
    solutions = []
    solve = mpc.solve_horizon

    def recorded(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    mpc.solve_horizon = recorded
    try:
        _cli(["run", "--preset", name, "--out", out])
    finally:
        mpc.solve_horizon = solve
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)["summary"]
    return {
        "summary": summary,
        "solver": {
            "solves": len(solutions),
            "evaluations": sum(s.evaluations for s in solutions),
            "iterations": sum(s.iterations for s in solutions),
            "backtracks": sum(s.backtracks for s in solutions),
            "stops": dict(sorted(collections.Counter(s.stop for s in solutions).items())),
        },
        "steps_csv_sha256": _sha256(os.path.join(out, "steps.csv")),
    }


def _replay(commands: str, plant: str, out: str) -> dict:
    _cli(["replay", commands, "--preset", plant, "--out", out])
    with open(os.path.join(out, "open_loop_summary.json")) as fh:
        summary = json.load(fh)
    del summary["scenario"]
    return {"summary": summary, "open_loop_csv_sha256": _sha256(os.path.join(out, "open_loop.csv"))}


def _calibrate(out: str) -> dict:
    runs = [calibration.simulate_calibration_run(j, t, TendonGeometry())
            for j, t in CALIBRATION_ARCS]
    runs_dir, doc_path = os.path.join(out, "runs"), os.path.join(out, "calibration.json")
    calibration.write_runs_dir(runs, runs_dir)
    _cli(["calibrate", runs_dir, "--out", doc_path])
    with open(doc_path) as fh:
        doc = json.load(fh)
    files = hashlib.sha256()
    for name in sorted(os.listdir(runs_dir)):
        files.update(name.encode() + b"\0" + _read(os.path.join(runs_dir, name)))
    points = "\n".join(" ".join(v.hex() for v in point)
                       for run in runs for point in run.tip_points)
    return {
        "calibration": doc,
        "runs_sha256": files.hexdigest(),
        "tip_points_sha256": hashlib.sha256(points.encode()).hexdigest(),
    }


def _producers() -> dict:
    """Golden name -> function of an output directory that returns its document:
    every preset, every bundled replay on each replay plant, and calibrate."""
    producers = {name: functools.partial(_closed_loop, name) for name in scenario.preset_names()}
    for commands in scenario.replay_command_names():
        for plant in REPLAY_PLANTS:
            producers[f"{commands}_{plant}"] = functools.partial(_replay, commands, plant)
    producers["calibrate"] = _calibrate
    return producers


def golden_names() -> list[str]:
    return list(_producers())


def golden_document(name: str) -> dict:
    """The golden document of one name from golden_names(), run afresh."""
    with tempfile.TemporaryDirectory() as out:
        return _producers()[name](out)


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in golden_names():
        with open(golden_path(name), "w") as fh:
            json.dump(golden_document(name), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {golden_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
