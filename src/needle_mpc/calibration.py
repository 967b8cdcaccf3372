"""Tension-to-curvature gain calibration from recorded tip arcs.

Each calibration run holds one tendon at a constant tension while inserting
at constant speed, which bends the tip along a circular arc. The arc's
curvature comes from a circle fit (see mapping.estimate_curvature), and a
through-origin line fit of curvature against tension yields the gain that
the controller-side geometry should use.

Runs load from a directory of per-run CSVs (columns x_mm, y_mm, z_mm)
described by a manifest.json sidecar:

    {"runs": [{"file": "run01.csv", "tendon_index": 1, "tension_N": 2.0}, ...]}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFitError,
    InvalidConfigError,
    InvalidInputError,
    SchemaError,
    check_fields,
    key,
)
from .harness import _read_numeric_csv, _write_csv, _write_json
from .kinematics import NeedleState, rollout
from .mapping import TendonCommand, TendonGeometry, estimate_curvature, fit_gain, rates_from_command

MANIFEST_NAME = "manifest.json"
RUN_CSV_COLUMNS = ["x_mm", "y_mm", "z_mm"]


@dataclass(frozen=True)
class CalibrationRun:
    """Recorded tip positions (n, 3) for one tendon (1, 2 or 3) held at one
    tension (N). Every message starts with the field it names."""

    tendon_index: int = key("tendon_index", kind=int, choices=(1, 2, 3))
    tension: float = key("tension_N", ge=0.0)
    tip_points: np.ndarray

    def __post_init__(self):
        try:
            check_fields(self)
        except InvalidConfigError as exc:  # a run is recorded input, not configuration
            raise InvalidInputError(str(exc)) from exc
        pts = np.array(self.tip_points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
            raise InvalidInputError(
                f"tip_points must be (n, 3) with n >= 3, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("tip_points contain non-finite values")
        pts.setflags(write=False)
        object.__setattr__(self, "tip_points", pts)


@dataclass(frozen=True)
class CalibrationResult:
    gain: float                       # 1/(mm N)
    curvatures: tuple[float, ...]     # per-run circle-fit curvature, 1/mm
    tensions: tuple[float, ...]       # per-run tension, N
    residual_rms: float               # rms of kappa - gain*tau over runs


def calibrate(runs) -> CalibrationResult:
    """Fit the curvature gain from a set of calibration runs.

    Needs at least two runs covering at least two distinct tensions;
    otherwise the through-origin slope is not identified.
    """
    runs = list(runs)
    if len(runs) < 2:
        raise InvalidInputError(f"need at least 2 calibration runs, got {len(runs)}")
    tensions = [r.tension for r in runs]
    if len(set(tensions)) < 2:
        raise DegenerateFitError(
            f"calibration needs at least 2 distinct tensions, got {sorted(set(tensions))}"
        )
    curvatures = [estimate_curvature(r.tip_points) for r in runs]
    gain = fit_gain(zip(tensions, curvatures))
    residuals = np.array(curvatures) - gain * np.array(tensions)
    return CalibrationResult(
        gain=gain,
        curvatures=tuple(curvatures),
        tensions=tuple(tensions),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )


def simulate_calibration_run(
    tendon_index: int,
    tension: float,
    geometry: TendonGeometry,
    u_s: float = 20.0,
    ts: float = 0.05,
    steps: int = 100,
) -> CalibrationRun:
    """Synthesize the tip arc a physical calibration run would record."""
    # CalibrationRun's checks of tendon_index and tension, before any rollout
    CalibrationRun(tendon_index, tension, tip_points=np.zeros((3, 3)))
    tau = tuple(tension if k == tendon_index else 0.0 for k in (1, 2, 3))
    u = rates_from_command(TendonCommand(u_s, tau), geometry)
    s0 = NeedleState(p=(0.0, 0.0, 0.0), d=(0.0, 0.0, 1.0))
    states = rollout(s0, [u] * steps, ts, integrator="exact")
    return CalibrationRun(
        tendon_index=tendon_index,
        tension=tension,
        tip_points=np.array([s.p for s in states]),
    )


def load_runs_dir(directory) -> list[CalibrationRun]:
    """Load all calibration runs described by a directory's manifest."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise InvalidInputError(f"no {MANIFEST_NAME} found in {directory}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"{manifest_path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or "runs" not in manifest:
        raise SchemaError(f"{manifest_path}: expected an object with a 'runs' array")
    entries = manifest["runs"]
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{manifest_path}: 'runs' must be a non-empty array")
    runs = []
    for k, entry in enumerate(entries):
        where = f"{manifest_path}: runs[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must be an object")
        unknown = sorted(set(entry) - {"file", "tendon_index", "tension_N"})
        if unknown:
            raise SchemaError(f"{where} has unknown key(s): {', '.join(unknown)}")
        missing = sorted({"file", "tendon_index", "tension_N"} - set(entry))
        if missing:
            raise SchemaError(f"{where} missing key(s): {', '.join(missing)}")
        if not isinstance(entry["file"], str):
            raise SchemaError(f"{where}.file must be a string, got {entry['file']!r}")
        try:
            rows = _read_numeric_csv(os.path.join(directory, entry["file"]), RUN_CSV_COLUMNS, 3)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{where}.file: {exc}") from exc
        try:
            run = CalibrationRun(
                tendon_index=entry["tendon_index"],
                tension=entry["tension_N"],
                tip_points=np.array(rows),
            )
        except (InvalidConfigError, InvalidInputError) as exc:
            raise SchemaError(f"{where}.{exc}") from exc
        runs.append(run)
    return runs


def write_runs_dir(runs, directory) -> None:
    """Write runs as per-run CSVs plus the manifest (inverse of load_runs_dir)."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for k, run in enumerate(runs):
        name = f"run{k:02d}.csv"
        _write_csv(os.path.join(directory, name), RUN_CSV_COLUMNS, run.tip_points)
        entries.append(
            {"file": name, "tendon_index": run.tendon_index, "tension_N": run.tension}
        )
    _write_json(os.path.join(directory, MANIFEST_NAME), {"runs": entries})
