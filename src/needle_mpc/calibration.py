"""Tension-to-curvature gain calibration from recorded tip arcs.

Each calibration run holds one tendon at a constant tension while inserting
at constant speed, which bends the tip along a circular arc. The arc's
curvature comes from a circle fit (see mapping.estimate_curvature), and a
through-origin line fit of curvature against tension yields the gain that
the controller-side geometry should use.

Runs load from a directory of per-run CSVs (columns x_mm, y_mm, z_mm)
described by a manifest.json sidecar:

    {"runs": [{"file": "run01.csv", "tendon_index": 1, "tension_N": 2.0}, ...]}

Tip points are held as tuples of (x, y, z) float tuples. Each value is
checked once, where it enters: the run CSV reader refuses a non-numeric or
non-finite coordinate, naming the file and line, and CalibrationRun checks
the tendon index, the tension and the point list. load_runs_dir builds
each run from the reader's tuples of floats, which it keeps without a
second finite check; the index, the tension, the point count and the tip
that never moved are checked as the constructor checks them, with its
messages. The fits then run on
those floats as they are, through mapping's _arc_curvature and
_origin_slope, the fits that estimate_curvature and fit_gain run after
their own checks. The gain and its residual rms are correctly rounded sums
of floats (math.fsum), so their bits do not depend on the order of the
runs. A run fits its circle once, when its curvature is first read, so
refitting runs in other combinations (the gain from each choice of two
tensions per tendon, say) fits no arc again.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass

from .errors import (
    DegenerateFitError,
    InvalidInputError,
    _prechecked,
    check_fields,
    finite_points,
    key,
)
from .harness import _read_json, _read_numeric_csv, _write_csv, _write_json
from .kinematics import _check_ts, _exact_flow, _settle
from .mapping import TendonCommand, TendonGeometry, _arc_curvature, _origin_slope, rates_from_command
# not called here, where the values are checked already; perfbench/tracer.py
# wraps the two names on this module
from .mapping import estimate_curvature, fit_gain  # noqa: F401

MANIFEST_NAME = "manifest.json"
RUN_CSV_COLUMNS = ["x_mm", "y_mm", "z_mm"]


@dataclass(frozen=True)
class CalibrationRun:
    """Recorded tip positions, n >= 3 (x, y, z) float tuples not all at one
    point, for one tendon (1, 2 or 3) held at one tension (N). Every message
    starts with the field it names."""

    tendon_index: int = key("tendon_index", kind=int, choices=(1, 2, 3))
    tension: float = key("tension_N", ge=0.0)
    tip_points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "tip_points", finite_points(self.tip_points, "tip_points"))
        self._check_points()

    def _check_points(self) -> None:
        pts = self.tip_points
        if len(pts) < 3:
            raise InvalidInputError(f"tip_points must hold at least 3 points, got {len(pts)}")
        if all(p == pts[0] for p in pts):  # a tip that never moved fits no arc
            raise InvalidInputError(f"tip_points all lie at {list(pts[0])}: the tip never moved")

    @classmethod
    def _from_rows(cls, tendon_index, tension, rows: list) -> CalibrationRun:
        """A run from a reader's rows, tuples of three finite floats, which
        are kept without a second finite check. The tendon index, the
        tension and the point count and spread are checked as the
        constructor checks them, with its messages."""
        run = _prechecked(cls, tendon_index=tendon_index, tension=tension,
                          tip_points=tuple(rows))
        check_fields(run)
        run._check_points()
        return run

    @functools.cached_property
    def curvature(self) -> float:
        """Circle-fit curvature of the tip arc (1/mm), fitted at the first read."""
        return _arc_curvature(self.tip_points)


@dataclass(frozen=True)
class CalibrationResult:
    gain: float                       # 1/(mm N)
    curvatures: tuple[float, ...]     # per-run circle-fit curvature, 1/mm
    tensions: tuple[float, ...]       # per-run tension, N
    residual_rms: float               # rms of kappa - gain*tau over runs


def calibrate(runs) -> CalibrationResult:
    """Fit the curvature gain from a set of calibration runs.

    Needs at least two runs covering at least two distinct tensions;
    otherwise the through-origin slope is not identified. A fitted gain
    that is not positive (no arc under tension bent) raises
    DegenerateFitError, since no geometry can use it.
    """
    runs = list(runs)
    if len(runs) < 2:
        raise InvalidInputError(f"need at least 2 calibration runs, got {len(runs)}")
    tensions = [r.tension for r in runs]
    if len(set(tensions)) < 2:
        raise DegenerateFitError(
            f"calibration needs at least 2 distinct tensions, got {sorted(set(tensions))}"
        )
    curvatures = [r.curvature for r in runs]
    try:
        gain = _origin_slope(tensions, curvatures)
    except InvalidInputError:
        # a non-finite curvature (one set on a run, not fitted) always fails
        # the slope's sums; it is named first, as fit_gain names it
        for k in curvatures:
            if not math.isfinite(k):
                raise InvalidInputError(f"samples has a non-finite value {k!r}") from None
        raise
    if not gain > 0.0:
        raise DegenerateFitError(
            f"the fitted gain must be > 0, got {gain!r}: no run under tension bent"
        )
    residuals = [k - gain * t for t, k in zip(tensions, curvatures)]
    try:  # correctly rounded, so the order of the runs sets no bit
        square_sum = math.fsum([r * r for r in residuals])
    except OverflowError:  # a partial sum beyond the float range
        square_sum = math.inf
    if not math.isfinite(square_sum):
        raise InvalidInputError("curvatures put the residual rms beyond the float range")
    return CalibrationResult(
        gain=gain,
        curvatures=tuple(curvatures),
        tensions=tuple(tensions),
        residual_rms=math.sqrt(square_sum / len(runs)),
    )


def simulate_calibration_run(
    tendon_index: int,
    tension: float,
    geometry: TendonGeometry,
    u_s: float = 20.0,
    ts: float = 0.05,
    steps: int = 100,
) -> CalibrationRun:
    """Synthesize the tip arc a physical calibration run would record: steps
    (an integer >= 2) exact steps under one command from the origin along
    +z, taken on floats and settled as NeedleState settles a state, so the
    points are those of a step_exact chain bit for bit. A command that
    leaves the tip where it is (u_s = 0) raises InvalidInputError naming
    tip_points."""
    # CalibrationRun's checks of tendon_index and tension, before any step;
    # the probe's tip moves, so only those two can fail
    CalibrationRun(tendon_index, tension,
                   tip_points=((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 2.0)))
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 2:
        raise InvalidInputError(f"steps must be an integer >= 2, got {steps!r}")
    tau = tuple(tension if k == tendon_index else 0.0 for k in (1, 2, 3))
    u = rates_from_command(TendonCommand(u_s, tau), geometry)
    ts = _check_ts(ts)
    state = (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)
    points = [state[0]]
    for _ in range(steps):
        state = _settle(*_exact_flow(*state, u.u_s, u.u_x, u.u_y, ts))
        points.append(state[0])
    return CalibrationRun(
        tendon_index=tendon_index,
        tension=tension,
        tip_points=tuple(points),
    )


def load_runs_dir(directory) -> list[CalibrationRun]:
    """Load all calibration runs described by a directory's manifest."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise InvalidInputError(f"no {MANIFEST_NAME} found in {directory}")
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict) or "runs" not in manifest:
        raise InvalidInputError(f"{manifest_path}: expected an object with a 'runs' array")
    entries = manifest["runs"]
    if not isinstance(entries, list) or not entries:
        raise InvalidInputError(f"{manifest_path}: 'runs' must be a non-empty array")
    runs = []
    for k, entry in enumerate(entries):
        where = f"{manifest_path}: runs[{k}]"
        if not isinstance(entry, dict):
            raise InvalidInputError(f"{where} must be an object")
        unknown = sorted(set(entry) - {"file", "tendon_index", "tension_N"})
        if unknown:
            raise InvalidInputError(f"{where} has unknown key(s): {', '.join(unknown)}")
        missing = sorted({"file", "tendon_index", "tension_N"} - set(entry))
        if missing:
            raise InvalidInputError(f"{where} missing key(s): {', '.join(missing)}")
        if not isinstance(entry["file"], str):
            raise InvalidInputError(f"{where}.file must be a string, got {entry['file']!r}")
        try:
            # rows as tuples of finite floats, which the run keeps as they are
            rows = _read_numeric_csv(
                os.path.join(directory, entry["file"]), RUN_CSV_COLUMNS, 3, convert=tuple
            )
        except InvalidInputError as exc:
            raise InvalidInputError(f"{where}.file: {exc}") from exc
        try:
            run = CalibrationRun._from_rows(entry["tendon_index"], entry["tension_N"], rows)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{where}.{exc}") from exc
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
