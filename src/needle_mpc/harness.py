"""Closed- and open-loop simulation of the controlled needle.

The closed loop exercises the full virtual/physical boundary every step: the
controller produces a virtual input from the (possibly delayed and noisy)
measured state, the input is converted to a tendon command with the nominal
geometry, and the plant converts that command back to bending rates with its
own, possibly perturbed, geometry before integrating the true state. Model
mismatch therefore enters exactly where it would on hardware, in the tension
mapping.

Every file a run writes goes through one of two writers: _write_csv puts
each number at 9 significant digits, and _write_json sorts the keys, so
reruns of the same scenario and seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, NumericalFailureError, check_fields, key
from .kinematics import NeedleState, VirtualInput, step_euler, step_exact
from .mapping import TendonCommand, TendonGeometry, inverse_map, rates_from_command
from .mpc import RecedingHorizonController
from .references import FixedTarget, check_path_speed, horizon_samples

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

INTEGRATORS = ("euler", "exact")

CSV_COLUMNS = [
    "t_s", "x_mm", "y_mm", "z_mm", "dx", "dy", "dz",
    "ref_x_mm", "ref_y_mm", "ref_z_mm",
    "us_mm_s", "ux_rad_s", "uy_rad_s",
    "tau1_N", "tau2_N", "tau3_N",
    "sat_flag", "cost", "err_mm",
]

OPEN_LOOP_CSV_COLUMNS = [
    "t_s", "model_x_mm", "model_y_mm", "model_z_mm",
    "plant_x_mm", "plant_y_mm", "plant_z_mm", "err_mm",
]

COMMANDS_CSV_COLUMNS = ["us_mm_s", "tau1_N", "tau2_N", "tau3_N"]


@dataclass(frozen=True)
class PlantConfig:
    """True plant behavior, including its deviations from the nominal model.

    gain_error scales the true curvature gain by (1 + gain_error);
    theta_e_error is added to the true channel offset (rad). Measurement
    noise is zero-mean Gaussian per position axis (mm std). latency_steps
    delays the state the controller sees by whole control periods.
    """

    integrator: str = key("integrator", "exact", kind=str, choices=INTEGRATORS)
    gain_error: float = key("gain_error", 0.0, gt=-1.0)  # the true gain stays positive
    theta_e_error: float = key("theta_e_error_rad", 0.0)
    measurement_noise_std: tuple[float, float, float] = key(
        "measurement_noise_std_mm", (0.0, 0.0, 0.0), kind=tuple, n=3, ge=0.0
    )
    latency_steps: int = key("latency_steps", 0, kind=int, ge=0)
    seed: int = key("seed", 0, kind=int, ge=0)

    def __post_init__(self):
        check_fields(self)

    def true_geometry(self, nominal: TendonGeometry) -> TendonGeometry:
        """Nominal geometry with this plant's perturbations applied."""
        return TendonGeometry(
            theta_e=nominal.theta_e + self.theta_e_error,
            gain=nominal.gain * (1.0 + self.gain_error),
            tau_max=nominal.tau_max,
        )


@dataclass(frozen=True)
class RunConfig:
    """Step budget, initial state and bookkeeping options of one run."""

    steps: int = key("steps", 210, kind=int, ge=1)
    initial_state: tuple[float, ...] = key(
        "initial_state", (0.0, 0.0, 0.0, 0.0, 0.0, 1.0), kind=tuple, n=6
    )
    early_stop: bool = key("early_stop", False, kind=bool)   # fixed targets only
    stop_tolerance_mm: float = key("stop_tolerance_mm", 0.2, ge=0.0)
    stop_speed_mm_s: float = key("stop_speed_mm_s", 0.1, ge=0.0)
    # window ignored by the max-error metric
    exclude_terminal_s: float = key("exclude_terminal_s", 0.0, ge=0.0)
    fault_budget: int = key("fault_budget", 10, kind=int, ge=0)

    def __post_init__(self):
        check_fields(self)
        try:
            self.state()
        except InvalidInputError as exc:
            raise InvalidInputError(f"initial_state: {exc}") from exc

    def state(self) -> NeedleState:
        v = self.initial_state
        return NeedleState(p=v[:3], d=v[3:])


@dataclass(frozen=True)
class StepRecord:
    """Everything logged for one control step (pre-step state at time t)."""

    t: float
    state: NeedleState
    measured: NeedleState
    ref: np.ndarray
    applied: VirtualInput
    command: TendonCommand
    saturated: bool
    cost: float
    solve_time: float
    err: float
    fault: bool
    pg_norm_scaled: float


@dataclass(frozen=True)
class Summary:
    """Run metrics; final error is taken at the post-step terminal state."""

    final_error_mm: float
    max_error_mm: float
    inserted_length_mm: float
    error_pct_of_insertion: Optional[float]
    steps: int


@dataclass(frozen=True)
class ScenarioResult:
    records: tuple[StepRecord, ...]
    terminal_state: NeedleState
    terminal_ref: np.ndarray
    summary: Summary


def compute_metrics(
    records: Sequence[StepRecord],
    terminal_err: float,
    ts: float,
    exclude_terminal_s: float = 0.0,
) -> Summary:
    """Aggregate per-step errors into the run summary.

    max_error_mm ignores records within exclude_terminal_s of the end of the
    run (the terminal error included), to keep deliberate end-of-trajectory
    holds from masking the tracking quality before them.
    """
    if not records:
        raise InvalidInputError("records are empty")
    t_end = records[-1].t + ts
    cutoff = t_end - exclude_terminal_s
    errs = [r.err for r in records if r.t < cutoff]
    if t_end < cutoff or math.isclose(t_end, cutoff):
        errs.append(terminal_err)
    max_err = max(errs) if errs else terminal_err
    inserted = sum(abs(r.applied.u_s) for r in records) * ts
    pct = 100.0 * terminal_err / inserted if inserted > 0.0 else None
    return Summary(
        final_error_mm=terminal_err,
        max_error_mm=max_err,
        inserted_length_mm=inserted,
        error_pct_of_insertion=pct,
        steps=len(records),
    )


def run_closed_loop(scenario: "Scenario") -> ScenarioResult:
    """Simulate the controlled needle for one scenario.

    Each step: sample the reference over the horizon, solve the horizon from
    the measured state, map the applied virtual input to a tendon command
    with the nominal geometry, convert it back to true rates with the
    perturbed plant geometry, and integrate the plant. With noise enabled the
    controller re-estimates its direction from the last two measured
    positions; otherwise it sees the (possibly delayed) plant state directly.

    Optimizer faults fall back to zero input for the step; more than
    run.fault_budget of them abort the run.
    """
    cfg = scenario.mpc
    geometry = scenario.geometry
    plant = scenario.plant
    run = scenario.run

    true_geometry = plant.true_geometry(geometry)
    step_plant = step_exact if plant.integrator == "exact" else step_euler
    rng = np.random.default_rng(plant.seed)
    noise_std = np.array(plant.measurement_noise_std)
    noisy = bool(np.any(noise_std > 0.0))

    check_path_speed(scenario.reference, run.steps * cfg.ts, cfg.u_s_bounds[1])

    controller = RecedingHorizonController(cfg)
    state = run.state()
    # true states of the last latency_steps + 1 step boundaries; the oldest
    # is the one the controller sees
    history = deque([state], maxlen=plant.latency_steps + 1)
    prev_meas_p: Optional[np.ndarray] = None
    d_est = np.array(state.d)
    records: list[StepRecord] = []
    faults = 0

    for k in range(run.steps):
        t = k * cfg.ts
        delayed = history[0]
        if noisy:
            p_meas = np.add(delayed.p, rng.standard_normal(3) * noise_std)
            if prev_meas_p is not None:
                motion = p_meas - prev_meas_p
                norm = np.linalg.norm(motion)
                if 1e-9 < norm < math.inf:    # an overflowed norm keeps the estimate
                    d_est = motion / norm
            prev_meas_p = p_meas
            measured = NeedleState(p=p_meas, d=d_est)
        else:
            measured = delayed

        refs = horizon_samples(scenario.reference, t, cfg.horizon, cfg.ts)
        t0 = time.perf_counter()
        applied, solution = controller.step(measured, refs)
        solve_time = time.perf_counter() - t0

        fault = solution.solver_status == "fault"
        if fault:
            faults += 1
            if faults > run.fault_budget:
                raise NumericalFailureError(
                    f"optimizer fault budget exceeded: {faults} faults by step {k}"
                )

        inv = inverse_map(applied, geometry)
        true_rates = rates_from_command(inv.command, true_geometry)
        state_next = step_plant(state, true_rates, cfg.ts)

        err = float(np.linalg.norm(np.subtract(state.p, refs[0])))
        pg_scaled = solution.projected_gradient_norm / (1.0 + abs(solution.cost))
        records.append(
            StepRecord(
                t=t, state=state, measured=measured, ref=refs[0],
                applied=applied, command=inv.command, saturated=inv.saturated,
                cost=solution.cost, solve_time=solve_time, err=err, fault=fault,
                pg_norm_scaled=pg_scaled,
            )
        )
        history.append(state_next)
        state = state_next

        if (
            run.early_stop
            and isinstance(scenario.reference, FixedTarget)
            and float(np.linalg.norm(np.subtract(state.p, scenario.reference.target)))
            < run.stop_tolerance_mm
            and abs(applied.u_s) < run.stop_speed_mm_s
        ):
            break

    t_end = len(records) * cfg.ts
    terminal_ref = horizon_samples(scenario.reference, t_end, 1, cfg.ts)[0]
    terminal_err = float(np.linalg.norm(np.subtract(state.p, terminal_ref)))
    summary = compute_metrics(records, terminal_err, cfg.ts, run.exclude_terminal_s)
    return ScenarioResult(
        records=tuple(records),
        terminal_state=state,
        terminal_ref=terminal_ref,
        summary=summary,
    )


@dataclass(frozen=True)
class OpenLoopResult:
    """Model and plant trajectories under an identical command sequence."""

    model_states: tuple[NeedleState, ...]
    plant_states: tuple[NeedleState, ...]
    errors: np.ndarray        # per-boundary model-vs-plant position error, mm
    inserted_length_mm: float
    max_error_mm: float
    error_pct_of_insertion: Optional[float]


def run_open_loop(
    commands: Sequence[TendonCommand],
    plant: PlantConfig,
    model_geometry: TendonGeometry,
    ts: float,
    initial_state: Optional[NeedleState] = None,
) -> OpenLoopResult:
    """Feed recorded tendon commands to both the nominal model and the plant.

    The model side integrates the exact flow of the nominal geometry's
    rates; the plant side uses its configured integrator and perturbed
    geometry. The error series is the position discrepancy at every step
    boundary, the standard open-loop validation of model fidelity.
    """
    if len(commands) == 0:
        raise InvalidInputError("command sequence is empty")
    if not ts > 0.0:
        raise InvalidInputError(f"ts must be positive, got {ts!r}")
    s0 = initial_state or NeedleState(p=(0.0, 0.0, 0.0), d=(0.0, 0.0, 1.0))
    true_geometry = plant.true_geometry(model_geometry)
    step_plant = step_exact if plant.integrator == "exact" else step_euler

    model_states = [s0]
    plant_states = [s0]
    for cmd in commands:
        u_model = rates_from_command(cmd, model_geometry)
        u_plant = rates_from_command(cmd, true_geometry)
        model_states.append(step_exact(model_states[-1], u_model, ts))
        plant_states.append(step_plant(plant_states[-1], u_plant, ts))

    errors = np.array(
        [
            float(np.linalg.norm(np.subtract(m.p, p.p)))
            for m, p in zip(model_states, plant_states)
        ]
    )
    inserted = sum(abs(cmd.u_s) for cmd in commands) * ts
    max_err = float(errors.max())
    pct = 100.0 * max_err / inserted if inserted > 0.0 else None
    return OpenLoopResult(
        model_states=tuple(model_states),
        plant_states=tuple(plant_states),
        errors=errors,
        inserted_length_mm=inserted,
        max_error_mm=max_err,
        error_pct_of_insertion=pct,
    )


def _write_csv(path, columns: Sequence[str], rows) -> None:
    """Header `columns`, then one line per row with every number written at
    9 significant digits (a bool as 0 or 1)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([f"{v:.9g}" for v in row] for row in rows)


def _write_json(path, doc: dict) -> None:
    """doc with two-space indent, sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_step_csv(result: ScenarioResult, path) -> None:
    """Per-step log with the fixed column set in CSV_COLUMNS."""
    _write_csv(path, CSV_COLUMNS, (
        [
            r.t, *r.state.p, *r.state.d, *r.ref,
            r.applied.u_s, r.applied.u_x, r.applied.u_y,
            *r.command.tau, r.saturated, r.cost, r.err,
        ]
        for r in result.records
    ))


def write_open_loop_csv(result: OpenLoopResult, ts: float, path) -> None:
    _write_csv(path, OPEN_LOOP_CSV_COLUMNS, (
        [k * ts, *m.p, *p.p, result.errors[k]]
        for k, (m, p) in enumerate(zip(result.model_states, result.plant_states))
    ))


def summary_dict(result: ScenarioResult) -> dict:
    s = result.summary
    return {
        "final_error_mm": s.final_error_mm,
        "max_error_mm": s.max_error_mm,
        "inserted_length_mm": s.inserted_length_mm,
        "error_pct_of_insertion": s.error_pct_of_insertion,
        "steps": s.steps,
        "terminal_position_mm": list(result.terminal_state.p),
        "terminal_reference_mm": [float(v) for v in result.terminal_ref],
        "saturated_steps": sum(r.saturated for r in result.records),
        "fault_steps": sum(r.fault for r in result.records),
    }


def write_summary_json(result: ScenarioResult, scenario_doc: dict, path) -> None:
    """Summary metrics plus the fully resolved scenario they came from.

    The echoed scenario is a valid scenario document: feeding it back
    through the runner reproduces the outputs byte for byte.
    """
    _write_json(path, {"summary": summary_dict(result), "scenario": scenario_doc})


def write_open_loop_summary_json(result: OpenLoopResult, scenario_doc: dict, path) -> None:
    """Open-loop error metrics plus the resolved scenario of the replay."""
    _write_json(path, {
        "max_error_mm": result.max_error_mm,
        "inserted_length_mm": result.inserted_length_mm,
        "error_pct_of_insertion": result.error_pct_of_insertion,
        "steps": len(result.errors) - 1,
        "scenario": scenario_doc,
    })


def _read_numeric_csv(path, columns: Sequence[str], min_rows: int, convert=None) -> list:
    """Rows of finite floats from a CSV whose header is exactly `columns`.

    Blank rows are skipped. convert, when given, turns each row into the
    item returned for it. A wrong header, a row of the wrong width, a
    non-numeric or non-finite value, a row that convert rejects, fewer than
    min_rows rows or a file that cannot be read as text raise
    InvalidInputError naming the file (and the line, for row faults); a
    missing file raises FileNotFoundError.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != list(columns):
                raise InvalidInputError(
                    f"{path}: expected header {','.join(columns)!r}, got {header}"
                )
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(columns):
                    raise InvalidInputError(
                        f"{path}:{lineno}: expected {len(columns)} columns, got {len(row)}"
                    )
                try:
                    values = [float(v) for v in row]
                except ValueError:
                    raise InvalidInputError(f"{path}:{lineno}: non-numeric value in {row}") from None
                if not all(map(math.isfinite, values)):
                    raise InvalidInputError(f"{path}:{lineno}: non-finite value in {row}")
                if convert is not None:
                    try:
                        values = convert(values)
                    except (InvalidConfigError, InvalidInputError) as exc:
                        raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
                rows.append(values)
    except FileNotFoundError:
        raise
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not a text file: {exc}") from None
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot be read: {exc.strerror or exc}") from None
    if len(rows) < min_rows:
        raise InvalidInputError(f"{path}: need at least {min_rows} data row(s), got {len(rows)}")
    return rows


def read_commands_csv(path) -> list[TendonCommand]:
    """Tendon command sequence from a CSV with columns COMMANDS_CSV_COLUMNS."""
    return _read_numeric_csv(
        path, COMMANDS_CSV_COLUMNS, 1, lambda row: TendonCommand(u_s=row[0], tau=row[1:])
    )
