"""Closed- and open-loop simulation of the controlled needle.

The closed loop exercises the full virtual/physical boundary every step: the
controller produces a virtual input from the (possibly delayed and noisy)
measured state, the input is converted to a tendon command with the nominal
geometry, and the plant converts that command back to bending rates with its
own, possibly perturbed, geometry before integrating the true state. Model
mismatch therefore enters exactly where it would on hardware, in the tension
mapping.

Per-step records serialize to a fixed-column CSV and a run summary to JSON;
both use 9-significant-digit formatting so that reruns of the same scenario
and seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NumericalFailureError,
    _integer,
    _real,
    _reals,
)
from .kinematics import (
    Array,
    NeedleState,
    VirtualInput,
    step_euler,
    step_exact,
)
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


def _fmt(x: float) -> str:
    """Fixed 9-significant-digit float formatting used by all outputs."""
    return f"{x:.9g}"


@dataclass(frozen=True)
class PlantConfig:
    """True plant behavior, including its deviations from the nominal model.

    gain_error scales the true curvature gain by (1 + gain_error);
    theta_e_error is added to the true channel offset (rad). Measurement
    noise is zero-mean Gaussian per position axis (mm std). latency_steps
    delays the state the controller sees by whole control periods.
    Numeric fields must be numbers and integer fields integers; nothing is
    truncated or coerced.
    """

    integrator: str = "exact"
    gain_error: float = 0.0
    theta_e_error: float = 0.0
    measurement_noise_std: tuple[float, float, float] = (0.0, 0.0, 0.0)
    latency_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise InvalidConfigError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        for name in ("gain_error", "theta_e_error"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.gain_error <= -1.0:
            raise InvalidConfigError(
                f"gain_error must exceed -1 so the true gain stays positive, got {self.gain_error:g}"
            )
        std = _reals(self.measurement_noise_std, "measurement_noise_std", 3)
        if any(v < 0.0 for v in std):
            raise InvalidConfigError(
                f"measurement_noise_std must be 3 nonnegative values, got {self.measurement_noise_std}"
            )
        object.__setattr__(self, "measurement_noise_std", std)
        object.__setattr__(
            self, "latency_steps", _integer(self.latency_steps, "latency_steps", 0)
        )
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))

    def true_geometry(self, nominal: TendonGeometry) -> TendonGeometry:
        """Nominal geometry with this plant's perturbations applied."""
        return TendonGeometry(
            theta_e=nominal.theta_e + self.theta_e_error,
            gain=nominal.gain * (1.0 + self.gain_error),
            tau_max=nominal.tau_max,
        )


@dataclass(frozen=True)
class RunConfig:
    """Step budget, initial state and bookkeeping options of one run.

    Numeric fields must be numbers, integer fields integers and early_stop a
    bool; nothing is truncated or coerced.
    """

    steps: int = 210
    initial_state: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    early_stop: bool = False            # fixed targets only
    stop_tolerance_mm: float = 0.2
    stop_speed_mm_s: float = 0.1
    exclude_terminal_s: float = 0.0     # window ignored by the max-error metric
    fault_budget: int = 10

    def __post_init__(self):
        object.__setattr__(self, "steps", _integer(self.steps, "steps", 1))
        init = _reals(self.initial_state, "initial_state", 6)
        object.__setattr__(self, "initial_state", init)
        NeedleState.from_vector(init)  # validates the unit norm
        if not isinstance(self.early_stop, (bool, np.bool_)):
            raise InvalidConfigError(f"early_stop must be true or false, got {self.early_stop!r}")
        object.__setattr__(self, "early_stop", bool(self.early_stop))
        for name in ("stop_tolerance_mm", "stop_speed_mm_s", "exclude_terminal_s"):
            v = _real(getattr(self, name), name)
            if v < 0.0:
                raise InvalidConfigError(f"{name} must be nonnegative, got {v!r}")
            object.__setattr__(self, name, v)
        object.__setattr__(
            self, "fault_budget", _integer(self.fault_budget, "fault_budget", 0)
        )

    def state(self) -> NeedleState:
        return NeedleState.from_vector(self.initial_state)


@dataclass(frozen=True)
class StepRecord:
    """Everything logged for one control step (pre-step state at time t)."""

    t: float
    state: NeedleState
    measured: NeedleState
    ref: Array
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
    terminal_ref: Array
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
    prev_meas_p: Optional[Array] = None
    d_est = np.array(state.d)
    records: list[StepRecord] = []
    faults = 0

    for k in range(run.steps):
        t = k * cfg.ts
        delayed = history[0]
        if noisy:
            p_meas = delayed.p + rng.standard_normal(3) * noise_std
            if prev_meas_p is not None:
                motion = p_meas - prev_meas_p
                if np.linalg.norm(motion) > 1e-9:
                    d_est = motion / np.linalg.norm(motion)
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

        err = float(np.linalg.norm(state.p - refs[0]))
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
            and float(np.linalg.norm(state.p - scenario.reference.target)) < run.stop_tolerance_mm
            and abs(applied.u_s) < run.stop_speed_mm_s
        ):
            break

    t_end = len(records) * cfg.ts
    terminal_ref = horizon_samples(scenario.reference, t_end, 1, cfg.ts)[0]
    terminal_err = float(np.linalg.norm(state.p - terminal_ref))
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
    errors: Array             # per-boundary model-vs-plant position error, mm
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
    s0 = initial_state or NeedleState(p=np.zeros(3), d=(0.0, 0.0, 1.0))
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
            float(np.linalg.norm(m.p - p.p))
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


def write_step_csv(result: ScenarioResult, path) -> None:
    """Per-step log with the fixed column set in CSV_COLUMNS."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in result.records:
            writer.writerow(
                [
                    _fmt(r.t),
                    *(_fmt(v) for v in r.state.p),
                    *(_fmt(v) for v in r.state.d),
                    *(_fmt(v) for v in r.ref),
                    _fmt(r.applied.u_s), _fmt(r.applied.u_x), _fmt(r.applied.u_y),
                    *(_fmt(v) for v in r.command.tau),
                    int(r.saturated),
                    _fmt(r.cost),
                    _fmt(r.err),
                ]
            )


def write_open_loop_csv(result: OpenLoopResult, ts: float, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OPEN_LOOP_CSV_COLUMNS)
        for k, (m, p) in enumerate(zip(result.model_states, result.plant_states)):
            writer.writerow(
                [
                    _fmt(k * ts),
                    *(_fmt(v) for v in m.p),
                    *(_fmt(v) for v in p.p),
                    _fmt(float(result.errors[k])),
                ]
            )


def summary_dict(result: ScenarioResult) -> dict:
    s = result.summary
    return {
        "final_error_mm": s.final_error_mm,
        "max_error_mm": s.max_error_mm,
        "inserted_length_mm": s.inserted_length_mm,
        "error_pct_of_insertion": s.error_pct_of_insertion,
        "steps": s.steps,
        "terminal_position_mm": [float(v) for v in result.terminal_state.p],
        "terminal_reference_mm": [float(v) for v in result.terminal_ref],
        "saturated_steps": sum(r.saturated for r in result.records),
        "fault_steps": sum(r.fault for r in result.records),
    }


def write_summary_json(result: ScenarioResult, scenario_doc: dict, path) -> None:
    """Summary metrics plus the fully resolved scenario they came from.

    The echoed scenario is a valid scenario document: feeding it back
    through the runner reproduces the outputs byte for byte.
    """
    doc = {"summary": summary_dict(result), "scenario": scenario_doc}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_numeric_csv(path, columns: Sequence[str], min_rows: int) -> list[list[float]]:
    """Rows of floats from a CSV whose header is exactly `columns`.

    Blank rows are skipped. A wrong header, a row of the wrong width, a
    non-numeric value, fewer than min_rows rows or a file that cannot be
    read as text raise InvalidInputError naming the file (and the line, for
    row faults); a missing file raises FileNotFoundError.
    """
    try:
        with open(path, newline="") as fh:
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
                    rows.append([float(v) for v in row])
                except ValueError:
                    raise InvalidInputError(f"{path}:{lineno}: non-numeric value in {row}") from None
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
    return [
        TendonCommand(u_s=row[0], tau=row[1:])
        for row in _read_numeric_csv(path, COMMANDS_CSV_COLUMNS, 1)
    ]


def write_commands_csv(commands: Sequence[TendonCommand], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMMANDS_CSV_COLUMNS)
        for cmd in commands:
            writer.writerow([_fmt(cmd.u_s), *(_fmt(v) for v in cmd.tau)])
