"""Closed- and open-loop simulation of the controlled needle.

The closed loop exercises the full virtual/physical boundary every step: the
controller produces a virtual input from the (possibly delayed and noisy)
measured state, the input is converted to a tendon command with the nominal
geometry, and the plant converts that command back to bending rates with its
own, possibly perturbed, geometry before integrating the true state. Model
mismatch therefore enters exactly where it would on hardware, in the tension
mapping.

Every file a run writes goes through one of two writers: _write_csv formats
each row with one format string, every number at 9 significant digits
("%.9g") and CRLF line ends, and _write_json sorts the keys, so reruns of
the same scenario and seed are byte-identical.

References, positions and errors are tuples of floats, and an error norm
sums its squares left to right. Measurement noise comes from a
random.Random seeded with the plant seed.

The plant has one integrator, the exact flow of kinematics. The closed
loop steps it on NeedleState objects, through step_exact. The open loop has
no controller to hand states to, so both of its sides step on floats,
through the _exact_flow and _settle that step_exact wraps, and keep only
the positions they write. Forward Euler is only the controller's
prediction (mpc).
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NumericalFailureError,
    SchemaError,
    check_fields,
    key,
)
from .kinematics import (
    NeedleState,
    VirtualInput,
    _check_ts,
    _exact_flow,
    _settle,
    distance,
    step_exact,
)
from .mapping import (
    TendonCommand,
    TendonGeometry,
    _command_rates,
    inverse_map,
    rates_from_command,
)
from .mpc import RecedingHorizonController
from .references import MAX_POSITION_MM, FixedTarget, check_path_speed, horizon_samples

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

# not a plant step, and always None; perfbench/tracer.py wraps that name
step_euler = None

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
    integrator has one value, "exact", the only plant integrator; the key
    stays so that documents that spell it out still parse.
    """

    integrator: str = key("integrator", "exact", kind=str, choices=("exact",))
    gain_error: float = key("gain_error", 0.0, gt=-1.0)  # the true gain stays positive
    theta_e_error: float = key("theta_e_error_rad", 0.0)
    measurement_noise_std: tuple[float, float, float] = key(
        "measurement_noise_std_mm", (0.0, 0.0, 0.0), kind=tuple, n=3, ge=0.0,
        le=MAX_POSITION_MM,
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
        "initial_state", (0.0, 0.0, 0.0, 0.0, 0.0, 1.0), kind=tuple, n=6, mag=MAX_POSITION_MM
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
    """Everything logged for one control step (pre-step state at time t).

    pg_norm_scaled is the solve's projected gradient norm over 1 + |cost|,
    the figure its stop test compares with gradient_tolerance.
    """

    t: float
    state: NeedleState
    measured: NeedleState
    ref: tuple[float, float, float]
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
    terminal_ref: tuple[float, float, float]
    summary: Summary


def _inserted_length(speeds, ts: float) -> float:
    """Sum of |u_s| times ts, summed left to right: builtin sum()
    compensates its float sums from Python 3.12 on, which would make the
    bits depend on the Python version."""
    total = 0.0
    for u_s in speeds:
        total += abs(u_s)
    return total * ts


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
    inserted = _inserted_length([r.applied.u_s for r in records], ts)
    pct = 100.0 * terminal_err / inserted if inserted > 0.0 else None
    return Summary(
        final_error_mm=terminal_err,
        max_error_mm=max_err,
        inserted_length_mm=inserted,
        error_pct_of_insertion=pct,
        steps=len(records),
    )


class _NoisySensor:
    """Measured states of a plant with Gaussian position noise.

    Each measurement draws one normal deviate per axis, in x, y, z order,
    from a random.Random seeded with the plant seed. The direction is
    re-estimated from the last two measured positions.
    """

    def __init__(self, plant: PlantConfig, d0: tuple[float, float, float]):
        self._rng = random.Random(plant.seed)
        self._std = plant.measurement_noise_std
        self._prev_p = None
        self._d = d0

    def measure(self, state: NeedleState) -> NeedleState:
        gauss = self._rng.gauss
        p = tuple(v + gauss(0.0, std) for v, std in zip(state.p, self._std))
        prev = self._prev_p
        if prev is not None:
            norm = distance(p, prev)
            if 1e-9 < norm < math.inf:    # an overflowed norm keeps the estimate
                self._d = ((p[0] - prev[0]) / norm, (p[1] - prev[1]) / norm,
                           (p[2] - prev[2]) / norm)
        self._prev_p = p
        return NeedleState(p=p, d=self._d)


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

    check_path_speed(scenario.reference, run.steps * cfg.ts, cfg.u_s_bounds[1])

    controller = RecedingHorizonController(cfg)
    state = run.state()
    # true states of the last latency_steps + 1 step boundaries; the oldest
    # is the one the controller sees
    history = deque([state], maxlen=plant.latency_steps + 1)
    noisy = any(std > 0.0 for std in plant.measurement_noise_std)
    sensor = _NoisySensor(plant, state.d) if noisy else None
    records: list[StepRecord] = []
    faults = 0

    for k in range(run.steps):
        t = k * cfg.ts
        delayed = history[0]
        measured = sensor.measure(delayed) if sensor else delayed

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
        state_next = step_exact(state, true_rates, cfg.ts)

        err = distance(state.p, refs[0])
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
            and distance(state.p, scenario.reference.target) < run.stop_tolerance_mm
            and abs(applied.u_s) < run.stop_speed_mm_s
        ):
            break

    t_end = len(records) * cfg.ts
    terminal_ref = horizon_samples(scenario.reference, t_end, 1, cfg.ts)[0]
    terminal_err = distance(state.p, terminal_ref)
    summary = compute_metrics(records, terminal_err, cfg.ts, run.exclude_terminal_s)
    return ScenarioResult(
        records=tuple(records),
        terminal_state=state,
        terminal_ref=terminal_ref,
        summary=summary,
    )


@dataclass(frozen=True)
class OpenLoopResult:
    """Model and plant tip positions under an identical command sequence,
    one (x, y, z) float tuple per step boundary."""

    model_positions: tuple[tuple[float, float, float], ...]
    plant_positions: tuple[tuple[float, float, float], ...]
    errors: tuple[float, ...]   # per-boundary model-vs-plant position error, mm
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

    Both sides integrate the exact flow, the model side on the nominal
    geometry's rates and the plant side on its perturbed geometry's. The
    error series is the position discrepancy at every step boundary, the
    standard open-loop validation of model fidelity.

    Both sides step on floats: ts is checked once, each command's rates as
    a VirtualInput would check them, and each step's state is settled as a
    NeedleState would be, so the positions are those of step_exact bit for
    bit.
    """
    if len(commands) == 0:
        raise InvalidInputError("command sequence is empty")
    ts = _check_ts(ts)
    s0 = initial_state or NeedleState(p=(0.0, 0.0, 0.0), d=(0.0, 0.0, 1.0))
    true_geometry = plant.true_geometry(model_geometry)

    model = true = (s0.p, s0.d)
    model_positions, plant_positions = [s0.p], [s0.p]
    for cmd in commands:
        u_s, tau = cmd.u_s, cmd.tau
        model_x, model_y = _command_rates(u_s, tau, model_geometry)
        true_x, true_y = _command_rates(u_s, tau, true_geometry)
        model = _settle(*_exact_flow(*model, u_s, model_x, model_y, ts))
        true = _settle(*_exact_flow(*true, u_s, true_x, true_y, ts))
        model_positions.append(model[0])
        plant_positions.append(true[0])

    errors = tuple(map(distance, model_positions, plant_positions))
    inserted = _inserted_length([cmd.u_s for cmd in commands], ts)
    max_err = max(errors)
    pct = 100.0 * max_err / inserted if inserted > 0.0 else None
    return OpenLoopResult(
        model_positions=tuple(model_positions),
        plant_positions=tuple(plant_positions),
        errors=errors,
        inserted_length_mm=inserted,
        max_error_mm=max_err,
        error_pct_of_insertion=pct,
    )


def _write_csv(path, columns: Sequence[str], rows) -> None:
    """Header `columns`, then one line per row, formatted by one "%.9g"
    field per column (a bool as 0 or 1), joined by commas and ended with
    CRLF, the line end csv.writer writes. The file goes out in one write."""
    line = ",".join(["%.9g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n" + "".join([line % tuple(row) for row in rows]))


def _write_json(path, doc: dict) -> None:
    """doc with two-space indent, sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    """The document in a JSON file. Text that is not JSON, or nests too
    deeply to read, raises SchemaError naming the file; a missing file
    raises FileNotFoundError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply to read") from None


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
        [k * ts, *m, *p, result.errors[k]]
        for k, (m, p) in enumerate(zip(result.model_positions, result.plant_positions))
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
        "terminal_reference_mm": list(result.terminal_ref),
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
    non-numeric or non-finite value, a row that convert rejects, a row the
    csv module cannot parse (a field over its size limit), fewer than
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
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num  # the row's last line: a quoted field may span lines
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
    except csv.Error as exc:  # a field beyond csv.field_size_limit(), say
        raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from None
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
