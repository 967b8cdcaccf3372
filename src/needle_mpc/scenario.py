"""Scenario documents: strict JSON schema, presets, resolved echoes.

A scenario file is a JSON object with a schema_version and five sections
(mpc, geometry, plant, reference, run). Parsing is strict: unknown keys are
rejected by name rather than ignored, so typos surface as errors instead of
silently running defaults. scenario_to_dict materializes every default,
producing a document that parses back to the identical scenario; run
summaries embed that echo so any result can be reproduced from its own
output file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, SchemaError
from .harness import PlantConfig, RunConfig, _read_numeric_csv
from .mapping import TendonGeometry
from .mpc import MpcConfig
from .references import (
    FixedTarget,
    Helix,
    ReferenceSpec,
    SharpTurn,
    Sinusoidal,
    WaypointPath,
)

SCHEMA_VERSION = 1

_SECTIONS = ("mpc", "geometry", "plant", "reference", "run")


@dataclass(frozen=True)
class Scenario:
    mpc: MpcConfig
    geometry: TendonGeometry
    plant: PlantConfig
    reference: ReferenceSpec
    run: RunConfig


def _take(section: dict, section_name: str, known: dict) -> dict:
    """Map JSON keys to constructor kwargs, rejecting unknown keys."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise SchemaError(f"unknown key(s) in section '{section_name}': {', '.join(unknown)}")
    return {known[k]: v for k, v in section.items()}


def _build(section_name: str, ctor, kwargs: dict):
    try:
        return ctor(**kwargs)
    except (InvalidConfigError, InvalidInputError) as exc:
        raise SchemaError(f"section '{section_name}': {exc}") from exc
    except TypeError as exc:
        raise SchemaError(f"section '{section_name}': {exc}") from exc


_MPC_KEYS = {
    "T_s_s": "ts",
    "horizon": "horizon",
    "q_weights": "q_weights",
    "r_weights": "r_weights",
    "u_s_bounds_mm_s": "u_s_bounds",
    "u_x_bounds_rad_s": "u_x_bounds",
    "u_y_bounds_rad_s": "u_y_bounds",
    "planar_mode": "planar_mode",
    "max_iterations": "max_iterations",
    "gradient_tolerance": "gradient_tolerance",
    "multi_start": "multi_start",
    "seed": "seed",
}

_GEOMETRY_KEYS = {
    "theta_e_rad": "theta_e",
    "gain_per_mm_N": "gain",
    "tau_max_N": "tau_max",
}

_PLANT_KEYS = {
    "integrator": "integrator",
    "gain_error": "gain_error",
    "theta_e_error_rad": "theta_e_error",
    "measurement_noise_std_mm": "measurement_noise_std",
    "latency_steps": "latency_steps",
    "seed": "seed",
}

_RUN_KEYS = {
    "steps": "steps",
    "initial_state": "initial_state",
    "early_stop": "early_stop",
    "stop_tolerance_mm": "stop_tolerance_mm",
    "stop_speed_mm_s": "stop_speed_mm_s",
    "exclude_terminal_s": "exclude_terminal_s",
    "fault_budget": "fault_budget",
}

REPLAY_CSV_COLUMNS = ["t_s", "x_mm", "y_mm", "z_mm"]


def _replay(csv_path) -> WaypointPath:
    """Recorded tip trajectory (columns REPLAY_CSV_COLUMNS) as a waypoint path.

    The recording must start at t = 0, where every run first samples its
    reference.
    """
    if not isinstance(csv_path, str):
        raise InvalidConfigError(f"csv_path must be a string, got {csv_path!r}")
    try:
        data = np.array(_read_numeric_csv(csv_path, REPLAY_CSV_COLUMNS, 2))
    except FileNotFoundError as exc:
        raise InvalidInputError(f"{csv_path}: no such file") from exc
    if data[0, 0] > 1e-12:
        raise SchemaError(
            f"{csv_path}: the first replay sample is at {data[0, 0]:g} s; "
            "a replay must start at t = 0"
        )
    return WaypointPath(points=data[:, 1:], times=data[:, 0])


_REFERENCE_KEYS = {
    "fixed_target": ({"target_mm": "target"}, FixedTarget),
    "helix": (
        {
            "radius_mm": "radius",
            "pitch_mm": "pitch",
            "rate_rad_s": "rate",
            "center_mm": "center",
            "phase_rad": "phase",
            "axis": "axis",
        },
        Helix,
    ),
    "sharp_turn": ({"waypoints_mm": "waypoints", "speed_mm_s": "speed"}, SharpTurn),
    "sinusoidal": (
        {
            "axial_speed_mm_s": "axial_speed",
            "amplitude_mm": "amplitude",
            "frequency_hz": "frequency",
            "phase_rad": "phase",
        },
        Sinusoidal,
    ),
    "waypoint_path": ({"points_mm": "points", "times_s": "times"}, WaypointPath),
    # a replay loads into a waypoint path, so its echo is self-contained
    "replay": ({"csv_path": "csv_path"}, _replay),
}

# reference type -> kind; WaypointPath echoes as "waypoint_path"
_REFERENCE_KINDS = {ctor: kind for kind, (_, ctor) in _REFERENCE_KEYS.items()}

_SECTION_KEYS = {
    "mpc": _MPC_KEYS,
    "geometry": _GEOMETRY_KEYS,
    "plant": _PLANT_KEYS,
    "run": _RUN_KEYS,
}


def _reference_from_dict(section: dict) -> ReferenceSpec:
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in _REFERENCE_KEYS:
        raise SchemaError(
            f"reference kind must be one of {sorted(_REFERENCE_KEYS)}, got {kind!r}"
        )
    keys, ctor = _REFERENCE_KEYS[kind]
    body = {k: v for k, v in section.items() if k != "kind"}
    return _build(f"reference ({kind})", ctor, _take(body, f"reference ({kind})", keys))


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError(f"scenario document must be a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version is None:
        raise SchemaError("missing required key 'schema_version'")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    unknown = sorted(set(doc) - set(_SECTIONS) - {"schema_version"})
    if unknown:
        raise SchemaError(f"unknown top-level key(s): {', '.join(unknown)}")
    missing = sorted(set(_SECTIONS) - set(doc))
    if missing:
        raise SchemaError(f"missing required section(s): {', '.join(missing)}")
    for name in _SECTIONS:
        if not isinstance(doc[name], dict):
            raise SchemaError(f"section '{name}' must be a JSON object")

    mpc = _build("mpc", MpcConfig, _take(doc["mpc"], "mpc", _MPC_KEYS))
    geometry = _build("geometry", TendonGeometry, _take(doc["geometry"], "geometry", _GEOMETRY_KEYS))
    plant = _build("plant", PlantConfig, _take(doc["plant"], "plant", _PLANT_KEYS))
    reference = _reference_from_dict(doc["reference"])
    run = _build("run", RunConfig, _take(doc["run"], "run", _RUN_KEYS))
    return Scenario(mpc=mpc, geometry=geometry, plant=plant, reference=reference, run=run)


def _echo(obj, keys: dict) -> dict:
    """JSON section of obj's attributes under their document keys."""
    section = {}
    for key, attr in keys.items():
        value = getattr(obj, attr)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        section[key] = value
    return section


def scenario_to_dict(scenario: Scenario) -> dict:
    """Fully resolved scenario document with every default materialized."""
    ref = scenario.reference
    kind = _REFERENCE_KINDS.get(type(ref))
    if kind is None:
        raise InvalidInputError(f"unknown reference type {type(ref).__name__}")
    doc = {"schema_version": SCHEMA_VERSION}
    for name in _SECTIONS:
        if name == "reference":
            doc[name] = {"kind": kind, **_echo(ref, _REFERENCE_KEYS[kind][0])}
        else:
            doc[name] = _echo(getattr(scenario, name), _SECTION_KEYS[name])
    return doc


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    """Copy of the scenario with the plant seed replaced."""
    return dataclasses.replace(scenario, plant=dataclasses.replace(scenario.plant, seed=seed))


def preset_names() -> list[str]:
    files = resources.files("needle_mpc").joinpath("presets")
    return sorted(
        p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json")
    )


def load_preset(name: str) -> Scenario:
    path = resources.files("needle_mpc").joinpath("presets", f"{name}.json")
    if not path.is_file():
        raise InvalidInputError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    doc = json.loads(path.read_text())
    return scenario_from_dict(doc)


def replay_command_names() -> list[str]:
    files = resources.files("needle_mpc").joinpath("presets", "replays")
    return sorted(p.name[: -len(".csv")] for p in files.iterdir() if p.name.endswith(".csv"))


def replay_commands_path(name: str):
    """Filesystem path of a bundled command CSV (they ship as real files)."""
    path = resources.files("needle_mpc").joinpath("presets", "replays", f"{name}.csv")
    if not path.is_file():
        raise InvalidInputError(
            f"unknown command file {name!r}; available: {', '.join(replay_command_names())}"
        )
    return path
