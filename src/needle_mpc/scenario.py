"""Scenario documents: strict JSON schema, presets, resolved echoes.

A scenario file is a JSON object with a schema_version and one section per
field of Scenario (mpc, geometry, plant, reference, run). Parsing, the echo
and every validation message come from the JSON keys, kinds and bounds that
the section dataclasses declare (errors.key). Parsing is strict: unknown
keys are rejected by name rather than ignored, so typos surface as errors
instead of silently running defaults. scenario_to_dict materializes every
default, producing a document that parses back to the identical scenario;
run summaries embed that echo so any result can be reproduced from its own
output file.
"""

from __future__ import annotations

import dataclasses
import os
import typing
from dataclasses import dataclass

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    SchemaError,
    check_fields,
    json_fields,
    key,
)
from .harness import PlantConfig, RunConfig, _read_json, _read_numeric_csv
from .mapping import TendonGeometry
from .mpc import MpcConfig
from .references import FixedTarget, Helix, ReferenceSpec, SharpTurn, Sinusoidal, WaypointPath

SCHEMA_VERSION = 1

# the bundled scenarios and command CSVs ship as real files beside the package
PRESETS_DIR = os.path.join(os.path.dirname(__file__), "presets")
REPLAYS_DIR = os.path.join(PRESETS_DIR, "replays")


@dataclass(frozen=True)
class Scenario:
    mpc: MpcConfig
    geometry: TendonGeometry
    plant: PlantConfig
    reference: ReferenceSpec
    run: RunConfig

    def __post_init__(self):
        # the plant's own geometry, built here so that a fault names the
        # keys that combine into it rather than surfacing mid-run
        try:
            self.plant.true_geometry(self.geometry)
        except InvalidConfigError as exc:
            raise SchemaError(
                "sections 'geometry' and 'plant': the plant's geometry, "
                "gain_per_mm_N * (1 + gain_error) and theta_e_rad + theta_e_error_rad, "
                f"is invalid: {exc}"
            ) from exc


# section name -> its config class, in document order
_SECTIONS = typing.get_type_hints(Scenario)

REPLAY_CSV_COLUMNS = ["t_s", "x_mm", "y_mm", "z_mm"]


@dataclass(frozen=True)
class _Replay:
    """A recorded tip trajectory (columns REPLAY_CSV_COLUMNS); it loads into
    a waypoint path, so the echo is self-contained."""

    csv_path: str = key("csv_path", kind=str)

    def __post_init__(self):
        check_fields(self)

    def load(self, base_dir) -> WaypointPath:
        """The recording as a waypoint path; a relative csv_path resolves
        against base_dir. It must start at t = 0, where every run first
        samples its reference."""
        path = os.path.join(base_dir or "", self.csv_path)
        try:
            rows = _read_numeric_csv(path, REPLAY_CSV_COLUMNS, 2)
        except FileNotFoundError as exc:
            raise InvalidInputError(f"{path}: no such file") from exc
        if abs(rows[0][0]) > 1e-12:
            raise InvalidInputError(
                f"{path}: the first replay sample is at {rows[0][0]:g} s; "
                "a replay must start at t = 0"
            )
        return WaypointPath(points=[row[1:] for row in rows], times=[row[0] for row in rows])


# reference kind -> class; WaypointPath echoes as "waypoint_path"
_KINDS = {
    "fixed_target": FixedTarget,
    "helix": Helix,
    "sharp_turn": SharpTurn,
    "sinusoidal": Sinusoidal,
    "waypoint_path": WaypointPath,
    "replay": _Replay,
}


def _build(section: str, cls, body: dict):
    """cls from a JSON section by its key() fields; faults name the section."""
    fields = json_fields(cls)
    unknown = sorted(set(body) - set(fields))
    if unknown:
        raise SchemaError(f"unknown key(s) in section '{section}': {', '.join(unknown)}")
    missing = [k for k, f in fields.items() if f.default is dataclasses.MISSING and k not in body]
    if missing:
        raise SchemaError(f"section '{section}': missing required key(s): {', '.join(missing)}")
    try:
        return cls(**{fields[k].name: v for k, v in body.items()})
    except (InvalidConfigError, InvalidInputError) as exc:
        raise SchemaError(f"section '{section}': {exc}") from exc


def _reference_from_dict(section: dict, base_dir=None) -> ReferenceSpec:
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"reference kind must be one of {sorted(_KINDS)}, got {kind!r}")
    name = f"reference (kind {kind})"
    body = {k: v for k, v in section.items() if k != "kind"}
    ref = _build(name, _KINDS[kind], body)
    if isinstance(ref, _Replay):
        try:
            return ref.load(base_dir)
        except (InvalidConfigError, InvalidInputError) as exc:
            raise SchemaError(f"section '{name}': csv_path: {exc}") from exc
    return ref


def scenario_from_dict(doc: dict, base_dir=None) -> Scenario:
    """Scenario from a parsed document; a relative replay csv_path resolves
    against base_dir (default: the working directory)."""
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
    missing = [name for name in _SECTIONS if name not in doc]
    if missing:
        raise SchemaError(f"missing required section(s): {', '.join(missing)}")
    for name in _SECTIONS:
        if not isinstance(doc[name], dict):
            raise SchemaError(f"section '{name}' must be a JSON object")
    return Scenario(**{
        name: _reference_from_dict(doc[name], base_dir) if cls == ReferenceSpec
        else _build(name, cls, doc[name])
        for name, cls in _SECTIONS.items()
    })


def _echo(obj) -> dict:
    """JSON section of obj's key() fields, tuples (points too) as lists."""
    section = {}
    for name, f in json_fields(obj).items():
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        section[name] = value
    return section


def scenario_to_dict(scenario: Scenario) -> dict:
    """Fully resolved scenario document with every default materialized."""
    doc = {"schema_version": SCHEMA_VERSION}
    for name, cls in _SECTIONS.items():
        obj = getattr(scenario, name)
        doc[name] = _echo(obj)
        if cls == ReferenceSpec:
            kind = next((k for k, c in _KINDS.items() if type(obj) is c), None)
            if kind is None:
                raise InvalidInputError(f"unknown reference type {type(obj).__name__}")
            doc[name] = {"kind": kind, **doc[name]}
    return doc


def load_scenario(path) -> Scenario:
    """Scenario from a JSON file; a relative replay csv_path resolves
    against the file's directory."""
    return scenario_from_dict(_read_json(path), base_dir=os.path.dirname(path))


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    """Copy of the scenario with the plant seed replaced."""
    return dataclasses.replace(scenario, plant=dataclasses.replace(scenario.plant, seed=seed))


def _bundled_names(directory: str, suffix: str) -> list[str]:
    return sorted(n[: -len(suffix)] for n in os.listdir(directory) if n.endswith(suffix))


def _bundled_path(name: str, directory: str, suffix: str, what: str) -> str:
    """The bundled file listed as name; any other name, a path too, is refused."""
    names = _bundled_names(directory, suffix)
    if name not in names:
        raise InvalidInputError(f"unknown {what} {name!r}; available: {', '.join(names)}")
    return os.path.join(directory, name + suffix)


def preset_names() -> list[str]:
    return _bundled_names(PRESETS_DIR, ".json")


def load_preset(name: str) -> Scenario:
    """A bundled scenario by its name in preset_names(); a path is refused."""
    return load_scenario(_bundled_path(name, PRESETS_DIR, ".json", "preset"))


def replay_command_names() -> list[str]:
    return _bundled_names(REPLAYS_DIR, ".csv")


def replay_commands_path(name: str) -> str:
    """Path of a bundled command CSV by its name in replay_command_names()."""
    return _bundled_path(name, REPLAYS_DIR, ".csv", "command file")
