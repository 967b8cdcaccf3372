import dataclasses
import json
import os
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needle_mpc import scenario as scenario_mod
from needle_mpc.errors import InvalidInputError, json_fields
from needle_mpc.references import (
    FixedTarget,
    Helix,
    SharpTurn,
    Sinusoidal,
    WaypointPath,
)
from needle_mpc.scenario import (
    load_preset,
    load_scenario,
    preset_names,
    replay_command_names,
    replay_commands_path,
    scenario_from_dict,
    scenario_to_dict,
    with_seed,
)

EXPECTED_PRESETS = {
    "helix",
    "planar_fast",
    "planar_slow",
    "replay_clean",
    "replay_mismatch",
    "sharp_turn",
    "sinusoidal",
    "target1",
    "target2",
    "target3",
}


def make_doc(**overrides):
    doc = {
        "schema_version": 1,
        "mpc": {"T_s_s": 0.05, "horizon": 5},
        "geometry": {},
        "plant": {},
        "reference": {"kind": "fixed_target", "target_mm": [5.0, -15.0, 150.0]},
        "run": {"steps": 10},
    }
    doc.update(overrides)
    return doc


class TestPresets:
    def test_all_presets_listed_and_parse(self):
        names = preset_names()
        assert set(names) == EXPECTED_PRESETS
        for name in names:
            scenario = load_preset(name)
            assert scenario.run.steps >= 1

    def test_unknown_preset(self):
        with pytest.raises(InvalidInputError, match="target1"):
            load_preset("nope")

    def test_preset_loads_as_a_scenario_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario_mod, "PRESETS_DIR", str(tmp_path))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(broken))}: not valid JSON"):
            load_preset("broken")
        # a relative csv_path resolves against the presets directory
        (tmp_path / "tip.csv").write_text("t_s,x_mm,y_mm,z_mm\n0,0,0,0\n1,0,0,20\n")
        doc = make_doc(reference={"kind": "replay", "csv_path": "tip.csv"})
        (tmp_path / "recorded.json").write_text(json.dumps(doc))
        assert load_preset("recorded").reference.points == ((0.0, 0.0, 0.0), (0.0, 0.0, 20.0))

    def test_bundled_command_files(self):
        assert replay_command_names() == ["replay1", "replay2", "replay3"]
        assert os.path.isfile(replay_commands_path("replay1"))
        assert type(replay_commands_path("replay1")) is str
        with pytest.raises(InvalidInputError):
            replay_commands_path("replay9")


class TestSchemaValidation:
    def test_minimal_document_parses(self):
        scenario = scenario_from_dict(make_doc())
        assert scenario.mpc.horizon == 5
        assert isinstance(scenario.reference, FixedTarget)

    def test_non_object_document(self):
        with pytest.raises(InvalidInputError):
            scenario_from_dict([1, 2, 3])

    def test_schema_version_required_and_checked(self):
        doc = make_doc()
        del doc["schema_version"]
        with pytest.raises(InvalidInputError, match="schema_version"):
            scenario_from_dict(doc)
        with pytest.raises(InvalidInputError, match="schema_version"):
            scenario_from_dict(make_doc(schema_version=2))

    def test_missing_sections_named(self):
        doc = make_doc()
        del doc["plant"]
        with pytest.raises(InvalidInputError, match="plant"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section", ["mpc", "reference", "run"])
    def test_non_object_section_named(self, section):
        with pytest.raises(InvalidInputError, match=f"^section '{section}' must be a JSON object$"):
            scenario_from_dict(make_doc(**{section: [1]}))

    def test_unknown_top_level_key_named(self):
        with pytest.raises(InvalidInputError, match="extra_section"):
            scenario_from_dict(make_doc(extra_section={}))

    def test_unknown_section_key_named(self):
        doc = make_doc(mpc={"T_s_s": 0.05, "horizon": 5, "fooSetting": 1})
        with pytest.raises(InvalidInputError, match="fooSetting"):
            scenario_from_dict(doc)

    def test_section_value_errors_name_the_section(self):
        doc = make_doc(mpc={"horizon": 0})
        with pytest.raises(InvalidInputError, match="mpc"):
            scenario_from_dict(doc)
        doc = make_doc(geometry={"tau_max_N": -1.0})
        with pytest.raises(InvalidInputError, match="geometry"):
            scenario_from_dict(doc)

    def test_load_scenario_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        with pytest.raises(InvalidInputError, match="not valid JSON"):
            load_scenario(path)

    def test_load_scenario_rejects_integer_too_long_to_convert(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(make_doc()).replace('"T_s_s": 0.05', '"T_s_s": ' + "1" * 5000))
        with pytest.raises(InvalidInputError, match="not valid JSON"):
            load_scenario(path)

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(make_doc()))
        scenario = load_scenario(path)
        assert scenario.run.steps == 10


class TestReferenceKinds:
    def test_each_kind_builds(self):
        kinds = {
            "helix": ({"kind": "helix", "radius_mm": 10.0, "pitch_mm": 40.0,
                       "rate_rad_s": 1.2}, Helix),
            "sharp_turn": ({"kind": "sharp_turn",
                            "waypoints_mm": [[0, 0, 0], [0, 0, 60]],
                            "speed_mm_s": 12.0}, SharpTurn),
            "sinusoidal": ({"kind": "sinusoidal", "axial_speed_mm_s": 18.0,
                            "amplitude_mm": [10.0, 6.0],
                            "frequency_hz": [0.15, 0.1]}, Sinusoidal),
            "waypoint_path": ({"kind": "waypoint_path",
                               "points_mm": [[0, 0, 0], [0, 0, 50]],
                               "times_s": [0.0, 5.0]}, WaypointPath),
        }
        for section, expected_type in kinds.values():
            scenario = scenario_from_dict(make_doc(reference=section))
            assert isinstance(scenario.reference, expected_type)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError, match="kind"):
            scenario_from_dict(make_doc(reference={"kind": "spiral"}))

    def test_reference_key_typo_named(self):
        ref = {"kind": "fixed_target", "target": [0, 0, 10]}
        with pytest.raises(InvalidInputError, match="target"):
            scenario_from_dict(make_doc(reference=ref))

    def test_replay_loads_and_echoes_self_contained(self, tmp_path):
        csv = tmp_path / "tip.csv"
        csv.write_text("t_s,x_mm,y_mm,z_mm\n0,0,0,0\n1,0,0,20\n2,1,-1,40\n")
        doc = make_doc(reference={"kind": "replay", "csv_path": str(csv)})
        scenario = scenario_from_dict(doc)

        echoed = scenario_to_dict(scenario)["reference"]
        assert echoed["kind"] == "waypoint_path"
        assert "csv_path" not in echoed

        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        for t in (0.0, 0.5, 1.7, 3.0):
            np.testing.assert_array_equal(
                rebuilt.reference.samples([t])[0], scenario.reference.samples([t])[0]
            )

    def test_replay_missing_file(self, tmp_path):
        doc = make_doc(reference={"kind": "replay", "csv_path": str(tmp_path / "no.csv")})
        with pytest.raises(InvalidInputError):
            scenario_from_dict(doc)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
    def test_to_dict_from_dict_fixed_point(self, name):
        scenario = load_preset(name)
        doc = scenario_to_dict(scenario)
        assert scenario_to_dict(scenario_from_dict(doc)) == doc

    def test_defaults_materialized(self):
        doc = scenario_to_dict(scenario_from_dict(make_doc()))
        assert doc["mpc"]["q_weights"] == [100.0, 100.0, 200.0]
        assert doc["plant"]["integrator"] == "exact"
        assert doc["run"]["fault_budget"] == 10

    def test_with_seed_changes_only_the_plant_seed(self):
        scenario = load_preset("planar_slow")
        reseeded = with_seed(scenario, 123)
        assert reseeded.plant.seed == 123
        a = scenario_to_dict(scenario)
        b = scenario_to_dict(reseeded)
        a["plant"].pop("seed")
        b["plant"].pop("seed")
        assert a == b


def _preset_doc(name):
    return json.loads(resources.files("needle_mpc").joinpath("presets", f"{name}.json").read_text())


def _fields(name):
    """(section, key) of every schema key a preset document may set."""
    scenario = load_preset(name)
    fields = [("schema_version", None), ("reference", "kind")]
    for section in dataclasses.fields(scenario):
        fields += [(section.name, key) for key in json_fields(getattr(scenario, section.name))]
    return fields


def _is_numeric(value):
    if isinstance(value, list):
        return bool(value) and all(_is_numeric(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _has_str_or_bool(value):
    if isinstance(value, list):
        return any(_has_str_or_bool(v) for v in value)
    if isinstance(value, dict):
        return bool(value)  # its keys are strings
    return isinstance(value, (str, bool))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated_presets(draw):
    name = draw(st.sampled_from(sorted(EXPECTED_PRESETS)))
    section, key = draw(st.sampled_from(_fields(name)))
    return name, section, key, draw(json_values)


class TestFuzzedPresets:
    @given(mutated_presets())
    @example(("target1", "schema_version", None, True))
    @example(("target1", "geometry", "theta_e_rad", -1e-17))
    @example(("target1", "mpc", "T_s_s", 10**400))
    @example(("target1", "mpc", "horizon", 10**400))
    @settings(max_examples=200, deadline=None)
    def test_one_field_set_to_any_json_value(self, case):
        name, section, key, value = case
        doc = _preset_doc(name)
        if key is None:
            doc[section] = value
            resolved = scenario_mod.SCHEMA_VERSION
        else:
            doc[section][key] = value
            resolved = scenario_to_dict(load_preset(name))[section][key]
        try:
            scenario = scenario_from_dict(doc)
        except InvalidInputError as exc:
            # every rejection names the JSON key it rejects
            assert (key or section) in str(exc)
            return
        # a string or a bool is never accepted in a numeric field
        assert not (_is_numeric(resolved) and _has_str_or_bool(value))
        echo = scenario_to_dict(scenario)
        assert scenario_to_dict(scenario_from_dict(echo)) == echo
