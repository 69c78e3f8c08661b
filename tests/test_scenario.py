import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stairclimber.control import ArbiterConfig
from stairclimber.drivetrain import GearDesign, MotorSpec, TrackParams, min_pinion_teeth
from stairclimber.eeg import LoessConfig
from stairclimber.scenario import _FIELDS, _LEAVES, ConfigError, Scenario, build_scenario, load_scenario
from stairclimber.stairsim import SimConfig, Staircase
from stairclimber.support import SupportGeometry, SupportLoad

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def test_defaults():
    sc = build_scenario({})
    assert sc.name == "scenario"
    assert sc.track.M == 97.0
    assert sc.track.r == 0.036
    assert sc.stairs.inclination == pytest.approx(math.radians(40.0))
    assert sc.stairs.step_rise == 0.17
    assert sc.gear.teeth == 18            # auto-sized from the pressure angle
    assert sc.gear.pitch_diameter_mm == pytest.approx(72.0)
    assert sc.motor.available_track_torque == pytest.approx(44.0)
    assert sc.sim.dt == 1e-3
    assert sc.event_log is None


def test_default_name_comes_from_caller():
    assert build_scenario({}, default_name="baseline").name == "baseline"
    assert build_scenario({"name": "custom"}).name == "custom"


def test_overrides_apply():
    sc = build_scenario(
        {
            "robot": {
                "per_track_mass_kg": 80.0,
                "gear": {"pressure_angle_deg": 30.0, "teeth": 9},
                "motor": {"reduction": 3.0},
            },
            "staircase": {"inclination_deg": 30.0, "ramp_length_m": 1.2},
            "sim": {"dt_s": 0.002, "rolling_resist_coeff": 0.1},
        }
    )
    assert sc.track.M == 80.0
    assert sc.stairs.inclination == pytest.approx(math.radians(30.0))
    assert sc.gear.teeth == 9
    assert sc.motor.available_track_torque == pytest.approx(66.0)
    assert sc.sim.dt == 0.002
    assert sc.sim.rolling_resist_coeff == 0.1
    assert sc.stairs.ramp_length == 1.2


def test_stair_angle_feeds_track_theta():
    sc = build_scenario({"staircase": {"inclination_deg": 25.0}})
    assert sc.stairs.inclination == pytest.approx(math.radians(25.0))


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="bogus"):
        build_scenario({"bogus": 1})


def test_unknown_nested_key_names_full_path():
    with pytest.raises(ConfigError, match=r"robot\.gear\.modul_mm"):
        build_scenario({"robot": {"gear": {"modul_mm": 4.0}}})
    with pytest.raises(ConfigError, match=r"sim\.plate\.arm"):
        build_scenario({"sim": {"plate": {"arm": 0.3}}})


def test_invalid_value_names_section():
    with pytest.raises(ConfigError, match="robot"):
        build_scenario({"robot": {"per_track_mass_kg": -1.0}})
    with pytest.raises(ConfigError, match="staircase"):
        build_scenario({"staircase": {"inclination_deg": 70.0}})


@pytest.mark.parametrize("degrees", [0, 0.0, -10.0])
def test_flat_or_negative_inclination_names_staircase(degrees):
    with pytest.raises(ConfigError, match=r"^staircase: inclination must lie in"):
        build_scenario({"staircase": {"inclination_deg": degrees}})


def test_wrong_types_rejected():
    with pytest.raises(ConfigError):
        build_scenario({"sim": {"dt_s": "fast"}})
    with pytest.raises(ConfigError):
        build_scenario({"robot": {"gear": {"teeth": 18.5}}})
    with pytest.raises(ConfigError):
        build_scenario({"robot": "heavy"})
    # null on an optional count falls back to auto-sizing
    sc = build_scenario({"robot": {"gear": {"teeth": None}}})
    assert sc.gear.teeth == 18


def test_undersized_gear_rejected():
    with pytest.raises(ConfigError, match="gear"):
        build_scenario({"robot": {"gear": {"teeth": 12}}})


def test_teleop_section(tmp_path):
    (tmp_path / "events.jsonl").write_text("")
    obj = {
        "teleop": {
            "event_log": "events.jsonl",
            "arbiter": {"cruise": 0.4, "kp_per_rad": 2.0},
        }
    }
    sc = build_scenario(obj, base_dir=tmp_path)
    assert sc.event_log == tmp_path / "events.jsonl"
    assert sc.arbiter.cruise == 0.4
    assert sc.arbiter.kp == 2.0


def test_load_scenario_resolves_relative_paths(tmp_path):
    (tmp_path / "ev.jsonl").write_text("")
    payload = {"name": "t", "teleop": {"event_log": "ev.jsonl"}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    sc = load_scenario(path)
    assert sc.event_log == tmp_path / "ev.jsonl"


def test_load_scenario_default_name_is_file_stem(tmp_path):
    path = tmp_path / "hall_stairs.json"
    path.write_text("{}")
    assert load_scenario(path).name == "hall_stairs"


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_load_scenario_integer_beyond_the_str_conversion_limit(tmp_path):
    # json refuses integer literals past sys.get_int_max_str_digits() with a
    # plain ValueError, not a JSONDecodeError
    path = tmp_path / "huge.json"
    path.write_text('{"robot": {"gear": {"teeth": 1' + "0" * 5000 + "}}}")
    with pytest.raises(ConfigError, match="invalid JSON: Exceeds the limit"):
        load_scenario(path)


# JSON documents of any shape, mostly refused by the key table or the kinds
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8), kids, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    # a valid document around bytes that need not be UTF-8
    st.binary(max_size=8).map(lambda name: b'{"name": "' + name + b'"}'),
))
def test_load_scenario_returns_a_scenario_or_refuses_arbitrary_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("bytes") / "case.json"
    path.write_bytes(data)
    try:
        sc = load_scenario(path)
    except ConfigError:
        return
    assert isinstance(sc, Scenario)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "absent.json")


def test_bundled_scenarios_load():
    baseline = load_scenario(SCENARIOS / "baseline40.json")
    assert baseline.sim.rolling_resist_coeff == 0.13
    assert baseline.stairs.ramp_length == 0.55
    assert baseline.sim.level_run == 0.0
    flat = load_scenario(SCENARIOS / "flat_ground.json")
    assert flat.stairs.ramp_length == 0.0
    assert flat.stairs.approach_length == 10.0
    replay = load_scenario(SCENARIOS / "teleop_replay.json")
    assert replay.event_log is not None and replay.event_log.exists()


def test_empty_scenario_takes_every_default_from_the_dataclasses():
    sc = build_scenario({})
    assert sc == Scenario(
        name="scenario",
        support_geom=SupportGeometry(),
        support_load=SupportLoad(),
        track=TrackParams(),
        gear=GearDesign(),
        motor=MotorSpec(),
        stairs=Staircase(),
        sim=SimConfig(TrackParams(), MotorSpec()),
        arbiter=ArbiterConfig(),
    )


@pytest.mark.parametrize(
    "ctor, name",
    [
        (ctor, f.name)
        for ctor in (TrackParams, MotorSpec, GearDesign, SupportGeometry, SupportLoad,
                     ArbiterConfig, LoessConfig)
        for f in dataclasses.fields(ctor)
        if f.init and f.type == "float"
    ],
)
def test_config_dataclasses_refuse_nan(ctor, name):
    with pytest.raises(ValueError):
        ctor(**{name: math.nan})


def _same(x):
    return x


# Every scenario key: a strategy for values that are valid in any
# combination, where the value lands, and how its unit converts.
LEAVES = {
    ("name",): (st.text(max_size=8), lambda sc: sc.name, _same),
    ("robot", "per_track_mass_kg"): (st.floats(20.0, 150.0), lambda sc: sc.track.M, _same),
    ("robot", "pulley1_mass_kg"): (st.floats(0.0, 5.0), lambda sc: sc.track.m1, _same),
    ("robot", "pulley23_mass_kg"): (st.floats(0.0, 5.0), lambda sc: sc.track.m, _same),
    ("robot", "pulley1_radius_m"): (st.floats(0.05, 0.1), lambda sc: sc.track.R, _same),
    ("robot", "pulley23_radius_m"): (st.floats(0.01, 0.05), lambda sc: sc.track.r, _same),
    ("robot", "gravity_mps2"): (
        st.floats(1.0, 20.0),
        lambda sc: (sc.track.gravity, sc.support_load.gravity),
        lambda v: (v, v),
    ),
    ("robot", "support", "a_m"): (st.floats(0.0, 1.0), lambda sc: sc.support_geom.a, _same),
    # b = 0 puts the actuator along the arm at 90 deg elevation
    ("robot", "support", "b_m"): (st.floats(0.001, 1.0), lambda sc: sc.support_geom.b, _same),
    ("robot", "support", "h_m"): (st.floats(0.1, 1.0), lambda sc: sc.support_geom.h, _same),
    ("robot", "support", "payload_mass_kg"): (
        st.floats(10.0, 200.0), lambda sc: sc.support_load.mass, _same),
    ("robot", "support", "hinge_shear_limit_n"): (
        st.floats(100.0, 5000.0), lambda sc: sc.support_load.hinge_shear_limit, _same),
    ("robot", "support", "safety_factor"): (
        st.floats(1.0, 3.0), lambda sc: sc.support_load.safety_factor, _same),
    ("robot", "gear", "pressure_angle_deg"): (
        st.floats(20.0, 35.0), lambda sc: sc.gear.pressure_angle, math.radians),
    ("robot", "gear", "module_mm"): (st.floats(0.5, 10.0), lambda sc: sc.gear.module_mm, _same),
    ("robot", "gear", "addendum_factor"): (
        st.floats(0.5, 1.0), lambda sc: sc.gear.addendum_factor, _same),
    ("robot", "gear", "teeth"): (st.integers(18, 80), lambda sc: sc.gear.teeth, _same),
    ("robot", "motor", "power_w"): (
        st.floats(320.0, 330.0), lambda sc: sc.motor.rated_power, _same),
    ("robot", "motor", "torque_nm"): (
        st.floats(21.8, 22.2), lambda sc: sc.motor.rated_torque, _same),
    ("robot", "motor", "speed_rpm"): (
        st.floats(142.0, 144.0), lambda sc: sc.motor.rated_speed, _same),
    ("robot", "motor", "reduction"): (st.floats(0.5, 5.0), lambda sc: sc.motor.reduction, _same),
    ("staircase", "inclination_deg"): (
        st.floats(5.0, 40.0),
        lambda sc: sc.stairs.inclination,
        math.radians,
    ),
    ("staircase", "step_rise_m"): (st.floats(0.1, 0.25), lambda sc: sc.stairs.step_rise, _same),
    ("staircase", "ramp_length_m"): (st.floats(0.0, 3.0), lambda sc: sc.stairs.ramp_length, _same),
    ("staircase", "approach_length_m"): (
        st.floats(0.0, 5.0), lambda sc: sc.stairs.approach_length, _same),
    ("sim", "dt_s"): (st.floats(1e-4, 1e-2), lambda sc: sc.sim.dt, _same),
    ("sim", "duration_s"): (st.floats(1.0, 60.0), lambda sc: sc.sim.duration, _same),
    ("sim", "rolling_resist_coeff"): (
        st.floats(0.0, 0.5), lambda sc: sc.sim.rolling_resist_coeff, _same),
    ("sim", "ground_speed_cap_mps"): (st.floats(0.1, 5.0), lambda sc: sc.sim.ground_cap, _same),
    ("sim", "stair_speed_cap_mps"): (st.floats(0.01, 1.0), lambda sc: sc.sim.stair_cap, _same),
    ("sim", "track_zone_m"): (st.floats(0.01, 0.5), lambda sc: sc.sim.track_length, _same),
    ("sim", "level_run_m"): (st.floats(0.0, 1.0), lambda sc: sc.sim.level_run, _same),
    ("sim", "plate", "lever_arm_m"): (st.floats(0.05, 1.0), lambda sc: sc.sim.plate.lever_arm, _same),
    ("sim", "plate", "max_rate_mps"): (st.floats(0.01, 1.0), lambda sc: sc.sim.plate.max_rate, _same),
    ("sim", "plate", "stroke_m"): (st.floats(0.05, 1.0), lambda sc: sc.sim.plate.stroke, _same),
    ("sim", "plate", "tolerance_deg"): (
        st.floats(0.1, 10.0), lambda sc: sc.sim.plate.tolerance, math.radians),
    ("teleop", "event_log"): (
        st.text("abc", min_size=1, max_size=4), lambda sc: sc.event_log, lambda v: ROOT / v),
    **{
        ("teleop", "arbiter", key): (st.floats(0.0, 1.0), getter, _same)
        for key, getter in [
            ("keypad_speed", lambda sc: sc.arbiter.keypad_speed),
            ("keypad_turn", lambda sc: sc.arbiter.keypad_turn),
            ("voice_speed", lambda sc: sc.arbiter.voice_speed),
            ("voice_turn", lambda sc: sc.arbiter.voice_turn),
            ("cruise", lambda sc: sc.arbiter.cruise),
            ("posture_rate", lambda sc: sc.arbiter.posture_rate),
        ]
    },
    ("teleop", "arbiter", "kp_per_rad"): (st.floats(0.0, 5.0), lambda sc: sc.arbiter.kp, _same),
    ("teleop", "arbiter", "accel_cap_mps2"): (
        st.floats(0.1, 2.0), lambda sc: sc.arbiter.accel_cap, _same),
    ("teleop", "arbiter", "speed_scale_mps"): (
        st.floats(0.5, 5.0), lambda sc: sc.arbiter.speed_scale, _same),
    ("teleop", "arbiter", "effort_cap"): (
        st.floats(0.01, 1.0), lambda sc: sc.arbiter.effort_cap, _same),
    ("teleop", "arbiter", "eeg_window"): (
        st.integers(3, 60), lambda sc: sc.arbiter.eeg_window, _same),
    ("teleop", "arbiter", "loess_span"): (
        st.floats(0.01, 1.0), lambda sc: sc.arbiter.loess.span, _same),
    ("teleop", "arbiter", "hysteresis_lo"): (
        st.floats(1.0, 49.0), lambda sc: sc.arbiter.hysteresis_lo, _same),
    ("teleop", "arbiter", "hysteresis_hi"): (
        st.floats(51.0, 100.0), lambda sc: sc.arbiter.hysteresis_hi, _same),
}


@st.composite
def key_subsets(draw):
    keys = draw(st.lists(st.sampled_from(sorted(LEAVES)), unique=True))
    return {key: draw(LEAVES[key][0]) for key in keys}


@settings(max_examples=200, deadline=None)
@given(key_subsets())
def test_each_key_lands_in_its_field(drawn):
    obj = {}
    for path, value in drawn.items():
        section = obj
        for part in path[:-1]:
            section = section.setdefault(part, {})
        section[path[-1]] = value
    sc = build_scenario(obj, base_dir=ROOT)
    default = build_scenario({})
    for path, (_, getter, convert) in LEAVES.items():
        if path in drawn:
            assert getter(sc) == convert(drawn[path]), path
        elif path == ("robot", "gear", "teeth"):
            # left out, the pinion is sized at the no-interference minimum
            assert sc.gear.teeth == min_pinion_teeth(sc.gear.pressure_angle, sc.gear.addendum_factor)
        else:
            assert getter(sc) == getter(default), path


def test_readme_scenario_example_loads():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Scenarios.*?```json\n(.*?)```", readme, re.S).group(1)
    sc = build_scenario(json.loads(block), base_dir=SCENARIOS)
    assert sc.name == "baseline40"
    assert sc.event_log == SCENARIOS / "teleop_events.jsonl"


def field_of(target):
    """The dataclass field that a leaf target sets."""
    section, _, name = target.rpartition(".")
    return _FIELDS[section][name]


# every ranged key, with the range of the dataclass field it sets
RANGES = {key: field_of(target).metadata["range"] for key, (_, target, *_) in _LEAVES.items()
          if "range" in field_of(target).metadata}


def test_readme_range_table_is_the_leaf_table():
    # README quotes each range with its reason; each range has one source,
    # the dataclass field its key sets
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"## Scenarios(.*?)\n## ", readme, re.S).group(1)
    rows = re.findall(r"^\| `([\w.]+)` \| \[(\S+), (\S+)\] \| (.+) \|$", section, re.M)
    assert {key: (float(lo), float(hi)) for key, lo, hi, _ in rows} == RANGES
    assert len(rows) == len(RANGES) and all(reason.strip() for *_, reason in rows)
    # every number of the robot, the staircase and the simulation reaches a
    # ranged field, except the inclination, whose dataclass refuses all
    # outside (0, 40]
    numbers = {key for key in _LEAVES
               if key.startswith(("robot.", "staircase.", "sim.")) and key != "staircase.inclination_deg"}
    assert set(RANGES) == numbers
    # the key with two targets sets two fields of one range
    assert _LEAVES["robot.gravity_mps2"][1:] == ("track.gravity", "support_load.gravity")
    assert field_of("track.gravity").metadata == field_of("support_load.gravity").metadata
    # every ranged field is set by a ranged key, and its default lies in its
    # range, a degree field's in radians
    ranged = {f for by_name in _FIELDS.values() for f in by_name.values() if "range" in f.metadata}
    assert ranged == {field_of(target) for key in RANGES for target in _LEAVES[key][1:]}
    for f in ranged:
        lo, hi = f.metadata["range"]
        if f.metadata["degrees"]:
            lo, hi = math.radians(lo), math.radians(hi)
        assert f.default is None or lo <= f.default <= hi, f.name


def one_key(key, value):
    """The scenario that sets one key path."""
    for head in reversed(key.split(".")):
        value = {head: value}
    return value


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("key", sorted(RANGES))
def test_a_value_just_outside_a_range_is_refused_by_key(key, side):
    lo, hi = RANGES[key]
    end, away = (lo, -1) if side == "below" else (hi, 1)
    if field_of(_LEAVES[key][1]).type == "float":
        outside = math.nextafter(end, away * math.inf)
    else:   # the tooth count, an integer
        end = int(end)
        outside = end + away
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected a number in \["):
        build_scenario(one_key(key, outside))
    # the end itself passes the range; another check may still refuse it
    try:
        build_scenario(one_key(key, end))
    except ConfigError as exc:
        assert not str(exc).startswith(f"{key}: "), exc
