"""Scenario files: JSON configs binding every module's parameters together.

A scenario describes the robot build (masses, pulleys, gear, motor, support
linkage), the staircase, the simulation settings and optional teleop replay
inputs.  One table, _LEAVES, maps each key's full path (keys carry unit
suffixes: mass_kg, radius_m) to the dataclass fields it sets and the kind of
value it takes.  Unknown keys fail with their full path, so a typo fails
fast.  A key left out of the file is left out of the constructor call, so
every default lives on its dataclass (the baseline design) and "{}" is a
whole scenario.  The loader reads each value through its kind; the event-log
reader in control shares the kinds, so a bad value gets the same "expected
..." message in both, after its own field path.  Each number of the robot,
the staircase and the simulation has a closed physical range on the field it
sets, read from there, so a value outside it fails at load by key, and no
product of in-range values overflows further on.  The dataclasses check their
ranges and the invariants that tie fields together, and their errors name
the section.  A relative teleop.event_log resolves against the scenario
file's directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .control import ArbiterConfig, _finite, _integer, _object, _refused, _string
from .drivetrain import GearDesign, MotorSpec, TrackParams, _cut
from .eeg import LoessConfig
from .stairsim import PlateRig, SimConfig, Staircase
from .support import SupportGeometry, SupportLoad

__all__ = ["ConfigError", "Scenario", "load_scenario", "build_scenario"]


class ConfigError(ValueError):
    """Invalid scenario config; the message carries the field path."""


@dataclass(frozen=True)
class Scenario:
    name: str
    support_geom: SupportGeometry
    support_load: SupportLoad
    track: TrackParams
    gear: GearDesign
    motor: MotorSpec
    stairs: Staircase
    sim: SimConfig
    arbiter: ArbiterConfig
    event_log: Path | None = None


def _degrees(value) -> float:
    return math.radians(_finite(value))


def _or_null(kind):
    return lambda value: None if value is None else kind(value)


# (section, JSON path its errors name, constructor, built sections it takes),
# in build order; the bare section "" is the Scenario itself.
_SECTIONS = (
    ("support_geom", "robot.support", SupportGeometry, ()),
    ("support_load", "robot.support", SupportLoad, ()),
    ("gear", "robot.gear", GearDesign, ()),
    ("motor", "robot.motor", MotorSpec, ()),
    ("stairs", "staircase", Staircase, ()),
    ("track", "robot", TrackParams, ()),
    ("plate", "sim.plate", PlateRig, ()),
    ("sim", "sim", SimConfig, ("track", "motor", "plate")),
    ("loess", "teleop.arbiter", LoessConfig, ()),
    ("arbiter", "teleop.arbiter", ArbiterConfig, ("loess",)),
    ("", "top level", Scenario,
     ("support_geom", "support_load", "track", "gear", "motor", "stairs", "sim", "arbiter")),
)
_FIELDS = {section: {f.name: f for f in fields(ctor)} for section, _, ctor, _ in _SECTIONS}


def _ranged(*targets, kind=_finite):
    """A leaf read through ``kind`` within its first target field's range (in
    degrees, then set in radians, for a degree field); a null that ``kind``
    passes stays null."""
    section, _, name = targets[0].rpartition(".")
    meta = _FIELDS[section][name].metadata

    def read(value):
        number = kind(value)
        if number is None:
            return None
        lo, hi = meta["range"]
        if not lo <= number <= hi:
            raise _refused(f"a number in [{lo:g}, {hi:g}]", value)
        return math.radians(number) if meta["degrees"] else number
    return (read, *targets)


# Each leaf is (kind, target, ...); a target is "section.field", or a bare
# Scenario field.  README's Scenarios table gives each range's reason.  No
# range on staircase.inclination_deg or the arbiter's keys: Staircase,
# ArbiterConfig and LoessConfig refuse or clamp every value out of bounds.
_LEAVES = {
    "name": (_string, "name"),
    "robot.per_track_mass_kg": _ranged("track.M"),
    "robot.pulley1_mass_kg": _ranged("track.m1"),
    "robot.pulley23_mass_kg": _ranged("track.m"),
    "robot.pulley1_radius_m": _ranged("track.R"),
    "robot.pulley23_radius_m": _ranged("track.r"),
    "robot.gravity_mps2": _ranged("track.gravity", "support_load.gravity"),
    "robot.support.a_m": _ranged("support_geom.a"),
    "robot.support.b_m": _ranged("support_geom.b"),
    "robot.support.h_m": _ranged("support_geom.h"),
    "robot.support.payload_mass_kg": _ranged("support_load.mass"),
    "robot.support.hinge_shear_limit_n": _ranged("support_load.hinge_shear_limit"),
    "robot.support.safety_factor": _ranged("support_load.safety_factor"),
    "robot.gear.pressure_angle_deg": _ranged("gear.pressure_angle"),
    "robot.gear.module_mm": _ranged("gear.module_mm"),
    "robot.gear.addendum_factor": _ranged("gear.addendum_factor"),
    "robot.gear.teeth": _ranged("gear.teeth", kind=_or_null(_integer)),  # null: no-interference minimum
    "robot.motor.power_w": _ranged("motor.rated_power"),
    "robot.motor.torque_nm": _ranged("motor.rated_torque"),
    "robot.motor.speed_rpm": _ranged("motor.rated_speed"),
    "robot.motor.reduction": _ranged("motor.reduction"),
    "staircase.inclination_deg": (_degrees, "stairs.inclination"),
    "staircase.step_rise_m": _ranged("stairs.step_rise"),
    "staircase.ramp_length_m": _ranged("stairs.ramp_length"),
    "staircase.approach_length_m": _ranged("stairs.approach_length"),
    "sim.dt_s": _ranged("sim.dt"),
    "sim.duration_s": _ranged("sim.duration"),
    "sim.rolling_resist_coeff": _ranged("sim.rolling_resist_coeff"),
    "sim.ground_speed_cap_mps": _ranged("sim.ground_cap"),
    "sim.stair_speed_cap_mps": _ranged("sim.stair_cap"),
    "sim.track_zone_m": _ranged("sim.track_length"),
    "sim.level_run_m": _ranged("sim.level_run"),
    "sim.plate.lever_arm_m": _ranged("plate.lever_arm"),
    "sim.plate.max_rate_mps": _ranged("plate.max_rate"),
    "sim.plate.stroke_m": _ranged("plate.stroke"),
    "sim.plate.tolerance_deg": _ranged("plate.tolerance"),
    "teleop.event_log": (_or_null(_string), "event_log"),
    "teleop.arbiter.keypad_speed": (_finite, "arbiter.keypad_speed"),
    "teleop.arbiter.keypad_turn": (_finite, "arbiter.keypad_turn"),
    "teleop.arbiter.voice_speed": (_finite, "arbiter.voice_speed"),
    "teleop.arbiter.voice_turn": (_finite, "arbiter.voice_turn"),
    "teleop.arbiter.cruise": (_finite, "arbiter.cruise"),
    "teleop.arbiter.kp_per_rad": (_finite, "arbiter.kp"),
    "teleop.arbiter.posture_rate": (_finite, "arbiter.posture_rate"),
    "teleop.arbiter.accel_cap_mps2": (_finite, "arbiter.accel_cap"),
    "teleop.arbiter.speed_scale_mps": (_finite, "arbiter.speed_scale"),
    "teleop.arbiter.effort_cap": (_finite, "arbiter.effort_cap"),
    "teleop.arbiter.eeg_window": (_integer, "arbiter.eeg_window"),
    "teleop.arbiter.loess_span": (_finite, "loess.span"),
    "teleop.arbiter.hysteresis_lo": (_finite, "arbiter.hysteresis_lo"),
    "teleop.arbiter.hysteresis_hi": (_finite, "arbiter.hysteresis_hi"),
}
_OBJECTS = {key.rsplit(".", n)[0] for key in _LEAVES for n in range(1, key.count(".") + 1)}


def _value(kind, value, where: str):
    """value through a value kind; a bad value raises a ConfigError that names where."""
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _walk(obj, path: str, kwargs: dict) -> None:
    """Check one JSON object against the table and file its values by section."""
    _value(_object, obj, path or "top level")
    wheres = {key: f"{path}.{key}" if path else key for key in obj}
    # a dotted key must not pass for a nested one
    unknown = [w for k, w in wheres.items() if "." in k or not (w in _LEAVES or w in _OBJECTS)]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(map(_cut, sorted(unknown)))}")
    for key, value in obj.items():
        where = wheres[key]
        if where in _OBJECTS:
            _walk(value, where, kwargs)
            continue
        kind, *targets = _LEAVES[where]
        value = _value(kind, value, where)
        for target in targets:
            section, _, field = target.rpartition(".")
            kwargs[section][field] = value


def build_scenario(obj: dict, base_dir: Path | str = ".", default_name: str = "scenario") -> Scenario:
    """Validate a parsed config object and assemble the typed scenario."""
    kwargs = {section: {} for section, *_ in _SECTIONS}
    kwargs[""]["name"] = default_name
    _walk(obj, "", kwargs)
    # the event log resolves against base_dir; "" names no file
    log = kwargs[""].pop("event_log", None)
    kwargs[""]["event_log"] = Path(base_dir) / log if log else None
    built = {}
    for section, path, ctor, needs in _SECTIONS:
        try:
            built[section] = ctor(**kwargs[section], **{n: built[n] for n in needs})
        except ValueError as exc:
            # constructor invariants become config errors carrying the section path
            raise ConfigError(f"{path}: {exc}") from exc
    return built[""]


def load_scenario(path) -> Scenario:
    """Read and validate one scenario file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:  # not UTF-8, a JSONDecodeError, an oversized integer, deep nesting
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return build_scenario(obj, base_dir=path.parent, default_name=path.stem)
