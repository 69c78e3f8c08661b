"""Scenario files: JSON configs binding every module's parameters together.

One scenario describes the robot build (masses, pulleys, gear, motor,
support linkage), the staircase, the simulation settings and optional
teleoperation replay inputs.  Keys carry explicit unit suffixes
(mass_kg, radius_m) and unknown keys are rejected with their full field
path, so a typo fails fast instead of silently falling back to a default.
Every key has a default, which is the baseline design; a minimal scenario
is just "{}".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .control import ArbiterConfig
from .drivetrain import GearDesign, MotorSpec, TrackParams, min_pinion_teeth
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
    sonar_log: Path | None = None
    sonar_max_range: float = 4.0
    sonar_threshold: float = 0.5


def _check_keys(obj: dict, path: str, allowed) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        paths = ", ".join(f"{path}.{k}" if path else k for k in sorted(unknown))
        raise ConfigError(f"unknown config keys: {paths}")


def _section(obj: dict, path: str, key: str) -> dict:
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key}: expected an object (got {type(value).__name__})")
    return value


def _num(obj: dict, path: str, key: str, default: float) -> float:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number (got {value!r})")
    try:
        number = float(value)
    except OverflowError:               # an integer literal beyond float range
        number = math.inf
    if not math.isfinite(number):
        # json accepts NaN and Infinity; neither is a usable design value
        raise ConfigError(f"{path}.{key}: expected a finite number (got {value!r})")
    return number


def _int(obj: dict, path: str, key: str, default: int | None) -> int | None:
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer (got {value!r})")
    return value


def _str(obj: dict, path: str, key: str, default: str | None) -> str | None:
    value = obj.get(key, default)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string (got {value!r})")
    return value


def _build(path: str, ctor, /, *args, **kwargs):
    # constructor invariants become config errors carrying the section path
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_ROBOT_KEYS = (
    "per_track_mass_kg",
    "pulley1_mass_kg",
    "pulley23_mass_kg",
    "pulley1_radius_m",
    "pulley23_radius_m",
    "design_accel_mps2",
    "gravity_mps2",
    "support",
    "gear",
    "motor",
)
_SUPPORT_KEYS = (
    "a_m", "b_m", "h_m",
    "payload_mass_kg", "hinge_shear_limit_n", "safety_factor",
)
_GEAR_KEYS = ("pressure_angle_deg", "module_mm", "addendum_factor", "teeth")
_MOTOR_KEYS = ("power_w", "torque_nm", "speed_rpm", "reduction")
_STAIR_KEYS = ("inclination_deg", "step_rise_m", "ramp_length_m", "approach_length_m")
_SIM_KEYS = (
    "dt_s", "duration_s", "rolling_resist_coeff",
    "ground_speed_cap_mps", "stair_speed_cap_mps",
    "track_zone_m", "level_run_m", "plate",
)
_PLATE_KEYS = ("lever_arm_m", "max_rate_mps", "stroke_m", "tolerance_deg")
_TELEOP_KEYS = (
    "event_log", "sonar_log", "sonar_max_range_m", "sonar_threshold_m", "arbiter",
)
_ARBITER_KEYS = (
    "keypad_speed", "keypad_turn", "voice_speed", "voice_turn",
    "cruise", "kp_per_rad", "posture_rate",
    "accel_cap_mps2", "speed_scale_mps", "effort_cap",
    "eeg_window", "loess_span", "hysteresis_lo", "hysteresis_hi",
)
_TOP_KEYS = ("name", "robot", "staircase", "sim", "teleop")


def build_scenario(obj: dict, base_dir: Path | str = ".", default_name: str = "scenario") -> Scenario:
    """Validate a parsed config object and assemble the typed scenario."""
    if not isinstance(obj, dict):
        raise ConfigError(f"top level: expected an object (got {type(obj).__name__})")
    base_dir = Path(base_dir)
    _check_keys(obj, "", _TOP_KEYS)
    name = _str(obj, "", "name", default_name)

    robot = _section(obj, "", "robot")
    _check_keys(robot, "robot", _ROBOT_KEYS)

    sup = _section(robot, "robot", "support")
    _check_keys(sup, "robot.support", _SUPPORT_KEYS)
    support_geom = _build(
        "robot.support",
        SupportGeometry,
        a=_num(sup, "robot.support", "a_m", 0.335),
        b=_num(sup, "robot.support", "b_m", 0.225),
        h=_num(sup, "robot.support", "h_m", 0.60),
    )
    support_load = _build(
        "robot.support",
        SupportLoad,
        mass=_num(sup, "robot.support", "payload_mass_kg", 120.0),
        gravity=_num(robot, "robot", "gravity_mps2", 9.81),
        hinge_shear_limit=_num(sup, "robot.support", "hinge_shear_limit_n", 1130.0),
        safety_factor=_num(sup, "robot.support", "safety_factor", 1.25),
    )

    gear_obj = _section(robot, "robot", "gear")
    _check_keys(gear_obj, "robot.gear", _GEAR_KEYS)
    pressure_angle = math.radians(_num(gear_obj, "robot.gear", "pressure_angle_deg", 20.0))
    addendum_factor = _num(gear_obj, "robot.gear", "addendum_factor", 1.0)
    teeth = _int(gear_obj, "robot.gear", "teeth", None)
    if teeth is None:
        # auto-size at the no-interference minimum
        teeth = _build("robot.gear", min_pinion_teeth, pressure_angle, addendum_factor)
    gear = _build(
        "robot.gear",
        GearDesign,
        pressure_angle=pressure_angle,
        addendum_factor=addendum_factor,
        module_mm=_num(gear_obj, "robot.gear", "module_mm", 4.0),
        teeth=teeth,
    )

    motor_obj = _section(robot, "robot", "motor")
    _check_keys(motor_obj, "robot.motor", _MOTOR_KEYS)
    motor = _build(
        "robot.motor",
        MotorSpec,
        rated_power=_num(motor_obj, "robot.motor", "power_w", 320.0),
        rated_torque=_num(motor_obj, "robot.motor", "torque_nm", 22.0),
        rated_speed=_num(motor_obj, "robot.motor", "speed_rpm", 143.0),
        reduction=_num(motor_obj, "robot.motor", "reduction", 2.0),
    )

    stair_obj = _section(obj, "", "staircase")
    _check_keys(stair_obj, "staircase", _STAIR_KEYS)
    stairs = _build(
        "staircase",
        Staircase.from_angle,
        inclination=math.radians(_num(stair_obj, "staircase", "inclination_deg", 40.0)),
        step_rise=_num(stair_obj, "staircase", "step_rise_m", 0.17),
        ramp_length=_num(stair_obj, "staircase", "ramp_length_m", 0.55),
        approach_length=_num(stair_obj, "staircase", "approach_length_m", 0.0),
    )

    track = _build(
        "robot",
        TrackParams,
        M=_num(robot, "robot", "per_track_mass_kg", 97.0),
        m1=_num(robot, "robot", "pulley1_mass_kg", 0.0),
        m=_num(robot, "robot", "pulley23_mass_kg", 0.0),
        R=_num(robot, "robot", "pulley1_radius_m", 0.05),
        r=_num(robot, "robot", "pulley23_radius_m", 0.036),
        theta=stairs.inclination,
        accel=_num(robot, "robot", "design_accel_mps2", 0.5),
        gravity=_num(robot, "robot", "gravity_mps2", 9.81),
    )

    sim_obj = _section(obj, "", "sim")
    _check_keys(sim_obj, "sim", _SIM_KEYS)
    plate_obj = _section(sim_obj, "sim", "plate")
    _check_keys(plate_obj, "sim.plate", _PLATE_KEYS)
    plate = _build(
        "sim.plate",
        PlateRig,
        lever_arm=_num(plate_obj, "sim.plate", "lever_arm_m", 0.30),
        max_rate=_num(plate_obj, "sim.plate", "max_rate_mps", 0.05),
        stroke=_num(plate_obj, "sim.plate", "stroke_m", 0.25),
        tolerance=math.radians(_num(plate_obj, "sim.plate", "tolerance_deg", 1.0)),
    )
    sim = _build(
        "sim",
        SimConfig,
        track=track,
        motor=motor,
        dt=_num(sim_obj, "sim", "dt_s", 1e-3),
        duration=_num(sim_obj, "sim", "duration_s", 10.0),
        rolling_resist_coeff=_num(sim_obj, "sim", "rolling_resist_coeff", 0.0),
        ground_cap=_num(sim_obj, "sim", "ground_speed_cap_mps", 3.0),
        stair_cap=_num(sim_obj, "sim", "stair_speed_cap_mps", 0.1),
        track_length=_num(sim_obj, "sim", "track_zone_m", 0.15),
        level_run=_num(sim_obj, "sim", "level_run_m", 0.2),
        plate=plate,
    )

    teleop = _section(obj, "", "teleop")
    _check_keys(teleop, "teleop", _TELEOP_KEYS)
    arb_obj = _section(teleop, "teleop", "arbiter")
    _check_keys(arb_obj, "teleop.arbiter", _ARBITER_KEYS)
    loess = _build(
        "teleop.arbiter",
        LoessConfig,
        span=_num(arb_obj, "teleop.arbiter", "loess_span", 0.3),
    )
    eeg_window = _int(arb_obj, "teleop.arbiter", "eeg_window", 15)
    arbiter = _build(
        "teleop.arbiter",
        ArbiterConfig,
        keypad_speed=_num(arb_obj, "teleop.arbiter", "keypad_speed", 1.0),
        keypad_turn=_num(arb_obj, "teleop.arbiter", "keypad_turn", 0.5),
        voice_speed=_num(arb_obj, "teleop.arbiter", "voice_speed", 0.5),
        voice_turn=_num(arb_obj, "teleop.arbiter", "voice_turn", 0.5),
        cruise=_num(arb_obj, "teleop.arbiter", "cruise", 0.5),
        kp=_num(arb_obj, "teleop.arbiter", "kp_per_rad", 1.5),
        posture_rate=_num(arb_obj, "teleop.arbiter", "posture_rate", 1.0),
        accel_cap=_num(arb_obj, "teleop.arbiter", "accel_cap_mps2", 0.5),
        speed_scale=_num(arb_obj, "teleop.arbiter", "speed_scale_mps", 3.0),
        effort_cap=_num(arb_obj, "teleop.arbiter", "effort_cap", 1.0),
        eeg_window=eeg_window,
        loess=loess,
        hysteresis_lo=_num(arb_obj, "teleop.arbiter", "hysteresis_lo", 40.0),
        hysteresis_hi=_num(arb_obj, "teleop.arbiter", "hysteresis_hi", 60.0),
    )

    event_log = _str(teleop, "teleop", "event_log", None)
    sonar_log = _str(teleop, "teleop", "sonar_log", None)
    return Scenario(
        name=name,
        support_geom=support_geom,
        support_load=support_load,
        track=track,
        gear=gear,
        motor=motor,
        stairs=stairs,
        sim=sim,
        arbiter=arbiter,
        event_log=base_dir / event_log if event_log else None,
        sonar_log=base_dir / sonar_log if sonar_log else None,
        sonar_max_range=_num(teleop, "teleop", "sonar_max_range_m", 4.0),
        sonar_threshold=_num(teleop, "teleop", "sonar_threshold_m", 0.5),
    )


def load_scenario(path) -> Scenario:
    """Read and validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return build_scenario(obj, base_dir=path.parent, default_name=path.stem)
