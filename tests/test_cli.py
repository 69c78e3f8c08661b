import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stairclimber import cli, support
from stairclimber.cli import main
from stairclimber.control import _fmt
from stairclimber.drivetrain import Pulley, TrackParams, torque_case
from stairclimber.scenario import _LEAVES, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"
BASELINE = str(SCENARIOS / "baseline40.json")
FLAT = str(SCENARIOS / "flat_ground.json")
REPLAY = str(SCENARIOS / "teleop_replay.json")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file()
    }


def write_scenario(tmp_path, obj, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_design_outputs(tmp_path):
    out = tmp_path / "design"
    assert main(["design", "--out", str(out)]) == 0
    report = (out / "design_report.txt").read_text()
    assert "min pinion teeth = 18" in report
    assert "pitch diameter = 72 mm" in report
    assert "contact ratio = 1.75528736" in report
    assert "margin = 1.33301542" in report
    profile = read_csv(out / "force_profile.csv")
    assert len(profile) == 91
    assert float(profile[0]["force_n"]) == pytest.approx(659.232, rel=1e-6)


def test_design_torque_csv_matches_library(tmp_path):
    out = tmp_path / "design"
    assert main(["design", "--out", str(out)]) == 0
    rows = read_csv(out / "torque_vs_theta.csv")
    assert len(rows) == 41
    for row in rows[::10]:
        theta = math.radians(float(row["theta_deg"]))
        p = TrackParams(M=97.0, theta=theta, accel=0.5)
        assert float(row["torque_p1_nm"]) == pytest.approx(
            torque_case(Pulley.P1, p), abs=1e-6
        )
        assert float(row["torque_p3_nm"]) == pytest.approx(
            torque_case(Pulley.P3, p), abs=1e-6
        )


def test_sim_baseline_completes(tmp_path):
    out = tmp_path / "sim"
    assert main(["sim", "--scenario", BASELINE, "--out", str(out)]) == 0
    rows = read_csv(out / "trajectory.csv")
    assert rows[0]["phase"] == "engage"       # no approach in this scenario
    assert rows[-1]["phase"] == "level"
    summary = (out / "sim_summary.txt").read_text()
    assert "completed = True" in summary


def test_sim_incomplete_exits_2(tmp_path):
    scenario = write_scenario(tmp_path, {"sim": {"duration_s": 1.0}})
    out = tmp_path / "sim"
    assert main(["sim", "--scenario", scenario, "--out", str(out)]) == 2
    # artifacts still written for inspection
    assert (out / "trajectory.csv").exists()


def test_sim_dt_override(tmp_path):
    out = tmp_path / "sim"
    assert main(["sim", "--scenario", BASELINE, "--out", str(out), "--dt", "0.01"]) == 0
    rows = read_csv(out / "trajectory.csv")
    assert float(rows[1]["t_s"]) == pytest.approx(0.01)
    assert main(["sim", "--scenario", BASELINE, "--out", str(out), "--dt", "-1"]) == 1


def test_sweep_baseline(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", BASELINE, "--out", str(out)]) == 0
    summary = (out / "sweep_summary.txt").read_text()
    assert "min climbing torque" in summary
    rows = read_csv(out / "sweep.csv")
    assert {r["completed"] for r in rows} <= {"true", "false"}


def test_sweep_unclimbable_exits_2(tmp_path):
    scenario = write_scenario(tmp_path, {"sim": {"rolling_resist_coeff": 2.0}})
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", scenario, "--out", str(out)]) == 2
    rows = read_csv(out / "sweep.csv")
    assert rows and rows[0]["completed"] == "false"


def test_teleop_replay(tmp_path):
    out = tmp_path / "teleop"
    assert main(["teleop", "--scenario", REPLAY, "--out", str(out)]) == 0
    protocol = (out / "protocol.txt").read_text().splitlines()
    assert protocol[0] == "MODE Keypad"
    assert "MODE Eeg" in protocol and "MODE Tracking" in protocol
    commands = [json.loads(l) for l in (out / "commands.jsonl").read_text().splitlines()]
    assert all(abs(c["left"]) <= 1.0 and abs(c["right"]) <= 1.0 for c in commands)
    summary = (out / "teleop_summary.txt").read_text()
    assert "stop commands" in summary


def test_teleop_protocol_matches_golden(tmp_path):
    # the golden file was verified line by line against hand-computed slew
    # budgets, the avoidance veer, the smoothing band, and the tracking mix
    out = tmp_path / "teleop"
    assert main(["teleop", "--scenario", REPLAY, "--out", str(out)]) == 0
    golden = Path(__file__).resolve().parent / "data" / "teleop_protocol_golden.txt"
    assert (out / "protocol.txt").read_text() == golden.read_text()


def test_teleop_requires_event_log(tmp_path):
    out = tmp_path / "teleop"
    assert main(["teleop", "--scenario", BASELINE, "--out", str(out)]) == 1


def test_teleop_replay_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["teleop", "--scenario", REPLAY, "--out", str(out_a)]) == 0
    assert main(["teleop", "--scenario", REPLAY, "--out", str(out_b)]) == 0
    for name in ("commands.jsonl", "protocol.txt", "teleop_summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_report_runs_everything(tmp_path):
    out = tmp_path / "report"
    assert main(["report", "--scenario", BASELINE, "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    for heading in ("[gear]", "[belt tensions by driving pulley]",
                    "[sizing targets: back-solved per-track mass]", "[motor]",
                    "[support assembly]", "[climb simulation]",
                    "[minimum torque sweep]", "[power]", "[tracking self-check]"):
        assert heading in text
    assert "driver check = pass" in text
    assert "tracking self-check = pass" in text


def test_report_seed_changes_tracking_case(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["report", "--scenario", BASELINE, "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["report", "--scenario", BASELINE, "--out", str(out_b), "--seed", "2"]) == 0
    a = (out_a / "report.txt").read_text()
    b = (out_b / "report.txt").read_text()
    line = [l for l in a.splitlines() if l.startswith("true shift")]
    assert line and line[0] not in b


# the self-check section of baseline40's report.txt: frames as the pointwise
# texture sum rendered them before the separable render, tracked with the
# damped Gauss-Newton steps
TRACKING_CHECK_GOLDEN = {
    1: """[tracking self-check]
seed = 1
true shift = (-1.76038982, 1.5981336) px
recovered shift = (-1.75414313, 1.60167113) px
error = 0.00717880682 px
bearing of tracked point = -0.706280607 deg
tracking self-check = pass
""",
    2: """[tracking self-check]
seed = 2
true shift = (-1.99648199, -2.30697935) px
recovered shift = (-1.99152004, -2.30227592) px
error = 0.00683690159 px
bearing of tracked point = -0.839961285 deg
tracking self-check = pass
""",
}


@pytest.mark.parametrize("seed", sorted(TRACKING_CHECK_GOLDEN))
def test_report_tracking_check_matches_golden(tmp_path, seed):
    out = tmp_path / "report"
    assert main(["report", "--scenario", BASELINE, "--out", str(out), "--seed", str(seed)]) == 0
    text = (out / "report.txt").read_text()
    assert text[text.index("[tracking self-check]"):] == TRACKING_CHECK_GOLDEN[seed]


def test_usage_errors_exit_1():
    assert main([]) == 1
    assert main(["unknown-command"]) == 1
    assert main(["sim", "--bogus-flag"]) == 1


def test_missing_scenario_file_exits_1(tmp_path):
    assert main(["sim", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1


def test_unknown_scenario_key_exits_1(tmp_path, capsys):
    scenario = write_scenario(tmp_path, {"robot": {"mass": 97.0}})
    assert main(["design", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config error: unknown config keys: robot.mass\n"
    # the keys of the sonar CSV replay input, which is gone: sonar readings
    # are event-log lines
    events = str(SCENARIOS / "teleop_events.jsonl")
    for key, value in [("sonar_log", "sonar.csv"), ("sonar_max_range_m", 4.0), ("sonar_threshold_m", 0.5)]:
        scenario = write_scenario(tmp_path, {"teleop": {"event_log": events, key: value}})
        assert main(["teleop", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: unknown config keys: teleop.{key}\n"
    assert not (tmp_path / "o").exists()


def test_deeply_nested_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["sim", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: invalid JSON: maximum recursion depth exceeded")


def test_negative_seed_exits_1(tmp_path, capsys):
    assert main(["report", "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config error: --seed -1: must be >= 0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("sim", "dt_s", math.nan),
        ("robot", "per_track_mass_kg", math.nan),
        ("sim", "rolling_resist_coeff", math.inf),
        ("staircase", "approach_length_m", -math.inf),
        ("sim", "duration_s", 10**400),      # an integer beyond float range
    ],
)
def test_non_finite_scenario_number_exits_1(tmp_path, capsys, section, key, value):
    # json reads NaN and Infinity; the loader must refuse them by key path
    scenario = write_scenario(tmp_path, {section: {key: value}})
    assert main(["sweep", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}.{key}: expected a finite number")


def test_zero_inclination_exits_1(tmp_path, capsys):
    scenario = write_scenario(tmp_path, {"staircase": {"inclination_deg": 0}})
    assert main(["design", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: staircase: inclination must lie in (0, 40 deg]")
    assert "Traceback" not in err


# a consistent nameplate whose track torque (torque * reduction) overflows
OVERFLOWING_MOTOR = {"robot": {"motor": {"torque_nm": 1e10, "speed_rpm": 3.0558e-7, "reduction": 1e300}}}
# json writes the integer with all 401 digits; its pitch radius overflows a float
OVERFLOWING_GEAR = {"robot": {"gear": {"teeth": 10**400}}}
# a supported mass whose weight overflows float range
OVERFLOWING_MASS = {"robot": {"per_track_mass_kg": 1e308}}


@pytest.mark.parametrize(
    "obj, prefix",
    [
        ({"robot": {"support": {"b_m": 0}}}, "robot.support: actuator lies along the arm"),
        ({"robot": {"support": {"h_m": 1e300}}}, "robot.support: actuator lies along the arm"),
        ({"robot": {"gear": {"pressure_angle_deg": 1e-300}}}, "robot.gear: no finite tooth count"),
        ({"robot": {"gear": {"pressure_angle_deg": 1e-9}}}, "robot.gear: outer radius"),
        ({"robot": {"gear": {"module_mm": 1e300}}}, "robot.gear: outer radius"),
        ({"robot": {"pulley1_mass_kg": 1e300}}, "robot: P1's effective mass"),
        ({"robot": {"per_track_mass_kg": 1e-300, "pulley1_radius_m": 1e-300, "pulley23_radius_m": 1e-300}},
         "robot: the design-point P1 torque underflows"),
        (OVERFLOWING_MOTOR, "robot.motor: rated torque"),
        (OVERFLOWING_GEAR, "robot.gear: about 10^400 teeth"),
        (OVERFLOWING_MASS, "robot: weight M * gravity overflows"),
        ({"robot": {"gravity_mps2": 1e308}}, "robot.support: weight mass * gravity overflows"),
        ({"robot": {"support": {"payload_mass_kg": 1e308}}}, "robot.support: weight mass * gravity overflows"),
        ({"robot": {"pulley1_radius_m": 1e306}}, "robot: the design-point P1 torque overflows to inf"),
        # a light gravity keeps the weight finite; M + m1 still overflows
        ({"robot": {"gravity_mps2": 1e-300, "per_track_mass_kg": 1e308, "pulley1_mass_kg": 1e308}},
         "robot: the design-point P3 torque overflows to inf"),
        # each of these used to write nan or inf into the artifacts and exit 0
        ({"robot": {"support": {"b_m": 1e306}}}, "robot.support: the actuator force overflows float range"),
        ({"robot": {"support": {"a_m": 1e307}}}, "robot.support: the actuator force overflows float range"),
        ({"robot": {"support": {"b_m": 1e308}}}, "robot.support: the actuator force overflows float range (nan N"),
        ({"robot": {"gear": {"module_mm": 1e-320}}}, "robot.gear: contact ratio -inf is not finite"),
        ({"robot": {"gear": {"module_mm": 1e-320, "pressure_angle_deg": 90}}},
         "robot.gear: base radius 0.0 mm underflows"),   # was a ZeroDivisionError traceback
        ({"robot": {"gravity_mps2": 1e-320}}, "robot: the p3_static target back-solves to M = inf kg"),
        ({"robot": {"gravity_mps2": 1e-9, "support": {"payload_mass_kg": 1e-300}}},
         "robot.support: the hinge shear margin is inf"),
        ({"robot": {"per_track_mass_kg": 1e-300, "motor": {"reduction": 1e300}}},
         "robot.motor: the motor margin overflows to inf"),
    ],
)
def test_unusable_design_input_exits_1(tmp_path, capsys, obj, prefix):
    scenario = write_scenario(tmp_path, obj)
    assert main(["design", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {prefix}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["sim", "sweep", "report"])
@pytest.mark.parametrize(
    "obj, prefix",
    [
        (OVERFLOWING_MOTOR, "robot.motor: rated torque"),
        (OVERFLOWING_GEAR, "robot.gear: about 10^400 teeth"),
        (OVERFLOWING_MASS, "robot: weight M * gravity overflows"),
    ],
)
def test_overflowing_drive_exits_1_on_every_command(tmp_path, capsys, command, obj, prefix):
    scenario = write_scenario(tmp_path, obj)
    assert main([command, "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {prefix}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "robot, reason",
    [
        # heavy P2/P3 pulleys back-solve p1_accel to a negative supported mass
        ({"pulley23_mass_kg": 1e300}, "supported mass must be positive"),
        # a heavy P1 outweighs the back-solved mass, though not the scenario's
        ({"per_track_mass_kg": 500, "pulley1_mass_kg": 400}, "P1's effective mass"),
    ],
)
def test_design_reports_an_invalid_back_solved_mass(tmp_path, robot, reason):
    scenario = write_scenario(tmp_path, {"robot": robot})
    assert main(["design", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 0
    report = (tmp_path / "o" / "design_report.txt").read_text()
    assert f"cross-check with M from p1_accel: skipped, {reason}" in report


FUZZ_KEYS = sorted(key for key in _LEAVES if key.startswith(("robot.", "staircase.")))
HOSTILE_VALUES = [0, -1, 1e-300, 1e300, -1e300, 1e-9, 1e9, 90, 179, "x", None]
# a number the %.9g format wrote as nan or inf
NON_FINITE = re.compile(r"(?<![a-z])-?(nan|inf)(?![a-z])")


def nested(leaves):
    obj = {}
    for key, value in leaves.items():
        *heads, leaf = key.split(".")
        node = obj
        for head in heads:
            node = node.setdefault(head, {})
        node[leaf] = value
    return obj


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(HOSTILE_VALUES), min_size=1, max_size=3))
@example({"robot.support.b_m": 0})
@example({"robot.support.h_m": 1e300})
@example({"robot.support.h_m": 1e9})
@example({"robot.gear.pressure_angle_deg": 1e-300})
@example({"robot.gear.pressure_angle_deg": 1e-9})
@example({"robot.gear.module_mm": 1e300})
@example({"robot.pulley1_mass_kg": 1e300})
@example({"robot.pulley23_mass_kg": 1e300})
@example({"robot.motor.torque_nm": 1e10, "robot.motor.speed_rpm": 3.0558e-7, "robot.motor.reduction": 1e300})
@example({"robot.gear.teeth": 10**400})
@example({"robot.per_track_mass_kg": 1e308})
@example({"robot.gravity_mps2": 1e308})
@example({"robot.pulley1_radius_m": 1e306})
def test_design_on_hostile_values_ends_in_an_exit_code(tmp_path_factory, leaves):
    # every value ends in a result, a config error or a design failure: no
    # traceback, and no result that holds a nan or an infinity
    tmp = tmp_path_factory.mktemp("fuzz")
    scenario = write_scenario(tmp, nested(leaves))
    code = main(["design", "--scenario", scenario, "--out", str(tmp / "o")])
    assert code in (0, 1, 2)
    if code == 0:
        for path in (tmp / "o").iterdir():
            assert NON_FINITE.search(path.read_text()) is None, path.name


@pytest.mark.parametrize(
    "bad",
    [
        '{"t": Infinity, "type": "key", "payload": {"key": "8"}}',
        '{"t": NaN, "type": "key", "payload": {"key": "8"}}',
        '{"t": 2, "type": "track", "payload": {"bearing": NaN}}',
        '{"t": 2, "type": "track", "payload": {"bearing": -Infinity}}',
        '{"t": 2, "type": "touch", "payload": {"px": NaN, "py": 3}}',
        '{"t": 2, "type": "touch", "payload": {"px": 3, "py": Infinity}}',
        '{"t": 2, "type": "eeg", "payload": {"attention": Infinity, "meditation": 50}}',
        '{"t": 2, "type": "sonar", "payload": '
        '{"d_left": 1, "d_front": 1, "d_right": 1, "max_range": Infinity}}',
    ],
    ids=["t-inf", "t-nan", "bearing-nan", "bearing-neg-inf", "px-nan", "py-inf",
         "attention-inf", "sonar-max-range-inf"],
)
def test_non_finite_teleop_input_exits_1(tmp_path, capsys, bad):
    # json reads NaN and Infinity; the bad line is the second of the log,
    # after a valid key press
    log = tmp_path / "events.jsonl"
    log.write_text('{"t": 1, "type": "key", "payload": {"key": "8"}}\n' + bad + "\n")
    scenario = write_scenario(tmp_path, {"teleop": {"event_log": "events.jsonl"}})
    assert main(["teleop", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {log}:2: ")


@pytest.mark.parametrize(
    "field, bad",
    [
        ("t", '{"t": NaN, "type": "key", "payload": {"key": "8"}}'),
        ("payload.bearing", '{"t": 2, "type": "track", "payload": {"bearing": NaN}}'),
        ("payload.px", '{"t": 2, "type": "touch", "payload": {"px": "left", "py": 3}}'),
        ("payload.py", '{"t": 2, "type": "touch", "payload": {"px": 3}}'),
        ("payload.key", '{"t": 2, "type": "key", "payload": {}}'),
    ],
    ids=["t", "bearing", "px", "py", "key"],
)
def test_bad_event_field_is_named(tmp_path, capsys, field, bad):
    log = tmp_path / "events.jsonl"
    log.write_text('{"t": 1, "type": "key", "payload": {"key": "8"}}\n' + bad + "\n")
    scenario = write_scenario(tmp_path, {"teleop": {"event_log": "events.jsonl"}})
    out = tmp_path / "o"
    assert main(["teleop", "--scenario", scenario, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {log}:2: ")
    assert f"field {field!r}" in err and "Traceback" not in err
    assert not out.exists()


def test_teleop_config_error_leaves_no_out_dir(tmp_path):
    scenario = write_scenario(tmp_path, {})
    out = tmp_path / "o"
    assert main(["teleop", "--scenario", scenario, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "sim", "sweep", "teleop", "report"])
@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
def test_out_path_at_or_under_a_file_exits_1(tmp_path, capsys, command, under):
    blocker = tmp_path / "f"
    blocker.write_text("keep\n")
    out = blocker / under if under else blocker
    assert main([command, "--scenario", REPLAY, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output directory {out}: ")
    assert "Traceback" not in err
    assert blocker.read_text() == "keep\n"


def test_repeated_eeg_timestamp_exits_1(tmp_path, capsys):
    # a second copy of every headset sample: the smoother needs distinct times
    lines = []
    for line in (SCENARIOS / "teleop_events.jsonl").read_text().splitlines():
        lines += [line, line] if json.loads(line)["type"] == "eeg" else [line]
    log = tmp_path / "events.jsonl"
    log.write_text("\n".join(lines) + "\n")
    scenario = write_scenario(tmp_path, {"teleop": {"event_log": "events.jsonl"}})
    assert main(["teleop", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {log}: two eeg events at t = 9 s")


# event-log lines for the teleop fuzz: each event type, at a few times so
# that drawing a line twice repeats a headset time or steps back in time
EVENT_LINES = [
    '{"t": 1, "type": "key", "payload": {"key": "A"}}',
    '{"t": 2, "type": "key", "payload": {"key": "B"}}',
    '{"t": 1, "type": "key", "payload": {"key": "8"}}',
    '{"t": 3, "type": "key", "payload": {"key": "?"}}',
    '{"t": 2, "type": "voice", "payload": {"symbol": "FORWARD"}}',
    '{"t": 1, "type": "eeg", "payload": {"attention": 50, "meditation": 1}}',
    '{"t": 2, "type": "eeg", "payload": {"attention": 50, "meditation": 100}}',
    '{"t": 3, "type": "eeg", "payload": {"attention": 50, "meditation": 1}}',
    '{"t": 4, "type": "eeg", "payload": {"attention": 50, "meditation": 100}}',
    '{"t": 1, "type": "touch", "payload": {"px": 3, "py": 4}}',
    '{"t": 2, "type": "sonar", "payload": {"d_left": 1, "d_front": 0.3, "d_right": 2}}',
    '{"t": 2, "type": "track", "payload": {"bearing": 0.1}}',
    '{"t": 3, "type": "track", "payload": {"lost": true}}',
]
# lines that no replay may take: non-finite numbers, out-of-range values,
# wrong JSON types, unknown types and non-JSON
BAD_EVENT_LINES = [
    '{"t": NaN, "type": "key", "payload": {"key": "8"}}',
    '{"t": 1e400, "type": "key", "payload": {"key": "8"}}',
    '{"t": 1, "type": "track", "payload": {"bearing": Infinity}}',
    '{"t": 1, "type": "eeg", "payload": {"attention": 50, "meditation": 0}}',
    '{"t": 1, "type": "eeg", "payload": {"attention": "x", "meditation": null}}',
    '{"t": 1, "type": "sonar", "payload": {"d_left": 1, "d_front": 1, "d_right": 1, "max_range": 2, "threshold": 3}}',
    '{"t": [1], "type": "key", "payload": {"key": "8"}}',
    '{"t": 1, "type": "key", "payload": [1]}',
    '{"t": 1, "type": 7, "payload": {}}',
    '{"t": 1, "type": "laser", "payload": {}}',
    "[1, 2]",
    "null",
    "not json",
    '{"t": 1',
]


@st.composite
def hostile_event_logs(draw):
    # up to 7 event lines, and at most one bad line among them
    lines = draw(st.lists(st.sampled_from(EVENT_LINES), max_size=7))
    bad = draw(st.lists(st.sampled_from(BAD_EVENT_LINES), min_size=not lines, max_size=1))
    at = draw(st.integers(0, len(lines)))
    return lines[:at] + bad + lines[at:]


@settings(max_examples=150, deadline=None)
@given(hostile_event_logs())
@example(["[" * 100_000])
def test_teleop_on_hostile_event_logs_ends_in_an_exit_code(tmp_path_factory, lines):
    # every log ends in a replay or a config error: no traceback
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "events.jsonl").write_text("\n".join(lines) + "\n")
    scenario = write_scenario(tmp, {"teleop": {"event_log": "events.jsonl"}})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["teleop", "--scenario", scenario, "--out", str(tmp / "o")])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().startswith("config error: ")


def test_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["design"]) == 0
    assert (tmp_path / "runs" / "default" / "design_report.txt").exists()


@pytest.mark.parametrize("dt", ["nan", "20", "inf", "0"])
def test_bad_dt_override_exits_1(tmp_path, capsys, dt):
    # 20 s is longer than the scenario's 10 s horizon
    assert main(["sim", "--scenario", BASELINE, "--out", str(tmp_path / "o"), "--dt", dt]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --dt {float(dt)}: need dt > 0 and duration >= dt")


@pytest.mark.parametrize(
    "scenario_obj, extra, prefix",
    [
        ({}, ["--dt", "1e-12"], "--dt 1e-12"),              # 10**13 steps
        ({"sim": {"duration_s": 1e9}}, [], "sim"),          # 10**12 steps
    ],
)
def test_step_budget_exits_1_quickly(tmp_path, scenario_obj, extra, prefix):
    # a subprocess with a timeout, so a missing budget fails instead of hanging
    scenario = write_scenario(tmp_path, scenario_obj)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "stairclimber.cli", "sim", "--scenario", scenario,
         "--out", str(tmp_path / "o"), *extra],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"config error: {prefix}: duration/dt = ")
    assert "exceeds the budget of 1000000 steps" in proc.stderr


def ref_write_csv(path, header, rows):
    # the csv.writer form of cli._write_csv, which the golden digests were made with
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else str(v) for v in row])


def assert_writes_like_csv_module(tmp_path, columns, rows):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    cli._write_csv(new, columns, rows)
    ref_write_csv(ref, list(columns), rows)
    assert new.read_bytes() == ref.read_bytes()


@pytest.fixture
def csv_calls(monkeypatch, tmp_path):
    """Check every CSV the CLI writes against ref_write_csv; collect (file name, rows)."""
    calls = []
    write = cli._write_csv

    def checked(path, columns, rows):
        rows = list(rows)
        for row in rows:
            assert len(row) == len(columns)
            for cell, template in zip(row, columns.values()):
                # a float template needs a float (np.float64 is one), text a
                # string that csv.writer would not quote
                if template == cli._NUM:
                    assert isinstance(cell, float), (path.name, row)
                else:
                    assert isinstance(cell, str) and not set(cell) & set(',"\r\n'), (path.name, row)
        write(path, columns, rows)
        ref_write_csv(tmp_path / "ref.csv", list(columns), rows)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes(), path.name
        calls.append((path.name, rows))

    monkeypatch.setattr(cli, "_write_csv", checked)
    return calls


def baseline_with(**sections):
    obj = json.loads(Path(BASELINE).read_text())
    for section, values in sections.items():
        obj.setdefault(section, {}).update(values)
    return obj


@pytest.mark.parametrize(
    "obj, events",
    [
        (None, set()),
        (baseline_with(robot={"per_track_mass_kg": 200.0}), {"Fall"}),
        (baseline_with(sim={"plate": {"stroke_m": 0.1}}), {"ActuatorSaturation"}),
        (baseline_with(sim={"rolling_resist_coeff": 2.0}), set()),   # unclimbable sweep
    ],
    ids=["default", "falls", "saturates", "unclimbable"],
)
def test_cli_csv_files_match_csv_module(tmp_path, csv_calls, obj, events):
    scenario = [] if obj is None else ["--scenario", write_scenario(tmp_path, obj)]
    main(["report", *scenario, "--out", str(tmp_path / "o")])
    rows = dict(csv_calls)
    assert set(rows) == {"force_profile.csv", "torque_vs_theta.csv", "trajectory.csv", "sweep.csv"}
    assert {name for row in rows["trajectory.csv"] for name in row[-1].split(";") if name} == events
    assert {row[1] for row in rows["sweep.csv"]} <= {"true", "false"}


def test_csv_writer_matches_csv_module_on_numpy_floats(tmp_path):
    # force_profile returns its grid points as np.float64
    sc = load_scenario(BASELINE)
    rows = support.force_profile(sc.support_geom, sc.support_load, np.linspace(0.0, math.pi / 2.0, 91))
    assert type(rows[1][0]) is np.float64
    columns = {"theta_deg": cli._NUM, "gamma_deg": cli._NUM, "force_n": cli._NUM}
    assert_writes_like_csv_module(tmp_path, columns, rows)


SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e9, -1e9,
     999999999.5, 1234567891.0, 1e300, 1e-5, 0.0001]
)
FLOAT_CELLS = st.one_of(SPECIAL_FLOATS, st.floats(), st.floats(1e9, 1e12), st.floats(-1e-300, 1e-300)).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    FLOAT_CELLS, st.sampled_from(["climb", "level", "", "Fall;ActuatorSaturation", "true", "false"]), FLOAT_CELLS,
)))
def test_csv_writer_matches_csv_module_on_drawn_floats(tmp_path_factory, rows):
    columns = {"a": cli._NUM, "b": cli._TEXT, "c": cli._NUM}
    assert_writes_like_csv_module(tmp_path_factory.mktemp("csv"), columns, rows)


def test_climb_artifacts_match_golden_digests(tmp_path):
    # sha256 of every file sim and sweep write; a change here is a change of
    # the artifacts, so regenerate the digests only when that is intended
    golden = {}
    for line in (DATA / "climb_artifacts.sha256").read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        golden[name] = digest
    for name in ("baseline40", "flat_ground"):
        for command in ("sim", "sweep"):
            out = tmp_path / name / command
            scenario = str(SCENARIOS / f"{name}.json")
            assert main([command, "--scenario", scenario, "--seed", "1", "--out", str(out)]) == 0
    assert tree_digests(tmp_path) == golden


def test_default_artifacts_match_golden_digests(tmp_path):
    # the run with no --scenario takes every value from the built-in defaults,
    # so these digests pin those defaults end to end
    golden = dict(
        reversed(line.split(maxsplit=1))
        for line in (DATA / "default_artifacts.sha256").read_text().splitlines()
    )
    for command in ("design", "sim", "sweep"):
        assert main([command, "--out", str(tmp_path / command)]) == 0
    assert tree_digests(tmp_path) == golden


def test_report_and_teleop_artifacts_match_golden_digests(tmp_path):
    # every file report writes for the bundled climbs and the defaults, and
    # every file teleop writes for the replay fixture
    golden = dict(
        reversed(line.split(maxsplit=1))
        for line in (DATA / "report_artifacts.sha256").read_text().splitlines()
    )
    for name in ("baseline40", "flat_ground", "default"):
        scenario = [] if name == "default" else ["--scenario", str(SCENARIOS / f"{name}.json")]
        out = tmp_path / name / "report"
        assert main(["report", *scenario, "--seed", "1", "--out", str(out)]) == 0
    assert main(["teleop", "--scenario", REPLAY, "--out", str(tmp_path / "teleop_replay" / "teleop")]) == 0
    assert tree_digests(tmp_path) == golden


@pytest.mark.parametrize(
    "obj, where",
    [
        ({"name": None}, "name"),
        ({"sim": {"dt_s": None}}, "sim.dt_s"),
        ({"teleop": {"arbiter": {"eeg_window": None}}}, "teleop.arbiter.eeg_window"),
    ],
)
def test_null_scenario_value_exits_1(tmp_path, monkeypatch, capsys, obj, where):
    # null stands for "auto" or "none" only where the schema says so; no
    # --out, so a null name would reach the default runs/<name> directory
    monkeypatch.chdir(tmp_path)
    scenario = write_scenario(tmp_path, obj)
    assert main(["design", "--scenario", scenario]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: expected ")
    assert "Traceback" not in err
