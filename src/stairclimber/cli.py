"""Command-line scenario runner and report generator.

Subcommands:
    design  force profile, torque tables, gear and motor sizing report
    sim     stair-climb trajectory on the scenario staircase
    sweep   minimum constant climbing torque search
    teleop  replay an event log through the control stack
    report  the design, sim and sweep.csv artifacts plus power bookkeeping
            and a tracking self-check

All outputs are plain text, CSV or JSON lines, written under --out, and are
deterministic functions of the scenario and replay files (and --seed for
the synthetic tracking check).  Numbers are written with 9 significant
digits.  Exit codes: 0 success, 1 configuration error, 2 simulation
failure (fall, unclimbable, or incomplete within the horizon).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from itertools import starmap
from pathlib import Path

import numpy as np

from . import drivetrain, power, stairsim, support
from .control import _fmt, command_to_dict, protocol_lines, read_event_log, run_events
from .perception import (
    LkParams,
    TrackedPoint,
    fb_track,
    pixel_to_bearing,
    random_texture,
    render_texture,
)
from .scenario import ConfigError, Scenario, build_scenario, load_scenario

__all__ = ["main"]


# cell templates of _write_csv's columns
_NUM = "{:.9g}"   # a float or np.float64, as %.9g (an int from 1e9 up would not print as str)
_TEXT = "{}"      # a string with no comma, quote or line break


def _write_csv(path: Path, columns: dict[str, str], rows) -> None:
    """Write a header row and one line per row; ``columns`` maps each name to its cell template.

    The format is what ``csv.writer`` writes with its defaults for these
    cells, and the golden digests pin it byte for byte: comma separators,
    ``\\r\\n`` line ends, floats as ``%.9g`` (``nan``, ``inf``, ``-0``), text
    as is.  No field is quoted, because none can hold a separator, a quote
    or a line end: text cells are phase and event names and ``true``/``false``.
    """
    line = ",".join(columns.values()) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n" + "".join(starmap(line.format, rows)))


def _make_out(out: Path) -> None:
    """Make the output directory; a path that cannot be one is a config error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        raise ConfigError(f"output directory {out}: {exc.strerror}") from exc


class _Parser(argparse.ArgumentParser):
    # argparse normally exits 2 on usage errors; bad flags are config
    # errors here, so route them through the same exit-1 path
    def error(self, message):
        raise ConfigError(message)


def _load(args) -> Scenario:
    if args.scenario is None:
        scenario = build_scenario({}, base_dir=".", default_name="default")
    else:
        scenario = load_scenario(args.scenario)
    if args.dt is not None:
        try:
            sim = replace(scenario.sim, dt=args.dt)
        except ValueError as exc:
            raise ConfigError(f"--dt {args.dt}: {exc}") from exc
        scenario = replace(scenario, sim=sim)
    return scenario


def _design(sc: Scenario, out: Path) -> list[str]:
    """Write the force profile, torque table and design report; return the report lines."""
    design = replace(sc.track, theta=sc.track.theta_cap, accel=sc.track.accel_cap)
    # the design point bounds every row of the torque table; every factor is
    # positive, so only an underflow or an overflow fails here
    for pulley in (drivetrain.Pulley.P1, drivetrain.Pulley.P3):
        torque = drivetrain.torque_case(pulley, design)
        if not 0 < torque < math.inf:
            way = "underflows" if torque == 0 else "overflows"
            raise ConfigError(f"robot: the design-point {pulley.name} torque {way} to {torque} N*m")
    required = drivetrain.torque_case(drivetrain.Pulley.P1, design)
    # one mass per sizing target: the three targets do not back-solve to a
    # single consistent mass, so each is reported with its own
    cases = {
        "p1_accel": (drivetrain.Pulley.P1, design),
        "p3_accel": (drivetrain.Pulley.P3, design),
        "p3_static": (drivetrain.Pulley.P3, replace(design, accel=0.0)),
    }
    masses = {}
    for target_name, target in drivetrain.SIZING_TARGETS.items():
        pulley, params = cases[target_name]
        mass = drivetrain.back_solve_mass(pulley, target, params)
        if not math.isfinite(mass):
            raise ConfigError(f"robot: the {target_name} target back-solves to M = {mass} kg")
        masses[target_name] = (mass, pulley, params)
    theta_grid = np.linspace(0.0, math.pi / 2.0, 91)
    profile = support.force_profile(sc.support_geom, sc.support_load, theta_grid)
    for theta, _, force in profile:
        if not math.isfinite(force):
            raise ConfigError(
                f"robot.support: the actuator force overflows float range "
                f"({force} N at {_fmt(math.degrees(theta))} deg)"
            )
    peak = max(f for _, _, f in profile)
    structural = support.check_structural(peak, sc.support_load)
    if not math.isfinite(structural.margin):
        raise ConfigError(
            f"robot.support: the hinge shear margin is {structural.margin} "
            f"at a peak actuator load of {peak} N"
        )
    margin = drivetrain.motor_margin(sc.motor, required)
    if not math.isfinite(margin.margin):
        raise ConfigError(
            f"robot.motor: the motor margin overflows to {margin.margin}: {margin.available} N*m "
            f"available against {required} N*m required"
        )
    _make_out(out)
    _write_csv(
        out / "force_profile.csv",
        {"theta_deg": _NUM, "gamma_deg": _NUM, "force_n": _NUM},
        [(math.degrees(t), math.degrees(g), f) for t, g, f in profile],
    )
    rows = []
    for theta in np.linspace(0.0, sc.track.theta_cap, 41):
        p = replace(sc.track, theta=float(theta), accel=sc.track.accel_cap)
        rows.append(
            (
                math.degrees(theta),
                drivetrain.torque_case(drivetrain.Pulley.P1, p),
                drivetrain.torque_case(drivetrain.Pulley.P3, p),
            )
        )
    _write_csv(
        out / "torque_vs_theta.csv",
        {"theta_deg": _NUM, "torque_p1_nm": _NUM, "torque_p3_nm": _NUM},
        rows,
    )

    gear = sc.gear
    tension = {
        p.name: " >= ".join(drivetrain.tension_order(p))
        for p in drivetrain.Pulley
    }
    lines = [
        f"scenario: {sc.name}",
        "",
        "[gear]",
        f"pressure angle = {_fmt(math.degrees(gear.pressure_angle))} deg",
        f"min pinion teeth = {drivetrain.min_pinion_teeth(gear.pressure_angle, gear.addendum_factor)}",
        f"teeth = {gear.teeth}",
        f"pitch diameter = {_fmt(gear.pitch_diameter_mm)} mm",
        f"contact ratio = {_fmt(drivetrain.contact_ratio(gear))}",
        "",
        "[belt tensions by driving pulley]",
    ]
    lines += [f"driver {name}: {order}" for name, order in sorted(tension.items())]

    lines += ["", "[sizing targets: back-solved per-track mass]"]
    for target_name, target in drivetrain.SIZING_TARGETS.items():
        lines.append(f"{target_name}: {_fmt(target)} N*m -> M = {_fmt(masses[target_name][0])} kg")
    m_vals = [m for m, _, _ in masses.values()]
    lines.append(
        "note: the three targets imply masses spanning "
        f"{_fmt(min(m_vals))}..{_fmt(max(m_vals))} kg; they are not mutually "
        "consistent and are reported separately."
    )
    try:
        cross = {
            name: drivetrain.torque_case(pulley, replace(params, M=masses["p1_accel"][0]))
            for name, (m, pulley, params) in masses.items()
        }
    except ValueError as exc:  # the back-solved mass is no valid track, e.g. M <= 0
        lines.append(f"cross-check with M from p1_accel: skipped, {exc}")
    else:
        lines.append(
            "cross-check with M from p1_accel: "
            + ", ".join(f"{name} = {_fmt(tq)} N*m" for name, tq in sorted(cross.items()))
        )

    lines += [
        "",
        "[motor]",
        f"required track torque (P1, design point) = {_fmt(required)} N*m",
        f"available track torque = {_fmt(margin.available)} N*m",
        f"margin = {_fmt(margin.margin)}",
        f"check = {'pass' if margin.passed else 'FAIL'}",
    ]

    lines += [
        "",
        "[support assembly]",
        f"peak actuator load over 0..90 deg = {_fmt(peak)} N",
        f"hinge shear limit = {_fmt(sc.support_load.hinge_shear_limit)} N "
        f"at safety factor {_fmt(sc.support_load.safety_factor)}",
        f"margin = {_fmt(structural.margin)}",
        f"check = {'pass' if structural.passed else 'FAIL'}",
    ]
    (out / "design_report.txt").write_text("\n".join(lines) + "\n")
    return lines


def _cmd_design(sc: Scenario, out: Path, args) -> int:
    _design(sc, out)
    print(f"design artifacts written to {out}")
    return 0


def _sim(sc: Scenario, out: Path) -> stairsim.Trajectory:
    """Climb at the motor limit; write the trajectory, events and summary."""
    _make_out(out)
    traj = stairsim.run_climb(sc.sim, sc.stairs, sc.motor.available_track_torque)
    _write_csv(
        out / "trajectory.csv",
        {"t_s": _NUM, "phase": _TEXT, "s_m": _NUM, "v_mps": _NUM,
         "plate_angle_deg": _NUM, "torque_nm": _NUM, "events": _TEXT},
        stairsim.trajectory_rows(traj),
    )
    with open(out / "sim_events.jsonl", "w") as fh:
        for t, name in traj.events:
            fh.write(json.dumps({"t": float(_fmt(t)), "event": name}) + "\n")
    final = traj.final
    lines = [
        f"scenario: {sc.name}",
        f"completed = {traj.completed}",
        f"fall = {traj.fall}",
        f"final position = {_fmt(final.s)} m of {_fmt(stairsim.path_end(sc.stairs, sc.sim))} m",
        f"final time = {_fmt(final.t)} s",
        f"peak track torque = {_fmt(traj.peak_torque)} N*m",
        f"max speed overall = {_fmt(traj.max_speed())} m/s",
    ]
    for phase in stairsim.Phase:
        if phase in traj.phase:
            lines.append(f"max speed {phase.value} = {_fmt(traj.max_speed(phase))} m/s")
    (out / "sim_summary.txt").write_text("\n".join(lines) + "\n")
    return traj


def _cmd_sim(sc: Scenario, out: Path, args) -> int:
    traj = _sim(sc, out)
    if traj.fall or not traj.completed:
        print(f"simulation failed (completed={traj.completed}, fall={traj.fall}); see {out}")
        return 2
    print(f"sim artifacts written to {out}")
    return 0


def _sweep(sc: Scenario, out: Path) -> tuple[float, list[stairsim.SweepProbe]]:
    """Search the minimum climbing torque; write sweep.csv, also when it raises Unclimbable."""
    _make_out(out)
    probes: list[stairsim.SweepProbe] = []
    try:
        return stairsim.min_torque_sweep(sc.sim, sc.stairs, probes=probes), probes
    finally:
        _write_csv(
            out / "sweep.csv",
            {"torque_nm": _NUM, "completed": _TEXT, "fall": _TEXT, "final_v_mps": _NUM},
            [(p.torque, str(p.completed).lower(), str(p.fall).lower(), p.final_v) for p in probes],
        )


def _cmd_sweep(sc: Scenario, out: Path, args) -> int:
    try:
        best, probes = _sweep(sc, out)
    except stairsim.Unclimbable as exc:
        print(f"sweep failed: {exc}")
        return 2
    static = drivetrain.min_static_torque(replace(sc.track, theta=sc.stairs.inclination))
    lines = [
        f"scenario: {sc.name}",
        f"min climbing torque = {_fmt(best)} N*m per track",
        f"static equilibrium bound = {_fmt(static)} N*m",
        f"motor limit at track = {_fmt(sc.motor.available_track_torque)} N*m",
        f"probes = {len(probes)}",
    ]
    (out / "sweep_summary.txt").write_text("\n".join(lines) + "\n")
    print(f"sweep artifacts written to {out}")
    return 0


def _cmd_teleop(sc: Scenario, out: Path, args) -> int:
    if sc.event_log is None:
        raise ConfigError("teleop requires teleop.event_log in the scenario")
    try:
        events = read_event_log(sc.event_log)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    events.sort(key=lambda e: e.t)  # stable: ties keep file order
    try:
        commands = run_events(events, sc.arbiter)
    except ValueError as exc:
        raise ConfigError(f"{sc.event_log}: {exc}") from exc
    _make_out(out)
    with open(out / "commands.jsonl", "w") as fh:
        for t, cmd in commands:
            fh.write(json.dumps(command_to_dict(t, cmd)) + "\n")
    (out / "protocol.txt").write_text("\n".join(protocol_lines(commands)) + "\n")

    by_mode: dict[str, int] = {}
    stops = 0
    for _, cmd in commands:
        by_mode[cmd.mode.value] = by_mode.get(cmd.mode.value, 0) + 1
        stops += cmd.stopped
    lines = [
        f"scenario: {sc.name}",
        f"events = {len(events)}",
        f"commands = {len(commands)}",
        "commands by mode: "
        + (", ".join(f"{m} = {n}" for m, n in sorted(by_mode.items())) or "none"),
        f"stop commands = {stops}",
    ]
    (out / "teleop_summary.txt").write_text("\n".join(lines) + "\n")
    print(f"teleop artifacts written to {out}")
    return 0


def _tracking_check_lines(seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    tex = random_texture(rng)
    shift = (float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5)))
    prev = render_texture(tex, 96, 96)
    nxt = render_texture(tex, 96, 96, shift=shift)
    start = TrackedPoint(48.0, 48.0)
    tracked = fb_track(prev, nxt, start, LkParams())
    lines = [
        "",
        "[tracking self-check]",
        f"seed = {seed}",
        f"true shift = ({_fmt(shift[0])}, {_fmt(shift[1])}) px",
    ]
    if tracked.lost:
        lines.append("tracking self-check = FAIL (lost)")
        return lines
    err = math.hypot(tracked.x - 48.0 - shift[0], tracked.y - 48.0 - shift[1])
    bearing = pixel_to_bearing(tracked.x, 96)
    lines += [
        f"recovered shift = ({_fmt(tracked.x - 48.0)}, {_fmt(tracked.y - 48.0)}) px",
        f"error = {_fmt(err)} px",
        f"bearing of tracked point = {_fmt(math.degrees(bearing))} deg",
        f"tracking self-check = {'pass' if err <= 0.1 else 'FAIL'}",
    ]
    return lines


def _cmd_report(sc: Scenario, out: Path, args) -> int:
    lines = _design(sc, out)
    traj = _sim(sc, out)
    try:
        best, _ = _sweep(sc, out)
    except stairsim.Unclimbable:
        best = None

    lines += [
        "",
        "[climb simulation]",
        f"completed = {traj.completed}",
        f"fall = {traj.fall}",
        f"peak track torque = {_fmt(traj.peak_torque)} N*m",
        f"max speed overall = {_fmt(traj.max_speed())} m/s",
        "",
        "[minimum torque sweep]",
        "result = "
        + ("unclimbable within the horizon" if best is None else f"{_fmt(best)} N*m per track"),
    ]

    pcfg = power.PowerConfig()
    shaft = [tq / sc.motor.reduction for tq in traj.track_torque]
    currents = [power.motor_current(tq, pcfg) for tq in shaft]
    report = power.check_driver(traj.t, currents, pcfg)
    avg = sum(currents) / len(currents)
    lines += [
        "",
        "[power]",
        f"motor torque constant = {_fmt(pcfg.k_t)} N*m/A",
        f"per-motor peak current = {_fmt(report.peak)} A "
        f"(limit {_fmt(pcfg.peak_current_limit)} A)",
        f"per-motor worst 1-s average = {_fmt(report.max_window_avg)} A "
        f"(limit {_fmt(pcfg.avg_current_limit)} A)",
        f"driver check = {'pass' if report.passed else 'FAIL'}",
        f"mean per-motor current over the climb = {_fmt(avg)} A",
        f"drive runtime at twice that draw (both motors) = "
        f"{_fmt(power.runtime_estimate(max(2.0 * avg, 1e-9), pcfg))} h",
    ]

    lines += _tracking_check_lines(args.seed)
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"report written to {out / 'report.txt'}")
    return 2 if (traj.fall or not traj.completed or best is None) else 0


def main(argv=None) -> int:
    parser = _Parser(prog="stairclimber", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--scenario", help="scenario JSON file (defaults built in)")
    common.add_argument("--out", help="output directory (default runs/<name>)")
    common.add_argument("--seed", type=int, default=0, help="seed for synthetic frames")
    common.add_argument("--dt", type=float, default=None, help="override sim step, s")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    handlers = {
        "design": _cmd_design,
        "sim": _cmd_sim,
        "sweep": _cmd_sweep,
        "teleop": _cmd_teleop,
        "report": _cmd_report,
    }
    for name, fn in handlers.items():
        sub.add_parser(name, parents=[common]).set_defaults(handler=fn)

    try:
        args = parser.parse_args(argv)
        if args.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"--seed {args.seed}: must be >= 0")
        sc = _load(args)
        # each handler checks its own inputs before it makes the directory
        out = Path(args.out) if args.out else Path("runs") / sc.name
        return args.handler(sc, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
