import math
from dataclasses import astuple, replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stairclimber.drivetrain import MotorSpec, TrackParams, min_static_torque
from stairclimber.scenario import load_scenario
from stairclimber.stairsim import (
    Phase,
    PlateRig,
    SimConfig,
    SimState,
    Staircase,
    SweepProbe,
    Unclimbable,
    _CRUISE_MARGIN,
    _MAX_STEPS,
    _advance,
    _climb,
    _zone_bounds,
    initial_state,
    min_torque_sweep,
    path_end,
    phase_at,
    pitch_at,
    run_climb,
    step,
    trajectory_rows,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TRACK = TrackParams(M=97.0, R=0.05, r=0.036, theta=math.radians(40.0), accel=0.5)
MOTOR = MotorSpec()
STAIRS = Staircase(math.radians(40.0), 0.17, ramp_length=0.55, approach_length=0.3)
CFG = SimConfig(TRACK, MOTOR, track_length=0.15, level_run=0.0)


def flat_course(approach: float = 10.0) -> Staircase:
    return Staircase(math.radians(40.0), 0.17, ramp_length=0.0, approach_length=approach)


def test_staircase_validation():
    with pytest.raises(ValueError):
        Staircase(math.radians(50.0), 0.17, 1.0)  # above the 40 deg cap
    with pytest.raises(ValueError):
        Staircase(math.radians(40.0), 0.17, -1.0)


@pytest.mark.parametrize("inclination", [0.0, -0.0, -0.3, math.nan, math.inf])
def test_from_angle_refuses_bad_inclination_before_dividing(inclination):
    # a bad angle must be a ValueError naming the inclination
    with pytest.raises(ValueError, match="inclination must lie in"):
        Staircase(inclination, 0.17, 1.0)


def test_phase_layout_along_path():
    # approach 0.3, engage 0.15, climb 0.55, crest 0.15
    assert phase_at(0.0, STAIRS, CFG) is Phase.APPROACH
    assert phase_at(0.31, STAIRS, CFG) is Phase.ENGAGE
    assert phase_at(0.50, STAIRS, CFG) is Phase.CLIMB
    assert phase_at(1.05, STAIRS, CFG) is Phase.CREST
    assert phase_at(1.20, STAIRS, CFG) is Phase.LEVEL
    assert path_end(STAIRS, CFG) == pytest.approx(1.15, abs=1e-12)


def test_pitch_ramps_through_transition_zones():
    assert pitch_at(0.0, STAIRS, CFG) == 0.0
    assert pitch_at(0.375, STAIRS, CFG) == pytest.approx(math.radians(20.0), rel=1e-9)
    assert pitch_at(0.7, STAIRS, CFG) == pytest.approx(math.radians(40.0), rel=1e-12)
    assert pitch_at(1.075, STAIRS, CFG) == pytest.approx(math.radians(20.0), rel=1e-9)
    assert pitch_at(1.2, STAIRS, CFG) == 0.0


def test_flat_acceleration_closed_form():
    # no grade, no resistance: one Euler step gives v = tau / (r M) dt
    cfg = SimConfig(TRACK, MOTOR)
    state = initial_state(cfg, flat_course())
    tau = 10.0
    nxt, events = step(state, tau, cfg, flat_course())
    assert events == ()
    assert nxt.v == pytest.approx(tau / (0.036 * 97.0) * cfg.dt, rel=1e-12)
    assert nxt.s == pytest.approx(nxt.v * cfg.dt, rel=1e-12)


def test_equilibrium_torque_holds_speed_on_the_slope():
    cfg = replace(CFG, rolling_resist_coeff=0.13)
    incl = STAIRS.inclination
    tau_eq = 0.036 * 97.0 * 9.81 * (math.sin(incl) + 0.13 * math.cos(incl))
    from stairclimber.stairsim import SimState

    state = SimState(Phase.CLIMB, 0.7, 0.05, 0.0, 0.0, tau_eq, 2.0)
    nxt, _ = step(state, tau_eq, cfg, STAIRS)
    assert nxt.v == pytest.approx(0.05, abs=1e-12)


def test_static_resistance_keeps_rest_below_breakaway():
    cfg = SimConfig(TRACK, MOTOR, rolling_resist_coeff=0.13)
    course = flat_course()
    breakaway = 0.036 * 0.13 * 97.0 * 9.81
    state = initial_state(cfg, course)
    held, _ = step(state, 0.9 * breakaway, cfg, course)
    assert held.v == 0.0 and held.s == 0.0
    moving, _ = step(state, 1.1 * breakaway, cfg, course)
    assert moving.v > 0.0


def test_speed_caps_by_phase():
    traj = run_climb(CFG, STAIRS, 30.0)
    assert traj.completed and not traj.fall
    for phase in (Phase.ENGAGE, Phase.CLIMB, Phase.CREST):
        assert traj.max_speed(phase) <= 0.1 + 1e-12
    flat_cfg = SimConfig(TRACK, MOTOR, level_run=0.2)
    flat_traj = run_climb(flat_cfg, flat_course(), 30.0)
    assert flat_traj.completed
    assert flat_traj.max_speed() == pytest.approx(3.0, abs=0.0)


def test_run_is_deterministic():
    a = run_climb(CFG, STAIRS, 28.0)
    b = run_climb(CFG, STAIRS, 28.0)
    assert a.states == b.states
    assert a.events == b.events


def test_cutting_torque_mid_climb_falls():
    # a time-varying torque is step folded over the run
    states, events, _, completed, fall = reference_run_climb(CFG, STAIRS, lambda t: 30.0 if t < 1.0 else 0.0)
    assert fall and not completed
    names = [name for _, name in events]
    assert "Fall" in names
    # the run stops at the fall, well before the configured duration
    assert states[-1].t < CFG.duration


def test_run_climb_refuses_a_time_varying_torque():
    with pytest.raises(TypeError, match="torque.*fold step"):
        run_climb(CFG, STAIRS, lambda t: 30.0)


@pytest.mark.parametrize("torque", [math.nan, math.inf, -math.inf])
def test_run_climb_refuses_a_torque_that_is_not_finite(torque):
    # a NaN torque ran the whole horizon on NaN rows and slewed the actuator
    # past its stroke
    with pytest.raises(ValueError, match="torque"):
        run_climb(CFG, STAIRS, torque)


def test_zero_torque_on_flat_never_falls():
    traj = run_climb(SimConfig(TRACK, MOTOR, duration=1.0), flat_course(), 0.0)
    assert not traj.fall and not traj.completed
    assert traj.final.v == 0.0


def test_phase_sequence_in_order():
    traj = run_climb(CFG, STAIRS, 30.0)
    seen = []
    for st in traj.states:
        if not seen or seen[-1] is not st.phase:
            seen.append(st.phase)
    assert seen == [Phase.APPROACH, Phase.ENGAGE, Phase.CLIMB, Phase.CREST, Phase.LEVEL]


def test_energy_balance_without_resistance():
    # thrust work >= kinetic + potential gain, every step; the caps and the
    # rest clamp only ever discard energy
    sine = reference_run_climb(CFG, STAIRS, lambda t: 30.0 + 10.0 * math.sin(3.0 * t))[0]
    for states in (run_climb(CFG, STAIRS, 26.0).states, sine):
        for prev, nxt in zip(states, states[1:]):
            ds = nxt.s - prev.s
            work = nxt.track_torque / TRACK.r * ds
            dpe = TRACK.M * 9.81 * math.sin(pitch_at(prev.s, STAIRS, CFG)) * ds
            dke = 0.5 * TRACK.M * (nxt.v**2 - prev.v**2)
            slack = work - dpe - dke
            assert slack >= -1e-6 * max(1.0, abs(work))


def assert_energy_inequality(cfg, stairs, states):
    # without resistance the thrust's work covers the kinetic and potential
    # energy gained, every step, for the mass the dynamics accelerate
    p = cfg.track
    for prev, nxt in zip(states, states[1:]):
        ds = nxt.s - prev.s
        work = nxt.track_torque / p.r * ds
        dpe = p.M * p.gravity * math.sin(pitch_at(prev.s, stairs, cfg)) * ds
        dke = 0.5 * (p.M + p.m1) * (nxt.v**2 - prev.v**2)
        assert work - dpe - dke >= -1e-9 * max(1.0, abs(work), abs(dpe), abs(dke))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_energy_inequality_on_random_climbs(data):
    # c10 on random staircases, configs and constant torques
    cfg, stairs = data.draw(climb_cases())
    cfg = replace(cfg, rolling_resist_coeff=0.0)
    torque = data.draw(torque_levels(static_torque(cfg, stairs)))
    assert_energy_inequality(cfg, stairs, run_climb(cfg, stairs, torque).states)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_actuator_stays_within_its_stroke_and_slew_limit(data):
    # every row, read through the trajectory's columns: the extension stays
    # in [0, stroke] and moves by at most max_rate*dt a row
    cfg, stairs = data.draw(climb_cases())
    cfg = replace(cfg, plate=data.draw(plate_rigs(stairs.inclination)))
    traj = run_climb(cfg, stairs, data.draw(torque_levels(static_torque(cfg, stairs))))
    rig = cfg.plate
    max_move = rig.max_rate * cfg.dt
    exts = traj.actuator_ext
    assert len(exts) == len(traj.states)
    assert all(0.0 <= e <= rig.stroke for e in exts)
    # a slewing row's extension is the sum ext + max_move rounded to the
    # float grid of the extension, so the difference of two rows may pass
    # max_move by half an ulp of the extension, which is at most the stroke
    slack = math.ulp(rig.stroke)
    assert all(abs(b - a) <= max_move + slack for a, b in zip(exts, exts[1:]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_energy_inequality_on_random_schedules(data):
    # the same under smooth and piecewise torques, with step folded over the run
    cfg, stairs = data.draw(climb_cases())
    cfg = replace(cfg, rolling_resist_coeff=0.0)
    schedule = data.draw(torque_schedules(static_torque(cfg, stairs)))
    assert_energy_inequality(cfg, stairs, reference_run_climb(cfg, stairs, schedule)[0])


def test_sweep_returns_static_bound_without_resistance():
    expected = 0.036 * 97.0 * 9.81 * math.sin(STAIRS.inclination)
    assert min_torque_sweep(CFG, STAIRS) == pytest.approx(expected, rel=1e-12)


def test_sweep_brackets_minimum_with_resistance():
    cfg = replace(CFG, rolling_resist_coeff=0.13)
    probes = []
    result = min_torque_sweep(cfg, STAIRS, resolution=0.05, probes=probes)
    assert run_climb(cfg, STAIRS, result).completed
    failed_below = [p.torque for p in probes if not p.completed and p.torque < result]
    assert failed_below and result - max(failed_below) <= 0.05 + 1e-12
    # equilibrium torque on the full slope is the natural scale of the answer
    incl = STAIRS.inclination
    tau_eq = 0.036 * 97.0 * 9.81 * (math.sin(incl) + 0.13 * math.cos(incl))
    assert abs(result - tau_eq) < 0.1


def test_sweep_raises_when_motor_limit_fails():
    cfg = replace(CFG, rolling_resist_coeff=2.0)
    probes = []
    with pytest.raises(Unclimbable):
        min_torque_sweep(cfg, STAIRS, probes=probes)
    assert probes[0].torque == pytest.approx(44.0) and not probes[0].completed


def test_sweep_duration_override():
    with pytest.raises(ValueError):
        min_torque_sweep(replace(CFG, duration=0.0), STAIRS)
    # a too-short horizon is unclimbable at any torque
    with pytest.raises(Unclimbable):
        min_torque_sweep(replace(CFG, duration=1.0), STAIRS)


def test_plate_levels_out_during_climb():
    traj = run_climb(CFG, STAIRS, 30.0)
    assert not any(name == "ActuatorSaturation" for _, name in traj.events)
    climb_states = [st for st in traj.states if st.phase is Phase.CLIMB]
    assert abs(climb_states[-1].plate_angle) <= CFG.plate.tolerance


def test_short_stroke_saturates_once_per_onset():
    cfg = replace(CFG, plate=PlateRig(stroke=0.10))
    traj = run_climb(cfg, STAIRS, 30.0)
    names = [name for _, name in traj.events if name == "ActuatorSaturation"]
    assert len(names) == 1
    assert traj.completed


def test_trajectory_rows_shape():
    traj = run_climb(CFG, STAIRS, 30.0)
    rows = trajectory_rows(traj)
    assert len(rows) == len(traj.states)
    t, phase, s, v, plate_deg, torque, events = rows[0]
    assert (t, phase, s, v, torque, events) == (0.0, "approach", 0.0, 0.0, 0.0, "")
    assert {r[1] for r in rows} == {"approach", "engage", "climb", "crest", "level"}


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(TRACK, MOTOR, dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(TRACK, MOTOR, rolling_resist_coeff=-0.1)
    with pytest.raises(ValueError):
        SimConfig(TRACK, MOTOR, track_length=0.0)
    with pytest.raises(ValueError):
        PlateRig(stroke=0.0)


NAN_BUILDERS = {
    "SimConfig": lambda **kw: SimConfig(TRACK, MOTOR, **kw),
    "Staircase": lambda **kw: replace(STAIRS, **kw),
    "PlateRig": lambda **kw: PlateRig(**kw),
}


@pytest.mark.parametrize(
    "kind, name",
    [("SimConfig", n) for n in
     ("ground_cap", "stair_cap", "track_length", "level_run", "rolling_resist_coeff")]
    + [("Staircase", n) for n in ("step_rise", "ramp_length", "approach_length")]
    + [("PlateRig", n) for n in ("lever_arm", "max_rate", "stroke", "tolerance")],
)
def test_nan_fields_are_refused(kind, name):
    # plain comparisons are all False on NaN; the checks must fail closed
    with pytest.raises(ValueError):
        NAN_BUILDERS[kind](**{name: math.nan})


# --- _climb's verdict against plain stepping ---


def plain_verdict(cfg, stairs, tau):
    """``(completed, fall, final speed, steps)`` of ``step`` folded over the
    run, one step at a time, with no shortcuts."""
    states, _, _, completed, fall = reference_run_climb(cfg, stairs, tau)
    return completed, fall, states[-1].v, len(states) - 1


def static_torque(cfg, stairs):
    return min_static_torque(replace(cfg.track, theta=stairs.inclination))


@st.composite
def climb_cases(draw):
    """Short random climbs: zero-length ramps and approaches included."""
    inclination = math.radians(draw(st.floats(5.0, 40.0)))
    stairs = Staircase(
        inclination,
        draw(st.floats(0.10, 0.20)),
        ramp_length=draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3))),
        approach_length=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
    )
    track = replace(TRACK, M=draw(st.floats(20.0, 120.0)), m1=draw(st.floats(0.0, 3.0)))
    cfg = SimConfig(
        track,
        MOTOR,
        dt=draw(st.sampled_from([5e-4, 1e-3, 2e-3, 5e-3])),
        duration=draw(st.floats(0.5, 3.0)),
        rolling_resist_coeff=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
        ground_cap=draw(st.floats(0.2, 3.0)),
        stair_cap=draw(st.floats(0.05, 0.5)),
        track_length=draw(st.floats(0.02, 0.2)),
        level_run=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.1))),
    )
    return cfg, stairs


@settings(max_examples=80, deadline=None)
@given(climb_cases(), st.floats(0.0, 2.5))
def test_climb_verdict_matches_run_climb(case, fraction):
    # fractions of the static bound span falls (on the slope), stalls
    # (Coulomb rest) and completions
    cfg, stairs = case
    tau = fraction * static_torque(cfg, stairs)
    assert repr(_climb(cfg, stairs, tau)) == repr(plain_verdict(cfg, stairs, tau))


@pytest.mark.parametrize(
    "name, torque, outcome",
    [
        ("baseline40", "motor", "completes"),
        ("baseline40", "half_static", "falls"),
        ("flat_ground", "motor", "completes"),
        ("flat_ground", 0.0, "stalls"),
    ],
)
def test_climb_verdict_matches_run_climb_on_scenarios(name, torque, outcome):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    if torque == "motor":
        torque = sc.motor.available_track_torque
    elif torque == "half_static":
        torque = 0.5 * static_torque(sc.sim, sc.stairs)
    verdict = _climb(sc.sim, sc.stairs, torque)
    assert repr(verdict) == repr(plain_verdict(sc.sim, sc.stairs, torque))
    completed, fall, _, _ = verdict
    assert outcome == ("falls" if fall else "completes" if completed else "stalls")


# rolling resistance turns a slow forward speed negative within one step,
# and the step reports a Fall even where static friction holds the robot
# (|thrust - grade| <= roll), so it should stall in place
COULOMB_REVERSAL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a Coulomb reversal of a slow forward speed is reported as a Fall, not a stall")


@COULOMB_REVERSAL
def test_slow_step_stalls_where_static_friction_holds():
    cfg = replace(CFG, rolling_resist_coeff=0.13)
    p, pitch = cfg.track, STAIRS.inclination
    tau = p.r * p.M * p.gravity * math.sin(pitch)             # thrust equal to the grade
    roll = cfg.rolling_resist_coeff * p.M * p.gravity * math.cos(pitch)
    assert abs(tau / p.r - p.M * p.gravity * math.sin(pitch)) <= roll
    state = SimState(Phase.CLIMB, 0.7, 1e-5, 0.0, 0.0, tau, 2.0)
    _, events = step(state, tau, cfg, STAIRS)
    assert "Fall" not in events


@COULOMB_REVERSAL
@pytest.mark.parametrize("torque", [23.0, 25.0])
def test_baseline40_stalls_between_the_static_bounds(torque):
    # above the static bound (22.02 N*m) and below static plus rolling (25.43 N*m)
    sc = load_scenario(SCENARIOS / "baseline40.json")
    traj = run_climb(sc.sim, sc.stairs, torque)
    assert not traj.fall and "Fall" not in [name for _, name in traj.events]
    assert not _climb(sc.sim, sc.stairs, torque)[1]


def reference_sweep(cfg, stairs, resolution=0.05):
    """The bisection of min_torque_sweep, written on top of plain stepping."""
    probes = []

    def climbs(tau):
        completed, fall, final_v, _ = plain_verdict(cfg, stairs, tau)
        probes.append(SweepProbe(tau, completed, fall, final_v))
        return completed and not fall

    lo = static_torque(cfg, stairs)
    hi = cfg.motor.available_track_torque
    if not climbs(hi):
        return None, probes
    if climbs(lo):
        return lo, probes
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if climbs(mid):
            hi = mid
        else:
            lo = mid
    return hi, probes


@pytest.mark.parametrize(
    "cfg",
    [
        CFG,                                            # the static bound climbs
        replace(CFG, rolling_resist_coeff=0.13),        # a full bisection
        replace(CFG, duration=1.0),                     # unclimbable
    ],
)
def test_sweep_probes_match_run_climb_bisection(cfg):
    want, want_probes = reference_sweep(cfg, STAIRS)
    probes = []
    try:
        got = min_torque_sweep(cfg, STAIRS, probes=probes)
    except Unclimbable:
        got = None
    assert repr(got) == repr(want)
    assert repr(probes) == repr(want_probes)


@settings(max_examples=60, deadline=None)
@given(climb_cases())
def test_sweep_verdict_is_monotone_in_torque(case):
    # the bisection assumes that once a torque climbs, every larger one does
    cfg, stairs = case
    lo = static_torque(cfg, stairs)
    climbs = []
    for i in range(12):
        completed, fall, _, _ = _climb(cfg, stairs, lo * (0.5 + 0.25 * i))
        climbs.append(completed and not fall)
    first = climbs.index(True) if True in climbs else len(climbs)
    assert all(climbs[first:])


def energy_bracket(cfg, stairs):
    """(tau_E, tau_S) of a climb zone of length L = ramp_length at the stair
    inclination theta.  At tau_S = r M g (sin theta + c_rr cos theta) the
    thrust meets the slope's grade plus rolling; below it the robot slows in
    the zone.  Below tau_E = tau_S - r (M + m1) v_c^2 / (2 L), the kinetic
    energy at the stair cap v_c cannot carry it through (work-energy)."""
    p, theta = cfg.track, stairs.inclination
    tau_s = p.r * p.M * p.gravity * (math.sin(theta) + cfg.rolling_resist_coeff * math.cos(theta))
    return tau_s - p.r * (p.M + p.m1) * cfg.stair_cap**2 / (2.0 * stairs.ramp_length), tau_s


@st.composite
def ramp_climbs(draw):
    """Random climbs with a ramp, 20-60 s long, on a motor that reaches
    twice tau_S through its reduction."""
    stairs = Staircase(
        math.radians(draw(st.floats(5.0, 40.0))),
        0.17,
        ramp_length=draw(st.floats(0.05, 2.0)),
        approach_length=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
    )
    track = replace(TRACK, M=draw(st.floats(20.0, 150.0)), m1=draw(st.floats(0.0, 3.0)),
                    r=draw(st.floats(0.01, 0.05)))
    cfg = SimConfig(
        track,
        MOTOR,
        dt=draw(st.sampled_from([5e-4, 1e-3, 2e-3, 5e-3])),
        duration=draw(st.floats(20.0, 60.0)),
        rolling_resist_coeff=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
        ground_cap=draw(st.floats(0.2, 3.0)),
        stair_cap=draw(st.floats(0.05, 0.5)),
        track_length=draw(st.floats(0.02, 0.2)),
        level_run=draw(st.floats(0.0, 0.1)),
    )
    _, tau_s = energy_bracket(cfg, stairs)
    return replace(cfg, motor=MotorSpec(reduction=max(2.0, 2.0 * tau_s / MOTOR.rated_torque))), stairs


BASELINE40 = load_scenario(SCENARIOS / "baseline40.json")


@settings(max_examples=200, deadline=None)
@given(ramp_climbs(), st.sampled_from([0.05, 1e-4]))
@example((BASELINE40.sim, BASELINE40.stairs), 0.05)   # [25.3994, 25.4311] N*m; swept 25.4112
@example((BASELINE40.sim, BASELINE40.stairs), 1e-4)   # swept 25.4103
def test_swept_minimum_lies_in_the_energy_bracket(case, resolution):
    cfg, stairs = case
    tau_e, tau_s = energy_bracket(cfg, stairs)
    # the horizon leaves room when tau_S itself completes the climb; then
    # every larger torque does, and the bisection stops within one
    # resolution above the least one that does
    completed, fall, _, _ = _climb(cfg, stairs, tau_s)
    assume(completed and not fall)
    assert tau_e <= min_torque_sweep(cfg, stairs, resolution) <= tau_s + resolution


@pytest.mark.parametrize("resolution", [0.0, -0.05, math.nan, math.inf])
def test_sweep_refuses_a_resolution_that_is_not_finite_and_positive(resolution):
    # 0 bisected without end, and NaN returned the motor limit
    probes = []
    with pytest.raises(ValueError, match="resolution"):
        min_torque_sweep(CFG, STAIRS, resolution=resolution, probes=probes)
    assert probes == []


def test_sweep_stops_at_adjacent_floats_below_a_finer_resolution():
    cfg = replace(CFG, rolling_resist_coeff=0.13)
    probes = []
    best = min_torque_sweep(cfg, STAIRS, resolution=5e-324, probes=probes)
    failed = max(p.torque for p in probes if not (p.completed and not p.fall))
    assert math.nextafter(failed, math.inf) == best
    assert len(probes) < 80


def ulps(x, n):
    """x moved n floats up (n > 0) or down (n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def forces_at_inc(cfg, stairs):
    """``(M g, c_rr M g, grade, roll)`` at the full inclination, as the kernel computes them."""
    p, inc = cfg.track, stairs.inclination
    mg = p.M * p.gravity
    cmg = cfg.rolling_resist_coeff * p.M * p.gravity
    return mg, cmg, mg * math.sin(inc), cmg * math.cos(inc)


def ramp_pitches(stairs, cfg, u):
    """The pitches a fraction ``u`` up the engage ramp and ``u`` along the crest ramp."""
    engage, climb, crest, end = _zone_bounds(stairs, cfg)
    return (pitch_at(engage + u * (climb - engage), stairs, cfg),
            pitch_at(crest + u * (end - crest), stairs, cfg))


@st.composite
def long_climbs(draw):
    """``(cfg, stairs, tau)``: long horizons and stair zones, and torques on
    both sides of the kernel's shortcut conditions.  Long flats with low
    ground caps reach the cap on the approach and on the run-out."""
    inclination = math.radians(draw(st.floats(5.0, 40.0)))
    long_flats = draw(st.booleans())
    stairs = Staircase(
        inclination,
        draw(st.floats(0.10, 0.20)),
        ramp_length=draw(st.floats(0.3, 1.5)),
        approach_length=draw(st.floats(0.5, 3.0) if long_flats
                             else st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
    )
    # light robots on coarse steps at low caps: there one ulp of force
    # moves the speed by an ulp
    track = replace(TRACK, M=draw(st.one_of(st.floats(20.0, 40.0), st.floats(20.0, 150.0))),
                    m1=draw(st.floats(0.0, 3.0)))
    stair_cap = draw(st.one_of(st.floats(0.02, 0.05), st.floats(0.02, 0.5)))
    cfg = SimConfig(
        track,
        MOTOR,
        dt=draw(st.sampled_from([1e-3, 2e-3, 5e-3])),
        duration=draw(st.floats(1.0, 60.0)),
        # grade plus roll peaks at inc below c_rr = 1/tan(inc), and before it above
        rolling_resist_coeff=draw(st.one_of(
            st.just(0.0),
            st.floats(0.0, 3.0),
            st.floats(0.5, 1.5).map(lambda k: min(3.0, k / math.tan(inclination))),
        )),
        ground_cap=draw(st.floats(stair_cap, 1.0) if long_flats else st.one_of(
            st.just(stair_cap), st.floats(0.01, stair_cap), st.floats(stair_cap, 3.0))),
        stair_cap=stair_cap,
        track_length=draw(st.floats(0.02, 0.3)),
        level_run=draw(st.floats(0.3, 2.0) if long_flats
                       else st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
    )

    mg, cmg, grade, roll = forces_at_inc(cfg, stairs)
    r, peak = track.r, math.hypot(mg, cmg)
    kind = draw(st.sampled_from(["balance", "peak", "ramp", "stall", "fraction", "non-finite"]))
    if kind == "balance":           # thrust at grade plus roll at inc, and a few ulps off
        tau = ulps(r * (grade + roll), draw(st.integers(-4, 4)))
    elif kind == "peak":            # between grade plus roll at inc and its peak, and at the peak
        tau = draw(st.one_of(
            st.floats(0.0, 1.0).map(lambda u: r * (grade + roll + u * (peak - grade - roll))),
            st.integers(-4, 4).map(lambda n: ulps(r * peak, n)),
        ))
    elif kind == "ramp":
        # grade plus roll at a pitch inside the engage or the crest ramp, and
        # that times the kernel's cruise margin, each a few ulps off: the
        # ramp cruise ends, or starts, near there
        pitch = draw(st.sampled_from(ramp_pitches(stairs, cfg, draw(st.floats(0.0, 1.0)))))
        edge = mg * math.sin(pitch) + cmg * math.cos(pitch)
        edge *= draw(st.sampled_from([1.0, 1.0 + _CRUISE_MARGIN]))
        tau = ulps(r * edge, draw(st.integers(-4, 4)))
    elif kind == "stall":           # Coulomb band: thrust between grade and grade plus roll
        tau = r * (grade + draw(st.floats(0.0, 1.0)) * roll)
    elif kind == "fraction":
        tau = draw(st.floats(0.0, 2.5)) * static_torque(cfg, stairs)
    else:
        tau = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return cfg, stairs, tau


def balance_climb():
    # the sum grade + roll rounds down by half an ulp here, so a thrust equal
    # to it leaves a net force of -7e-15 N, which slows this light robot by
    # one ulp of speed a step
    cfg = SimConfig(replace(TRACK, M=20.0), MOTOR, dt=5e-3, duration=20.0, rolling_resist_coeff=0.13,
                    ground_cap=0.5, stair_cap=0.02, track_length=0.15, level_run=0.1)
    stairs = Staircase(math.radians(27.0), 0.17, 0.6, 0.2)
    _, _, grade, roll = forces_at_inc(cfg, stairs)
    return cfg, stairs, cfg.track.r * (grade + roll)


def peak_climb():
    # tan(inc) * c_rr = 1.68: grade plus roll peaks at 26.6 deg on the ramps
    cfg = SimConfig(TRACK, MOTOR, duration=30.0, rolling_resist_coeff=2.0, track_length=0.15, level_run=0.1)
    stairs = Staircase(math.radians(40.0), 0.17, 0.6, 0.2)
    mg, cmg, grade, roll = forces_at_inc(cfg, stairs)
    return cfg, stairs, TRACK.r * 0.5 * (grade + roll + math.hypot(mg, cmg))


def engage_cruise_probe():
    # the benchmark's seed-1 climb study, fifth staircase, at its first
    # bisection probe: it cruises 40% of the way up the engage ramp at the
    # stair cap, then slows and falls before the ramp's top
    cfg = SimConfig(replace(TRACK, M=133.522918), MOTOR, duration=15.791, rolling_resist_coeff=0.165699,
                    track_length=0.15, level_run=0.241352)
    stairs = Staircase(math.radians(16.111435), 0.162191, 0.340147, 0.409707)
    return cfg, stairs, 13.085801380612908


def baseline40_half_static():
    # from rest on the engage ramp: it speeds up to the stair cap, cruises
    # part of the way up the ramp and falls
    sc = load_scenario(SCENARIOS / "baseline40.json")
    return sc.sim, sc.stairs, 0.5 * static_torque(sc.sim, sc.stairs)


def slowdown_climb():
    # a thrust 0.1% short of grade plus roll at inc: the robot enters the
    # climb zone at the stair cap and slows to a stop 0.17 m in, where the
    # step past rest reverses it (a Coulomb-reversal Fall)
    cfg = replace(CFG, duration=20.0, rolling_resist_coeff=0.13, stair_cap=0.05)
    stairs = Staircase(math.radians(40.0), 0.17, ramp_length=1.0, approach_length=0.3)
    _, _, grade, roll = forces_at_inc(cfg, stairs)
    return cfg, stairs, cfg.track.r * (grade + roll) * (1.0 - 1e-3)


def stop_short_of_crest():
    # the slowdown above, with the crest 1 nm past where it stops: far inside
    # the stop bound's slack, so the kernel steps the slowdown
    cfg, stairs, tau = slowdown_climb()
    ss = [0.0]
    _climb(cfg, stairs, tau, ss, [0.0])
    climb = _zone_bounds(stairs, cfg)[1]
    return cfg, replace(stairs, ramp_length=ss[-1] + 1e-9 - climb), tau


def slowdown_past_crest():
    # the slowdown above, with the crest 1 mm before where it would stop: it
    # reaches the crest ramp still moving, where the pitch falls and it
    # speeds up again
    cfg, stairs, tau = slowdown_climb()
    ss = [0.0]
    _climb(cfg, stairs, tau, ss, [0.0])
    climb = _zone_bounds(stairs, cfg)[1]
    return cfg, replace(stairs, ramp_length=ss[-1] - 1e-3 - climb), tau


def horizon_mid_slowdown():
    # the slowdown above, with the horizon half-way through it
    cfg, stairs, tau = slowdown_climb()
    ss, vs = [0.0], [0.0]
    _climb(cfg, stairs, tau, ss, vs)
    climb = _zone_bounds(stairs, cfg)[1]
    slowing = [i for i in range(1, len(vs)) if ss[i] >= climb and 0.0 < vs[i] < vs[i - 1]]
    return replace(cfg, duration=slowing[len(slowing) // 2] * cfg.dt), stairs, tau


def creep_below_fall_tolerance():
    # no rolling resistance and a thrust just short of the grade: the speed
    # falls by 8e-7 m/s a step, so the step past rest ends above -_FALL_TOL
    # and no Fall comes; from rest every step rounds back to rest with a net
    # force that is not 0, which the stall must still take
    cfg = SimConfig(TRACK, MOTOR, dt=5e-3, duration=80.0, stair_cap=0.01, track_length=0.15, level_run=0.1)
    stairs = Staircase(math.radians(40.0), 0.17, ramp_length=1.0, approach_length=0.0)
    _, _, grade, _ = forces_at_inc(cfg, stairs)
    inertia = cfg.track.M + cfg.track.m1
    return cfg, stairs, cfg.track.r * (grade - 8e-7 * inertia / cfg.dt)


def tied_slowdown():
    # binary mass, pulley radius and step, and no rolling resistance: the
    # climb zone's speed change is exactly an odd number of half ulps of the
    # stair cap's binade, so every step of the slowdown there is a rounding tie
    track = TrackParams(M=64.0, R=0.05, r=2.0**-5, theta=math.radians(30.0))
    cfg = SimConfig(track, MOTOR, dt=2.0**-10, duration=30.0, stair_cap=0.05, track_length=0.15, level_run=0.0)
    stairs = Staircase(math.radians(30.0), 0.17, 0.4, 0.0)
    _, _, grade, _ = forces_at_inc(cfg, stairs)
    half_ulp = 2.0**-58                 # of speeds in [2**-5, 2**-4), where the stair cap lies
    odd = 2 * round(4e-6 / half_ulp / 2) + 1
    # net force thrust - grade, then / 64 and * 2**-10: every step exact
    return cfg, stairs, (grade - odd * half_ulp * 2.0**16) * track.r


def plain_verdicts(cfg, stairs, tau, durations):
    """``plain_verdict`` at each horizon in ``durations``, from one fold of
    ``step`` over the longest: a run cut at n steps is the first n steps of
    the long one, and ends as it does if that ended by step n."""
    states, _, _, completed, fall = reference_run_climb(replace(cfg, duration=max(durations)), stairs, tau)
    ended = len(states) - 1
    verdicts = []
    for duration in durations:
        n = int(round(duration / cfg.dt))
        # an initial state at the goal ends the run on its first step
        verdicts.append((completed, fall, states[-1].v, ended) if ended <= n else (False, False, states[n].v, n))
    return verdicts


@settings(max_examples=150, deadline=None)
@given(long_climbs())
@example(balance_climb())
@example(peak_climb())
@example((replace(CFG, ground_cap=0.1), STAIRS, 30.0))     # equal caps: (True, False, 0.1)
@example((replace(CFG, ground_cap=0.5), STAIRS, 30.0))     # at the ground cap on the approach
# decelerating up the ramp, the speed rounds to rest within the fall
# tolerance; the next step, from rest, falls
@example((CFG, STAIRS, 7.833221149600235))
@example(engage_cruise_probe())
@example(baseline40_half_static())
@example(slowdown_climb())
@example(stop_short_of_crest())
@example(slowdown_past_crest())
@example(horizon_mid_slowdown())
@example(creep_below_fall_tolerance())
@example(tied_slowdown())
def test_climb_verdict_matches_run_climb_on_long_climbs(climb):
    # long capped stretches, where the kernel skips cruising and stalled
    # steps; a run that ends early is also cut one step before its end, so
    # the kernel must end on the same step, not only with the same verdict
    # (run_climb refuses the non-finite torques, so the steps are counted on
    # the states _climb records, which its step count must match)
    cfg, stairs, tau = climb
    ss = [0.0]
    ended = _climb(cfg, stairs, tau, ss, [0.0])[3]
    assert ended == len(ss) - 1
    durations = [cfg.duration]
    if ended < round(cfg.duration / cfg.dt):
        durations += [ended * cfg.dt] + ([(ended - 1) * cfg.dt] if ended > 1 else [])
    for duration, want in zip(durations, plain_verdicts(cfg, stairs, tau, durations)):
        cut = replace(cfg, duration=duration)
        assert repr(_climb(cut, stairs, tau)) == repr(want)


# --- each shortcut of _climb fires: no output shows a shortcut turned off ---


@pytest.fixture
def kernel_log(monkeypatch):
    """Logs each ``_advance`` call of the kernel as ``(s, c, bound, k)``, and
    counts the steps it takes one at a time (each loop runs over ``range``)."""
    import builtins

    import stairclimber.stairsim as stairsim

    calls, stepped = [], [0]
    advance = stairsim._advance

    def logged_advance(s, c, bound, steps):
        k, s_k = advance(s, c, bound, steps)
        calls.append((s, c, bound, k))
        return k, s_k

    def counted_range(*args):
        for i in builtins.range(*args):
            stepped[0] += 1
            yield i

    monkeypatch.setattr(stairsim, "_advance", logged_advance)
    monkeypatch.setattr(stairsim, "range", counted_range, raising=False)
    return calls, stepped


def advanced(calls, lo, hi, sign):
    """Steps ``_advance`` skipped from ``lo <= s < hi`` with a stride of ``sign``."""
    return sum(k for s, c, _, k in calls if lo <= s < hi and math.copysign(1.0, c) == sign)


def test_engage_ramp_cruise_fires_below_its_bound(kernel_log):
    calls, _ = kernel_log
    cfg, stairs, tau = engage_cruise_probe()
    engage, climb, _, _ = _zone_bounds(stairs, cfg)
    assert _climb(cfg, stairs, tau)[1]
    # part of the way up the engage ramp, to a bound short of its top
    assert advanced(calls, engage, climb, 1.0) > 500
    assert any(engage <= s and bound < climb and k for s, _, bound, k in calls)


def test_crest_ramp_cruise_fires_from_its_bound(kernel_log):
    # grade plus roll peaks at 22.8 deg, and the thrust falls 0.02% short of
    # the peak: the robot slows a little through it on both ramps
    calls, _ = kernel_log
    inc = math.radians(40.0)
    cfg = SimConfig(TRACK, MOTOR, dt=5e-3, duration=30.0, rolling_resist_coeff=2.0 / math.tan(inc),
                    ground_cap=0.5, stair_cap=0.1, track_length=0.25, level_run=0.3)
    stairs = Staircase(inc, 0.17, 0.4, 0.5)
    mg, cmg, _, _ = forces_at_inc(cfg, stairs)
    tau = cfg.track.r * math.hypot(mg, cmg) * (1.0 - 2e-4)
    _, _, crest, end = _zone_bounds(stairs, cfg)
    verdict = _climb(cfg, stairs, tau)
    assert repr(verdict) == repr(plain_verdict(cfg, stairs, tau))
    assert repr(verdict[:3]) == repr((True, False, 0.5))
    # from a bound part of the way down the crest ramp, to its end
    assert advanced(calls, crest, end, 1.0) > 200
    assert all(crest + 0.1 < s for s, c, _, k in calls if crest <= s < end and k)


def test_cap_cruise_fires_in_the_climb_zone(kernel_log):
    calls, stepped = kernel_log
    _, climb, crest, _ = _zone_bounds(STAIRS, CFG)
    assert _climb(CFG, STAIRS, 30.0)[:3] == (True, False, 0.1)
    assert advanced(calls, climb, crest, 1.0) > 5000
    assert stepped[0] < 1000


def test_stall_fires_from_rest(kernel_log):
    # no thrust on the flat: the first step leaves the robot at rest, and so
    # does every later one, without taking them
    _, stepped = kernel_log
    cfg = replace(CFG, duration=10.0, rolling_resist_coeff=0.1)
    assert _climb(cfg, flat_course(), 0.0)[:3] == (False, False, 0.0)
    assert stepped[0] == 1


def negative_torque_on_the_flat():
    # a backward push on the flat: every step from rest clamps the speed back
    # to 0, with a net force that is not 0
    cfg = SimConfig(TRACK, MOTOR, duration=600.0, track_length=0.15, level_run=0.0)
    return cfg, flat_course(), -5.0


@pytest.mark.parametrize("case, most_stepped", [
    # 600,000 rest steps, 0.3 s, without the stall
    (negative_torque_on_the_flat, 1),
    # the robot stops 500 steps short of the horizon, which the stall skips;
    # the ramp and the slowdown before it take 16 steps
    (creep_below_fall_tolerance, 16),
])
def test_stall_fires_where_each_step_from_rest_rounds_back_to_rest(kernel_log, case, most_stepped):
    # every rest row after the first is skipped, so the run's cost is
    # bounded by the steps it takes, and the rows and the verdict are those
    # of step folded over the run
    _, stepped = kernel_log
    cfg, stairs, tau = case()
    assert _climb(cfg, stairs, tau)[:3] == (False, False, 0.0)
    assert stepped[0] <= most_stepped
    # the negative torque on the flat is folded over its first 2,000 steps:
    # 600,000 calls of step take seconds
    cut = replace(cfg, duration=min(cfg.duration, 2.0))
    ss, vs = [0.0], [0.0]
    verdict = _climb(cut, stairs, tau, ss, vs)
    states, _, _, completed, fall = reference_run_climb(cut, stairs, tau)
    assert repr(verdict) == repr((completed, fall, states[-1].v, len(states) - 1))
    assert repr((ss, vs)) == repr(([st.s for st in states], [st.v for st in states]))


def test_stop_fires_on_a_slowdown_that_stops_in_its_zone(kernel_log):
    calls, stepped = kernel_log
    cfg, stairs, tau = slowdown_climb()
    assert repr(_climb(cfg, stairs, tau)) == repr(plain_verdict(cfg, stairs, tau))
    # about 6,850 slowing steps, counted by the falling stride
    assert advanced(calls, 0.0, math.inf, -1.0) > 6000
    assert stepped[0] < 1000


def test_stop_falls_back_to_stepping_within_its_slack(kernel_log):
    # stopping 1 nm short of the crest, the bound cannot rule the crest out,
    # so the slowdown is stepped after all
    calls, stepped = kernel_log
    cfg, stairs, tau = stop_short_of_crest()
    assert repr(_climb(cfg, stairs, tau)) == repr(plain_verdict(cfg, stairs, tau))
    assert advanced(calls, 0.0, math.inf, -1.0) > 6000
    assert stepped[0] > 6000


# --- _advance, the closed form of s = s + c, against the plain loop ---


def near(c, bound):
    """The test a sum must pass: below ``bound`` for ``c >= 0``, above it for ``c < 0``."""
    return (lambda x: x < bound) if c >= 0.0 else (lambda x: x > bound)


def plain_advance(s, c, bound, steps):
    """``s = s + c`` one step at a time while steps remain and the sum stays on the near side of bound."""
    k, keep = 0, near(c, bound)
    while k < steps and keep(s + c):
        s = s + c
        k += 1
    return k, s


def driven_advance(s, c, bound, steps):
    """``_advance`` as the kernel drives it: an ordinary step wherever it stops.

    Checks each call against the plain loop; returns the plain loop's
    ``(k, s)`` and the number of ordinary steps taken.
    """
    taken = ordinary = 0
    keep = near(c, bound)
    while True:
        k, s_k = _advance(s, c, bound, steps - taken)
        assert 0 <= k <= steps - taken
        assert repr((k, s_k)) == repr(plain_advance(s, c, bound, k))
        s, taken = s_k, taken + k
        if taken == steps or not keep(s + c):
            return (taken, s), ordinary
        s, taken, ordinary = s + c, taken + 1, ordinary + 1


ULP1 = 2.0**-52                     # one ulp of [1, 2)


@pytest.mark.parametrize(
    "name, s, c, bound, steps, max_ordinary",
    [
        ("tie, rounds to even", 1.0, 1.5 * ULP1, 2.0, 300, 300),
        ("tie at half an ulp, s stays", 1.0 + ULP1, 0.5 * ULP1, 2.0, 300, 300),
        ("binade crossings", 0.3, 1e-4, 2.5, 30_000, 3),
        ("bound inside the binade", 1.0, 0.1, 1.55, 100, 1),
        ("bound on the stride's grid", 1.0, 0.125, 1.5, 100, 1),
        ("bound at the binade top", 1.5, 0.125, 2.0, 100, 1),
        ("bound already reached", 1.0, 0.1, 1.0, 100, 0),
        ("bound passed", 1.5, 0.1, 1.0, 100, 0),
        ("zero steps", 0.5, 1e-3, 1.0, 0, 0),
        ("far below an ulp", 1.0, 1e-30, 2.0, 100_000, 0),
        ("just below half an ulp", 1.0, math.nextafter(0.5 * ULP1, 0.0), 2.0, 1000, 0),
        ("just above half an ulp", 1.0, math.nextafter(0.5 * ULP1, 1.0), 2.0, 1000, 0),
        ("one ulp", 1.0, ULP1, 2.0, 1000, 0),
        ("an ulp and a bit", 1.0, ULP1 * (1.0 + 2.0**-20), 2.0, 1000, 0),
        ("a step wider than the binade", 1.0, 1.5, 10.0, 5, 3),
        ("subnormal start", 5e-324, 5e-324, 1e-320, 100, 100),
        # a falling stride: the sums stay above bound
        ("falling tie, rounds to even", 1.5, -1.5 * ULP1, 0.0, 300, 300),
        ("falling tie at half an ulp", 1.5 + ULP1, -0.5 * ULP1, 0.0, 300, 300),
        ("falling binade crossings", 2.4, -1e-4, 0.0, 30_000, 16),
        ("falling to the stop", 0.1, -3.7e-6, 0.0, 100_000, 20),
        ("falling bound inside the binade", 1.9, -0.1, 1.45, 100, 1),
        ("falling bound on the stride's grid", 1.875, -0.125, 1.5, 100, 1),
        ("falling bound at the binade bottom", 1.5, -0.125, 1.0, 100, 1),
        ("falling bound already reached", 1.0, -0.1, 1.0, 100, 0),
        ("falling bound passed", 1.0, -0.1, 1.5, 100, 0),
        ("falling, zero steps", 0.5, -1e-3, 0.0, 0, 0),
        # from the binade's bottom even a tiny fall rounds onto the finer grid below
        ("falling from a power of two", 1.0, -1e-30, 0.0, 100, 100),
        ("falling far below an ulp", 1.5, -1e-30, 0.0, 100_000, 0),
        ("falling just below half an ulp", 1.5, -math.nextafter(0.5 * ULP1, 0.0), 0.0, 1000, 0),
        ("falling just above half an ulp", 1.5, -math.nextafter(0.5 * ULP1, 1.0), 0.0, 1000, 0),
        ("falling a step wider than the binade", 1.9, -1.5, -10.0, 5, 5),
        ("falling into the subnormals", 1e-306, -1e-307, 0.0, 100, 100),
        ("falling subnormal start", 1e-320, -5e-324, 0.0, 100, 100),
    ],
)
def test_advance_matches_the_plain_loop(name, s, c, bound, steps, max_ordinary):
    got, ordinary = driven_advance(s, c, bound, steps)
    assert repr(got) == repr(plain_advance(s, c, bound, steps)), name
    assert ordinary <= max_ordinary, name


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-3, 10.0),
    st.floats(-60.0, -3.0),
    st.sampled_from([1.0, -1.0]),
    st.floats(0.0, 2.0),
    st.integers(0, 3000),
)
def test_advance_matches_the_plain_loop_on_random_strides(s, c_exp, sign, span, steps):
    c = sign * s * 2.0**c_exp
    bound = s + sign * span
    got, _ = driven_advance(s, c, bound, steps)
    assert repr(got) == repr(plain_advance(s, c, bound, steps))


# --- run_climb against step() folded over a run ---


def reference_run_climb(cfg, stairs, torque_schedule):
    """``run_climb`` written as ``step`` folded over the run.

    Takes a constant torque or a function of time.  Returns ``(states,
    events, peak_torque, completed, fall)``.
    """
    schedule = torque_schedule if callable(torque_schedule) else (lambda t, v=float(torque_schedule): v)
    end = path_end(stairs, cfg)
    state = initial_state(cfg, stairs)
    states = [state]
    events = []
    peak = 0.0
    completed = state.s >= end
    fall = False
    saturated = False
    for _ in range(int(round(cfg.duration / cfg.dt))):
        tau = schedule(state.t)
        peak = max(peak, abs(tau))
        state, evs = step(state, tau, cfg, stairs)
        for name in evs:
            if name == "ActuatorSaturation":
                if saturated:
                    continue        # report saturation once per onset
                saturated = True
            events.append((state.t, name))
        if not any(n == "ActuatorSaturation" for n in evs):
            saturated = False
        states.append(state)
        if any(n == "Fall" for n in evs):
            fall = True
            break
        if state.s >= end:
            completed = True
            break
    return tuple(states), tuple(events), peak, completed, fall


def reference_max_speed(states, phase=None):
    vs = [st.v for st in states if phase is None or st.phase is phase]
    return max(vs) if vs else 0.0


def reference_rows(states, events):
    by_time = {}
    for t, name in events:
        by_time.setdefault(t, []).append(name)
    return [
        (st.t, st.phase.value, st.s, st.v, math.degrees(st.plate_angle), st.track_torque,
         ";".join(by_time.get(st.t, [])))
        for st in states
    ]


def assert_matches_reference(cfg, stairs, torque):
    traj = run_climb(cfg, stairs, torque)
    ref = reference_run_climb(cfg, stairs, torque)
    states, events, peak, completed, fall = ref
    # the row count comes with the verdict, before any column is built
    assert len(traj.states) == len(states)
    assert traj.states == states
    assert (traj.events, traj.peak_torque, traj.completed, traj.fall) == ref[1:]
    # == takes -0.0 for 0.0 and compares NaN by identity; repr does neither
    got = (tuple(traj.states), traj.events, traj.peak_torque, traj.completed, traj.fall)
    assert repr(got) == repr(ref)
    for phase in (None, *Phase):
        assert repr(traj.max_speed(phase)) == repr(reference_max_speed(states, phase))
    assert repr(trajectory_rows(traj)) == repr(reference_rows(states, events))
    return traj


@st.composite
def plate_rigs(draw, inclination):
    """Strokes on both sides of the one that levels the full inclination."""
    lever = draw(st.floats(0.1, 0.5))
    return PlateRig(
        lever_arm=lever,
        max_rate=draw(st.floats(0.005, 0.2)),
        stroke=draw(st.floats(0.3, 1.5)) * lever * inclination,
        tolerance=math.radians(draw(st.floats(0.2, 6.0))),
    )


def torque_levels(scale):
    """Constant torques, zero and negative included."""
    return st.one_of(st.floats(0.8, 2.5), st.floats(-1.0, 2.5), st.just(0.0)).map(lambda f: f * scale)


@st.composite
def torque_schedules(draw, scale):
    """Smooth and piecewise torques over time, for ``step`` folded over a run."""
    level = torque_levels(scale)
    if draw(st.booleans()):
        mean, amp, w = draw(level), draw(level), draw(st.floats(0.5, 40.0))
        return lambda t: mean + amp * math.sin(w * t)
    a, b = draw(level), draw(level)
    t1, period = draw(st.floats(0.0, 2.0)), draw(st.floats(0.01, 0.5))
    return lambda t: a if t < t1 or (t - t1) % period < 0.5 * period else b


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_run_climb_matches_step_folded_reference(data):
    cfg, stairs = data.draw(climb_cases())
    cfg = replace(cfg, plate=data.draw(plate_rigs(stairs.inclination)))
    assert_matches_reference(cfg, stairs, data.draw(torque_levels(static_torque(cfg, stairs))))


def saturates_twice():
    # on the engage ramp the pitch outruns the actuator and the plate passes
    # the tolerance (onset); the robot slows, so the actuator catches up
    # (end); then the stroke runs out while the pitch still rises (second
    # onset), and the robot rolls back
    rig = PlateRig(lever_arm=0.15, max_rate=0.198, stroke=0.051, tolerance=math.radians(5.3))
    cfg = SimConfig(replace(TRACK, M=28.2), MOTOR, dt=5e-3, duration=1.3, rolling_resist_coeff=0.025,
                    ground_cap=2.8, stair_cap=0.22, track_length=0.071, level_run=0.043, plate=rig)
    return cfg, Staircase(math.radians(33.99), 0.17, 0.145, 0.231)


def nose_landing():
    # exact binary fractions: 64 N on 64 kg adds 2**-10 m/s in a step of
    # 2**-10 s, so the speed-up on the approach ends 63 steps in on s =
    # 2016 * 2**-20, which is the engage nose: that row takes the stair cap
    track = TrackParams(M=64.0, R=0.05, r=2.0**-5, theta=math.radians(30.0))
    cfg = SimConfig(track, MOTOR, dt=2.0**-10, duration=1.0, stair_cap=0.05, track_length=0.15, level_run=0.0)
    return cfg, Staircase(math.radians(30.0), 0.17, 0.3, 2016 * 2.0**-20)


@pytest.mark.parametrize(
    "name, cfg, stairs, torque, check",
    [
        ("completes", CFG, STAIRS, 30.0, lambda tr: tr.completed and not tr.events),
        ("falls", CFG, STAIRS, 15.0, lambda tr: tr.fall),          # below the static bound
        ("negative torque on the flat", SimConfig(TRACK, MOTOR, duration=0.5), flat_course(), -5.0,
         lambda tr: not tr.fall and tr.final.s == 0.0),
        ("saturates once", replace(CFG, plate=PlateRig(stroke=0.10)), STAIRS, 30.0,
         lambda tr: [n for _, n in tr.events] == ["ActuatorSaturation"]),
        ("saturates twice", *saturates_twice(), 2.49,
         lambda tr: [n for _, n in tr.events] == ["ActuatorSaturation", "ActuatorSaturation", "Fall"]),
        ("done at step 0", replace(CFG, level_run=0.0), flat_course(0.0), 0.0,
         lambda tr: tr.completed and len(tr.states) == 2),
        # the stroke saturates on the engage ramp and the actuator settles at
        # it early in the climb zone, where the robot slows to a roll-back:
        # the falling row is in a stretch of repeated plate rows and adds no
        # second saturation
        ("falls while saturated", replace(CFG, track_length=0.02, stair_cap=0.5,
                                          plate=PlateRig(stroke=0.02, max_rate=0.5)), STAIRS, 21.0,
         lambda tr: [n for _, n in tr.events] == ["ActuatorSaturation", "Fall"]
         and tr.phase[-1] is Phase.CLIMB and tr.actuator_ext[-200:] == (0.02,) * 200),
        # the stair-cap cruise ends part-way up the engage ramp
        ("cruises part of the engage ramp", *engage_cruise_probe(),
         lambda tr: tr.fall and tr.phase[-1] is Phase.ENGAGE
         and rows_in(tr, Phase.ENGAGE, lambda u, v: u == v == 0.1) > 500),
        ("lands on the engage nose", *nose_landing(), 2.0,
         lambda tr: tr.s[63] == 2016 * 2.0**-20 and tr.phase[63] is Phase.ENGAGE
         and tr.v[63] == 0.05 < tr.v[62]),
        # up to the ground cap on the approach and on the run-out
        ("speeds up on the flats", replace(CFG, duration=15.0, ground_cap=0.4, level_run=1.0),
         Staircase(math.radians(30.0), 0.17, 0.3, 1.0), 40.0,
         lambda tr: tr.completed and tr.max_speed(Phase.APPROACH) == tr.max_speed(Phase.LEVEL) == 0.4),
    ],
)
def test_run_climb_matches_reference_on_cases(name, cfg, stairs, torque, check):
    traj = assert_matches_reference(cfg, stairs, torque)
    assert check(traj), name


@st.composite
def rate_matched_climbs(draw):
    """``(cfg, stairs, tau)``: a plate rig whose slew rate matches the rate
    at which the ramps move the reach at the stair cap, to within a few
    ulps or a relative 1e-15 to 1e-9 either way, so that on the ramps the
    actuator's move sits on the edge between slewing at its rate limit and
    tracking its target; a torque that climbs at the cap."""
    inclination = math.radians(draw(st.floats(5.0, 40.0)))
    lever = draw(st.floats(0.1, 0.5))
    stair_cap, track_length = draw(st.floats(0.1, 0.3)), draw(st.floats(0.05, 0.3))
    rate = inclination * lever / track_length * stair_cap
    rate *= 1.0 + draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9]))
    rig = PlateRig(lever_arm=lever, max_rate=ulps(rate, draw(st.integers(-3, 3))),
                   stroke=1.5 * inclination * lever, tolerance=0.05)
    cfg = SimConfig(replace(TRACK, M=draw(st.floats(20.0, 120.0))), MOTOR, dt=draw(st.sampled_from([5e-3, 1e-2])),
                    duration=30.0, ground_cap=1.0, stair_cap=stair_cap, track_length=track_length,
                    level_run=0.2, plate=rig)
    stairs = Staircase(inclination, 0.17, ramp_length=draw(st.floats(0.1, 1.0)), approach_length=0.2)
    return cfg, stairs, 1.5 * static_torque(cfg, stairs)


@settings(max_examples=40, deadline=None)
@given(rate_matched_climbs())
def test_run_climb_matches_reference_where_the_actuator_keeps_pace_with_the_ramp(climb):
    traj = assert_matches_reference(*climb)
    assert traj.completed


@pytest.mark.parametrize("name", ["baseline40", "flat_ground"])
def test_run_climb_matches_reference_on_scenarios(name):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    assert_matches_reference(sc.sim, sc.stairs, sc.motor.available_track_torque)


def test_states_view_builds_rows_only_when_read(monkeypatch):
    import stairclimber.stairsim as stairsim

    traj = run_climb(CFG, STAIRS, 30.0)
    ref_states = reference_run_climb(CFG, STAIRS, 30.0)[0]
    built = []

    class CountingState(SimState):
        def __init__(self, *fields):
            built.append(fields)
            super().__init__(*fields)

    monkeypatch.setattr(stairsim, "SimState", CountingState)
    states = traj.states
    assert len(states) == len(ref_states) and len(traj.states) == len(traj.t)
    assert not built
    assert states[-1] == CountingState(*astuple(ref_states[-1]))
    assert len(built) == 2
    monkeypatch.undo()

    n = len(ref_states)
    assert states[-1] == ref_states[-1] == traj.final
    assert states[-n] == states[0] == ref_states[0]
    with pytest.raises(IndexError):
        states[n]
    with pytest.raises(IndexError):
        states[-n - 1]
    assert states[1:] == ref_states[1:]
    assert states[::7] == ref_states[::7] and isinstance(states[::7], tuple)
    assert states[5:2] == ()
    assert list(states) == list(ref_states)
    assert list(reversed(states)) == list(reversed(ref_states))
    assert states == ref_states and states == run_climb(CFG, STAIRS, 30.0).states
    assert states != run_climb(CFG, STAIRS, 29.0).states
    assert states != list(ref_states)        # a tuple never equalled a list
    assert states.index(ref_states[3]) == 3 and ref_states[3] in states


@pytest.fixture
def build_log(monkeypatch):
    """Logs whether each ``_climb`` call records (``ss`` given), and counts
    the plate passes: ``_build_columns`` calls, and the ``bisect_left``
    calls that find each zone's rows in them."""
    import stairclimber.stairsim as stairsim

    recorded, built, bisected = [], [0], [0]
    climb, build, bisect = stairsim._climb, stairsim._build_columns, stairsim.bisect_left

    def logged_climb(cfg, stairs, tau, ss=None, vs=None):
        recorded.append(ss is not None)
        return climb(cfg, stairs, tau, ss, vs)

    def counted_build(*args):
        built[0] += 1
        return build(*args)

    def counted_bisect(*args, **kwargs):
        bisected[0] += 1
        return bisect(*args, **kwargs)

    monkeypatch.setattr(stairsim, "_climb", logged_climb)
    monkeypatch.setattr(stairsim, "_build_columns", counted_build)
    monkeypatch.setattr(stairsim, "bisect_left", counted_bisect)
    return recorded, built, bisected


@pytest.mark.parametrize(
    "cfg, stairs, torque",
    [
        (CFG, STAIRS, 30.0),                                            # completes
        (CFG, STAIRS, 15.0),                                            # falls
        (SimConfig(TRACK, MOTOR, duration=1.0), flat_course(), 0.0),    # stalls to the horizon
        (replace(CFG, level_run=0.0), flat_course(0.0), 0.0),           # done at step 0
    ],
    ids=["completes", "falls", "stalls", "done at step 0"],
)
def test_verdict_only_run_climb_builds_columns_on_first_read(build_log, cfg, stairs, torque):
    recorded, built, bisected = build_log
    states, events, peak, completed, fall = reference_run_climb(cfg, stairs, torque)
    traj = run_climb(cfg, stairs, torque)
    # the verdict, the peak torque and the row count: one non-recording
    # kernel run and no plate pass
    assert (traj.completed, traj.fall, traj.peak_torque) == (completed, fall, peak)
    assert len(traj.states) == len(states)
    assert recorded == [False] and built == [0] and bisected == [0]
    # the first column read records the run and levels the plate, once
    s = traj.s
    assert recorded == [False, True] and built == [1] and bisected[0] > 0
    passes = bisected[0]
    # later reads, of any column, the events or the rows, reuse it
    assert traj.s is s and traj.events == events and traj.states == states
    assert traj.final == states[-1] and traj.max_speed() == max(st.v for st in states)
    assert traj == run_climb(cfg, stairs, torque) and hash(traj) == hash(run_climb(cfg, stairs, torque))
    assert built == [3] and bisected[0] == 3 * passes      # the two new trajectories each built once
    assert recorded.count(True) == 3


def test_sim_config_refuses_nan_and_runs_over_the_step_budget():
    assert round(SimConfig(TRACK, MOTOR, dt=1e-5, duration=10.0).duration / 1e-5) == _MAX_STEPS
    for dt, duration in [(math.nan, 10.0), (1e-3, math.nan), (1e-5, 10.00001),
                         (1e-12, 10.0), (1e-320, 10.0), (1e-3, math.inf)]:
        with pytest.raises(ValueError):
            SimConfig(TRACK, MOTOR, dt=dt, duration=duration)
    # a horizon override through replace() goes through the same checks
    for duration in (math.nan, 1e9):
        with pytest.raises(ValueError):
            replace(CFG, duration=duration)


# --- the ramp cruise and the flats, row for row ---


@st.composite
def ramp_and_flat_climbs(draw):
    """``(cfg, stairs, tau, kind)``: long flats, and a torque that balances
    grade plus roll at a pitch inside the engage or the crest ramp (``kind``
    "engage" or "crest"; a few ulps off, and times the cruise margin), that
    falls short of the peak of grade plus roll, where the ramps pass it,
    over a pitch span of several steps ("peak"), or that climbs at ease and
    speeds up on the flats at 1 m/s**2 or more ("ease")."""
    kind = draw(st.sampled_from(["engage", "crest", "peak", "ease"]))
    peak = kind == "peak"
    inclination = math.radians(draw(st.floats(25.0 if peak else 5.0, 40.0)))
    stairs = Staircase(
        inclination,
        draw(st.floats(0.10, 0.20)),
        ramp_length=draw(st.floats(0.1, 0.6)),
        approach_length=draw(st.floats(0.3, 1.5)),
    )
    stair_cap = draw(st.floats(0.1, 0.15 if peak else 0.3))
    track_length, level_run = draw(st.floats(0.2 if peak else 0.05, 0.3)), draw(st.floats(0.3, 1.5))
    path = stairs.approach_length + 2 * track_length + stairs.ramp_length + level_run
    dt = draw(st.sampled_from([5e-3] if peak else [5e-3, 1e-2]))
    cfg = SimConfig(
        replace(TRACK, M=draw(st.floats(20.0, 150.0)), m1=draw(st.floats(0.0, 3.0))),
        MOTOR,
        dt=dt,
        duration=round((1.5 * path / stair_cap + 5.0) / dt) * dt,
        # grade plus roll peaks inside the ramps' pitches for "peak", at
        # least 7 deg below inc, else at inc
        rolling_resist_coeff=draw(
            st.floats(1.5, 3.0).map(lambda k: k / math.tan(inclination)) if peak
            else st.one_of(st.just(0.0), st.floats(0.0, 0.9 / math.tan(inclination)))),
        # 1 m/s**2 reaches 0.77 m/s over the shortest flat
        ground_cap=draw(st.floats(stair_cap, 0.75)),
        stair_cap=stair_cap,
        track_length=track_length,
        level_run=level_run,
        plate=draw(plate_rigs(inclination)),
    )
    mg, cmg, grade, roll = forces_at_inc(cfg, stairs)
    r, inertia = cfg.track.r, cfg.track.M + cfg.track.m1
    if kind == "ease":
        thrust = max((grade + roll) * draw(st.floats(1.05, 2.0)), cmg + inertia * 1.0)
        return cfg, stairs, r * thrust, kind
    if peak:
        return cfg, stairs, r * math.hypot(mg, cmg) * (1.0 - draw(st.floats(1e-4, 5e-4))), kind
    engage, crest = ramp_pitches(stairs, cfg, draw(st.floats(0.2, 0.8)))
    pitch = engage if kind == "engage" else crest
    edge = (mg * math.sin(pitch) + cmg * math.cos(pitch)) * draw(st.sampled_from([1.0, 1.0 + _CRUISE_MARGIN]))
    return cfg, stairs, ulps(r * edge, draw(st.integers(-4, 4))), kind


def rows_in(traj, phase, test):
    """Rows of ``phase`` whose speed, and the speed before it, pass ``test``."""
    return sum(1 for i in range(1, len(traj.t)) if traj.phase[i] is phase and test(traj.v[i - 1], traj.v[i]))


@settings(max_examples=40, deadline=None)
@given(ramp_and_flat_climbs())
def test_run_climb_matches_reference_through_ramp_cruise_and_flats(climb):
    # the kernel skips the stair-cap cruise part-way up the engage ramp and
    # from part-way down the crest ramp, and the speed-up and the ground-cap
    # cruise on the approach and the run-out; the columns show the stretches
    # were there
    cfg, stairs, tau, kind = climb
    traj = assert_matches_reference(cfg, stairs, tau)
    assert repr(_climb(cfg, stairs, tau)) == repr(plain_verdict(cfg, stairs, tau))
    stair, ground = cfg.stair_cap, cfg.ground_cap
    if kind == "engage":
        assert rows_in(traj, Phase.ENGAGE, lambda u, v: u == v == stair)
        assert rows_in(traj, Phase.ENGAGE, lambda u, v: v < u)
    elif kind == "peak":
        # past the peak on the crest, below the cap, then back at it
        assert traj.completed
        assert rows_in(traj, Phase.CREST, lambda u, v: v < u)
        assert rows_in(traj, Phase.CREST, lambda u, v: u == v == stair)
    elif kind == "ease":
        assert traj.completed
        assert rows_in(traj, Phase.APPROACH, lambda u, v: u == v == ground)
        if ground > stair:
            assert rows_in(traj, Phase.LEVEL, lambda u, v: u < v)
            assert rows_in(traj, Phase.LEVEL, lambda u, v: u == v == ground)


# --- the settled cruise and the climb-zone slowdown, on long ramps ---


@st.composite
def settled_climbs(draw):
    """``(cfg, stairs, tau, side)``: ramps long enough for the actuator to
    settle at the stair cap, and a constant torque clearly above (``side``
    1), clearly below (-1) or within ulps (0) of the climb zone's balance
    torque ``r*M*g*(sin(inc) + c_rr*cos(inc))``."""
    inclination = math.radians(draw(st.floats(5.0, 40.0)))
    lever = draw(st.floats(0.1, 0.5))
    rig = PlateRig(lever_arm=lever, max_rate=draw(st.floats(0.05, 0.2)),
                   stroke=draw(st.floats(0.3, 1.5)) * lever * inclination,
                   tolerance=math.radians(draw(st.floats(0.2, 6.0))))
    stair_cap = draw(st.floats(0.1, 0.3))
    # the distance the actuator may still slew over at the cap once the pitch is full
    settle = stair_cap * min(inclination * lever, rig.stroke) / rig.max_rate
    stairs = Staircase(
        inclination,
        draw(st.floats(0.10, 0.20)),
        ramp_length=2.0 + settle + draw(st.floats(0.0, 1.0)),
        # long enough to reach the cap on the flat, below the balance torque too
        approach_length=draw(st.floats(0.1, 0.5)),
    )
    track_length, level_run = draw(st.floats(0.02, 0.3)), draw(st.floats(0.0, 0.3))
    path = stairs.approach_length + 2 * track_length + stairs.ramp_length + level_run
    dt = draw(st.sampled_from([5e-3, 1e-2]))
    cfg = SimConfig(
        replace(TRACK, M=draw(st.floats(20.0, 150.0)), m1=draw(st.floats(0.0, 3.0))),
        MOTOR,
        dt=dt,
        # from 60% of the path onwards the cruise has settled
        duration=round((draw(st.floats(0.6, 1.2)) * path / stair_cap + 2.0) / dt) * dt,
        # with c_rr*tan(inc) < 1 grade plus roll peaks in the climb zone, and
        # with c_rr <= 1 it exceeds the roll on the flat by a few percent
        rolling_resist_coeff=draw(st.one_of(
            st.just(0.0), st.floats(0.0, min(1.0, 0.9 / math.tan(inclination))))),
        ground_cap=draw(st.one_of(st.just(stair_cap), st.floats(stair_cap, 3.0))),
        stair_cap=stair_cap,
        track_length=track_length,
        level_run=level_run,
        plate=rig,
    )
    _, _, grade, roll = forces_at_inc(cfg, stairs)
    balance = cfg.track.r * (grade + roll)
    side = draw(st.sampled_from([1, -1, 0]))
    if side == 1:
        tau = balance * (1.0 + draw(st.floats(0.02, 1.0)))
    elif side == -1:
        # short of the balance by at most the force that would take half the
        # cap's kinetic energy over the engage ramp, so the climb zone is
        # entered moving
        inertia = cfg.track.M + cfg.track.m1
        most = min(0.02, stair_cap**2 * inertia / (4.0 * (grade + roll) * track_length))
        tau = balance * (1.0 - draw(st.floats(1e-4, most)))
    else:
        tau = ulps(balance, draw(st.integers(-4, 4)))
    return cfg, stairs, tau, side


def settled_cruise_rows(traj, stair_cap):
    """Climb-zone rows at the stair cap that left the actuator where it was."""
    return sum(
        1 for i in range(1, len(traj.t))
        if traj.phase[i - 1] is traj.phase[i] is Phase.CLIMB and traj.v[i] == stair_cap
        and traj.actuator_ext[i] == traj.actuator_ext[i - 1]
    )


def slowdown_rows(traj):
    """Climb-zone rows whose speed fell and stayed above 0."""
    return sum(
        1 for i in range(1, len(traj.t))
        if traj.phase[i - 1] is traj.phase[i] is Phase.CLIMB and 0.0 < traj.v[i] < traj.v[i - 1]
    )


@settings(max_examples=40, deadline=None)
@given(settled_climbs())
def test_run_climb_and_verdict_match_references_through_settled_cruise_and_slowdown(climb):
    # _climb takes the settled cruise in closed form and the slowdown in a
    # tight loop; the columns show both stretches were there
    cfg, stairs, tau, side = climb
    traj = assert_matches_reference(cfg, stairs, tau)
    assert repr(_climb(cfg, stairs, tau)) == repr(plain_verdict(cfg, stairs, tau))
    if side == 1:
        assert settled_cruise_rows(traj, cfg.stair_cap) > 0
    elif side == -1:
        assert slowdown_rows(traj) > 0
