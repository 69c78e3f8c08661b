import json
import logging
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stairclimber.control as control
from stairclimber.control import (
    ArbiterConfig,
    ArbiterState,
    DriveCommand,
    EegUpdate,
    KeyPress,
    Mode,
    SonarUpdate,
    TouchTarget,
    TrackUpdate,
    VoiceCommand,
    avoidance_policy,
    arbiter_step,
    command_to_dict,
    event_from_dict,
    mix_differential,
    protocol_lines,
    read_event_log,
    run_events,
    tracking_controller,
)
from stairclimber.eeg import EegRecord, LoessConfig, PostureState, loess_smooth
from stairclimber.perception import RegionOccupancy, SonarTriple, region_map

CFG = ArbiterConfig()
SLEW = CFG.slew_rate  # 1/6 effort per second

CLEAR, NEAR = 3.0, 0.3


def sonar(blocked: set[str]) -> SonarTriple:
    return SonarTriple(
        d_left=NEAR if "L" in blocked else CLEAR,
        d_front=NEAR if "F" in blocked else CLEAR,
        d_right=NEAR if "R" in blocked else CLEAR,
    )


def occupancy(blocked: set[str]) -> RegionOccupancy:
    return region_map(sonar(blocked))


def test_mix_differential_examples():
    assert mix_differential(0.5, 0.0) == (0.5, 0.5)
    left, right = mix_differential(0.8, 0.5)
    assert left == 1.0 and right == pytest.approx(0.3)   # clamped left, right slows
    assert mix_differential(0.0, 0.5) == (0.5, -0.5)      # spin clockwise
    assert mix_differential(-0.5, 0.0) == (-0.5, -0.5)


def test_mix_differential_validation():
    with pytest.raises(ValueError):
        mix_differential(1.2, 0.0)
    with pytest.raises(ValueError):
        mix_differential(0.0, -1.2)


def test_drive_command_validation():
    with pytest.raises(ValueError):
        DriveCommand(1.5, 0.0)
    with pytest.raises(ValueError):
        DriveCommand(0.0, 0.0, posture_rate=2.0)
    assert DriveCommand(0.0, 0.0).stopped
    assert not DriveCommand(0.1, 0.0).stopped


def test_tracking_steers_toward_target():
    right = tracking_controller(0.1, CFG)   # target right of center
    assert right.left_effort > right.right_effort
    left = tracking_controller(-0.1, CFG)
    assert left.right_effort > left.left_effort
    center = tracking_controller(0.0, CFG)
    assert center.left_effort == center.right_effort == CFG.cruise


def test_tracking_linear_in_bearing():
    for bearing in (0.02, 0.05, 0.1):
        cmd = tracking_controller(bearing, CFG)
        assert cmd.left_effort - cmd.right_effort == pytest.approx(
            2.0 * CFG.kp * bearing, rel=1e-12
        )


def test_tracking_lost_target_stops():
    cmd = tracking_controller(None, CFG)
    assert cmd.stopped and cmd.mode is Mode.TRACKING


def test_tracking_large_bearing_saturates():
    cmd = tracking_controller(2.0, CFG)  # steering demand clamps before mixing
    assert cmd.left_effort <= 1.0 and cmd.right_effort >= -1.0


STRAIGHT = DriveCommand(1.0, 1.0)

# desired straight ahead against each sensor state: clear cells pass, a
# blocked front cell deflects to the free shoulder, all-blocked stops
AVOIDANCE_TABLE = {
    frozenset(): (1.0, 1.0),
    frozenset("L"): (1.0, 1.0),
    frozenset("R"): (1.0, 1.0),
    frozenset("LR"): (1.0, 1.0),
    frozenset("F"): (1.0, 0.5),
    frozenset("LF"): (1.0, 0.5),
    frozenset("FR"): (0.5, 1.0),
    frozenset("LFR"): (0.0, 0.0),
}


def test_avoidance_truth_table():
    for blocked, expected in AVOIDANCE_TABLE.items():
        out = avoidance_policy(occupancy(set(blocked)), STRAIGHT)
        assert (out.left_effort, out.right_effort) == expected, sorted(blocked)


def test_avoidance_scales_with_desired_speed():
    out = avoidance_policy(occupancy({"F"}), DriveCommand(0.6, 0.6))
    assert (out.left_effort, out.right_effort) == (0.6, 0.3)


def test_avoidance_passes_reverse_and_stop():
    everything = occupancy({"L", "F", "R"})
    reverse = DriveCommand(-1.0, -1.0)
    assert avoidance_policy(everything, reverse) is reverse
    stop = DriveCommand(0.0, 0.0)
    assert avoidance_policy(everything, stop) is stop


def test_avoidance_redirects_blocked_turns():
    # veering right into a blocked right shoulder goes straight instead
    out = avoidance_policy(occupancy({"F", "R"}), DriveCommand(1.0, 0.5))
    assert (out.left_effort, out.right_effort) == (0.5, 1.0)
    # spinning right with only R blocked keeps the spin direction change
    out = avoidance_policy(occupancy({"R"}), DriveCommand(1.0, -1.0))
    assert (out.left_effort, out.right_effort) == (1.0, 1.0)


# every sensor state, so every occupancy region_map can give
BLOCKED_SETS = [set(c) for k in range(4) for c in combinations("LFR", k)]
EFFORTS = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e-11, 1e-11))


@settings(max_examples=200, deadline=None)
@given(EFFORTS, EFFORTS, st.floats(-1.0, 1.0), st.sampled_from(list(Mode)))
@example(3e-12, 3e-12, 0.0, Mode.KEYPAD)    # rescaled this small, a veer reads as straight
def test_avoidance_never_heads_into_an_occupied_cell(left, right, posture, mode):
    desired = DriveCommand(left, right, posture, mode)
    for blocked in BLOCKED_SETS:
        occ = occupancy(blocked)
        out = avoidance_policy(occ, desired)
        heading = control._heading_region(out.left_effort, out.right_effort)
        assert heading is None or not occ.is_occupied(heading), sorted(blocked)
        assert (out.posture_rate, out.mode) == (posture, mode)


def test_avoidance_preserves_posture_and_mode():
    desired = DriveCommand(1.0, 1.0, posture_rate=0.5, mode=Mode.VOICE)
    out = avoidance_policy(occupancy({"F"}), desired)
    assert out.posture_rate == 0.5 and out.mode is Mode.VOICE


def drive(events, cfg=CFG):
    return run_events(events, cfg)


def test_keypad_forward_ramps_with_slew():
    cmds = drive([KeyPress(1.0, "8"), KeyPress(2.0, "8"), KeyPress(4.0, "8")])
    efforts = [(c.left_effort, c.right_effort) for _, c in cmds]
    assert efforts[0] == (pytest.approx(SLEW), pytest.approx(SLEW))
    assert efforts[1] == (pytest.approx(2 * SLEW), pytest.approx(2 * SLEW))
    # two seconds of budget between the second and third press
    assert efforts[2] == (pytest.approx(4 * SLEW), pytest.approx(4 * SLEW))


def test_stop_key_bypasses_slew():
    cmds = drive([KeyPress(1.0, "8"), KeyPress(1.5, "5")])
    assert cmds[-1][1].stopped
    assert cmds[-1][1].left_effort == 0.0


def test_keypad_turns_spin_in_place():
    cmds = drive([KeyPress(10.0, "6")])
    cmd = cmds[0][1]
    assert cmd.left_effort > 0 > cmd.right_effort
    cmds = drive([KeyPress(10.0, "4")])
    cmd = cmds[0][1]
    assert cmd.right_effort > 0 > cmd.left_effort


def test_mode_keys_switch_and_stop():
    state = ArbiterState(left=0.5, right=0.5, last_t=0.0)
    state, cmd = arbiter_step(state, KeyPress(1.0, "A"), CFG)
    assert state.mode is Mode.EEG
    assert cmd is not None and cmd.stopped and cmd.mode is Mode.EEG


def test_mode_key_repress_returns_to_keypad():
    events = [KeyPress(1.0, "B"), KeyPress(2.0, "B")]
    state = ArbiterState()
    for e in events:
        state, _ = arbiter_step(state, e, CFG)
    assert state.mode is Mode.KEYPAD


def test_stop_all_key_from_any_mode():
    for key in ("A", "B", "C"):
        state = ArbiterState()
        state, _ = arbiter_step(state, KeyPress(1.0, key), CFG)
        state, cmd = arbiter_step(state, KeyPress(2.0, "D"), CFG)
        assert state.mode is Mode.KEYPAD
        assert cmd is not None and cmd.stopped
    # mid-raise in EEG mode: the seat holds and the meditation history stays
    state = ArbiterState()
    state, _ = arbiter_step(state, KeyPress(1.0, "A"), CFG)
    state, _ = arbiter_step(state, EegUpdate(2.0, EegRecord(0.0, 50, 95)), CFG)
    assert state.posture is PostureState.RAISING
    history = state.med_history
    state, cmd = arbiter_step(state, KeyPress(3.0, "D"), CFG)
    assert state.mode is Mode.KEYPAD and state.posture is PostureState.HOLDING
    assert state.med_history == history == ((2.0, 95.0),)
    assert cmd == DriveCommand(0.0, 0.0, 0.0, Mode.KEYPAD)
    # 'D' in keypad mode stays there and stops
    state, cmd = arbiter_step(ArbiterState(left=0.5, right=0.5), KeyPress(1.0, "D"), CFG)
    assert state.mode is Mode.KEYPAD and cmd == DriveCommand(0.0, 0.0, 0.0, Mode.KEYPAD)


def test_drive_keys_ignored_outside_keypad():
    state = ArbiterState(mode=Mode.EEG)
    out, cmd = arbiter_step(state, KeyPress(1.0, "8"), CFG)
    assert cmd is None and out == state


def test_unknown_key_ignored():
    state = ArbiterState()
    out, cmd = arbiter_step(state, KeyPress(1.0, "#"), CFG)
    assert cmd is None and out == state


def test_eeg_updates_only_apply_in_eeg_mode():
    record = EegRecord(0.0, 50, 90)
    state = ArbiterState()  # keypad mode
    out, cmd = arbiter_step(state, EegUpdate(1.0, record), CFG)
    assert cmd is None and out == state


def test_first_eeg_sample_can_raise_the_seat():
    # mode key, then one strong meditation sample: the seat starts moving
    # immediately, before the smoothing window fills
    state = ArbiterState()
    state, _ = arbiter_step(state, KeyPress(1.0, "A"), CFG)
    state, cmd = arbiter_step(state, EegUpdate(2.0, EegRecord(0.0, 50, 100)), CFG)
    assert cmd is not None and cmd.posture_rate > 0
    assert state.posture is PostureState.RAISING


def test_eeg_dead_band_holds_state():
    state = ArbiterState()
    state, _ = arbiter_step(state, KeyPress(0.0, "A"), CFG)
    rates = []
    for i, med in enumerate((80, 50, 30, 50)):
        state, cmd = arbiter_step(state, EegUpdate(1.0 + i, EegRecord(0.0, 50, med)), CFG)
        rates.append(cmd.posture_rate)
    # raise, hold (dead band), lower, still lowering
    assert rates[0] > 0
    assert rates[1] > 0
    assert rates[2] < 0
    assert rates[3] < 0


def test_leaving_eeg_mode_holds_the_seat():
    state = ArbiterState()
    state, _ = arbiter_step(state, KeyPress(1.0, "A"), CFG)
    state, _ = arbiter_step(state, EegUpdate(2.0, EegRecord(0.0, 50, 95)), CFG)
    assert state.posture is PostureState.RAISING
    state, cmd = arbiter_step(state, KeyPress(3.0, "A"), CFG)
    assert cmd is not None and cmd.stopped and cmd.posture_rate == 0.0
    assert state.posture is PostureState.HOLDING


def test_reentering_eeg_mode_clears_history():
    state = ArbiterState()
    state, _ = arbiter_step(state, KeyPress(1.0, "A"), CFG)
    for i in range(4):
        state, _ = arbiter_step(state, EegUpdate(2.0 + i, EegRecord(0.0, 50, 90)), CFG)
    assert len(state.med_history) == 4
    state, _ = arbiter_step(state, KeyPress(6.0, "A"), CFG)  # leave
    state, _ = arbiter_step(state, KeyPress(7.0, "A"), CFG)  # re-enter
    assert state.med_history == ()


def test_eeg_history_window_is_bounded():
    state = ArbiterState()
    state, _ = arbiter_step(state, KeyPress(0.0, "A"), CFG)
    for i in range(40):
        state, _ = arbiter_step(state, EegUpdate(1.0 + i, EegRecord(0.0, 50, 55)), CFG)
    assert len(state.med_history) == CFG.eeg_window


@pytest.mark.parametrize(
    "meditation, posture",
    [
        ((94, 28, 82, 68, 1), PostureState.LOWERING),   # fit ends just under 1
        ((73, 98, 9, 100), PostureState.RAISING),       # fit ends just over 100
    ],
)
def test_smoothed_meditation_overshoot_stays_on_the_headset_scale(meditation, posture):
    state = ArbiterState()
    state, _ = arbiter_step(state, KeyPress(0.0, "A"), CFG)
    for i, med in enumerate(meditation):
        state, cmd = arbiter_step(state, EegUpdate(1.0 + i, EegRecord(0.0, 50, med)), CFG)
    assert cmd is not None and state.posture is posture


def reference_smoothed_meditation(history, cfg):
    """The arbiter's smoothing as it was: the whole window smoothed, last value kept."""
    if len(history) < 3:
        return history[-1][1]
    return min(100.0, max(1.0, loess_smooth(list(history), cfg.loess)[-1][1]))


@st.composite
def eeg_mode_runs(draw):
    """A mode key, then headset samples at uneven times, with mode re-entries."""
    # windows past numpy's 128-element summation block, and runs long
    # enough to fill them
    cfg = ArbiterConfig(
        eeg_window=draw(st.integers(3, 200)),
        loess=LoessConfig(span=draw(st.floats(0.05, 1.0))),
    )
    t = draw(st.sampled_from([0.0, 1e6]))
    events = [KeyPress(t, "A")]
    for _ in range(draw(st.integers(1, 250))):
        t += draw(st.floats(1e-3, 5.0))
        if draw(st.integers(0, 19)) == 0:
            events += [KeyPress(t, "A"), KeyPress(t, "A")]  # leave and re-enter: history clears
        else:
            events.append(EegUpdate(t, EegRecord(t, 50, draw(st.integers(1, 100)))))
    return cfg, events


@settings(max_examples=150, deadline=None)
@given(eeg_mode_runs())
def test_arbiter_eeg_path_matches_whole_window_smoothing(run):
    cfg, events = run

    def fold():
        state, out = ArbiterState(), []
        for event in events:
            state, cmd = arbiter_step(state, event, cfg)
            out.append((state, cmd))
        return out

    got = fold()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(control, "_smoothed_meditation", reference_smoothed_meditation)
        want = fold()
    assert got == want


def test_voice_commands_only_apply_in_voice_mode():
    state = ArbiterState()
    out, cmd = arbiter_step(state, VoiceCommand(1.0, "FORWARD"), CFG)
    assert cmd is None and out == state


def test_voice_drive_and_posture():
    events = [
        KeyPress(1.0, "B"),
        VoiceCommand(2.0, "FORWARD"),
        VoiceCommand(3.0, "RAISE"),
        VoiceCommand(4.0, "STOP"),
    ]
    cmds = drive(events)
    assert [c.mode for _, c in cmds] == [Mode.VOICE] * 4
    assert cmds[1][1].left_effort > 0
    raise_cmd = cmds[2][1]
    assert raise_cmd.posture_rate == CFG.posture_rate and raise_cmd.stopped
    assert cmds[3][1].stopped


# distinct speed and turn efforts per mode, and a slew budget that never binds
DRIVE_CFG = ArbiterConfig(keypad_speed=0.7, keypad_turn=0.3, voice_speed=0.4, voice_turn=0.2,
                          posture_rate=0.6, accel_cap=1e6)


@pytest.mark.parametrize(
    "mode, event, v, omega, posture",
    [
        (Mode.KEYPAD, KeyPress(1.0, "8"), 0.7, 0.0, 0.0),
        (Mode.KEYPAD, KeyPress(1.0, "2"), -0.7, 0.0, 0.0),
        (Mode.KEYPAD, KeyPress(1.0, "4"), 0.0, -0.3, 0.0),
        (Mode.KEYPAD, KeyPress(1.0, "6"), 0.0, 0.3, 0.0),
        (Mode.KEYPAD, KeyPress(1.0, "5"), 0.0, 0.0, 0.0),
        (Mode.VOICE, VoiceCommand(1.0, "FORWARD"), 0.4, 0.0, 0.0),
        (Mode.VOICE, VoiceCommand(1.0, "BACK"), -0.4, 0.0, 0.0),
        (Mode.VOICE, VoiceCommand(1.0, "LEFT"), 0.0, -0.2, 0.0),
        (Mode.VOICE, VoiceCommand(1.0, "RIGHT"), 0.0, 0.2, 0.0),
        (Mode.VOICE, VoiceCommand(1.0, "STOP"), 0.0, 0.0, 0.0),
        (Mode.VOICE, VoiceCommand(1.0, "RAISE"), 0.0, 0.0, 0.6),
        (Mode.VOICE, VoiceCommand(1.0, "LOWER"), 0.0, 0.0, -0.6),
    ],
)
def test_drive_tables_scale_speed_and_turn(mode, event, v, omega, posture):
    # from rest the command reaches the drivers exactly: left = v + omega, right = v - omega
    state = ArbiterState(mode=mode)
    out, cmd = arbiter_step(state, event, DRIVE_CFG)
    assert cmd == DriveCommand(v + omega, v - omega, posture, mode)
    assert (out.left, out.right, out.last_t) == (v + omega, v - omega, 1.0)


def test_voice_unknown_symbol_ignored():
    state = ArbiterState(mode=Mode.VOICE)
    out, cmd = arbiter_step(state, VoiceCommand(1.0, "DANCE"), CFG)
    assert cmd is None and out == state


def test_track_updates_only_apply_in_tracking_mode():
    state = ArbiterState()
    out, cmd = arbiter_step(state, TrackUpdate(1.0, 0.1), CFG)
    assert cmd is None and out == state


def test_tracking_mode_follows_bearings():
    events = [KeyPress(1.0, "C"), TrackUpdate(10.0, 0.1), TrackUpdate(11.0, None)]
    cmds = drive(events)
    follow = cmds[1][1]
    assert follow.left_effort > follow.right_effort > 0
    assert cmds[2][1].stopped


def test_sonar_updates_gate_later_commands():
    events = [
        SonarUpdate(1.0, sonar({"F"})),
        KeyPress(10.0, "8"),
    ]
    cmds = drive(events)
    cmd = cmds[0][1]
    # plenty of slew budget by t=10: the veer shape comes through intact
    assert cmd.right_effort == pytest.approx(cmd.left_effort / 2.0)


def test_touch_target_commands_nothing():
    state = ArbiterState()
    out, cmd = arbiter_step(state, TouchTarget(1.0, 55.0, 40.5), CFG)
    assert cmd is None and out == state


def test_effort_cap_limits_commands():
    cfg = ArbiterConfig(effort_cap=0.25)
    cmds = run_events([KeyPress(100.0, "8")], cfg)  # huge slew budget
    cmd = cmds[0][1]
    assert cmd.left_effort == cmd.right_effort == 0.25


def test_slew_budget_uses_elapsed_time():
    cmds = drive([KeyPress(0.5, "8"), KeyPress(0.6, "8")])
    first = cmds[0][1].left_effort
    second = cmds[1][1].left_effort
    assert first == pytest.approx(0.5 * SLEW)
    assert second - first == pytest.approx(0.1 * SLEW)


@st.composite
def event_streams(draw):
    """``(cfg, events)``: every event type in time order, mode keys included,
    under random speeds, caps and slew rates."""
    unit = st.floats(0.0, 1.0)
    cfg = ArbiterConfig(
        keypad_speed=draw(unit), keypad_turn=draw(unit), voice_speed=draw(unit),
        voice_turn=draw(unit), cruise=draw(unit), kp=draw(st.floats(0.0, 5.0)),
        accel_cap=draw(st.floats(0.05, 5.0)), speed_scale=draw(st.floats(0.5, 5.0)),
        effort_cap=draw(st.floats(0.05, 1.0)),
    )
    t = draw(st.sampled_from([0.0, 1e6]))
    events = []
    for _ in range(draw(st.integers(1, 80))):
        kind = draw(st.sampled_from(["key", "key", "voice", "eeg", "track", "sonar", "touch"]))
        # equal times are allowed, except between headset samples
        t += draw(st.floats(1e-3, 2.0) if kind == "eeg" else st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
        if kind == "key":
            events.append(KeyPress(t, draw(st.sampled_from("82465ABCD"))))
        elif kind == "voice":
            events.append(VoiceCommand(t, draw(st.sampled_from(
                ["FORWARD", "BACK", "LEFT", "RIGHT", "STOP", "RAISE", "LOWER"]))))
        elif kind == "eeg":
            events.append(EegUpdate(t, EegRecord(t, 50, draw(st.integers(1, 100)))))
        elif kind == "track":
            events.append(TrackUpdate(t, draw(st.one_of(st.none(), st.floats(-3.0, 3.0)))))
        elif kind == "sonar":
            reading = st.floats(0.05, 4.0)
            events.append(SonarUpdate(t, SonarTriple(draw(reading), draw(reading), draw(reading))))
        else:
            events.append(TouchTarget(t, draw(st.floats(0.0, 640.0)), draw(st.floats(0.0, 480.0))))
    return cfg, events


@settings(max_examples=150, deadline=None)
@given(event_streams())
def test_arbiter_efforts_stay_capped_and_slew_limited(stream):
    # |effort| <= effort_cap always; a command that is not a stop moves each
    # effort by at most slew_rate * dt since the last command
    cfg, events = stream
    state = ArbiterState()
    for event in events:
        new, cmd = arbiter_step(state, event, cfg)
        if cmd is not None:
            budget = cfg.slew_rate * max(0.0, event.t - state.last_t)
            for before, after in ((state.left, cmd.left_effort), (state.right, cmd.right_effort)):
                assert abs(after) <= cfg.effort_cap
                if not cmd.stopped:
                    assert abs(after - before) <= budget + 1e-12
        state = new


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="_emit applies the slew limit after avoidance, so a redirected "
                          "command can be slewed back into the occupied cell")
def test_slew_limited_redirect_never_heads_into_an_occupied_cell():
    # twelve forward presses 0.1 s apart ramp both tracks to 11/60; with the
    # front and right blocked, avoidance turns the next press into the FL
    # veer (0.5, 1.0), but the slew budget of 1/30 raises both tracks alike,
    # to 0.2167, which heads straight into F
    events = [KeyPress(0.1 * k, "8") for k in range(12)]
    events += [SonarUpdate(1.25, SonarTriple(d_left=3.0, d_front=0.3, d_right=0.3)), KeyPress(1.3, "8")]
    state = ArbiterState()
    for event in events:
        state, cmd = arbiter_step(state, event, CFG)
    heading = control._heading_region(cmd.left_effort, cmd.right_effort)
    assert heading is None or not state.occupancy.is_occupied(heading)


def test_run_events_rejects_time_going_backwards():
    events = [KeyPress(1.0, "8"), KeyPress(2.0, "8"), KeyPress(2.0, "5"), KeyPress(1.5, "8")]
    with pytest.raises(ValueError, match=r"event 3 at t=1\.5 is earlier than event 2 at t=2\.0"):
        run_events(events, CFG)
    assert len(run_events(events[:3], CFG)) == 3  # equal timestamps are allowed


def _eeg(t: float) -> EegUpdate:
    return EegUpdate(t, EegRecord(t, 50, 60))


@pytest.mark.parametrize(
    "events, t",
    [
        # in EEG mode, with too few samples in the window for the smoother to see it
        ([KeyPress(0.0, "A"), KeyPress(0.5, "?"), _eeg(1.0), _eeg(1.0)], 1),
        # in keypad mode, where the arbiter ignores headset samples
        ([KeyPress(0.5, "?"), _eeg(1.0), _eeg(1.0), _eeg(1.0)], 1),
        # in EEG mode, with three samples in the window
        ([KeyPress(0.0, "A"), _eeg(1.0), _eeg(2.0), KeyPress(2.0, "?"), _eeg(2.0)], 2),
    ],
    ids=["eeg-mode", "keypad-mode", "after-a-sample"],
)
def test_run_events_rejects_two_eeg_events_at_one_time(caplog, events, t):
    # the stream is checked before any event is folded, so the unknown key
    # ahead of the duplicate logs nothing
    with caplog.at_level(logging.WARNING, logger=control.__name__):
        with pytest.raises(ValueError, match=f"^two eeg events at t = {t} s$"):
            run_events(events, CFG)
    assert caplog.records == []


def test_replay_is_deterministic():
    rng = np.random.default_rng(12)
    events = []
    t = 0.0
    keys = ["8", "2", "4", "6", "5", "A", "B", "C", "D"]
    for _ in range(120):
        t += float(rng.uniform(0.05, 0.5))
        roll = rng.integers(0, 4)
        if roll == 0:
            events.append(KeyPress(t, keys[int(rng.integers(0, len(keys)))]))
        elif roll == 1:
            events.append(
                SonarUpdate(
                    t,
                    SonarTriple(
                        *(float(x) for x in rng.uniform(0.2, 4.0, size=3))
                    ),
                )
            )
        elif roll == 2:
            events.append(EegUpdate(t, EegRecord(0.0, 50, int(rng.integers(1, 101)))))
        else:
            events.append(TrackUpdate(t, float(rng.uniform(-0.4, 0.4))))
    a = run_events(events, CFG)
    b = run_events(events, CFG)
    assert a == b
    # all emitted efforts respect the global bounds
    for _, cmd in a:
        assert -1.0 <= cmd.left_effort <= 1.0
        assert -1.0 <= cmd.right_effort <= 1.0


# one literal line per payload form; EEG records take the event time
EVENT_LINES = [
    ('{"t": 1.0, "type": "key", "payload": {"key": "8"}}', KeyPress(1.0, "8")),
    ('{"t": 2.0, "type": "voice", "payload": {"symbol": "STOP"}}', VoiceCommand(2.0, "STOP")),
    ('{"t": 3.0, "type": "eeg", "payload": {"attention": 40, "meditation": 60}}',
     EegUpdate(3.0, EegRecord(3.0, 40, 60))),
    ('{"t": 4.0, "type": "touch", "payload": {"px": 12.5, "py": 30}}', TouchTarget(4.0, 12.5, 30.0)),
    ('{"t": 5.0, "type": "sonar", "payload": {"d_left": 1.0, "d_front": 2.0, "d_right": 3.0}}',
     SonarUpdate(5.0, SonarTriple(1.0, 2.0, 3.0))),
    ('{"t": 6.0, "type": "track", "payload": {"bearing": 0.25}}', TrackUpdate(6.0, 0.25)),
    ('{"t": 7.0, "type": "track", "payload": {"lost": true}}', TrackUpdate(7.0, None)),
]


def test_event_decoding_from_literal_lines():
    for line, event in EVENT_LINES:
        assert event_from_dict(json.loads(line)) == event
    sonar = event_from_dict(json.loads(
        '{"t": 0, "type": "sonar", "payload": {"d_left": 1, "d_front": 2, "d_right": 3,'
        ' "max_range": 5, "threshold": 0.8}}'
    ))
    assert sonar == SonarUpdate(0.0, SonarTriple(1.0, 2.0, 3.0, max_range=5.0, threshold=0.8))


def test_event_log_reads_literal_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join(line for line, _ in EVENT_LINES) + "\n\n")
    assert read_event_log(path) == [event for _, event in EVENT_LINES]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_event_log_takes_the_line_breaks_of_text_mode(tmp_path, newline):
    path = tmp_path / "events.jsonl"
    path.write_bytes(newline.join(line for line, _ in EVENT_LINES).encode() + b"\n")
    assert read_event_log(path) == [event for _, event in EVENT_LINES]
    path.write_bytes(b'{"t": 1.0, "type": "key", "payload": {"key": "8"}}' + newline.encode() + b"not json")
    with pytest.raises(ValueError, match=r"events\.jsonl:2: "):
        read_event_log(path)


def test_event_log_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1.0, "type": "key", "payload": {"key": "8"}}\nnot json\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        read_event_log(path)


def test_command_formatting():
    d = command_to_dict(1.0, DriveCommand(1 / 3, 0.0, 0.0, Mode.KEYPAD))
    assert d["left"] == pytest.approx(1 / 3, abs=1e-9)
    assert d["mode"] == "Keypad"


def test_protocol_lines_mark_mode_changes():
    cmds = drive(
        [KeyPress(1.0, "8"), KeyPress(2.0, "B"), VoiceCommand(3.0, "FORWARD")]
    )
    lines = protocol_lines(cmds)
    assert lines[0] == "MODE Keypad"
    assert lines[2] == "MODE Voice"
    assert sum(1 for l in lines if l.startswith("MODE ")) == 2
    assert all(l.startswith(("MODE ", "CMD ")) for l in lines)
