"""Teleoperation control stack as a pure state machine.

A single ordered stream of events (key presses, voice symbols, headset
updates, touch targets, sonar readings, tracker updates) drives one arbiter.
The keypad is the default mode and stays in charge of mode selection in
every mode; events that belong to an inactive mode are ignored.  Each event
produces at most one drive command, and every emitted command has passed
the same pipeline: desired efforts -> obstacle avoidance -> acceleration
slew limit -> effort cap.

arbiter_step is a pure function of (state, event).  Replaying the same
event log therefore reproduces the same command log byte for byte, which is
how scenario regression fixtures are checked.

Keymap ('2'/'8'/'4'/'6' = reverse/forward/spin-left/spin-right, '5' stop,
'A'/'B'/'C' toggle the EEG, voice and tracking modes, 'D' returns to keypad
mode and stops) follows hex-keypad layout; it and the voice lexicon are
plumbing conventions of this package, not device facts.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .drivetrain import DESIGN_ACCEL, _cut
from .eeg import _HYSTERESIS_HI, _HYSTERESIS_LO
from .eeg import EegRecord, LoessConfig, PostureState, loess_last, posture_transition
from .perception.sonar import RegionOccupancy, SonarTriple, region_map

__all__ = [
    "Mode",
    "KeyPress",
    "VoiceCommand",
    "EegUpdate",
    "TouchTarget",
    "SonarUpdate",
    "TrackUpdate",
    "ControlEvent",
    "DriveCommand",
    "ArbiterConfig",
    "ArbiterState",
    "arbiter_step",
    "run_events",
    "avoidance_policy",
    "mix_differential",
    "tracking_controller",
    "event_from_dict",
    "read_event_log",
    "command_to_dict",
    "protocol_lines",
]

log = logging.getLogger(__name__)


class Mode(Enum):
    KEYPAD = "Keypad"
    EEG = "Eeg"
    VOICE = "Voice"
    TRACKING = "Tracking"


@dataclass(frozen=True)
class KeyPress:
    t: float
    key: str


@dataclass(frozen=True)
class VoiceCommand:
    t: float
    symbol: str


@dataclass(frozen=True)
class EegUpdate:
    t: float
    record: EegRecord


@dataclass(frozen=True)
class TouchTarget:
    t: float
    px: float
    py: float


@dataclass(frozen=True)
class SonarUpdate:
    t: float
    triple: SonarTriple


@dataclass(frozen=True)
class TrackUpdate:
    t: float
    bearing: float | None  # None means the tracker lost the target


ControlEvent = KeyPress | VoiceCommand | EegUpdate | TouchTarget | SonarUpdate | TrackUpdate


def _clamp(x: float, lim: float = 1.0) -> float:
    return min(lim, max(-lim, x))


@dataclass(frozen=True)
class DriveCommand:
    """One command to the drivers: track efforts and seat rate, all in [-1, 1]."""

    left_effort: float
    right_effort: float
    posture_rate: float = 0.0
    mode: Mode = Mode.KEYPAD

    def __post_init__(self):
        if not (-1.0 <= self.left_effort <= 1.0 and -1.0 <= self.right_effort <= 1.0
                and -1.0 <= self.posture_rate <= 1.0):
            for name in ("left_effort", "right_effort", "posture_rate"):
                v = getattr(self, name)
                if not -1.0 <= v <= 1.0:
                    raise ValueError(f"{name} out of [-1, 1]: {v}")

    @property
    def stopped(self) -> bool:
        return self.left_effort == 0.0 and self.right_effort == 0.0


def mix_differential(v: float, omega: float) -> tuple[float, float]:
    """Mix forward speed and turn rate into per-track efforts.

    A positive turn rate speeds up the left track, so it turns the robot
    clockwise (to the right).  Both outputs are clamped to [-1, 1].
    """
    if abs(v) > 1.0 or abs(omega) > 1.0:
        raise ValueError(f"|v| and |omega| must be <= 1 (got {v}, {omega})")
    return (_clamp(v + omega), _clamp(v - omega))


# the field-of-view cells a command can head into
_F, _FR, _FL, _R, _L = (frozenset(cell) for cell in ("F", "FR", "FL", "R", "L"))

# avoidance candidates in preference order: straight, then the smaller turn,
# right before left on equal magnitude; each maps to a field-of-view cell
_CANDIDATES: tuple[tuple[frozenset[str], tuple[float, float]], ...] = (
    (_F, (1.0, 1.0)),
    (_FR, (1.0, 0.5)),
    (_FL, (0.5, 1.0)),
    (_R, (1.0, -1.0)),
    (_L, (-1.0, 1.0)),
)


def _heading_region(left: float, right: float) -> frozenset[str] | None:
    """The field-of-view cell a command drives into; None when unsensed.

    Stopped and reversing commands have no forward heading (the rear is not
    covered by the sonar fan), so they return None and avoidance passes
    them through.
    """
    eps = 1e-12
    v = (left + right) / 2.0
    omega = (left - right) / 2.0
    if v > eps:
        if abs(omega) <= eps:
            return _F
        return _FR if omega > 0 else _FL
    if abs(v) <= eps and abs(omega) > eps:
        return _R if omega > 0 else _L
    return None


def avoidance_policy(occ: RegionOccupancy, desired: DriveCommand) -> DriveCommand:
    """Redirect a command away from occupied field-of-view cells.

    If the cell the desired command drives into is clear, the command passes
    through unchanged.  Otherwise the first clear candidate heading wins
    (straight, veer right, veer left, spin right, spin left), rescaled to
    the desired speed; with every candidate blocked the command degrades to
    a full stop.  A candidate counts only if it still heads into its own
    cell once rescaled: below about 4e-12 the veers read as straight.
    """
    heading = _heading_region(desired.left_effort, desired.right_effort)
    if heading is None or not occ.is_occupied(heading):
        return desired
    speed = max(abs(desired.left_effort), abs(desired.right_effort))
    for region, (l_scale, r_scale) in _CANDIDATES:
        left, right = l_scale * speed, r_scale * speed
        if not occ.is_occupied(region) and _heading_region(left, right) == region:
            return DriveCommand(left, right, desired.posture_rate, desired.mode)
    return DriveCommand(0.0, 0.0, desired.posture_rate, desired.mode)


@dataclass(frozen=True)
class ArbiterConfig:
    """Tunable constants of the arbiter; defaults suit the demo scenarios."""

    keypad_speed: float = 1.0    # effort for '8'/'2'
    keypad_turn: float = 0.5     # spin effort for '4'/'6'
    voice_speed: float = 0.5
    voice_turn: float = 0.5
    cruise: float = 0.5          # tracking-mode forward effort
    kp: float = 1.5              # tracking steering gain, per rad of bearing
    posture_rate: float = 1.0    # seat rate magnitude
    accel_cap: float = DESIGN_ACCEL  # m/s^2, from the drive sizing
    speed_scale: float = 3.0     # m/s of ground speed at effort 1.0
    effort_cap: float = 1.0      # active speed cap, as an effort bound
    eeg_window: int = 15         # trailing samples kept for smoothing
    loess: LoessConfig = field(default_factory=LoessConfig)
    hysteresis_lo: float = _HYSTERESIS_LO
    hysteresis_hi: float = _HYSTERESIS_HI

    def __post_init__(self):
        if not 0.0 < self.effort_cap <= 1.0:
            raise ValueError("effort_cap must lie in (0, 1]")
        if not (self.accel_cap > 0 and self.speed_scale > 0):
            raise ValueError("accel_cap and speed_scale must be positive")
        if math.isnan(self.kp):
            raise ValueError("kp must be a number")
        if not (self.hysteresis_lo < self.hysteresis_hi):
            raise ValueError(
                f"need hysteresis_lo < hysteresis_hi (got {self.hysteresis_lo}, {self.hysteresis_hi})"
            )
        if self.eeg_window < 3:
            raise ValueError("eeg_window must be >= 3")
        for name in ("keypad_speed", "keypad_turn", "voice_speed", "voice_turn",
                     "cruise", "posture_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def slew_rate(self) -> float:
        """Max effort change per second implied by the acceleration cap."""
        return self.accel_cap / self.speed_scale


@dataclass(frozen=True)
class ArbiterState:
    """Everything the arbiter remembers between events.

    The arbiter builds each new state positionally, in this field order.
    """

    mode: Mode = Mode.KEYPAD
    occupancy: RegionOccupancy = field(default_factory=lambda: RegionOccupancy(frozenset()))
    left: float = 0.0            # efforts currently at the drivers
    right: float = 0.0
    last_t: float = 0.0          # time the drivers last got a command
    posture: PostureState = PostureState.HOLDING
    med_history: tuple[tuple[float, float], ...] = ()


_MODE_KEYS = {"A": Mode.EEG, "B": Mode.VOICE, "C": Mode.TRACKING, "D": Mode.KEYPAD}

# drive symbol -> (speed scale, turn scale); None stops the tracks
_KEYPAD_DRIVE = {"8": (1.0, 0.0), "2": (-1.0, 0.0), "4": (0.0, -1.0), "6": (0.0, 1.0), "5": None}
_VOICE_DRIVE = {
    "FORWARD": (1.0, 0.0),
    "BACK": (-1.0, 0.0),
    "LEFT": (0.0, -1.0),
    "RIGHT": (0.0, 1.0),
    "STOP": None,
}


def tracking_controller(bearing: float | None, cfg: ArbiterConfig = ArbiterConfig()) -> DriveCommand:
    """Steer proportionally onto a target bearing; stop when it is lost.

    The steering law turns the heading toward the target: turn rate
    -kp * bearing, positive counterclockwise.  A lost target stops the
    robot and leaves it waiting for a new one.
    """
    if bearing is None:
        return DriveCommand(0.0, 0.0, 0.0, Mode.TRACKING)
    omega = -cfg.kp * bearing
    # mix_differential's turn argument is clockwise-positive, so flip sign;
    # clamp first so the mix preconditions hold for any bearing
    left, right = mix_differential(cfg.cruise, _clamp(-omega))
    return DriveCommand(left, right, 0.0, Mode.TRACKING)


def _smoothed_meditation(history: tuple[tuple[float, float], ...], cfg: ArbiterConfig) -> float:
    # the smoother needs three points; before that the raw value drives the band
    if len(history) < 3:
        return history[-1][1]
    # a local fit can overshoot the samples; the headset scale is [1, 100]
    return min(100.0, max(1.0, loess_last(history, cfg.loess)))


def _emit(
    state: ArbiterState,
    cfg: ArbiterConfig,
    t: float,
    desired: DriveCommand,
) -> tuple[ArbiterState, DriveCommand]:
    """Run one desired command through avoidance, slew limit and caps."""
    cmd = avoidance_policy(state.occupancy, desired)
    if cmd.stopped:
        # stops (operator, voice, lost target, avoidance dead end) take
        # effect immediately; the accel cap governs speed-ups only
        left, right = 0.0, 0.0
    else:
        budget = cfg.slew_rate * max(0.0, t - state.last_t)
        left = state.left + _clamp(cmd.left_effort - state.left, budget)
        right = state.right + _clamp(cmd.right_effort - state.right, budget)
        left = _clamp(left, cfg.effort_cap)
        right = _clamp(right, cfg.effort_cap)
    out = DriveCommand(left, right, _clamp(cmd.posture_rate), cmd.mode)
    new_state = ArbiterState(
        state.mode, state.occupancy, left, right, t, state.posture, state.med_history
    )
    return new_state, out


def _switch_mode(
    state: ArbiterState, cfg: ArbiterConfig, t: float, target: Mode
) -> tuple[ArbiterState, DriveCommand]:
    # every mode change stops the tracks and freezes the seat: leaving EEG
    # mode mid-raise holds position rather than continuing.  A mode key
    # re-pressed, and 'D' from any mode, lands in keypad mode.
    entering = state.mode is not target
    new_mode = target if entering else Mode.KEYPAD
    state = ArbiterState(
        new_mode, state.occupancy, state.left, state.right, state.last_t,
        PostureState.HOLDING, () if new_mode is Mode.EEG else state.med_history,
    )
    return _emit(state, cfg, t, DriveCommand(0.0, 0.0, 0.0, new_mode))


def _drive(
    state: ArbiterState,
    cfg: ArbiterConfig,
    t: float,
    scales: tuple[float, float] | None,
    speed: float,
    turn: float,
    mode: Mode,
) -> tuple[ArbiterState, DriveCommand]:
    """Emit one drive-table entry, scaled by the mode's speed and turn efforts."""
    if scales is None:
        left, right = 0.0, 0.0
    else:
        left, right = mix_differential(scales[0] * speed, scales[1] * turn)
    return _emit(state, cfg, t, DriveCommand(left, right, 0.0, mode))


def arbiter_step(
    state: ArbiterState, event: ControlEvent, cfg: ArbiterConfig = ArbiterConfig()
) -> tuple[ArbiterState, DriveCommand | None]:
    """Process one event; returns the new state and at most one command.

    Pure: same (state, event, cfg) always gives the same result.  Unknown
    keys and voice symbols are ignored with a logged diagnostic.
    """
    if isinstance(event, KeyPress):
        if event.key in _MODE_KEYS:
            return _switch_mode(state, cfg, event.t, _MODE_KEYS[event.key])
        if event.key in _KEYPAD_DRIVE:
            if state.mode is not Mode.KEYPAD:
                return state, None
            return _drive(state, cfg, event.t, _KEYPAD_DRIVE[event.key],
                          cfg.keypad_speed, cfg.keypad_turn, Mode.KEYPAD)
        log.warning("ignoring unknown key %r", event.key)
        return state, None

    if isinstance(event, SonarUpdate):
        # occupancy feeds the avoidance filter of later motion commands
        return ArbiterState(
            state.mode, region_map(event.triple), state.left, state.right, state.last_t,
            state.posture, state.med_history,
        ), None

    if isinstance(event, TouchTarget):
        # target selection happens in perception; the arbiter has no use for it
        return state, None

    if isinstance(event, EegUpdate):
        if state.mode is not Mode.EEG:
            return state, None
        history = (state.med_history + ((event.t, float(event.record.meditation)),))
        history = history[-cfg.eeg_window :]
        smoothed = _smoothed_meditation(history, cfg)
        posture = posture_transition(
            smoothed, state.posture, cfg.hysteresis_lo, cfg.hysteresis_hi
        )
        rate = posture.seat_rate(cfg.posture_rate)
        state = ArbiterState(
            state.mode, state.occupancy, state.left, state.right, state.last_t, posture, history
        )
        return _emit(state, cfg, event.t, DriveCommand(0.0, 0.0, rate, Mode.EEG))

    if isinstance(event, VoiceCommand):
        if state.mode is not Mode.VOICE:
            return state, None
        sym = event.symbol
        if sym in _VOICE_DRIVE:
            return _drive(state, cfg, event.t, _VOICE_DRIVE[sym],
                          cfg.voice_speed, cfg.voice_turn, Mode.VOICE)
        if sym in ("RAISE", "LOWER"):
            rate = cfg.posture_rate if sym == "RAISE" else -cfg.posture_rate
            return _emit(state, cfg, event.t, DriveCommand(0.0, 0.0, rate, Mode.VOICE))
        log.warning("ignoring unknown voice symbol %r", sym)
        return state, None

    if isinstance(event, TrackUpdate):
        if state.mode is not Mode.TRACKING:
            return state, None
        return _emit(state, cfg, event.t, tracking_controller(event.bearing, cfg))

    raise TypeError(f"unknown event type: {type(event).__name__}")


def run_events(events, cfg: ArbiterConfig = ArbiterConfig()) -> list[tuple[float, DriveCommand]]:
    """Fold a whole event sequence from the initial state, collecting timestamped commands.

    The whole sequence is checked before any event is folded: a ValueError
    is raised when an event is earlier than the one before it, or when two
    headset samples share a time (the smoother needs strictly increasing
    headset times).
    """
    events = list(events)
    last = last_eeg = -math.inf
    for i, event in enumerate(events):
        if event.t < last:
            raise ValueError(f"event {i} at t={event.t} is earlier than event {i - 1} at t={last}")
        last = event.t
        if isinstance(event, EegUpdate):
            if event.t == last_eeg:
                raise ValueError(f"two eeg events at t = {_fmt(event.t)} s")
            last_eeg = event.t
    state = ArbiterState()
    out: list[tuple[float, DriveCommand]] = []
    for event in events:
        state, cmd = arbiter_step(state, event, cfg)
        if cmd is not None:
            out.append((event.t, cmd))
    return out


# event log reading: JSON lines, one {t, type, payload} object each; the
# package reads logs and writes none


# JSON value kinds, which the scenario loader reads its values through too.
# Each takes one parsed value and returns it, or raises a ValueError whose
# "expected ... (got ...)" message its caller puts after the field path.
def _refused(what: str, value) -> ValueError:
    """The error for a refused value, with its repr cut by ``_cut``."""
    return ValueError(f"expected {what} (got {_cut(repr(value))})")


def _expect(kind, what: str):
    """A value kind that passes one JSON type and refuses any other; a bool
    is no number, as in JSON."""
    def convert(value):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise _refused(what, value)
        return value
    return convert


_string = _expect(str, "a string")
_integer = _expect(int, "an integer")
_bool = _expect(bool, "true or false")
_object = _expect(dict, "an object")
_json_number = _expect((int, float), "a finite number")


def _finite(value) -> float:
    # json reads NaN, Infinity and integers beyond float range; no design
    # value, event time, range, pixel or bearing may be any of them
    try:
        number = float(_json_number(value))
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _refused("a finite number", value)
    return number


def _field(obj: dict, key: str, convert, where: str = ""):
    """obj[key] through a value kind; a missing or bad value raises a
    ValueError that names the key."""
    if key not in obj:
        raise ValueError(f"missing field {where + key!r}")
    try:
        return convert(obj[key])
    except ValueError as exc:
        raise ValueError(f"field {_cut(repr(where + key))}: {exc}") from exc


# the payload keys each event type reads; any other key is refused, so a
# misspelled optional key cannot pass for an absent one
_PAYLOAD_KEYS = {
    "key": {"key"},
    "voice": {"symbol"},
    "eeg": {"attention", "meditation"},
    "touch": {"px", "py"},
    "sonar": {"d_left", "d_front", "d_right", "max_range", "threshold"},
    "track": {"bearing", "lost"},
}


def event_from_dict(obj: dict) -> ControlEvent:
    _object(obj)
    t = _field(obj, "t", _finite)
    kind = _field(obj, "type", _string)
    payload = _field(obj, "payload", _object)
    if kind not in _PAYLOAD_KEYS:
        raise ValueError(f"unknown event type: {kind!r}")
    unknown = [key for key in obj if key not in ("t", "type", "payload")]
    unknown += ["payload." + key for key in payload if key not in _PAYLOAD_KEYS[kind]]
    if unknown:
        raise ValueError(f"field {_cut(repr(unknown[0]))}: not read by a {kind} event")

    def get(key, convert):
        return _field(payload, key, convert, "payload.")

    if kind == "key":
        return KeyPress(t, get("key", _string))
    if kind == "voice":
        return VoiceCommand(t, get("symbol", _string))
    if kind == "eeg":
        return EegUpdate(t, EegRecord(t, get("attention", _integer), get("meditation", _integer)))
    if kind == "touch":
        return TouchTarget(t, get("px", _finite), get("py", _finite))
    if kind == "sonar":
        # an absent range or threshold takes SonarTriple's default, whose
        # checks name the field they refuse
        fields = ("d_left", "d_front", "d_right")
        fields += tuple(k for k in ("max_range", "threshold") if k in payload)
        return SonarUpdate(t, SonarTriple(**{k: get(k, _finite) for k in fields}))
    if "lost" in payload and get("lost", _bool):
        return TrackUpdate(t, None)
    return TrackUpdate(t, get("bearing", _finite))


def read_event_log(path) -> list[ControlEvent]:
    """The events of a UTF-8 JSON-lines log; a line that is not UTF-8, not
    JSON or no event raises a ValueError that starts with ``path:line:``."""
    events: list[ControlEvent] = []
    # bytes split at the line breaks of text mode: \n, \r\n and \r
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = line.decode().strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return events


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def command_to_dict(t: float, cmd: DriveCommand) -> dict:
    return {
        "t": float(_fmt(t)),
        "mode": cmd.mode.value,
        "left": float(_fmt(cmd.left_effort)),
        "right": float(_fmt(cmd.right_effort)),
        "posture": float(_fmt(cmd.posture_rate)),
    }


def protocol_lines(commands) -> list[str]:
    """Render a command sequence as the serial line protocol.

    A MODE line announces every mode change (including the first command);
    each command then becomes one CMD line: "CMD <left> <right> <posture>".
    """
    lines: list[str] = []
    current: Mode | None = None
    for _, cmd in commands:
        if cmd.mode is not current:
            lines.append(f"MODE {cmd.mode.value}")
            current = cmd.mode
        lines.append(
            f"CMD {_fmt(cmd.left_effort)} {_fmt(cmd.right_effort)} {_fmt(cmd.posture_rate)}"
        )
    return lines
