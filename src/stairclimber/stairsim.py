"""Time-stepped longitudinal dynamics of the robot on a staircase.

The climb is modelled along the path coordinate ``s``: a flat approach, an
engage zone where the chassis pitches up onto the stairs, the climb itself,
a crest zone where the chassis levels back out, and a flat run-out.  Engage
and crest each span one track length (the chassis rotates while the track
straddles the first/last stair nose); within them the pitch ramps linearly
with ``s``.

Per-track dynamics, driving pulley P3 (radius r) with torque tau:

    accel = (tau/r - M g sin(pitch) - c_rr M g cos(pitch)) / (M + m1)

integrated with semi-implicit Euler (velocity first, then position), which
keeps per-step applied work >= dKE + dPE for c_rr = 0.  Rolling resistance
c_rr acts as Coulomb friction: it opposes motion, and at rest it cancels net
drive up to its own magnitude.  Velocity is clamped to the active phase's
speed cap (ground cap on approach/run-out, stair cap otherwise).

The base plate is levelled by front actuators: extension maps linearly to
plate compensation angle through a lever arm, slew-limited and bounded by
the stroke.  plate_angle is the plate's absolute angle to the horizontal
(chassis pitch minus compensation).

Events are reported in the trajectory rather than raised: ``Fall`` when the
robot would roll backwards on the slope beyond a small tolerance (the run
stops there), ``ActuatorSaturation`` when the stroke cannot cover the
chassis pitch.  Runs are deterministic: identical inputs give bit-identical
trajectories.

Two implementations share the arithmetic of one step, in the same order:

- ``step`` is the reference single-step API: one frozen ``SimState`` in, the
  next one out.  A time-varying torque is ``step`` folded over a run.
- ``_climb`` runs a whole climb at a constant torque on scalar locals and
  returns (completed, fall, final speed, steps taken), which decides a
  sweep probe and ``run_climb``'s verdict.  Given lists, it also records
  each state's ``s`` and ``v``.  It skips every stretch whose force does
  not change: a constant pitch (approach, climb zone, run-out) in a tight
  loop, a fixed speed (a cruise at a cap, also part-way up or down the
  ramps) in closed form, a slowdown that stops inside its zone in closed
  form (when not recording), and a stall at rest.

``run_climb`` decides its verdict and row count with ``_climb`` alone.  Its
``Trajectory`` builds the columns and events on first access, so a caller
that reads only the verdict pays for no column.  ``_build_columns`` records
the run with ``_climb`` and then levels the plate in a second pass over the
positions: plate levelling never feeds back into the dynamics, so each
row's phase, pitch, actuator and plate follow from its position and the row
before.  The pass goes zone by zone and applies ``step``'s levelling rule
to each row; at a constant pitch, once a row leaves the actuator where it
was, the rest of the zone repeats that row.  Tests hold ``run_climb`` equal
to ``step`` folded over a run, and ``_climb``'s verdict equal to plain
stepping.

The fixed-speed stretches and the stops share one closed form,
``_advance``: IEEE-754 addition of a fixed ``c`` of either sign adds the
same number of ulps while the sum stays in one binade, so it counts the
steps before a bound without taking them.  Every shortcut does the float
operations of the steps it replaces, in the same order, wherever a later
step or a recorded row reads them, so no result changes; the kernels still
report the Coulomb-reversal ``Fall`` that ``step`` gives on baseline40 at
23 and 25 N*m.

A staircase is no steeper than the drivetrain's design stair,
``MAX_INCLINATION`` (40 deg).  Defaults for track length, plate rig and
run-out length are installation parameters, not derived from hardware
measurements; override per scenario.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import accumulate, compress, islice, repeat
from operator import attrgetter, is_, mul

from .drivetrain import MAX_INCLINATION, MotorSpec, TrackParams, _check_ranges, _ranged, min_static_torque

__all__ = [
    "Phase",
    "Staircase",
    "PlateRig",
    "SimConfig",
    "SimState",
    "Trajectory",
    "SweepProbe",
    "Unclimbable",
    "step",
    "run_climb",
    "min_torque_sweep",
    "pitch_at",
    "phase_at",
]

_FALL_TOL = 1e-6          # m/s of backward velocity tolerated before a Fall
# steps one run may take: a climb stores every step, and the longest real
# runs take tens of thousands, so more than this is a units mistake
_MAX_STEPS = 1_000_000
# relative margin on the thrust before the climb kernel skips capped steps on
# a ramp: 32 ulps of 1.0, where rounding the pitch, sin, cos, the products
# and the sum moves grade plus roll by at most about 5
_CRUISE_MARGIN = 2.0**-47


class Phase(Enum):
    APPROACH = "approach"
    ENGAGE = "engage"
    CLIMB = "climb"
    CREST = "crest"
    LEVEL = "level"


class Unclimbable(RuntimeError):
    """Even the motor-limit torque cannot complete the climb."""


@dataclass(frozen=True)
class Staircase:
    """Stair geometry.  ramp_length runs along the slope; zero means no stairs.
    The dynamics read the slope alone: step_rise is checked, never read.
    The lengths are range-checked; the inclination keeps the design cap."""

    inclination: float = MAX_INCLINATION             # rad
    step_rise: float = _ranged(0.17, 1e-3, 10)       # m
    ramp_length: float = _ranged(0.55, 0, 1e4)       # m along the slope
    approach_length: float = _ranged(0.0, 0, 1e4)    # m of flat ground before the first nose

    def __post_init__(self):
        _check_ranges(self)
        if not (0.0 < self.inclination <= MAX_INCLINATION + 1e-12):  # NaN fails too
            raise ValueError(f"inclination must lie in (0, {math.degrees(MAX_INCLINATION):.0f} deg] "
                             f"(got {math.degrees(self.inclination):.2f} deg)")


@dataclass(frozen=True)
class PlateRig:
    """Plate-levelling actuator model: extension -> compensation angle.
    Every field is range-checked."""

    lever_arm: float = _ranged(0.30, 1e-3, 100)  # m; plate angle compensated = ext / lever_arm
    max_rate: float = _ranged(0.05, 1e-6, 100)   # m/s extension slew limit
    stroke: float = _ranged(0.25, 1e-3, 100)     # m
    tolerance: float = _ranged(math.radians(1.0), 1e-3, 90, degrees=True)  # levelling tolerance during climb

    def __post_init__(self):
        _check_ranges(self)


@dataclass(frozen=True)
class SimConfig:
    """Climb settings; every number is range-checked, and duration/dt budgeted."""

    track: TrackParams
    motor: MotorSpec
    dt: float = _ranged(1e-3, 1e-9, 1e3)              # s
    duration: float = _ranged(10.0, 1e-9, 1e10)       # s
    rolling_resist_coeff: float = _ranged(0.0, 0, 10)
    ground_cap: float = _ranged(3.0, 1e-3, 100)       # m/s on approach / run-out
    stair_cap: float = _ranged(0.1, 1e-3, 100)        # m/s on engage / climb / crest
    track_length: float = _ranged(0.15, 1e-3, 100)    # m; sets engage and crest zone lengths
    level_run: float = _ranged(0.2, 0, 1e4)           # m of run-out required for completion
    plate: PlateRig = PlateRig()

    def __post_init__(self):
        _check_ranges(self)
        if not (self.duration >= self.dt):
            raise ValueError(f"need dt > 0 and duration >= dt (got dt={self.dt}, duration={self.duration})")
        steps = self.duration / self.dt
        if not round(steps) <= _MAX_STEPS:  # the ranges keep steps finite
            raise ValueError(f"duration/dt = {steps:.3g} steps exceeds the budget of {_MAX_STEPS} steps")


@dataclass(frozen=True)
class SimState:
    phase: Phase
    s: float               # m along path
    v: float               # m/s
    plate_angle: float     # rad, plate absolute angle to the horizontal
    actuator_ext: float    # m, front actuator extension
    track_torque: float    # N*m applied at the track
    t: float               # s


def _zone_bounds(stairs: Staircase, cfg: SimConfig) -> tuple[float, float, float, float]:
    """Path positions of engage start, climb start, crest start, crest end."""
    zone = cfg.track_length if stairs.ramp_length > 0 else 0.0
    engage = stairs.approach_length
    climb = engage + zone
    crest = climb + stairs.ramp_length
    end = crest + zone
    return engage, climb, crest, end


def phase_at(s: float, stairs: Staircase, cfg: SimConfig) -> Phase:
    engage, climb, crest, end = _zone_bounds(stairs, cfg)
    if s < engage:
        return Phase.APPROACH
    if s < climb:
        return Phase.ENGAGE
    if s < crest:
        return Phase.CLIMB
    if s < end:
        return Phase.CREST
    return Phase.LEVEL


def pitch_at(s: float, stairs: Staircase, cfg: SimConfig) -> float:
    """Chassis pitch along the path: linear ramps through engage and crest."""
    engage, climb, crest, end = _zone_bounds(stairs, cfg)
    if s < engage or s >= end or stairs.ramp_length <= 0:
        return 0.0
    if s < climb:
        return stairs.inclination * (s - engage) / (climb - engage)
    if s < crest:
        return stairs.inclination
    return stairs.inclination * (1.0 - (s - crest) / (end - crest))


def path_end(stairs: Staircase, cfg: SimConfig) -> float:
    """Completion position: crest end plus the configured run-out."""
    return _zone_bounds(stairs, cfg)[3] + cfg.level_run


def _speed_cap(phase: Phase, cfg: SimConfig) -> float:
    if phase in (Phase.APPROACH, Phase.LEVEL):
        return cfg.ground_cap
    return cfg.stair_cap


def initial_state(cfg: SimConfig, stairs: Staircase) -> SimState:
    return SimState(phase_at(0.0, stairs, cfg), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def step(
    state: SimState,
    applied_torque: float,
    cfg: SimConfig,
    stairs: Staircase,
) -> tuple[SimState, tuple[str, ...]]:
    """Advance one dt.  Returns the new state and any events raised this step."""
    p = cfg.track
    pitch = pitch_at(state.s, stairs, cfg)
    thrust = applied_torque / p.r
    grade = p.M * p.gravity * math.sin(pitch)
    roll_mag = cfg.rolling_resist_coeff * p.M * p.gravity * math.cos(pitch)
    inertia = p.M + p.m1

    if state.v > 0.0:
        net = thrust - grade - roll_mag
    else:
        # at rest the resistance acts like static friction
        net0 = thrust - grade
        net = 0.0 if abs(net0) <= roll_mag else net0 - math.copysign(roll_mag, net0)

    events: list[str] = []
    v_new = state.v + net / inertia * cfg.dt
    if v_new < 0.0:
        if pitch > 0.0 and v_new < -_FALL_TOL:
            events.append("Fall")
        v_new = 0.0
    v_new = min(v_new, _speed_cap(state.phase, cfg))

    s_new = state.s + v_new * cfg.dt
    phase_new = phase_at(s_new, stairs, cfg)
    # re-clamp so the stored row respects its own phase's cap
    v_new = min(v_new, _speed_cap(phase_new, cfg))

    # plate levelling: track the chassis pitch within rate and stroke limits
    rig = cfg.plate
    pitch_new = pitch_at(s_new, stairs, cfg)
    target_ext = min(pitch_new * rig.lever_arm, rig.stroke)
    delta = target_ext - state.actuator_ext
    max_move = rig.max_rate * cfg.dt
    ext_new = state.actuator_ext + max(-max_move, min(max_move, delta))
    plate_new = pitch_new - ext_new / rig.lever_arm
    if pitch_new * rig.lever_arm > rig.stroke + 1e-12 and abs(plate_new) > rig.tolerance:
        events.append("ActuatorSaturation")

    new_state = SimState(
        phase=phase_new,
        s=s_new,
        v=v_new,
        plate_angle=plate_new,
        actuator_ext=ext_new,
        track_torque=applied_torque,
        t=state.t + cfg.dt,
    )
    return new_state, tuple(events)


# a trajectory's columns, in the order of SimState's fields, and with its events
_COLUMNS = tuple(f.name for f in fields(SimState))
_BUILT = (*_COLUMNS, "events")
_columns_of = attrgetter(*_COLUMNS)
_built_of = attrgetter(*_BUILT)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A climb stored as columns: entry i of each column belongs to state i.

    The columns are the fields of ``SimState``, from the initial state to the
    last one; ``events`` holds ``(t, event name)`` pairs.  ``states`` shows
    the same rows as ``SimState`` objects.

    ``run_climb`` gives the verdict, ``peak_torque`` and the row count.  The
    columns and events are built together on first access to any of them,
    from the same run, and kept on the instance, so a caller that reads only
    the verdict or ``len(states)`` never builds them.  Equality and hashing
    read every column, the events, ``peak_torque`` and the verdict.
    """

    peak_torque: float
    completed: bool
    fall: bool
    _rows: int = field(repr=False)
    _run: tuple[SimConfig, Staircase, float] = field(repr=False)

    def __getattr__(self, name):
        # reached only for an attribute the instance does not hold yet: the
        # columns and events are built together on first access
        if name not in _BUILT:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(_build_columns(*self._run))
        return self.__dict__[name]

    def _value(self) -> tuple:
        return (*_built_of(self), self.peak_torque, self.completed, self.fall)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    @property
    def states(self) -> Sequence[SimState]:
        return _States(self)

    @property
    def final(self) -> SimState:
        return self.states[-1]

    def max_speed(self, phase: Phase | None = None) -> float:
        if phase is None:
            return max(self.v)
        return max(compress(self.v, map(is_, self.phase, repeat(phase))), default=0.0)


class _States(Sequence):
    """Read-only sequence of a trajectory's rows, each built on access.  Its
    length is the trajectory's row count, which builds no column."""

    __slots__ = ("_traj",)

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return self._traj._rows

    def __getitem__(self, i):
        cols = _columns_of(self._traj)
        if isinstance(i, slice):
            return tuple(map(SimState, *(col[i] for col in cols)))
        return SimState(*(col[i] for col in cols))

    def __iter__(self):
        return map(SimState, *_columns_of(self._traj))

    def __eq__(self, other):
        # equal to another view or to a tuple of states, as the tuple it replaces was
        if isinstance(other, _States):
            return _columns_of(self._traj) == _columns_of(other._traj)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented


def run_climb(cfg: SimConfig, stairs: Staircase, torque: float) -> Trajectory:
    """Run the full climb sequence under a constant torque.

    The run ends at completion (path end reached), on a Fall, or when the
    configured duration elapses.  Fall and ActuatorSaturation are recorded
    as events; no exception is raised for them.  A time-varying torque is
    not taken (``TypeError``): fold ``step`` over the run for one.  A NaN or
    infinite torque is a ``ValueError``: it would run the whole horizon on
    NaN rows and slew the actuator past its stroke.

    ``_climb`` decides the verdict and counts the steps without recording
    them.  The trajectory's columns and events are built on first access,
    by ``_build_columns`` of the same run; they equal ``step`` folded over
    the run.
    """
    if callable(torque):
        raise TypeError("torque must be a constant number; fold step over the run "
                        "for a time-varying torque")
    tau = float(torque)
    if not math.isfinite(tau):
        raise ValueError(f"torque must be finite (got {tau})")
    completed, fall, _, steps = _climb(cfg, stairs, tau)
    mag = abs(tau)
    return Trajectory(
        peak_torque=mag if mag > 0.0 else 0.0,   # max(0.0, abs(tau)), NaN gives 0.0
        completed=completed,
        fall=fall,
        _rows=steps + 1,
        _run=(cfg, stairs, tau),
    )


def _build_columns(cfg: SimConfig, stairs: Staircase, tau: float) -> dict[str, tuple]:
    """The columns and events of ``run_climb``'s trajectory, by name.

    ``_climb`` steps the dynamics and records each state's ``s`` and ``v``;
    the trajectory equals ``step`` folded over the run.  Plate levelling
    never feeds back into the dynamics, so a second pass derives each row's
    phase, pitch, actuator extension, plate angle and saturation from its
    position alone, with the arithmetic of ``step`` in the same order.
    ``s`` never decreases (the torque is finite, so it is never NaN), so
    ``bisect_left`` finds each zone's rows, and the pass takes them zone by
    zone: the ramps' pitches by a comprehension, then each row in turn,
    slewing the actuator toward ``min(pitch*lever_arm, stroke)`` by at most
    ``max_rate*dt``.  Where the pitch is constant and a row left the
    actuator where it was, every later row in that zone repeats it.
    """
    ss, vs = [0.0], [0.0]
    fall = _climb(cfg, stairs, tau, ss, vs)[1]
    n = len(ss)
    ts = tuple(accumulate(repeat(cfg.dt, n - 1), initial=0.0))

    rig = cfg.plate
    engage, climb, crest, end = _zone_bounds(stairs, cfg)
    inc = stairs.inclination
    ramp_in = climb - engage
    ramp_out = end - crest
    lever, stroke, tolerance = rig.lever_arm, rig.stroke, rig.tolerance
    stroke_tol = stroke + 1e-12
    max_move = rig.max_rate * cfg.dt
    min_move = -max_move

    phases, plates, exts = [phase_at(0.0, stairs, cfg)], [0.0], [0.0]
    events: list[tuple[float, str]] = []
    ext = 0.0
    saturated = False
    j = 1
    for phase, bound in zip(Phase, (engage, climb, crest, end, math.inf)):
        # rows a to b - 1 lie in this zone: phase_at(s) is phase there
        a, b = j, bisect_left(ss, bound, j)
        if a == b:
            continue
        phases += repeat(phase, b - a)
        ramp = phase is Phase.ENGAGE or phase is Phase.CREST
        # pitch_at(s)
        if phase is Phase.ENGAGE:
            pitches = [inc * (s - engage) / ramp_in for s in ss[a:b]]
        elif phase is Phase.CREST:
            pitches = [inc * (1.0 - (s - crest) / ramp_out) for s in ss[a:b]]
        else:
            pitches = [inc if phase is Phase.CLIMB else 0.0] * (b - a)
        for pitch in pitches:
            # plate levelling: track the chassis pitch within rate and stroke limits
            reach = pitch * lever
            target = stroke if stroke < reach else reach          # min(reach, stroke)
            delta = target - ext
            move = delta if delta < max_move else max_move        # min(max_move, delta)
            ext = ext + (move if move > min_move else min_move)   # max(-max_move, move)
            plate = pitch - ext / lever
            if reach > stroke_tol and abs(plate) > tolerance:
                if not saturated:                 # report saturation once per onset
                    events.append((ts[j], "ActuatorSaturation"))
                saturated = True
            else:
                saturated = False
            plates.append(plate)
            exts.append(ext)
            j += 1
            if delta == 0.0 and not ramp:
                # at a constant pitch every later row in the zone repeats this one
                plates += repeat(plate, b - j)
                exts += repeat(ext, b - j)
                j = b
                break
    if fall:
        # the falling step ends where the one before it did, so it moves the
        # actuator toward the same target and starts no saturation
        events.append((ts[-1], "Fall"))

    return {
        "phase": tuple(phases),
        "s": tuple(ss),
        "v": tuple(vs),
        "plate_angle": tuple(plates),
        "actuator_ext": tuple(exts),
        "track_torque": (0.0, *repeat(tau, n - 1)),
        "t": ts,
        "events": tuple(events),
    }


def _advance(s: float, c: float, bound: float, steps: int) -> tuple[int, float]:
    """``(k, s_k)``: ``s = s + c`` taken k times, as a closed form in ulps.

    The stride ``c`` may have either sign.  k is at most ``steps``, and
    every one of the k sums stays inside the binade of ``s`` (``0 < s``) and
    on the near side of ``bound``: below it for ``c >= 0``, above it for
    ``c < 0``.  In that binade every float is an integer multiple M of one
    ulp u, and ``s + c`` is the exact ``M + c/u`` rounded to an integer, so
    while the exact sum stays in the binade each step adds the same
    ``round(c/u)`` ulps.  (An exact sum just below the binade rounds to the
    finer grid there, so a falling stride counts its room from the exact
    sum.)  k is 0 when a step would leave the binade or pass ``bound``, and
    on a rounding tie, whose direction depends on M; the caller then takes
    one ordinary step.
    """
    up = c >= 0.0
    if not (steps > 0 and sys.float_info.min <= s and (s < bound if up else bound < s)):
        return 0, s
    e = math.frexp(s)[1]                  # s in [2**(e-1), 2**e), u = 2**(e-53)
    top = 1 << 53                         # 2**e in ulps
    q = math.ldexp(c, 53 - e)             # c/u, exact
    # a tie (floor(q) + 0.5 is exact for |q| < 2**52, and a larger q has no room)
    if not abs(q) < top or math.floor(q) + 0.5 == q:
        return 0, s
    d = round(q)                          # ulps added per step
    m = int(math.ldexp(s, 53 - e))        # s/u, in [2**52, 2**53)
    # step j (from m + j*d) stays in the binade while 2**52 <= m + j*d + q < top
    room = top - 1 - math.floor(q) - m if up else m + math.floor(q) - (top >> 1)
    if room < 0:
        return 0, s
    k = steps
    if d:
        k = min(k, room // abs(d) + 1)
        if up and bound <= math.ldexp(1.0, e):
            # sums below bound: m + k*d <= ceil(bound/u) - 1
            k = min(k, (math.ceil(math.ldexp(bound, 53 - e)) - 1 - m) // d)
        elif not up and bound >= math.ldexp(1.0, e - 1):
            # sums above bound: m + k*d >= floor(bound/u) + 1
            k = min(k, (m - math.floor(math.ldexp(bound, 53 - e)) - 1) // -d)
    return k, math.ldexp(m + k * d, e - 53)


def _ramp_cruise(
    thrust: float, mg: float, cmg: float, inc: float, zones: tuple[float, float, float, float]
) -> tuple[float, float]:
    """``(top, start)``: on the engage ramp below ``top``, and on the crest
    ramp from ``start`` on, a moving step's net force is >= 0.

    The thrust must cover grade plus roll, ``mg sin(pitch) + cmg cos(pitch)``,
    times ``1 + _CRUISE_MARGIN``, at the highest pitch of the stretch.  The
    sum rises with the pitch up to its peak ``hypot(mg, cmg)`` at
    ``atan(mg/cmg)``, so its largest value on ``[0, pitch]`` is the sum at
    ``pitch`` while ``cmg tan(pitch) <= mg``, else the peak.  The sum meets
    the thrust taken a relative 2**-36 lower (far more than the closed form
    and the kernel's pitch round by) at the pitch
    ``asin(thrust/hypot) - atan2(cmg, mg)``.  ``top`` and ``start`` are the
    ramp positions of that pitch, each kept only if the test holds at the
    pitch the kernel computes there (else nothing is skipped on that ramp).
    The kernel's pitch is monotone in ``s`` on each ramp (a chain of
    correctly rounded operations), so the test at that one position holds
    for every state on the near side of it.
    """
    engage, climb, crest, end = zones
    ramp_in, ramp_out = climb - engage, end - crest
    peak = math.hypot(mg, cmg)

    def covers(pitch: float) -> bool:
        worst = mg * math.sin(pitch) + cmg * math.cos(pitch) if cmg * math.tan(pitch) <= mg else peak
        return thrust >= worst * (1.0 + _CRUISE_MARGIN)

    if covers(inc):
        return climb, crest
    edge = thrust * (1.0 - 2.0**-36)
    if not (ramp_in > 0.0 and ramp_out > 0.0 and cmg < edge < peak):   # NaN fails too
        return engage, end
    frac = (math.asin(edge / peak) - math.atan2(cmg, mg)) / inc
    top = engage + ramp_in * frac
    start = crest + ramp_out * (1.0 - frac)
    if not covers(inc * (top - engage) / ramp_in):
        top = engage
    if not covers(inc * (1.0 - (start - crest) / ramp_out)):
        start = end
    return top, start


def _climb(
    cfg: SimConfig,
    stairs: Staircase,
    tau: float,
    ss: list[float] | None = None,
    vs: list[float] | None = None,
) -> tuple[bool, bool, float, int]:
    """``(completed, fall, final speed, steps)`` of a climb at the constant torque ``tau``.

    The dynamics of ``step`` folded over the run, with the same arithmetic
    in the same order (so the result is bit-identical), on scalar locals.
    Every state's phase is ``phase_at`` of its position, so the speed cap is
    tracked from the position alone.  ``steps`` counts the steps the run
    took: up to the completing or falling one, or all of the horizon's
    (after a stall too), so the trajectory has ``steps + 1`` rows.  Given
    lists ``ss`` and ``vs`` (holding the initial state), it appends each
    later state's ``s`` and ``v`` to them; ``_build_columns`` derives the
    rest of a trajectory from those.

    Every stretch of steps whose force does not change is skipped rather
    than taken step by step, exactly; when recording, its states are
    regenerated afterwards with the same float operations:

    - A constant pitch: the approach (pitch 0 below ``engage``), the climb
      zone (``inc`` from ``climb`` to ``crest``) and the run-out (pitch 0
      from ``end`` to the goal).  A step from ``v > 0`` there computes the
      zone's one net force ``thrust - grade - roll``, so it adds the fixed
      ``acc = net/inertia*dt`` to ``v``, needs no clamp while the sum stays
      in ``(0, cap]``, and adds ``v*dt`` to ``s``, which keeps the zone's
      cap while it stays below the zone's end (or the goal).  A tight loop
      of those two additions runs, speeding up or slowing down, until the
      next step would take ``v`` to <= 0 (or NaN) or past the cap, or ``s``
      out of the zone or to the goal, or to the horizon; the ordinary loop
      takes that step.
    - A stop.  Without recording, a constant-pitch stretch that slows
      (``acc < 0``) is decided without stepping it.  ``_advance`` with the
      negative stride ``acc`` gives its exact speeds a binade at a time, up
      to the step that would take ``v`` to <= 0, or to the horizon, and
      their sum bounds the distance they cover; a margin covers rounding
      ``v*dt`` and ``s + v*dt``.  If that bound stays below the stretch's
      end, the robot stays in the zone, and nothing later reads more of
      ``s`` than its zone: the last speed is kept, ``s`` keeps its value
      from before the stretch, and the ordinary loop takes the step to the
      stop (a ``Fall`` on the slope past ``_FALL_TOL``, else rest, which
      the stall below carries to the horizon).  Otherwise the tight loop
      runs.
    - A fixed speed.  Where ``min(v + acc, cap) == v`` in those zones (at
      the cap with a net force >= 0, whose floats are the very ones each
      step uses, so no margin is needed), each step only adds ``v*dt`` to
      ``s``.  On the ramps the pitch changes every step, so this is taken
      only at the stair cap and where ``_ramp_cruise`` shows the net force
      >= 0 at every pitch ahead: on the engage ramp below its bound, and on
      the crest ramp from its bound on, where the pitch only falls.  The
      relative margin ``_CRUISE_MARGIN`` covers the rounding of the pitch,
      ``sin``, ``cos``, the products and the sum (and of the ``tan`` test,
      whose error there is second order), so the rounded net force is >= 0
      too, ``v + net/inertia*dt >= cap`` and ``min`` returns the cap again.
      ``_advance`` moves ``s`` in closed form to the last step before the
      stretch's end, or to the horizon, one binade at a time; at a binade
      edge or on a rounding tie the loop takes one ordinary step.
    - A stall.  At ``v == 0`` the next step starts from rest at the same
      pitch.  If it ends at rest without a ``Fall`` (static friction holds,
      or a backward push is clamped to rest: on the flat, or within
      ``_FALL_TOL`` on a slope), it leaves ``s`` and ``v`` as they were, so
      every later step repeats it and the run ends stalled at the horizon.
      The test is on the state itself, so a NaN speed never takes it.

    Steps the model gets wrong are kept as they are: a Coulomb-resistance
    reversal of a slow forward speed still ends in ``Fall`` (baseline40 at
    23 and 25 N*m).
    """
    rec = ss is not None
    p = cfg.track
    zones = engage, climb, crest, end = _zone_bounds(stairs, cfg)
    goal = end + cfg.level_run            # path_end
    inc = stairs.inclination
    ramp_in = climb - engage
    ramp_out = end - crest
    thrust = float(tau) / p.r
    mg = p.M * p.gravity
    cmg = cfg.rolling_resist_coeff * p.M * p.gravity
    sin, cos, copysign = math.sin, math.cos, math.copysign
    grade_flat, roll_flat = mg * sin(0.0), cmg * cos(0.0)
    grade_climb, roll_climb = mg * sin(inc), cmg * cos(inc)
    inertia = p.M + p.m1
    dt = cfg.dt
    ground, stair = cfg.ground_cap, cfg.stair_cap
    # the speed change of a moving step at pitch 0 and at inc
    flat_acc = (thrust - grade_flat - roll_flat) / inertia * dt
    climb_acc = (thrust - grade_climb - roll_climb) / inertia * dt
    engage_top, crest_from = _ramp_cruise(thrust, mg, cmg, inc, zones)

    s = v = 0.0
    pitch = pitch_at(s, stairs, cfg)
    grade, roll = mg * sin(pitch), cmg * cos(pitch)
    cap = ground if s < engage or not s < end else stair
    completed = s >= goal
    steps = int(round(cfg.duration / dt))
    i = 0                                 # steps taken
    while i < steps:
        for i in range(i + 1, steps + 1):
            if v > 0.0:
                net = thrust - grade - roll
            else:
                # at rest the resistance acts like static friction
                net0 = thrust - grade
                net = 0.0 if abs(net0) <= roll else net0 - copysign(roll, net0)
            v = v + net / inertia * dt
            if v < 0.0:
                if pitch > 0.0 and v < -_FALL_TOL:
                    if rec:                   # the step's s + 0.0*dt is s
                        ss.append(s)
                        vs.append(0.0)
                    return completed, True, 0.0, i
                v = 0.0
            if cap < v:                   # min(v, cap), NaN included
                v = cap
            s = s + v * dt
            # the cap, pitch_at(s) and the force terms of the next step; the
            # speed change of a moving step where the pitch is constant (None
            # on a ramp), and the end of the stretch that may be skipped
            if s < engage:
                cap, pitch, grade, roll = ground, 0.0, grade_flat, roll_flat
                acc, top = flat_acc, engage
            elif s < climb:
                cap = stair
                pitch = inc * (s - engage) / ramp_in
                grade, roll = mg * sin(pitch), cmg * cos(pitch)
                acc, top = None, engage_top
            elif s < crest:
                cap, pitch, grade, roll = stair, inc, grade_climb, roll_climb
                acc, top = climb_acc, crest
            elif s < end:
                cap = stair
                pitch = inc * (1.0 - (s - crest) / ramp_out)
                grade, roll = mg * sin(pitch), cmg * cos(pitch)
                acc, top = None, end if crest_from <= s else s
            else:
                cap, pitch, grade, roll = ground, 0.0, grade_flat, roll_flat
                acc, top = flat_acc, goal
            # re-clamp so the stored row respects its own phase's cap
            if cap < v:
                v = cap
            if rec:
                ss.append(s)
                vs.append(v)
            if s >= goal:
                return True, False, v, i
            if v == 0.0:
                # the next step, from rest at this pitch: if it ends at rest
                # without a Fall, it leaves s and v as they are, and so does
                # every later one
                net0 = thrust - grade
                w = v + (0.0 if abs(net0) <= roll else net0 - copysign(roll, net0)) / inertia * dt
                if w <= 0.0 and not (pitch > 0.0 and w < -_FALL_TOL):
                    if rec:
                        ss += repeat(s, steps - i)
                        vs += repeat(v, steps - i)
                    return completed, False, v, steps
            if s < top and (v > 0.0 if acc is not None else v == cap):
                break
        else:
            break                         # the horizon
        if acc is not None and min(v + acc, cap) != v:
            if acc < 0.0 and not rec:
                # slowing: the speeds to the stop, or to the horizon, by
                # _advance a binade at a time, and a bound on their sum
                n, w, run = i, v, 0.0
                while n < steps:
                    k, w_k = _advance(w, acc, 0.0, steps - n)
                    run += k * (w + w_k) * 0.5    # >= the sum of the k speeds
                    n, w = n + k, w_k
                    if n == steps:
                        break
                    x = w + acc
                    if not x > 0.0:           # the step to the stop
                        break
                    n, w, run = n + 1, x, run + x
                # the margins cover rounding run's sums, each w*dt, and each
                # s + w*dt (by at most 2**-53*top while s stays below top)
                if s + run * dt * (1.0 + 2.0**-30) + (n - i + 1) * top * 2.0**-50 < top:
                    # s stays in the zone, which is all the later steps read
                    v, i = w, n
                    continue
            # a constant force: a step is v + acc, then s + v*dt
            v0, s0 = v, s
            for n in range(i, steps):
                w = v + acc
                if not 0.0 < w <= cap:
                    break
                x = s + w * dt
                if not x < top:
                    break
                v, s = w, x
            else:
                n = steps
            if rec:
                w = list(islice(accumulate(repeat(acc, n - i), initial=v0), 1, None))
                vs += w
                ss += islice(accumulate(map(mul, w, repeat(dt)), initial=s0), 1, None)
            i = n
        else:
            # a fixed speed: a step adds v*dt to s
            stride = v * dt
            k, s_k = _advance(s, stride, top, steps - i)
            if rec:
                ss += islice(accumulate(repeat(stride, k), initial=s), 1, None)
                vs += repeat(v, k)
            s = s_k
            i += k
            if acc is None:               # the next step's pitch on the ramp
                pitch = pitch_at(s, stairs, cfg)
                grade, roll = mg * sin(pitch), cmg * cos(pitch)
    return completed, False, v, i                 # i == steps: the horizon


@dataclass(frozen=True)
class SweepProbe:
    torque: float
    completed: bool
    fall: bool
    final_v: float


def min_torque_sweep(
    cfg: SimConfig,
    stairs: Staircase,
    resolution: float = 0.05,
    probes: list[SweepProbe] | None = None,
) -> float:
    """Smallest constant per-track torque that completes the climb in time.

    Bisection between the static equilibrium torque (sustained climbing is
    impossible below it) and the motor limit through the reduction, to the
    given torque resolution, which must be finite and > 0 (else
    ValueError).  Pass a list as ``probes`` to capture every trial for
    reporting.  Raises Unclimbable when even the motor limit fails.

    Each probe is a constant torque, decided by ``_climb`` without
    recording a trajectory; its verdict is that of ``run_climb``.  A
    time-varying torque is ``step`` folded over the run.
    """
    # 0 would bisect forever, and NaN would end at the motor limit
    if not (0.0 < resolution < math.inf):
        raise ValueError(f"resolution must be finite and > 0 (got {resolution})")

    def climbs(tau: float) -> bool:
        completed, fall, final_v, _ = _climb(cfg, stairs, tau)
        if probes is not None:
            probes.append(SweepProbe(tau, completed, fall, final_v))
        return completed and not fall

    lo = min_static_torque(replace(cfg.track, theta=stairs.inclination))
    hi = cfg.motor.available_track_torque
    if not climbs(hi):
        raise Unclimbable(
            f"motor-limit torque {hi:.2f} N*m cannot complete the climb "
            f"within {cfg.duration:.1f} s"
        )
    if climbs(lo):
        return lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:             # adjacent floats: no finer torque exists
            break
        if climbs(mid):
            hi = mid
        else:
            lo = mid
    return hi


def trajectory_rows(traj: Trajectory) -> list[tuple[float, str, float, float, float, float, str]]:
    """Flatten a trajectory for CSV export.

    Columns: t, phase, s, v, plate_angle_deg, torque_Nm, events (semicolon
    joined names of events raised on the step ending at that row).
    """
    by_time: dict[float, list[str]] = {}
    for t, name in traj.events:
        by_time.setdefault(t, []).append(name)
    joined = {t: ";".join(names) for t, names in by_time.items()}
    # built column by column in C: ``_value_`` is what ``Phase.value`` returns,
    # without the Python-level property, and no row hashes its Phase
    return list(zip(
        traj.t, map(attrgetter("_value_"), traj.phase), traj.s, traj.v,
        map(math.degrees, traj.plate_angle), traj.track_torque, map(joined.get, traj.t, repeat("")),
    ))
