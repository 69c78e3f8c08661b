"""Caterpillar-track drivetrain sizing.

The track is a toothed belt stretched over three timing pulleys: P1 (radius
R, rear) and P2/P3 (radius r).  The drive sprocket can power any of the
three, giving three torque relations for climbing a stair of inclination
theta at acceleration a:

    P1:      tau = R * [(M + m - m1/2) * a + M g sin(theta)]
    P2, P3:  tau = r * [(M + m1) * a + M g sin(theta)]

with M the mass borne per track (robot + user share), m1 the mass of P1 and
m the mass of each of P2/P3.  The module also covers the gear-side design of
the pulleys (no-interference tooth count, contact ratio), the qualitative
belt tension ordering per driver choice, and the motor torque margin through
the chain reduction.

The design point is a MAX_INCLINATION (40 deg) stair at DESIGN_ACCEL
(0.5 m/s^2); TrackParams, the staircase model and the teleop arbiter's
default take their caps from it.  The drivetrain was sized around three
torque anchors there - 35.8 N*m driving P1, 25 N*m driving P3, and 22 N*m
driving P3 at constant speed (SIZING_TARGETS).  The three
anchors back-solve to slightly different supported masses (the sizing used
rounded figures); ``back_solve_mass`` recovers the mass implied by each so
reports can show the spread explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cache

__all__ = [
    "Pulley",
    "TrackParams",
    "GearDesign",
    "MotorSpec",
    "MotorMargin",
    "InvalidGeometry",
    "torque_case",
    "min_static_torque",
    "back_solve_mass",
    "min_pinion_teeth",
    "contact_ratio",
    "tension_order",
    "motor_margin",
    "SIZING_TARGETS",
    "MAX_INCLINATION",
    "DESIGN_ACCEL",
]

MAX_INCLINATION = math.radians(40.0)   # rad
DESIGN_ACCEL = 0.5                     # m/s^2

# Torque anchors the drivetrain was sized against at the design point (P3
# drive radius 36 mm, P1 radius 50 mm; p3_static at constant speed).
SIZING_TARGETS = {
    "p1_accel": 35.8,   # N*m, powering P1 while accelerating
    "p3_accel": 25.0,   # N*m, powering P3 while accelerating
    "p3_static": 22.0,  # N*m, powering P3 at constant speed
}


class Pulley(Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"


class InvalidGeometry(ValueError):
    """Gear geometry violates a hard constraint (e.g. outer <= base radius)."""


def _cut(shown: str) -> str:
    """Text from the input (a value's repr, a key path) as an error message
    shows it: past 40 characters (a 401-digit integer, a long key), its
    first 32 and a marker that gives its length."""
    return shown if len(shown) <= 40 else f"{shown[:32]}... ({len(shown)} characters)"


def _ranged(default, lo: float, hi: float, *, degrees: bool = False):
    """A field that _check_ranges holds in [lo, hi], and the scenario loader
    reads its key's range from.  A degree field is ranged in degrees and holds
    radians; radians() is monotone, so both checks agree at each end."""
    held = (math.radians(lo), math.radians(hi)) if degrees else (lo, hi)
    return field(default=default, metadata={"range": (lo, hi), "degrees": degrees, "held": held})


@cache
def _bounds(cls) -> tuple:
    """(name, lo, hi) of each ranged field of a dataclass, as held, read once per class."""
    return tuple((f.name, *f.metadata["held"]) for f in fields(cls) if "range" in f.metadata)


def _check_ranges(obj) -> None:
    """Refuse a ranged field outside its range (NaN too), by name; a None (teeth to be sized) passes."""
    for name, lo, hi in _bounds(type(obj)):
        value = getattr(obj, name)
        if value is not None and not lo <= value <= hi:
            raise ValueError(f"{name}: expected a number in [{lo:g}, {hi:g}] (got {_cut(repr(value))})")


@dataclass(frozen=True)
class TrackParams:
    """Per-track drive parameters.

    M is the supported mass per track: half of robot-plus-user for the
    two-track chassis.  Pulley masses default to zero; their inertial terms
    are second order at the design acceleration cap.  Every field but theta
    and accel, which keep the design point's caps, is range-checked.
    """

    M: float = _ranged(97.0, 1e-3, 1e5)      # kg, mass borne per track
    m1: float = _ranged(0.0, 0, 1e4)         # kg, mass of pulley P1
    m: float = _ranged(0.0, 0, 1e4)          # kg, mass of each of P2/P3
    R: float = _ranged(0.05, 1e-3, 10)       # m, radius of P1
    r: float = _ranged(0.036, 1e-3, 10)      # m, radius of P2/P3
    theta: float = MAX_INCLINATION  # rad, stair inclination
    accel: float = 0.0        # m/s^2, commanded acceleration
    gravity: float = _ranged(9.81, 0.1, 100)  # m/s^2

    def __post_init__(self):
        _check_ranges(self)
        if not (self.M + self.m - self.m1 / 2.0 > 0):
            raise ValueError(f"P1's effective mass M + m - m1/2 must be positive "
                             f"(M={self.M}, m={self.m}, m1={self.m1})")
        if not (self.R >= self.r):
            raise ValueError(f"need R >= r > 0 (R={self.R}, r={self.r})")
        if not (0.0 <= self.theta <= MAX_INCLINATION + 1e-12):
            raise ValueError(f"stair angle {math.degrees(self.theta):.2f} deg exceeds cap "
                             f"{math.degrees(MAX_INCLINATION):.2f} deg")
        if not (abs(self.accel) <= DESIGN_ACCEL + 1e-12):
            raise ValueError(f"|accel| exceeds {DESIGN_ACCEL} m/s^2 (got {self.accel})")


def torque_case(case: Pulley, p: TrackParams) -> float:
    """Required drive torque (N*m) for the given driver pulley."""
    grade = p.M * p.gravity * math.sin(p.theta)
    if case is Pulley.P1:
        return p.R * ((p.M + p.m - p.m1 / 2.0) * p.accel + grade)
    # P2 and P3 share one relation
    return p.r * ((p.M + p.m1) * p.accel + grade)


def min_static_torque(p: TrackParams) -> float:
    """Torque to hold climb speed constant driving P3: r * M * g * sin(theta)."""
    return torque_case(Pulley.P3, replace(p, accel=0.0))


def back_solve_mass(case: Pulley, target_torque: float, p: TrackParams) -> float:
    """Supported mass that makes torque_case(case, p) hit the target torque.

    The torque relations are linear in M (with pulley masses fixed), so the
    inversion is closed form.
    """
    grade_per_kg = p.gravity * math.sin(p.theta)
    if case is Pulley.P1:
        # tau/R = (M + m - m1/2) a + M g sin  ->  M (a + g sin) = tau/R - (m - m1/2) a
        num = target_torque / p.R - (p.m - p.m1 / 2.0) * p.accel
    else:
        num = target_torque / p.r - p.m1 * p.accel
    den = p.accel + grade_per_kg
    if den <= 0:
        raise ValueError("cannot back-solve mass with zero acceleration and zero grade")
    return num / den


def min_pinion_teeth(alpha: float, f: float = 1.0) -> int:
    """Minimum pinion tooth count avoiding rack interference: ceil(2f / sin^2 alpha).

    Values within 1e-9 of an integer round to it rather than up, so exact
    closed-form cases (e.g. alpha = 30 deg, f = 1 -> 8) are not inflated by
    floating-point dust.
    """
    if not (0.0 < alpha < math.pi / 2 or math.isclose(alpha, math.pi / 2)):
        raise ValueError(f"pressure angle must lie in (0, 90 deg] (got {alpha!r})")
    if not (f > 0):
        raise ValueError("addendum factor must be positive")
    s2 = math.sin(alpha) ** 2   # underflows to 0 below about 1e-154 rad
    n = 2.0 * f / s2 if s2 > 0.0 else math.inf
    if not math.isfinite(n):
        raise ValueError(f"no finite tooth count at pressure angle {alpha!r} rad, addendum factor {f!r}")
    return math.ceil(n - 1e-9)


@dataclass(frozen=True)
class GearDesign:
    """Spur gear (timing pulley) geometry, lengths in millimetres.

    teeth=None sizes the pinion at the no-interference minimum.  The four
    inputs are range-checked.
    """

    pressure_angle: float = _ranged(math.radians(20.0), 5, 45, degrees=True)
    addendum_factor: float = _ranged(1.0, 0.1, 10)   # addendum = factor * module
    module_mm: float = _ranged(4.0, 0.01, 100)
    teeth: int | None = _ranged(None, 1, 1e6)
    addendum: float = field(init=False)
    pitch_radius: float = field(init=False)
    base_radius: float = field(init=False)
    outer_radius: float = field(init=False)

    def __post_init__(self):
        _check_ranges(self)
        n_min = min_pinion_teeth(self.pressure_angle, self.addendum_factor)
        if self.teeth is None:
            object.__setattr__(self, "teeth", n_min)
        if self.teeth < n_min:
            raise InvalidGeometry(f"{self.teeth} teeth undercut against a rack; need >= {n_min}")
        object.__setattr__(self, "addendum", self.addendum_factor * self.module_mm)
        object.__setattr__(self, "pitch_radius", self.module_mm * self.teeth / 2.0)
        object.__setattr__(self, "base_radius", self.pitch_radius * math.cos(self.pressure_angle))
        object.__setattr__(self, "outer_radius", self.pitch_radius + self.addendum)
        # contact_ratio takes sqrt(r_o^2 - r_b^2): r_o > r_b
        if self.outer_radius <= self.base_radius:
            raise InvalidGeometry(
                f"outer radius {self.outer_radius} mm must exceed base radius {self.base_radius} mm"
            )

    @property
    def pitch_diameter_mm(self) -> float:
        return 2.0 * self.pitch_radius


def contact_ratio(g: GearDesign) -> float:
    """Average number of tooth pairs in mesh (rack engagement).

        m_c = N / (2 pi r_b) * (a / sin(alpha) + sqrt(r_o^2 - r_b^2) - r_b tan(alpha))

    with a the addendum.  Must exceed 1 for continuous meshing; values <= 1
    are returned (the caller flags them); GearDesign refuses impossible geometry.
    """
    alpha = g.pressure_angle
    length_of_action = (
        g.addendum / math.sin(alpha)
        + math.sqrt(g.outer_radius**2 - g.base_radius**2)
        - g.base_radius * math.tan(alpha)
    )
    return g.teeth / (2.0 * math.pi * g.base_radius) * length_of_action


# Belt tension ordering per driver pulley (T1/T2/T3 are the belt segments,
# highest first).  Clockwise pulley rotation drives the robot forward.
_TENSION_ORDER = {
    Pulley.P1: ("T1", "T2", "T3"),
    Pulley.P2: ("T2", "T3", "T1"),
    Pulley.P3: ("T3", "T1", "T2"),
}


def tension_order(driver: Pulley) -> tuple[str, str, str]:
    """Qualitative belt tension ranking (descending) for a driver choice."""
    return _TENSION_ORDER[driver]


@dataclass(frozen=True)
class MotorSpec:
    """Drive motor nameplate plus the chain reduction to the track.  Every
    field is range-checked."""

    rated_power: float = _ranged(320.0, 1e-3, 1e7)   # W
    rated_torque: float = _ranged(22.0, 1e-3, 1e6)   # N*m
    rated_speed: float = _ranged(143.0, 1e-3, 1e6)   # rpm
    reduction: float = _ranged(2.0, 1e-3, 1e4)       # output:input torque multiplier

    def __post_init__(self):
        _check_ranges(self)
        mech = self.rated_torque * self.rated_speed * 2.0 * math.pi / 60.0
        if not (abs(mech - self.rated_power) <= 0.05 * self.rated_power):
            raise ValueError(
                f"nameplate inconsistent: torque*speed gives {mech:.1f} W "
                f"vs rated {self.rated_power:.1f} W (>5% apart)"
            )

    @property
    def available_track_torque(self) -> float:
        return self.rated_torque * self.reduction


@dataclass(frozen=True)
class MotorMargin:
    available: float   # N*m at the track
    margin: float      # available / required
    passed: bool


def motor_margin(spec: MotorSpec, required: float) -> MotorMargin:
    """Torque margin of the motor (through the reduction) over a requirement."""
    if required <= 0:
        raise ValueError("required torque must be positive")
    available = spec.available_track_torque
    margin = available / required
    return MotorMargin(available=available, margin=margin, passed=margin >= 1.0)
