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

Sizing targets: the drivetrain was sized around three torque anchors on a
40 deg stair - 35.8 N*m driving P1 at a = 0.5 m/s^2, 25 N*m driving P3 at
the same acceleration, and 22 N*m driving P3 at constant speed.  The three
anchors back-solve to slightly different supported masses (the sizing used
rounded figures); ``back_solve_mass`` recovers the mass implied by each so
reports can show the spread explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

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
]

# Torque anchors the drivetrain was sized against (40 deg stair, P3 drive
# radius 36 mm, P1 radius 50 mm, a = 0.5 m/s^2 for the accelerating cases).
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


@dataclass(frozen=True)
class TrackParams:
    """Per-track drive parameters.

    M is the supported mass per track: half of robot-plus-user for the
    two-track chassis.  Pulley masses default to zero; their inertial terms
    are second order at the design acceleration cap.
    """

    M: float = 97.0           # kg, mass borne per track
    m1: float = 0.0           # kg, mass of pulley P1
    m: float = 0.0            # kg, mass of each of P2/P3
    R: float = 0.05           # m, radius of P1
    r: float = 0.036          # m, radius of P2/P3
    theta: float = math.radians(40.0)  # rad, stair inclination
    accel: float = 0.0        # m/s^2, commanded acceleration
    gravity: float = 9.81
    theta_cap: float = math.radians(40.0)  # configurable hard cap
    accel_cap: float = 0.5    # m/s^2, design acceleration limit

    def __post_init__(self):
        if not (self.M > 0):
            raise ValueError(f"supported mass must be positive (got {self.M})")
        if not (self.m1 >= 0 and self.m >= 0):
            raise ValueError("pulley masses must be >= 0")
        if not (self.M + self.m - self.m1 / 2.0 > 0):
            raise ValueError(
                f"P1's effective mass M + m - m1/2 must be positive "
                f"(M={self.M}, m={self.m}, m1={self.m1})"
            )
        if not (self.gravity > 0):
            raise ValueError(f"gravity must be positive (got {self.gravity})")
        if not math.isfinite(self.M * self.gravity):
            raise ValueError(f"weight M * gravity overflows (M={self.M}, gravity={self.gravity})")
        if not (self.R > 0 and self.r > 0 and self.R >= self.r):
            raise ValueError(f"need R >= r > 0 (R={self.R}, r={self.r})")
        if not (0.0 <= self.theta <= self.theta_cap + 1e-12):
            raise ValueError(
                f"stair angle {math.degrees(self.theta):.2f} deg exceeds cap "
                f"{math.degrees(self.theta_cap):.2f} deg"
            )
        if not (abs(self.accel) <= self.accel_cap + 1e-12):
            raise ValueError(f"|accel| exceeds {self.accel_cap} m/s^2 (got {self.accel})")


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

    teeth=None sizes the pinion at the no-interference minimum.
    """

    pressure_angle: float = math.radians(20.0)
    addendum_factor: float = 1.0   # addendum = factor * module
    module_mm: float = 4.0
    teeth: int | None = None
    addendum: float = field(init=False)
    pitch_radius: float = field(init=False)
    base_radius: float = field(init=False)
    outer_radius: float = field(init=False)

    def __post_init__(self):
        n_min = min_pinion_teeth(self.pressure_angle, self.addendum_factor)
        if self.teeth is None:
            object.__setattr__(self, "teeth", n_min)
        if not (self.module_mm > 0) or self.teeth < 1:
            raise InvalidGeometry("module and tooth count must be positive")
        if self.teeth < n_min:
            raise InvalidGeometry(
                f"{self.teeth} teeth undercut against a rack; need >= {n_min}"
            )
        object.__setattr__(self, "addendum", self.addendum_factor * self.module_mm)
        try:
            pitch_radius = self.module_mm * self.teeth / 2.0
        except OverflowError:  # an integer tooth count beyond float range
            digits = round(self.teeth.bit_length() * math.log10(2.0))
            raise InvalidGeometry(f"about 10^{digits} teeth overflow the pitch radius") from None
        object.__setattr__(self, "pitch_radius", pitch_radius)
        object.__setattr__(self, "base_radius", self.pitch_radius * math.cos(self.pressure_angle))
        object.__setattr__(self, "outer_radius", self.pitch_radius + self.addendum)
        # contact_ratio takes sqrt(r_o^2 - r_b^2): both squares finite, r_o > r_b
        if not math.isfinite(self.outer_radius * self.outer_radius):
            raise InvalidGeometry(f"outer radius {self.outer_radius} mm squares beyond float range")
        if self.outer_radius <= self.base_radius:
            raise InvalidGeometry(
                f"outer radius {self.outer_radius} mm must exceed base radius {self.base_radius} mm"
            )
        # a module so small that the base radius or the radii's squares underflow
        if not self.base_radius > 0:
            raise InvalidGeometry(
                f"base radius {self.base_radius} mm underflows (module {self.module_mm} mm)"
            )
        ratio = contact_ratio(self)
        if not math.isfinite(ratio):
            raise InvalidGeometry(f"contact ratio {ratio} is not finite (module {self.module_mm} mm)")

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
    """Drive motor nameplate plus the chain reduction to the track."""

    rated_power: float = 320.0    # W
    rated_torque: float = 22.0    # N*m
    rated_speed: float = 143.0    # rpm
    reduction: float = 2.0        # output:input torque multiplier

    def __post_init__(self):
        ratings = (self.rated_power, self.rated_torque, self.rated_speed, self.reduction)
        if not all(x > 0 for x in ratings):
            raise ValueError("motor ratings must be positive")
        mech = self.rated_torque * self.rated_speed * 2.0 * math.pi / 60.0
        if not (abs(mech - self.rated_power) <= 0.05 * self.rated_power):
            raise ValueError(
                f"nameplate inconsistent: torque*speed gives {mech:.1f} W "
                f"vs rated {self.rated_power:.1f} W (>5% apart)"
            )
        if not math.isfinite(self.available_track_torque):
            raise ValueError(
                f"rated torque {self.rated_torque} N*m times reduction {self.reduction} "
                "overflows float range"
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
