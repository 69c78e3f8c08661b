import math
from dataclasses import replace

import pytest

from stairclimber.drivetrain import (
    SIZING_TARGETS,
    GearDesign,
    InvalidGeometry,
    MotorSpec,
    Pulley,
    TrackParams,
    back_solve_mass,
    contact_ratio,
    min_pinion_teeth,
    min_static_torque,
    motor_margin,
    tension_order,
    torque_case,
)
from stairclimber.stairsim import PlateRig

ACCEL = TrackParams(M=97.0, R=0.05, r=0.036, theta=math.radians(40.0), accel=0.5)
STATIC = replace(ACCEL, accel=0.0)


def test_min_teeth_standard_pressure_angles():
    assert min_pinion_teeth(math.radians(20.0)) == 18
    assert min_pinion_teeth(math.radians(14.5)) == 32
    # 2 / sin^2(30 deg) = 8.0 exactly; the ceiling must not round the
    # representation dust up to 9
    assert min_pinion_teeth(math.radians(30.0)) == 8


def test_min_teeth_scales_with_addendum():
    assert min_pinion_teeth(math.radians(20.0), f=0.8) == 14


def test_pitch_diameter():
    g = GearDesign(math.radians(20.0), 1.0, 4.0, 18)
    assert g.pitch_diameter_mm == pytest.approx(72.0, rel=1e-12)
    assert g.addendum == pytest.approx(4.0, rel=1e-12)


def test_contact_ratio_frozen_values():
    # frozen from an independent line-of-action computation
    g18 = GearDesign(math.radians(20.0), 1.0, 4.0, 18)
    assert contact_ratio(g18) == pytest.approx(1.7552873639380376, rel=1e-12)
    g8 = GearDesign(math.radians(30.0), 1.0, 4.0, 8)
    assert contact_ratio(g8) == pytest.approx(1.3252297347254631, rel=1e-12)


def test_contact_ratio_exceeds_one_for_valid_designs():
    for teeth in (18, 20, 30, 60):
        g = GearDesign(math.radians(20.0), 1.0, 4.0, teeth)
        assert contact_ratio(g) > 1.0


def test_contact_ratio_module_invariant():
    # the ratio is a pure shape property; scaling the module cannot move it
    a = contact_ratio(GearDesign(math.radians(20.0), 1.0, 4.0, 18))
    b = contact_ratio(GearDesign(math.radians(20.0), 1.0, 7.0, 18))
    assert a == pytest.approx(b, rel=1e-12)


def test_undercut_count_rejected():
    with pytest.raises(InvalidGeometry):
        GearDesign(math.radians(20.0), 1.0, 4.0, 17)


def test_tooth_count_must_be_finite():
    # sin^2 of the angle underflows to 0
    with pytest.raises(ValueError, match="no finite tooth count"):
        min_pinion_teeth(math.radians(1e-300))


@pytest.mark.parametrize(
    "alpha_deg, module_mm, message",
    [
        # both radii would round to 1.3e22 mm; no gear within the ranges has
        # its outer radius at or below its base radius, so the angle's range
        # refuses it first
        (1e-9, 4.0, "pressure_angle: expected a number in"),
    ],
)
def test_gear_refuses_radii_contact_ratio_cannot_use(alpha_deg, module_mm, message):
    with pytest.raises(ValueError, match=message):
        GearDesign(math.radians(alpha_deg), 1.0, module_mm)


@pytest.mark.parametrize(
    "build, refused",
    [
        (lambda: GearDesign(teeth=10**400), "teeth"),       # the pitch radius would overflow
        (lambda: TrackParams(M=1e308, gravity=10), "M"),    # torque_case would return inf
        # the ends of the degree fields' ranges, held in radians
        (lambda: GearDesign(pressure_angle=math.radians(5)), None),
        (lambda: GearDesign(pressure_angle=math.radians(45)), None),
        (lambda: PlateRig(tolerance=math.radians(1e-3)), None),
        (lambda: PlateRig(tolerance=math.radians(90)), None),
    ],
    ids=["teeth", "M", "pressure_angle_lo", "pressure_angle_hi", "tolerance_lo", "tolerance_hi"],
)
def test_a_field_outside_its_range_is_refused_by_name(build, refused):
    if refused is None:
        build()
        return
    with pytest.raises(ValueError, match=rf"^{refused}: expected a number in \[") as info:
        build()
    assert len(str(info.value)) < 120   # a 401-digit tooth count is cut


def test_p1_effective_mass_must_be_positive():
    with pytest.raises(ValueError, match="P1's effective mass"):
        TrackParams(M=1.0, m1=10.0)


def test_torque_back_solve_round_trips_targets():
    cases = {
        "p1_accel": (Pulley.P1, ACCEL),
        "p3_accel": (Pulley.P3, ACCEL),
        "p3_static": (Pulley.P3, STATIC),
    }
    for name, (case, params) in cases.items():
        target = SIZING_TARGETS[name]
        mass = back_solve_mass(case, target, params)
        assert torque_case(case, replace(params, M=mass)) == pytest.approx(target, rel=1e-9)


def test_back_solved_masses_frozen_values():
    assert back_solve_mass(Pulley.P1, 35.8, ACCEL) == pytest.approx(105.2052122647281, rel=1e-9)
    assert back_solve_mass(Pulley.P3, 25.0, ACCEL) == pytest.approx(102.03795416737286, rel=1e-9)
    assert back_solve_mass(Pulley.P3, 22.0, STATIC) == pytest.approx(96.91336558763471, rel=1e-9)


def test_targets_are_mutually_inconsistent():
    # the three published figures imply three different supported masses;
    # the report surfaces that spread instead of hiding it
    m1 = back_solve_mass(Pulley.P1, 35.8, ACCEL)
    m2 = back_solve_mass(Pulley.P3, 25.0, ACCEL)
    m3 = back_solve_mass(Pulley.P3, 22.0, STATIC)
    assert m3 < m2 < m1
    assert m1 - m3 > 5.0


def test_p3_torque_at_p1_mass():
    m1 = back_solve_mass(Pulley.P1, 35.8, ACCEL)
    assert torque_case(Pulley.P3, replace(ACCEL, M=m1)) == pytest.approx(25.776, abs=1e-9)


def test_min_static_torque_closed_form():
    expected = 0.036 * 97.0 * 9.81 * math.sin(math.radians(40.0))
    assert min_static_torque(ACCEL) == pytest.approx(expected, rel=1e-12)
    # accel setting must not leak into the static figure
    assert min_static_torque(ACCEL) == min_static_torque(STATIC)


def test_p2_and_p3_share_one_relation():
    assert torque_case(Pulley.P2, ACCEL) == torque_case(Pulley.P3, ACCEL)


def test_p1_uses_large_pulley_radius():
    # with massless pulleys the cases differ exactly by the radius ratio
    assert torque_case(Pulley.P1, ACCEL) == pytest.approx(
        torque_case(Pulley.P3, ACCEL) * 0.05 / 0.036, rel=1e-12
    )


def test_pulley_masses_shift_the_torques():
    loaded = replace(ACCEL, m1=2.0, m=1.0)
    assert torque_case(Pulley.P1, loaded) > torque_case(Pulley.P1, replace(ACCEL, m1=2.0))
    assert torque_case(Pulley.P3, loaded) > torque_case(Pulley.P3, ACCEL)


def test_track_params_validation():
    with pytest.raises(ValueError):
        TrackParams(M=0.0)
    with pytest.raises(ValueError):
        TrackParams(M=97.0, R=0.02, r=0.036)  # R < r
    with pytest.raises(ValueError):
        TrackParams(M=97.0, theta=math.radians(50.0))  # above the 40 deg cap
    with pytest.raises(ValueError):
        TrackParams(M=97.0, accel=0.6)  # above the 0.5 m/s^2 cap


def test_tension_order():
    # the segment leaving the driver carries the highest tension; each driver
    # choice is a cyclic rotation of the same ranking
    assert tension_order(Pulley.P1) == ("T1", "T2", "T3")
    assert tension_order(Pulley.P2) == ("T2", "T3", "T1")
    assert tension_order(Pulley.P3) == ("T3", "T1", "T2")
    for driver in Pulley:
        assert sorted(tension_order(driver)) == ["T1", "T2", "T3"]


def test_motor_margin_at_design_point():
    spec = MotorSpec()
    assert spec.available_track_torque == pytest.approx(44.0, rel=1e-12)
    required = torque_case(Pulley.P1, ACCEL)
    assert required == pytest.approx(33.00787028747101, rel=1e-9)
    mm = motor_margin(spec, required)
    assert mm.passed
    assert mm.margin == pytest.approx(1.3330154177411846, rel=1e-9)


def test_motor_margin_fails_when_short():
    mm = motor_margin(MotorSpec(), 50.0)
    assert not mm.passed and mm.margin < 1.0


def test_motor_nameplate_consistency_enforced():
    with pytest.raises(ValueError):
        MotorSpec(rated_power=500.0)  # 22 N*m at 143 rpm is ~329 W, not 500
    with pytest.raises(ValueError):
        motor_margin(MotorSpec(), 0.0)
