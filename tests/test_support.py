import math

import pytest

from stairclimber.support import (
    SingularGamma,
    SupportGeometry,
    SupportLoad,
    actuator_force,
    check_structural,
    force_profile,
    gamma_residual,
    solve_gamma,
)

GEOM = SupportGeometry(a=0.335, b=0.225, h=0.60)
LOAD = SupportLoad()


def test_gamma_is_right_angle_at_rest():
    assert solve_gamma(0.0, GEOM) == pytest.approx(math.pi / 2, abs=1e-9)


def test_gamma_frozen_values():
    # solved independently by dense scan + Newton polish before freezing
    assert solve_gamma(math.radians(10.0), GEOM) == pytest.approx(1.4016121403592173, abs=1e-9)
    assert solve_gamma(math.radians(40.0), GEOM) == pytest.approx(0.9432403070107620, abs=1e-9)
    assert solve_gamma(math.radians(90.0), GEOM) == pytest.approx(0.2662520491509254, abs=1e-9)


def test_gamma_residual_small_on_dense_grid():
    for deg in range(91):
        theta = math.radians(deg)
        gamma = solve_gamma(theta, GEOM)
        assert abs(gamma_residual(gamma, theta, GEOM)) <= 1e-9


def test_gamma_decreases_with_elevation():
    gammas = [solve_gamma(math.radians(d), GEOM) for d in range(0, 91, 5)]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_gamma_rejects_theta_outside_quarter_turn():
    with pytest.raises(ValueError):
        solve_gamma(-0.01, GEOM)
    with pytest.raises(ValueError):
        solve_gamma(math.pi / 2 + 0.01, GEOM)


def test_gamma_root_below_one_degree():
    # actuator attachment near the hinge: the root lies below 1 deg, where
    # no bracket on (1 deg, 179 deg) holds it
    geom = SupportGeometry(a=0.335, b=0.001, h=1.0)
    theta = math.radians(90.0)
    gamma = solve_gamma(theta, geom)
    assert gamma == pytest.approx(1.0e-3, rel=1e-3)
    assert abs(gamma_residual(gamma, theta, geom)) <= 1e-15


def test_geometry_refuses_actuator_along_the_arm():
    # b = 0, or a b so short that b/h vanishes: gamma ~ 0 at 90 deg elevation
    for b, h in ((0.0, 0.6), (1e-300, 0.6)):
        with pytest.raises(ValueError, match="actuator lies along the arm"):
            SupportGeometry(a=0.335, b=b, h=h)
    # the longest h, where sin(gamma) is about 2.2e-3
    gamma = solve_gamma(math.pi / 2, SupportGeometry(a=0.335, b=0.225, h=100))
    assert math.sin(gamma) >= 1e-12


def test_force_at_rest_is_full_weight_moment():
    # (a + b) * m * g with sin(gamma) = 1
    f = actuator_force(0.0, math.pi / 2, GEOM, LOAD)
    assert f == pytest.approx(659.232, rel=1e-9)


def test_force_vanishes_at_vertical():
    gamma = solve_gamma(math.radians(90.0), GEOM)
    f = actuator_force(math.pi / 2, gamma, GEOM, LOAD)
    assert abs(f) < 1e-9


def test_force_rejects_singular_gamma():
    with pytest.raises(SingularGamma):
        actuator_force(0.3, 0.0, GEOM, LOAD)


def test_force_scales_linearly_with_payload():
    heavy = SupportLoad(mass=240.0)
    gamma = solve_gamma(math.radians(25.0), GEOM)
    f1 = actuator_force(math.radians(25.0), gamma, GEOM, LOAD)
    f2 = actuator_force(math.radians(25.0), gamma, GEOM, heavy)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-12)


def test_profile_peak_sits_at_rest_posture():
    grid = [math.radians(d) for d in range(91)]
    prof = force_profile(GEOM, LOAD, grid)
    assert len(prof) == 91
    forces = [f for _, _, f in prof]
    assert max(forces) == forces[0] == pytest.approx(659.232, rel=1e-9)
    assert all(a >= b for a, b in zip(forces, forces[1:]))


def test_profile_rejects_bad_grids():
    with pytest.raises(ValueError):
        force_profile(GEOM, LOAD, [])
    with pytest.raises(ValueError):
        force_profile(GEOM, LOAD, [0.2, 0.2])
    with pytest.raises(ValueError):
        force_profile(GEOM, LOAD, [-0.1, 0.5])


def test_geometry_validation():
    with pytest.raises(ValueError):
        SupportGeometry(a=0.335, b=0.225, h=0.0)
    with pytest.raises(ValueError):
        SupportGeometry(a=-0.1, b=0.225, h=0.6)


def test_load_validation():
    with pytest.raises(ValueError):
        SupportLoad(mass=0.0)
    with pytest.raises(ValueError):
        SupportLoad(safety_factor=0.9)


def test_structural_margin_at_design_point():
    rep = check_structural(659.232, LOAD)
    assert rep.passed and not math.isinf(rep.margin)
    assert rep.margin == pytest.approx(1130.0 / (659.232 * 1.25), rel=1e-12)


def test_structural_fails_past_limit():
    rep = check_structural(1000.0, LOAD)  # 1250 N demand vs 1130 N allowable
    assert not rep.passed
    assert rep.margin < 1.0


def test_structural_zero_load_is_unbounded():
    rep = check_structural(0.0, LOAD)
    assert rep.passed and math.isinf(rep.margin)
