"""User-support linkage analysis.

The user sits on a cantilever arm hinged to a vertical post and is raised or
lowered by a linear actuator.  Two relations govern the linkage:

* the actuator force needed to hold the arm at elevation ``theta``:

      F = (a + b) * m * g * cos(theta) / sin(gamma)

* a geometric constraint tying the actuator/arm angle ``gamma`` to ``theta``:

      sin(theta + gamma - 90 deg) = 2 b sin(theta/2) cos(gamma + theta/2) / h

where ``a`` is the hinge-to-payload offset along the arm, ``b`` the
hinge-to-actuator attachment distance and ``h`` the actuator base offset.
The constraint has a closed form.  With phi = gamma + theta/2 and
k = 2 b sin(theta/2) / h, the left side is -cos(phi + theta/2) and the right
side k cos(phi), so

      tan(phi) = (k + cos(theta/2)) / sin(theta/2)

For theta in [0, 90 deg] and b >= 0 this has one root with gamma in
[0, 180 deg), and it lies in [90 deg - theta, 90 deg], falling as theta
rises.  ``gamma`` is smallest at theta = 90 deg, so a linkage whose
sin(gamma) is far enough from zero there has a finite force everywhere.

Note on units: the force relation is applied exactly as the linkage was
sized, with ``(a + b)`` in metres and no moment-arm divisor, so its output
carries an extra length dimension (N*m rather than N).

All angles are radians.  Degree conversion happens only at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .drivetrain import _check_ranges, _ranged

__all__ = [
    "SupportGeometry",
    "SupportLoad",
    "StructuralReport",
    "SingularGamma",
    "solve_gamma",
    "gamma_residual",
    "actuator_force",
    "force_profile",
    "check_structural",
]

# Smallest |sin(gamma)| the force relation divides by.
_SIN_GAMMA_MIN = 1e-12


class SingularGamma(ValueError):
    """sin(gamma) is too close to zero for the force relation."""


@dataclass(frozen=True)
class SupportGeometry:
    """Link lengths of the support linkage, metres.

    a: hinge to payload centre along the arm
    b: hinge to actuator attachment along the arm
    h: actuator base offset from the hinge

    The actuator must not lie along the arm at full elevation, where gamma
    is smallest: |sin(gamma)| there must reach the force relation's bound.
    The three lengths are range-checked.
    """

    a: float = _ranged(0.335, 0, 100)
    b: float = _ranged(0.225, 0, 100)
    h: float = _ranged(0.60, 1e-3, 100)

    def __post_init__(self):
        _check_ranges(self)
        s = math.sin(solve_gamma(math.pi / 2, self))
        if not (abs(s) >= _SIN_GAMMA_MIN):
            raise ValueError(f"actuator lies along the arm at 90 deg elevation: sin(gamma) = {s:.3g} "
                             f"is below {_SIN_GAMMA_MIN:g} (b={self.b}, h={self.h})")


@dataclass(frozen=True)
class SupportLoad:
    """Payload and structural limits for the support assembly.  Every field
    is range-checked."""

    mass: float = _ranged(120.0, 1e-3, 1e4)                # kg, design payload
    gravity: float = _ranged(9.81, 0.1, 100)               # m/s^2
    hinge_shear_limit: float = _ranged(1130.0, 1e-3, 1e9)  # N, allowable shear at the actuator hinge
    safety_factor: float = _ranged(1.25, 1, 100)

    def __post_init__(self):
        _check_ranges(self)


def gamma_residual(gamma: float, theta: float, geom: SupportGeometry) -> float:
    """Residual of the angle constraint; zero at a consistent (theta, gamma)."""
    lhs = math.sin(theta + gamma - math.pi / 2)
    rhs = 2.0 * geom.b * math.sin(theta / 2.0) * math.cos(gamma + theta / 2.0) / geom.h
    return lhs - rhs


def solve_gamma(theta: float, geom: SupportGeometry) -> float:
    """Solve the angle constraint for gamma at a given arm elevation theta.

    The closed form of the module docstring:

        gamma = atan2(2 b sin(theta/2) / h + cos(theta/2), sin(theta/2)) - theta/2

    the one root in [0, pi); pi/2 exactly at theta = 0.  Its residual is a
    few ulps of the constraint's larger side: below 1e-15 * (1 + 2 b / h).
    """
    if not (0.0 <= theta <= math.pi / 2):
        raise ValueError(f"theta must lie in [0, pi/2] (got {theta!r})")
    half = theta / 2.0
    s = math.sin(half)
    return math.atan2(2.0 * geom.b * s / geom.h + math.cos(half), s) - half


def actuator_force(
    theta: float,
    gamma: float,
    geom: SupportGeometry,
    load: SupportLoad,
) -> float:
    """Actuator force magnitude holding the arm at (theta, gamma).

    Computed as (a + b) * m * g * cos(theta) / sin(gamma), the as-sized
    figures; see the module docstring for the dimensional caveat.
    """
    s = math.sin(gamma)
    if abs(s) < _SIN_GAMMA_MIN:
        raise SingularGamma(f"sin(gamma) ~ 0 at gamma={gamma!r}")
    return (geom.a + geom.b) * load.mass * load.gravity * math.cos(theta) / s


def force_profile(
    geom: SupportGeometry,
    load: SupportLoad,
    theta_grid: list[float],
) -> list[tuple[float, float, float]]:
    """Force curve over an elevation grid: (theta, gamma, force) per point.

    The grid must be strictly increasing within [0, pi/2].
    """
    if len(theta_grid) == 0:
        raise ValueError("empty grid")
    for prev, nxt in zip(theta_grid, theta_grid[1:]):
        if not nxt > prev:
            raise ValueError("theta grid must be strictly increasing")
    if theta_grid[0] < 0.0 or theta_grid[-1] > math.pi / 2:
        raise ValueError("theta grid must lie within [0, pi/2]")
    out = []
    for theta in theta_grid:
        gamma = solve_gamma(theta, geom)
        out.append((theta, gamma, actuator_force(theta, gamma, geom, load)))
    return out


@dataclass(frozen=True)
class StructuralReport:
    passed: bool
    margin: float          # limit / (load * safety_factor); inf when load = 0


def check_structural(peak_hinge_load: float, load: SupportLoad) -> StructuralReport:
    """Check the peak hinge shear against the allowable limit.

    Passes iff peak_hinge_load * safety_factor <= hinge_shear_limit.
    A zero load reports an unbounded margin.
    """
    if peak_hinge_load < 0:
        raise ValueError("peak_hinge_load must be >= 0")
    if peak_hinge_load == 0.0:
        return StructuralReport(passed=True, margin=math.inf)
    demand = peak_hinge_load * load.safety_factor
    return StructuralReport(
        passed=demand <= load.hinge_shear_limit,
        margin=load.hinge_shear_limit / demand,
    )
