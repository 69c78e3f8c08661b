"""Three-sonar field-of-view occupancy mapping.

Three range sensors (left, front, right) with overlapping cones divide the
field of view into 7 cells: the 3 exclusive cones, the 3 pairwise overlaps
and the central triple overlap.  A cell is occupied exactly when every
sensor whose cone covers it reports an obstacle, so the map is the 7
nonempty subsets of {L, F, R} and occupancy is subset-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

__all__ = ["SonarTriple", "RegionOccupancy", "REGIONS", "region_map"]

_SENSORS = ("L", "F", "R")

# the 7 nonempty subsets of {L, F, R}, singletons first
REGIONS: tuple[frozenset[str], ...] = tuple(
    frozenset(c) for k in (1, 2, 3) for c in combinations(_SENSORS, k)
)


@dataclass(frozen=True)
class SonarTriple:
    """One synchronized reading of the three range sensors, in metres."""

    d_left: float
    d_front: float
    d_right: float
    max_range: float = 4.0
    threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.threshold < self.max_range < math.inf:
            raise ValueError(
                f"need 0 < threshold < max_range < inf (got {self.threshold}, {self.max_range})"
            )
        for name in ("d_left", "d_front", "d_right"):
            d = getattr(self, name)
            if not 0.0 < d <= self.max_range:
                raise ValueError(f"{name} must lie in (0, max_range] (got {d})")

    def blocked(self) -> frozenset[str]:
        """Sensors currently reporting an obstacle at or inside threshold."""
        readings = {"L": self.d_left, "F": self.d_front, "R": self.d_right}
        return frozenset(s for s, d in readings.items() if d <= self.threshold)


@dataclass(frozen=True)
class RegionOccupancy:
    """Which of the 7 field-of-view cells currently hold an obstacle."""

    occupied: frozenset[frozenset[str]]

    def __post_init__(self):
        unknown = self.occupied - set(REGIONS)
        if unknown:
            raise ValueError(f"unknown regions: {sorted(map(sorted, unknown))}")

    def is_occupied(self, region: frozenset[str] | set[str] | str) -> bool:
        if isinstance(region, str):
            region = frozenset(region)
        return frozenset(region) in self.occupied


def region_map(s: SonarTriple) -> RegionOccupancy:
    """Map one sensor triple onto the 7-cell occupancy set.

    A cell S is occupied iff every sensor in S is blocked: an obstacle in an
    overlap cell is seen by all the cones that form it.
    """
    blocked = s.blocked()
    return RegionOccupancy(frozenset(r for r in REGIONS if r <= blocked))

