"""Sensor-side algorithms: sonar occupancy regions, synthetic frames,
corner detection and forward-backward point tracking.

Everything here is pure per call; frames are immutable once constructed and
tracker state is passed in and out, so frame pairs can be processed in
parallel.
"""

from .sonar import REGIONS, RegionOccupancy, SonarTriple, region_map
from .frames import (
    DEFAULT_HFOV,
    CosineTexture,
    Frame,
    pixel_to_bearing,
    random_texture,
    read_pgm,
    render_texture,
    write_pgm,
)
from .corners import Corner, NoCorners, detect_corners, select_corner
from .flow import LkParams, TrackedPoint, TrackStatus, fb_track, lk_track

__all__ = [
    "REGIONS",
    "RegionOccupancy",
    "SonarTriple",
    "region_map",
    "DEFAULT_HFOV",
    "CosineTexture",
    "Frame",
    "pixel_to_bearing",
    "random_texture",
    "read_pgm",
    "render_texture",
    "write_pgm",
    "Corner",
    "NoCorners",
    "detect_corners",
    "select_corner",
    "LkParams",
    "TrackedPoint",
    "TrackStatus",
    "fb_track",
    "lk_track",
]
