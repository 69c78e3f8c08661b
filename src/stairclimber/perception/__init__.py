"""Sensor-side algorithms: sonar occupancy regions, synthetic frames,
corner detection and forward-backward point tracking.

Every result here depends only on the call's arguments; frames are immutable
once constructed and tracker state is passed in and out, so frame pairs can
be processed in parallel.  A frame caches what the tracker derives from it
alone (its pyramids and its last template set-ups), so a frame tracked again
does not repeat that work.  Two threads that fill one frame's cache at once
compute the same values twice, and either copy is kept.

The sonar names load with the package, because control imports them and
they need no numpy.  The names from frames, corners and flow, which import
numpy, load on first use: a run that never tracks never imports them.
"""

import importlib

from .sonar import REGIONS, RegionOccupancy, SonarTriple, region_map

# the re-exports that load on first use, by home module
_LAZY = {
    "frames": (
        "DEFAULT_HFOV",
        "CosineTexture",
        "Frame",
        "pixel_to_bearing",
        "random_texture",
        "read_pgm",
        "render_texture",
        "write_pgm",
    ),
    "corners": ("Corner", "NoCorners", "detect_corners", "select_corner"),
    "flow": ("LkParams", "TrackedPoint", "TrackStatus", "fb_track", "lk_track"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["REGIONS", "RegionOccupancy", "SonarTriple", "region_map", *_HOME]


def __getattr__(name):
    # PEP 562: called only for a name not yet in the module's globals
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__})
