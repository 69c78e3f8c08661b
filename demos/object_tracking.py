"""Pick a corner in a synthetic scene and follow it through camera motion.

Renders a textured scene, detects corner features, selects the one nearest
a simulated screen touch, then tracks it across drifting frames and turns
the pixel position into a steering bearing.
"""

import math

import numpy as np

from stairclimber.perception import (
    TrackedPoint,
    detect_corners,
    fb_track,
    pixel_to_bearing,
    random_texture,
    render_texture,
    select_corner,
)

rng = np.random.default_rng(7)
tex = random_texture(rng, n_waves=14)
width, height = 128, 96

scene = render_texture(tex, width, height, (0.0, 0.0))
corners = detect_corners(scene, max_count=10)
print(f"{len(corners)} corners found; strongest at ({corners[0].x:.0f}, {corners[0].y:.0f})")

touch = (60.0, 40.0)
picked = select_corner(corners, touch)
print(f"touch at {touch} -> tracking corner ({picked.x:.0f}, {picked.y:.0f})")
print()

# the camera drifts right and slightly down over a second of frames
point = TrackedPoint(picked.x, picked.y)
drift = np.cumsum(rng.uniform([0.5, -0.3], [2.0, 0.3], size=(8, 2)), axis=0)
prev = scene
print(f"{'frame':>5} {'x':>7} {'y':>7} {'bearing':>8} {'status':>9}")
for i, (dx, dy) in enumerate(drift, start=1):
    frame = render_texture(tex, width, height, (float(dx), float(dy)))
    point = fb_track(prev, frame, point)
    if point.lost:
        print(f"{i:5d} {'-':>7} {'-':>7} {'-':>8} {'lost':>9}")
        break
    bearing = math.degrees(pixel_to_bearing(point.x, width))
    print(f"{i:5d} {point.x:7.2f} {point.y:7.2f} {bearing:7.2f}d {'tracking':>9}")
    prev = frame
else:
    err_x = point.x - (picked.x + drift[-1][0])
    err_y = point.y - (picked.y + drift[-1][1])
    print()
    print(f"drift recovered to ({err_x:+.3f}, {err_y:+.3f}) px of ground truth")
