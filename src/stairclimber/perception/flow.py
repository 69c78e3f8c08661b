"""Pyramidal Lucas-Kanade point tracking with a forward-backward check.

One point is tracked from frame to frame by iterative least squares on the
local brightness constraint, coarse-to-fine over a box-downsampled pyramid.
The Gauss-Newton steps are damped: each time the window's squared residual
rises, the step gain halves, for that step and every later one of the same
level.  Damping leaves the fixed point where it was and only shortens the
path to it, so a solve whose residual never rises takes the plain steps.
A track survives only if tracking the result backwards lands near the start
point; otherwise, or when the window leaves the frame or the local gradient
structure degenerates, the point is reported Lost and tracking stops.  No
exceptions are raised for lost tracks: losing the target is a normal
outcome, not an error.

Each frame's pyramid is built once per call and serves both directions.  A
level differentiates only the pixel block under its window and samples it
with separable bilinear taps, doing per pixel the arithmetic of the
whole-level, tap-by-tap form, so the results are the same to the bit.
Everything on the template side is fixed for a level (Baker & Matthews,
"Lucas-Kanade 20 Years On"): the set-up samples the block and its two
gradients as one C-contiguous (3, n, n) stack, [template, ix, iy], and each
Gauss-Newton iteration samples the next frame once and gets the residual
and both right-hand sides from one product and one reduction over that
stack.  No state is kept across calls.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .corners import _gradients
from .frames import Frame

__all__ = ["LkParams", "TrackStatus", "TrackedPoint", "lk_track", "fb_track"]


@dataclass(frozen=True)
class LkParams:
    window: int = 15           # odd side length of the correlation window, px
    levels: int = 3            # pyramid depth cap; level 0 is full resolution
    max_iters: int = 30        # cap on Gauss-Newton steps per level; the step
                               # gain halves whenever the residual rises
    epsilon: float = 0.01      # stop when the (damped) update step is shorter
                               # than this, px
    min_eig: float = 1e-6      # floor on the windowed gradient tensor's min
                               # eigenvalue, per pixel; below it the solve is
                               # treated as degenerate
    fb_threshold: float = 1.0  # max forward-backward return distance, px

    def __post_init__(self):
        for name in ("window", "levels", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer (got {value!r})")
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3 (got {self.window})")
        for name in ("levels", "max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1 (got {getattr(self, name)})")
        for name in ("epsilon", "fb_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0 (got {value!r})")
        # 0 is allowed: a flat window still fails the solve's det > 0 test
        if not (math.isfinite(self.min_eig) and self.min_eig >= 0):
            raise ValueError(f"min_eig must be finite and >= 0 (got {self.min_eig!r})")

    @property
    def half(self) -> int:
        return self.window // 2


class TrackStatus(Enum):
    TRACKING = "tracking"
    LOST = "lost"


@dataclass(frozen=True)
class TrackedPoint:
    x: float
    y: float
    status: TrackStatus = TrackStatus.TRACKING

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def lost(self) -> bool:
        return self.status is TrackStatus.LOST


class _TrackFail(Exception):
    """Internal: window left the image or the solve degenerated."""


def _pyramid(px: np.ndarray, p: LkParams) -> list[np.ndarray]:
    min_size = p.window + 2
    pyr = [px]
    while len(pyr) < p.levels:
        h, w = pyr[-1].shape
        if h // 2 < min_size or w // 2 < min_size:
            break
        t = pyr[-1][: (h // 2) * 2, : (w // 2) * 2]
        # the 2x2 block mean, summed in reshape(...).mean(axis=(1, 3))'s order
        pyr.append(((t[0::2, 0::2] + t[0::2, 1::2]) + (t[1::2, 0::2] + t[1::2, 1::2])) / 4)
    return pyr


def _window_fits(x: float, y: float, shape: tuple[int, int], hw: int) -> bool:
    # keep the whole window inside the region where central-difference
    # gradients and bilinear lookups are valid
    h, w = shape
    tol = 1e-9
    return (
        x - hw >= 1.0 - tol
        and y - hw >= 1.0 - tol
        and x + hw <= w - 2.0 + tol
        and y + hw <= h - 2.0 + tol
    )


def _taps(x: float, y: float, offs: np.ndarray):
    """Separable bilinear taps of the window at (x, y), which must fit.

    Returns the rows and columns the taps read, then, within that block,
    the taps' indices (None when consecutive, so that slices read them) and
    the weights 1 - fx, fx as rows and 1 - fy, fy as columns.
    """
    xs = x + offs
    ys = y + offs
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    fx = xs - x0
    fy = (ys - y0)[:, None]
    c0, c1, r0, r1 = int(x0[0]), int(x0[-1]), int(y0[0]), int(y0[-1])
    # x + k > 0 in a window that fits, so floor(x + k) cannot repeat as k
    # steps by 1: the taps skip a pixel only when the floors span more
    index = None
    if c1 - c0 != len(offs) - 1 or r1 - r0 != len(offs) - 1:
        index = ((y0 - r0).astype(int)[:, None], (x0 - c0).astype(int))
    return (slice(r0, r1 + 2), slice(c0, c1 + 2)), (index, 1 - fx, fx, 1 - fy, fy)


def _bilinear(block: np.ndarray, taps) -> np.ndarray:
    """Sample a block, or a stack of blocks along the first axis, at the taps."""
    index, wx0, wx1, wy0, wy1 = taps
    if index is None:
        # a * wx0 and c * wx0 are rows of one product, as are b * wx1 and d * wx1
        left, right = block[..., :-1] * wx0, block[..., 1:] * wx1
        return (left[..., :-1, :] * wy0 + right[..., :-1, :] * wy0
                + left[..., 1:, :] * wy1 + right[..., 1:, :] * wy1)
    ri, ci = index
    a, b = block[..., ri, ci], block[..., ri, ci + 1]
    c, d = block[..., ri + 1, ci], block[..., ri + 1, ci + 1]
    return a * wx0 * wy0 + b * wx1 * wy0 + c * wx0 * wy1 + d * wx1 * wy1


def _lk_level(
    prev_px: np.ndarray,
    next_px: np.ndarray,
    px: float,
    py: float,
    guess: tuple[float, float],
    p: LkParams,
) -> tuple[float, float]:
    """Refine the displacement at one pyramid level; raises _TrackFail."""
    hw = p.half
    if not _window_fits(px, py, prev_px.shape, hw):
        raise _TrackFail("template window outside image")
    offs = np.arange(-hw, hw + 1, dtype=float)
    (rows, cols), taps = _taps(px, py, offs)
    # differentiate only the sampled block, padded by the pixel on each side
    # that central differences read, where the level has one
    pr, pc = min(rows.start, 1), min(cols.start, 1)
    pad = prev_px[rows.start - pr : rows.stop + 1, cols.start - pc : cols.stop + 1]
    stack = _gradients(pad)[:, pr : pr + rows.stop - rows.start, pc : pc + cols.stop - cols.start]
    # [template, ix, iy]; skipped taps gather a non-contiguous stack, whose
    # planes would be summed in another order
    w = np.ascontiguousarray(_bilinear(stack, taps))
    template = w[0].copy()

    gxx, gyy = (w[1:] * w[1:]).sum(axis=(1, 2)).tolist()
    gxy = float((w[1] * w[2]).sum())
    half_trace = (gxx + gyy) / 2.0
    radius = math.hypot((gxx - gyy) / 2.0, gxy)
    n_pix = (2 * hw + 1) ** 2
    det = gxx * gyy - gxy * gxy
    if (half_trace - radius) / n_pix < p.min_eig or not det > 0:
        raise _TrackFail("degenerate gradient structure")

    dx, dy = guess
    gain, last = 1.0, math.inf
    for _ in range(p.max_iters):
        qx, qy = px + dx, py + dy
        if not _window_fits(qx, qy, next_px.shape, hw):
            raise _TrackFail("search window outside image")
        block, taps = _taps(qx, qy, offs)
        # w becomes [diff, ix, iy], and diff times it gives err, bx and by
        np.subtract(_bilinear(next_px[block], taps), template, out=w[0])
        err, bx, by = (w[0] * w).sum(axis=(1, 2)).tolist()
        if err > last:
            # the last step overshot: halve this step and every later one
            gain /= 2.0
        last = err
        step_x = -gain * (gyy * bx - gxy * by) / det
        step_y = -gain * (gxx * by - gxy * bx) / det
        dx += step_x
        dy += step_y
        if math.hypot(step_x, step_y) < p.epsilon:
            break
    if not _window_fits(px + dx, py + dy, next_px.shape, hw):
        raise _TrackFail("converged outside image")
    return dx, dy


def _track(pyr_prev: list, pyr_next: list, point: tuple[float, float], p: LkParams):
    """lk_track on the two frames' pyramids."""
    depth = min(len(pyr_prev), len(pyr_next))
    x, y = point
    dx, dy = 0.0, 0.0
    try:
        for level in reversed(range(depth)):
            scale = 2.0**level
            dx, dy = _lk_level(pyr_prev[level], pyr_next[level], x / scale, y / scale, (dx, dy), p)
            if level > 0:
                dx *= 2.0
                dy *= 2.0
    except _TrackFail:
        return None
    return (x + dx, y + dy)


def lk_track(
    prev: Frame,
    next_frame: Frame,
    point: tuple[float, float],
    params: LkParams = LkParams(),
) -> tuple[float, float] | None:
    """Track one point from prev to next_frame; None when the track fails.

    Coarse-to-fine: the displacement found at each pyramid level, doubled,
    seeds the next finer level.  Each level differentiates only the pixel
    block under the window and samples it with separable bilinear taps.
    """
    pyr_prev = _pyramid(prev.pixels, params)
    pyr_next = _pyramid(next_frame.pixels, params)
    return _track(pyr_prev, pyr_next, point, params)


def fb_track(
    prev: Frame,
    next_frame: Frame,
    point: TrackedPoint,
    params: LkParams = LkParams(),
) -> TrackedPoint:
    """Advance a tracked point by one frame with a forward-backward gate.

    The point is tracked prev->next, then the result is tracked back
    next->prev; if the round trip misses the start by more than
    fb_threshold, or either direction fails, the point is marked Lost at
    its last known position.  Both directions share the two frames'
    pyramids, built once per call.
    """
    if point.lost:
        return point
    pyr_prev = _pyramid(prev.pixels, params)
    pyr_next = _pyramid(next_frame.pixels, params)
    forward = _track(pyr_prev, pyr_next, point.position, params)
    if forward is None:
        return replace(point, status=TrackStatus.LOST)
    backward = _track(pyr_next, pyr_prev, forward, params)
    if backward is None:
        return replace(point, status=TrackStatus.LOST)
    if math.dist(backward, point.position) > params.fb_threshold:
        return replace(point, status=TrackStatus.LOST)
    return TrackedPoint(forward[0], forward[1], TrackStatus.TRACKING)
