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

Frames are immutable, so what a solve derives from one frame alone is kept
on the frame (Frame._derived) and reused by every later call: the frame's
pyramid for each (window, levels), built on its first solve, and for each
level of it the most recent template set-up, with the exact point it was
made at.  The forward-backward gate (Kalal, Mikolajczyk & Matas 2010,
"Forward-Backward Error") leaves its backward set-up on the second frame at
the very point where the next call's forward solve starts, so in a chain
fb_track(a, b), fb_track(b, c), ... each frame's pyramid is built once and
each forward solve after the first takes its set-up as it is.  A cached
set-up holds the values a fresh one computes, and the degeneracy test
against min_eig runs on every solve, so no result depends on what was
tracked before.

A level differentiates only the pixel block under its window and samples it
with separable bilinear taps, doing per pixel the arithmetic of the
whole-level, tap-by-tap form, so the results are the same to the bit.
Everything on the template side is fixed for a level (Baker & Matthews,
"Lucas-Kanade 20 Years On"): the set-up samples the block and its two
gradients as one C-contiguous (3, n, n) stack, [template, ix, iy].  Each
Gauss-Newton iteration samples the next frame once, reading consecutive
taps' four bilinear neighbours as one strided view of the level, and gets
the residual and both right-hand sides from one product and one reduction
over that stack.
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
        # the 2x2 block mean, summed in reshape(...).mean(axis=(1, 3))'s
        # order, (a + b) + (c + d): the column pairs, then pairs of their rows
        pairs = t[:, 0::2] + t[:, 1::2]
        level = pairs[0::2] + pairs[1::2]
        level /= 4
        pyr.append(level)
    return pyr


def _levels(frame: Frame, p: LkParams) -> list[list]:
    """The frame's pyramid for p, each level as [pixels, its last set-up].

    Built on the frame's first solve with p's window and depth, and kept on
    the frame; a level's set-up slot is None until a solve starts there.
    """
    key = (p.window, p.levels)
    levels = frame._derived.get(key)
    if levels is None:
        levels = frame._derived[key] = [[px, None] for px in _pyramid(frame.pixels, p)]
    return levels


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

    offs is the window's arange(-hw, hw + 1) as floats.  Returns the rows
    and columns the taps read, then, within that block, the taps' indices
    (None when consecutive, so that a strided view reads them) and the
    weights, shaped to broadcast over the four neighbours stacked as
    (2, 2, n, n): [1 - fx, fx] as (2, 1, n) and [1 - fy, fy] as (2, 1, n, 1).
    """
    hw = len(offs) // 2
    # the first and last taps' floors; x - hw is x + offs[0] to the bit
    c0, c1 = math.floor(x - hw), math.floor(x + hw)
    r0, r1 = math.floor(y - hw), math.floor(y + hw)
    at = np.add.outer((x, y), offs)       # the taps' x, then their y
    lo = np.floor(at)
    weights = np.empty((2, 2, len(offs)))  # 1 - f, then f, each by axis
    np.subtract(at, lo, out=weights[1])
    np.subtract(1.0, weights[1], out=weights[0])
    # x + k > 0 in a window that fits, so floor(x + k) cannot repeat as k
    # steps by 1: the taps skip a pixel only when the floors span more
    index = None
    if c1 - c0 != 2 * hw or r1 - r0 != 2 * hw:
        index = ((lo[1] - r0).astype(int)[:, None], (lo[0] - c0).astype(int))
    return (slice(r0, r1 + 2), slice(c0, c1 + 2)), (index, weights[:, 0, None], weights[:, 1, None, :, None])


def _bilinear(block: np.ndarray, taps) -> np.ndarray:
    """Sample a block, or a stack of blocks along the first axis, at taps
    that skip a pixel; _neighbours samples consecutive ones."""
    (ri, ci), (wx0, wx1), wy = taps
    wy0, wy1 = wy[:, 0]
    a, b = block[..., ri, ci], block[..., ri, ci + 1]
    c, d = block[..., ri + 1, ci], block[..., ri + 1, ci + 1]
    return a * wx0 * wy0 + b * wx1 * wy0 + c * wx0 * wy1 + d * wx1 * wy1


def _neighbours(src: np.ndarray, r0: int, c0: int, taps, out: np.ndarray,
                quad: np.ndarray) -> None:
    """Sample src at consecutive taps whose block starts at (r0, c0), into out.

    src is a C-contiguous level, or a stack of them along the first axis.
    The taps' four bilinear neighbours a, b, c, d are one strided
    (2, 2, ..., n, n) view of src, weighted into quad.  Reduced over its
    first two axes from -0.0, which adds every float unchanged, they are
    summed in the tap-by-tap form's order, a + b + c + d, to the bit.
    """
    _, wx, wy = taps
    if src.ndim == 3:
        wx, wy = wx[:, None], wy[:, None]
    *planes, row, col = src.strides
    view = np.ndarray(quad.shape, src.dtype, src, r0 * row + c0 * col, (row, col, *planes, row, col))
    np.multiply(view, wx, out=quad)
    quad *= wy
    np.add.reduce(quad.reshape(4, *out.shape), axis=0, out=out, initial=-0.0)


def _sample(level: np.ndarray, x: float, y: float, offs: np.ndarray, out: np.ndarray,
            quad: np.ndarray) -> None:
    """Sample a C-contiguous level over the window at (x, y), which must fit,
    into out; quad is (2, 2, n, n) scratch."""
    (rows, cols), taps = _taps(x, y, offs)
    if taps[0] is None:
        _neighbours(level, rows.start, cols.start, taps, out, quad)
    else:
        out[...] = _bilinear(level[rows, cols], taps)


def _setup(level: np.ndarray, x: float, y: float, offs: np.ndarray) -> tuple:
    """The template side of a solve at (x, y) on a level, where the window fits.

    Returns (x, y, the read-only [template, ix, iy] stack, gxx, gyy, gxy,
    det) of the windowed gradient tensor.
    """
    (rows, cols), taps = _taps(x, y, offs)
    # differentiate only the sampled block, padded by the pixel on each side
    # that central differences read, where the level has one
    pr, pc = min(rows.start, 1), min(cols.start, 1)
    grads = _gradients(level[rows.start - pr : rows.stop + 1, cols.start - pc : cols.stop + 1])
    n = len(offs)
    w = np.empty((3, n, n))
    if taps[0] is None:
        _neighbours(grads, pr, pc, taps, w, np.empty((2, 2, 3, n, n)))
    else:
        w[...] = _bilinear(grads[:, pr : pr + rows.stop - rows.start, pc : pc + cols.stop - cols.start], taps)
    w.flags.writeable = False
    gxx, gyy = (w[1:] * w[1:]).sum(axis=(1, 2)).tolist()
    gxy = float((w[1] * w[2]).sum())
    return x, y, w, gxx, gyy, gxy, gxx * gyy - gxy * gxy


def _lk_level(
    prev: list,
    next_px: np.ndarray,
    px: float,
    py: float,
    guess: tuple[float, float],
    p: LkParams,
) -> tuple[float, float]:
    """Refine the displacement at one pyramid level; raises _TrackFail.

    prev is the first frame's level as [pixels, last set-up]; a solve that
    starts at the set-up's exact point takes it instead of making its own.
    """
    hw = p.half
    prev_px, setup = prev
    if not _window_fits(px, py, prev_px.shape, hw):
        raise _TrackFail("template window outside image")
    offs = np.arange(-hw, hw + 1, dtype=float)
    if setup is None or setup[0] != px or setup[1] != py:
        setup = prev[1] = _setup(prev_px, px, py, offs)
    _, _, stack, gxx, gyy, gxy, det = setup
    half_trace = (gxx + gyy) / 2.0
    radius = math.hypot((gxx - gyy) / 2.0, gxy)
    if (half_trace - radius) / p.window**2 < p.min_eig or not det > 0:
        raise _TrackFail("degenerate gradient structure")

    # w is [diff, ix, iy], and diff times it gives err, bx and by
    w = stack.copy()
    diff, template = w[0], stack[0]
    quad = np.empty((2, 2, p.window, p.window))
    shape = next_px.shape
    dx, dy = guess
    gain, last = 1.0, math.inf
    for _ in range(p.max_iters):
        qx, qy = px + dx, py + dy
        if not _window_fits(qx, qy, shape, hw):
            raise _TrackFail("search window outside image")
        _sample(next_px, qx, qy, offs, diff, quad)
        diff -= template
        err, bx, by = (diff * w).sum(axis=(1, 2)).tolist()
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
    if not _window_fits(px + dx, py + dy, shape, hw):
        raise _TrackFail("converged outside image")
    return dx, dy


def _track(prev_levels: list, next_levels: list, point: tuple[float, float], p: LkParams):
    """lk_track on the two frames' levels, as _levels gives them."""
    depth = min(len(prev_levels), len(next_levels))
    x, y = point
    dx, dy = 0.0, 0.0
    try:
        for level in reversed(range(depth)):
            scale = 2.0**level
            dx, dy = _lk_level(prev_levels[level], next_levels[level][0], x / scale, y / scale,
                               (dx, dy), p)
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
    Each frame's pyramid comes from the frame's cache (built on its first
    solve with these params), and a solve that starts where the last
    set-up on its level of prev was made reuses it; the result is the same
    either way.
    """
    return _track(_levels(prev, params), _levels(next_frame, params), point, params)


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
    its last known position.  Both directions use the two frames' cached
    pyramids.  The backward solve's set-up on next_frame is left in its
    cache, so a following fb_track(next_frame, ..., result) starts its
    forward solve from it instead of making it again.
    """
    if point.lost:
        return point
    prev_levels, next_levels = _levels(prev, params), _levels(next_frame, params)
    forward = _track(prev_levels, next_levels, point.position, params)
    if forward is None:
        return replace(point, status=TrackStatus.LOST)
    backward = _track(next_levels, prev_levels, forward, params)
    if backward is None:
        return replace(point, status=TrackStatus.LOST)
    if math.dist(backward, point.position) > params.fb_threshold:
        return replace(point, status=TrackStatus.LOST)
    return TrackedPoint(forward[0], forward[1], TrackStatus.TRACKING)
