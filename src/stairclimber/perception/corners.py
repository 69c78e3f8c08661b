"""Corner detection and touch-to-corner selection.

Corner score is the minimum eigenvalue of the 2x2 gradient structure tensor
summed over a 3x3 window, followed by strict non-maximum suppression over
the 8-neighbourhood.  Gradients are central differences, so a constant
intensity offset leaves every score unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import Frame

__all__ = ["Corner", "NoCorners", "detect_corners", "select_corner"]

# relative quality floor: keep corners scoring at least this fraction of the
# strongest one (same role as the quality level of the classic detector)
DEFAULT_QUALITY = 0.01
_ABS_FLOOR = 1e-9


class NoCorners(ValueError):
    """Corner selection was asked to pick from an empty list."""


@dataclass(frozen=True)
class Corner:
    x: float
    y: float
    score: float

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


def _gradients(px: np.ndarray) -> np.ndarray:
    """The image and its gradients, stacked as a C-contiguous [px, gx, gy].

    gx is zero in the first and last column, gy in the first and last row.
    """
    g = np.zeros((3, *px.shape))
    g[0] = px
    g[1, :, 1:-1] = (px[:, 2:] - px[:, :-2]) / 2.0
    g[2, 1:-1, :] = (px[2:, :] - px[:-2, :]) / 2.0
    return g


def _box3(a: np.ndarray) -> np.ndarray:
    """Sum over the 3x3 neighbourhood, zero-padded at the borders."""
    h, w = a.shape
    p = np.zeros((h + 2, w + 2))
    p[1:-1, 1:-1] = a
    # summed-area table of the padded input, behind a zero row and column
    c = np.zeros((h + 3, w + 3))
    np.cumsum(p, axis=0, out=p)
    np.cumsum(p, axis=1, out=c[1:, 1:])
    return c[3 : 3 + h, 3 : 3 + w] - c[3 : 3 + h, :w] - c[:h, 3 : 3 + w] + c[:h, :w]


def min_eig_response(frame: Frame) -> np.ndarray:
    """Per-pixel minimum eigenvalue of the 3x3-window structure tensor."""
    _, gx, gy = _gradients(frame.pixels)
    sxx = _box3(gx * gx)
    syy = _box3(gy * gy)
    sxy = _box3(gx * gy)
    half_trace = (sxx + syy) / 2.0
    radius = np.sqrt(((sxx - syy) / 2.0) ** 2 + sxy**2)
    return half_trace - radius


def detect_corners(frame: Frame, max_count: int | None = None) -> list[Corner]:
    """Find corners, strongest first.

    Keeps strict local maxima of the min-eigenvalue response above a
    relative quality floor; a uniform frame yields no corners.  Equal scores
    are ordered by row, then column, so the result is deterministic.
    """
    resp = min_eig_response(frame)
    floor = max(_ABS_FLOOR, DEFAULT_QUALITY * float(resp.max(initial=0.0)))
    h, w = resp.shape
    p = np.full((h + 2, w + 2), -np.inf)
    p[1:-1, 1:-1] = resp
    is_peak = resp > floor
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            neighbor = p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
            is_peak &= resp > neighbor
    ys, xs = np.nonzero(is_peak)
    order = np.lexsort((xs, ys, -resp[ys, xs]))[:max_count]
    ys, xs = ys[order], xs[order]
    return list(map(Corner, *np.stack((xs, ys, resp[ys, xs])).tolist()))


def select_corner(corners: list[Corner], touch: tuple[float, float]) -> Corner:
    """Pick the corner nearest a touch point.

    Ties on distance go to the higher score, then to the earlier list
    position, so repeated selections on the same input agree.
    """
    if not corners:
        raise NoCorners("no corners to select from")
    tx, ty = touch
    if not (math.isfinite(tx) and math.isfinite(ty)):
        raise ValueError(f"touch must be finite (got {touch})")
    # min keeps the first of equal keys: the earlier list position
    return min(corners, key=lambda c: ((c.x - tx) ** 2 + (c.y - ty) ** 2, -c.score))
