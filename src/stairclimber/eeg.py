"""EEG-driven posture control: stream parsing, LOESS smoothing, hysteresis.

The headset streams attention/meditation values scaled 1..100 over a serial
link.  The wire format here is a minimal stand-in for the headset protocol
(the real device speaks a vendor protocol; this one keeps the same shape):

    0xAA 0xAA | LEN | PAYLOAD[LEN] | SUM

with LEN = 2 (attention byte, meditation byte) and SUM the additive
checksum (LEN + payload bytes) mod 256.  The parser tolerates arbitrary
chunking and resynchronises on the next sync pair after corruption; bad
frames are dropped, never raised.

The meditation series is pre-smoothed with LOESS (locally weighted linear
regression, tricube weights) before driving the seat: raw headset values are
spiky and a single outlier must not toggle the actuators.  The arbiter fits
only the newest sample of its window (loess_last).  posture_transition is a
hysteresis band on the smoothed value: at or above the high threshold the
seat raises, at or below the low threshold it lowers, and in between it
holds its previous state.  Exactly one state is active at a time, so the
seat is never commanded both ways at once; PostureState.seat_rate turns the
state into the rate command.  Thresholds default to 60/40, symmetric about
the scale midpoint with a dead band wide enough to reject smoothed noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "EegRecord",
    "EegStreamParser",
    "LoessConfig",
    "TooFewPoints",
    "loess_smooth",
    "loess_last",
    "PostureState",
    "posture_transition",
    "encode_frame",
]

SYNC = 0xAA
_PAYLOAD_LEN = 2
_MIN_WINDOW = 3   # points in the smallest window a straight-line fit can smooth
_HYSTERESIS_LO, _HYSTERESIS_HI = 40.0, 60.0  # seat band; ArbiterConfig reads these too


class TooFewPoints(ValueError):
    """Not enough samples for the requested local regression window."""


@dataclass(frozen=True)
class EegRecord:
    t: float
    attention: int   # 1..100
    meditation: int  # 1..100

    def __post_init__(self):
        for name in ("attention", "meditation"):
            v = getattr(self, name)
            if not 1 <= v <= 100:
                raise ValueError(f"{name} must lie in [1, 100] (got {v})")


def _clamp_scale(raw: int) -> int:
    return min(100, max(1, raw))


def encode_frame(attention: int, meditation: int) -> bytes:
    """Build one wire frame; the counterpart of the parser, used in tests/replay."""
    payload = bytes([attention & 0xFF, meditation & 0xFF])
    checksum = (_PAYLOAD_LEN + sum(payload)) & 0xFF
    return bytes([SYNC, SYNC, _PAYLOAD_LEN]) + payload + bytes([checksum])


class EegStreamParser:
    """Incremental frame parser for one headset stream (single owner).

    feed() accepts any chunking of the byte stream and returns the records
    completed by that chunk.  Record timestamps count frames: the n-th valid
    frame gets t = n * dt.
    """

    def __init__(self, dt: float = 1.0):
        self._buf = bytearray()
        self._count = 0
        self.dt = dt
        self.checksum_failures = 0

    def feed(self, data: bytes) -> list[EegRecord]:
        self._buf.extend(data)
        records: list[EegRecord] = []
        while True:
            start = self._buf.find(bytes([SYNC, SYNC]))
            if start < 0:
                # keep a trailing lone sync byte, drop the rest
                keep = 1 if self._buf and self._buf[-1] == SYNC else 0
                del self._buf[: len(self._buf) - keep]
                break
            if start > 0:
                del self._buf[:start]
            frame_len = 2 + 1 + _PAYLOAD_LEN + 1
            if len(self._buf) < frame_len:
                break
            length = self._buf[2]
            payload = self._buf[3 : 3 + _PAYLOAD_LEN]
            checksum = self._buf[3 + _PAYLOAD_LEN]
            ok = length == _PAYLOAD_LEN and (length + sum(payload)) & 0xFF == checksum
            if ok:
                records.append(
                    EegRecord(
                        t=self._count * self.dt,
                        attention=_clamp_scale(payload[0]),
                        meditation=_clamp_scale(payload[1]),
                    )
                )
                self._count += 1
                del self._buf[:frame_len]
            else:
                self.checksum_failures += 1
                # skip past the first sync byte and rescan
                del self._buf[:1]
        return records


@dataclass(frozen=True)
class LoessConfig:
    """Local regression settings: tricube weights, straight-line local fits."""

    span: float = 0.3  # fraction of points in each local window

    def __post_init__(self):
        if not 0.0 < self.span <= 1.0:
            raise ValueError(f"span must lie in (0, 1] (got {self.span})")

    def window(self, n: int) -> int:
        return min(n, max(_MIN_WINDOW, math.ceil(self.span * n)))


def loess_smooth(
    series: list[tuple[float, float]] | np.ndarray,
    cfg: LoessConfig | None = None,
) -> list[tuple[float, float]]:
    """Smooth a (t, value) series with locally weighted linear regression.

    Each point is re-estimated from a weighted straight-line fit over its
    nearest-neighbour window (tricube weights, zero at the window edge).
    Output length equals input length and t values are echoed unchanged.
    Requires >= 3 points with strictly increasing t.  The arbiter needs only
    the newest point and calls loess_last instead.
    """
    t, y, q = _checked_series(series, cfg)
    return [(float(t[i]), float(_fit_at(t, y, q, i))) for i in range(len(t))]


def loess_last(series, cfg: LoessConfig | None = None) -> float:
    """The fit at the last point of a series only: one local fit, not one per point.

    Equals loess_smooth(series, cfg)[-1][1] exactly, with the same checks
    and errors.  The arbiter smooths each new headset sample with this.
    """
    t, y, q = _checked_series(series, cfg)
    return float(_fit_at(t, y, q, len(t) - 1))


def _checked_series(series, cfg: LoessConfig | None) -> tuple[np.ndarray, np.ndarray, int]:
    """The t and value columns of a checked series, and its window size."""
    if cfg is None:
        cfg = LoessConfig()
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be a sequence of (t, value) pairs")
    n = arr.shape[0]
    if n < _MIN_WINDOW:
        raise TooFewPoints(f"need at least {_MIN_WINDOW} points (got {n})")
    t, y = arr[:, 0], arr[:, 1]
    if not np.all(np.diff(t) > 0):
        raise ValueError("t must be strictly increasing")
    return t, y, cfg.window(n)


def _fit_at(t: np.ndarray, y: np.ndarray, q: int, i: int) -> float:
    # weighted line through the q nearest neighbours of point i, at t[i]
    d = np.abs(t - t[i])
    h = np.partition(d, q - 1)[q - 1]
    if h == 0.0:
        return y[i]
    u = np.minimum(d / h, 1.0)
    w = (1.0 - u**3) ** 3
    return _weighted_line_at(t, y, w, t[i])


def _weighted_line_at(x: np.ndarray, y: np.ndarray, w: np.ndarray, x0: float) -> float:
    """Weighted least-squares line through (x, y), evaluated at x0.

    Centred closed form: slope from weighted covariances about the weighted
    means.  Falls back to the weighted mean when the x spread degenerates.
    """
    sw = w.sum()
    xm = (w * x).sum() / sw
    ym = (w * y).sum() / sw
    dx = x - xm
    sxx = (w * dx * dx).sum()
    if sxx <= 1e-12 * sw * max(1.0, xm * xm):
        return ym
    slope = (w * dx * (y - ym)).sum() / sxx
    return ym + slope * (x0 - xm)


class PostureState(Enum):
    RAISING = "raising"
    LOWERING = "lowering"
    HOLDING = "holding"

    def seat_rate(self, rate: float) -> float:
        """The seat rate command in this state: +rate, -rate or 0."""
        if self is PostureState.HOLDING:
            return 0.0
        return rate if self is PostureState.RAISING else -rate


def posture_transition(
    value: float, state: PostureState, lo: float = _HYSTERESIS_LO, hi: float = _HYSTERESIS_HI
) -> PostureState:
    """One step of the hysteresis band as a pure function."""
    if not 1.0 <= value <= 100.0:
        raise ValueError(f"value must lie in [1, 100] (got {value})")
    if value >= hi:
        return PostureState.RAISING
    if value <= lo:
        return PostureState.LOWERING
    return state  # dead band keeps the previous state

