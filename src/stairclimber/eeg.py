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
spiky and a single outlier must not toggle the actuators.  loess_smooth is
the whole-series fit in numpy.  The fit at the newest sample alone
(_fit_last) runs in Python floats over the points that carry weight, with
numpy's array power for the tricube weights and numpy's pairwise order for
every sum, so it returns the same bits as loess_smooth's last value.
loess_last checks any series in numpy, with loess_smooth's errors; the
arbiter's entry, _loess_last_window, checks its window's t and value tuples
in Python.  The weights depend only on where the weighted points sit
relative to the newest one, which a fixed-rate headset repeats from sample
to sample, so _tricube memoizes them.

posture_transition is a hysteresis band on the smoothed value: at or above
the high threshold the seat raises, at or below the low threshold it lowers,
and in between it holds its previous state.  Exactly one state is active at
a time, so the seat is never commanded both ways at once;
PostureState.seat_rate turns the state into the rate command.  Thresholds
default to 60/40, symmetric about the scale midpoint with a dead band wide
enough to reject smoothed noise.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

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
_SYNC_PAIR = bytes([SYNC, SYNC])
_PAYLOAD_LEN = 2
_FRAME_LEN = 2 + 1 + _PAYLOAD_LEN + 1  # sync pair, length, payload, checksum
_MIN_WINDOW = 3   # points in the smallest window a straight-line fit can smooth
_HYSTERESIS_LO, _HYSTERESIS_HI = 40.0, 60.0  # seat band; ArbiterConfig reads these too
# below this no difference, product or sum in _fit_last overflows, so the
# points it skips would add exact zeros
_SCALAR_FIT_LIMIT = 1e150
# distinct weight vectors _tricube keeps; a fixed-rate session needs a few
# (one per window size while the window fills), 20,000 samples at dt 0.1 s
# about 75
_TRICUBE_MEMO_SIZE = 256


class TooFewPoints(ValueError):
    """Not enough samples for the requested local regression window."""


@dataclass(frozen=True, slots=True)
class EegRecord:
    t: float
    attention: int   # 1..100
    meditation: int  # 1..100

    def __post_init__(self):
        # both fields in one chain; the loop only names the one out of range
        if not 1 <= self.attention <= 100 >= self.meditation >= 1:
            for name in ("attention", "meditation"):
                v = getattr(self, name)
                if not 1 <= v <= 100:
                    raise ValueError(f"{name} must lie in [1, 100] (got {v})")


# a wire byte's value clamped into the headset scale [1, 100]
_SCALE = bytes(min(100, max(1, raw)) for raw in range(256))


def encode_frame(attention: int, meditation: int) -> bytes:
    """Build one wire frame; the counterpart of the parser, used in tests/replay."""
    payload = bytes([attention & 0xFF, meditation & 0xFF])
    checksum = (_PAYLOAD_LEN + sum(payload)) & 0xFF
    return bytes([SYNC, SYNC, _PAYLOAD_LEN]) + payload + bytes([checksum])


class EegStreamParser:
    """Incremental frame parser for one headset stream (single owner).

    feed() accepts any chunking of the byte stream and returns the records
    completed by that chunk.  Record timestamps count frames: the n-th valid
    frame gets t = n * dt, with dt finite and positive.  feed() walks the
    buffer with an index and deletes what it consumed once per call.
    """

    def __init__(self, dt: float = 1.0):
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0 (got {dt})")
        self._buf = bytearray()
        self._count = 0
        self.dt = dt
        self.checksum_failures = 0

    def feed(self, data: bytes) -> list[EegRecord]:
        buf = self._buf
        buf += data
        records: list[EegRecord] = []
        count, dt = self._count, self.dt  # the frame counter is written back once
        end = len(buf)
        i = 0  # buf[:i] is consumed; it is deleted once, on the way out
        while True:
            start = buf.find(_SYNC_PAIR, i)
            if start < 0:
                # keep a trailing lone sync byte not yet consumed, drop the rest
                i = end - 1 if end > i and buf[-1] == SYNC else end
                break
            i = start
            if end - i < _FRAME_LEN:
                break
            length, attention, meditation, checksum = buf[i + 2 : i + _FRAME_LEN]
            if length == _PAYLOAD_LEN and (length + attention + meditation) & 0xFF == checksum:
                records.append(EegRecord(count * dt, _SCALE[attention], _SCALE[meditation]))
                count += 1
                i += _FRAME_LEN
            else:
                self.checksum_failures += 1
                # skip past the first sync byte and rescan
                i += 1
        self._count = count
        del buf[:i]
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
    cfg: LoessConfig = LoessConfig(),
) -> list[tuple[float, float]]:
    """Smooth a (t, value) series with locally weighted linear regression.

    Each point is re-estimated from a weighted straight-line fit over its
    nearest-neighbour window (tricube weights, zero at the window edge).
    Output length equals input length and t values are echoed unchanged.
    Requires >= 3 points with strictly increasing t.  The fit at the newest
    point alone is loess_last.
    """
    t, y, q = _checked_series(series, cfg)
    return [(float(t[i]), float(_fit_at(t, y, q, i))) for i in range(len(t))]


def loess_last(series, cfg: LoessConfig = LoessConfig()) -> float:
    """The fit at the last point of a series only: one local fit, not one per point.

    Equals loess_smooth(series, cfg)[-1][1] bit for bit, with the same
    checks and errors: the series is checked in numpy (_checked_series),
    then fitted by _fit_last on its Python floats.  A series with a value
    beyond +-1e150 (or a non-finite one) takes loess_smooth's numpy fit
    instead: there a zero weight times an overflowed difference gives nan,
    which _fit_last's skipping of that point would hide.  The arbiter does
    not call this; its entry is _loess_last_window.
    """
    t, y, q = _checked_series(series, cfg)
    ts, ys = t.tolist(), y.tolist()
    if _in_scalar_range(ts, ys):
        return _fit_last(ts, ys, q)
    return float(_fit_at(t, y, q, len(ts) - 1))


def _loess_last_window(ts, ys, cfg: LoessConfig) -> float:
    """loess_last of the series zip(ts, ys), checked in Python: the arbiter's entry.

    ts and ys are the window's t and value tuples, at least three floats
    each.  A t that does not strictly increase raises what loess_last
    raises; a nan t compares false, so it fails as it does in numpy.
    """
    if not all(map(operator.lt, ts, ts[1:])):
        raise ValueError("t must be strictly increasing")
    if _in_scalar_range(ts, ys):
        return _fit_last(ts, ys, cfg.window(len(ts)))
    return loess_last(tuple(zip(ts, ys)), cfg)


def _in_scalar_range(ts, ys) -> bool:
    # ts is monotone, so its ends bound it; a nan anywhere fails the test
    return abs(ts[0]) + abs(ts[-1]) + sum(map(abs, ys)) <= _SCALAR_FIT_LIMIT


def _fit_last(ts, ys, q: int) -> float:
    """The local fit at the last of the points (ts, ys), in Python floats.

    ts strictly increases and no value lies beyond _SCALAR_FIT_LIMIT.  The
    last point's q nearest neighbours are then the last q points, and the
    farthest of them gets weight zero, so only the last q - 1 points enter
    the fit, with numpy's weights (_tricube) and sums (_np_sum).
    """
    n = len(ts)
    # the points at indices s .. n - 1; finite, strictly increasing t makes h > 0
    s = n - q + 1
    x0 = ts[-1]
    h = x0 - ts[s - 1]
    xs = ts[s:]
    ys = ys[s:]
    w = _tricube(tuple([min((x0 - x) / h, 1.0) for x in xs]))
    sw = _np_sum(w, s, 0, n)
    xm = _np_sum([a * b for a, b in zip(w, xs)], s, 0, n) / sw
    ym = _np_sum([a * b for a, b in zip(w, ys)], s, 0, n) / sw
    wdx = [a * (x - xm) for a, x in zip(w, xs)]
    sxx = _np_sum([a * (x - xm) for a, x in zip(wdx, xs)], s, 0, n)
    if sxx <= 1e-12 * sw * max(1.0, xm * xm):
        return ym
    slope = _np_sum([a * (v - ym) for a, v in zip(wdx, ys)], s, 0, n) / sxx
    return ym + slope * (x0 - xm)


@functools.lru_cache(maxsize=_TRICUBE_MEMO_SIZE)
def _tricube(u: tuple[float, ...]) -> tuple[float, ...]:
    """The tricube weights (1 - u**3)**3 of scaled distances u, as numpy computes them.

    The power is numpy's array power: its SIMD kernel does not round like
    libm's pow, so u*u*u or math.pow would change bits.  The weights are a
    pure function of u, and a fixed-rate headset repeats its window's u
    from sample to sample, so they are memoized.
    """
    import numpy as np

    a = np.array(u)
    return tuple(((1.0 - a**3) ** 3).tolist())


def _np_sum(tail: list[float], s: int, lo: int, hi: int) -> float:
    """numpy's float64 sum of a[lo:hi], where a[j] = tail[j - s] for j >= s and 0 below.

    numpy sums 0.0 + pairwise(a).  Below 8 elements pairwise adds in
    sequence.  Up to 128 it keeps eight strided accumulators, combines them
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the remainder in sequence.
    Above that it splits at n//2 - (n//2) % 8 and recurses.  A zero changes
    no nonzero partial sum, only the sign of a zero one, and the leading
    0.0 makes a zero total +0.0; so skipping the zeros keeps every bit.
    """
    n = hi - lo
    if hi <= s:
        return 0.0
    if n > 128:
        n2 = n // 2
        n2 -= n2 % 8
        return _np_sum(tail, s, lo, lo + n2) + _np_sum(tail, s, lo + n2, hi)
    m = lo if n < 8 else hi - n % 8  # a[lo:m] goes through the accumulators
    res = 0.0
    if s < m:
        r = [0.0] * 8
        for j in range(max(lo, s), m):
            r[(j - lo) % 8] += tail[j - s]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in tail[max(m, s) - s : hi - s]:
        res += v
    return res


def _checked_series(series, cfg: LoessConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """The t and value columns of a checked series, and its window size."""
    import numpy as np

    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be a sequence of (t, value) pairs")
    n = arr.shape[0]
    if n < _MIN_WINDOW:
        raise TooFewPoints(f"need at least {_MIN_WINDOW} points (got {n})")
    t, y = arr[:, 0], arr[:, 1]
    if not (t[1:] > t[:-1]).all():
        raise ValueError("t must be strictly increasing")
    return t, y, cfg.window(n)


def _fit_at(t: np.ndarray, y: np.ndarray, q: int, i: int) -> float:
    # weighted line through the q nearest neighbours of point i, at t[i]
    import numpy as np

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

