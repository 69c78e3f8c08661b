"""Grayscale frames, PGM fixture I/O, synthetic textures and bearing math.

Frames carry float64 intensities in [0, 1] and are frozen after
construction, so what a reader derives from a frame's pixels alone can be
kept with the frame.  The synthetic texture is a band-limited sum of cosine
waves, rendered under any subpixel shift: an exact ground truth for
tracking tests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Frame",
    "read_pgm",
    "write_pgm",
    "CosineTexture",
    "random_texture",
    "render_texture",
    "pixel_to_bearing",
    "DEFAULT_HFOV",
]

# horizontal field of view of the onboard camera stand-in
DEFAULT_HFOV = math.radians(53.5)

# a PGM header token, or a comment from '#' to the end of its line
_PGM_TOKEN = re.compile(rb"\s*(#[^\n]*\n|\S+)")


@dataclass(frozen=True)
class Frame:
    """One grayscale image: float64 intensities in [0, 1], row-major.

    The pixels are a read-only array that no other array views.  _derived
    holds what readers compute from the pixels alone (the tracker's
    pyramids), filled on first use; it is no part of the frame's value, so
    equality and repr ignore it.
    """

    pixels: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2:
            raise ValueError(f"pixels must be 2-D (got shape {px.shape})")
        if px.size == 0:
            raise ValueError(f"pixels must not be empty (got shape {px.shape})")
        # NaN fails both comparisons, so the range check alone catches every
        # bad frame; only a bad one is scanned again to say what is wrong
        if not (px.min() >= 0.0 and px.max() <= 1.0):
            if not np.all(np.isfinite(px)):
                raise ValueError("pixels must be finite")
            raise ValueError("intensities must lie in [0, 1]")
        px = np.ascontiguousarray(px)
        if px.base is not None:
            px = px.copy()  # a view: its owner could still change the pixels
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def read_pgm(path) -> Frame:
    """Read a binary (P5) 8-bit PGM file; '#' comment lines are skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # comments run from '#' to end of line
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        m = _PGM_TOKEN.match(data, pos)
        if m is None:
            raise ValueError("truncated header")
        pos = m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    if tokens[0] != b"P5":
        raise ValueError(f"not a binary PGM (magic {tokens[0]!r})")
    for name, tok in zip(("width", "height", "maxval"), tokens[1:]):
        if not (tok.isdigit() and int(tok) > 0):
            raise ValueError(f"{name} must be a positive integer (got {tok.decode(errors='replace')})")
    width, height, maxval = (int(t) for t in tokens[1:])
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported (maxval {maxval})")
    # exactly one whitespace byte separates the header from the raster
    have = max(len(data) - pos - 1, 0)
    if have < width * height:
        raise ValueError(f"raster holds {have} bytes, fewer than width*height = {width * height}")
    raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos + 1)
    # uint8 / 255.0 is computed in float64, as astype(float) / 255.0 is
    return Frame(raster.reshape(height, width) / 255.0)


def write_pgm(path, frame: Frame) -> None:
    """Write a frame as binary (P5) 8-bit PGM."""
    raster = np.clip(np.rint(frame.pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{frame.width} {frame.height}\n255\n".encode())
        fh.write(raster.tobytes())


@dataclass(frozen=True)
class CosineTexture:
    """Band-limited scene: 0.5 plus a normalized sum of planar cosine waves.

    At (x, y): 0.5 + sum_k a_k cos(2 pi (fx_k x + fy_k y) + phi_k) / (2 sum_k a_k), in [0, 1].
    """

    freqs: np.ndarray   # (k, 2) spatial frequencies, cycles per px (fx, fy)
    phases: np.ndarray  # (k,)
    amps: np.ndarray    # (k,) positive

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.freqs, dtype=float))
        p = np.atleast_1d(np.asarray(self.phases, dtype=float))
        a = np.atleast_1d(np.asarray(self.amps, dtype=float))
        if f.shape != (len(a), 2) or p.shape != (len(a),):
            raise ValueError("freqs, phases, amps must agree in length")
        if np.any(a <= 0):
            raise ValueError("amplitudes must be positive")
        for name, arr in (("freqs", f), ("phases", p), ("amps", a)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


# cycles per pixel of a random texture's waves; the upper end stays well
# under Nyquist so bilinear interpolation and image gradients remain
# accurate for subpixel work
_FREQ_BAND = (0.02, 0.15)


def random_texture(rng: np.random.Generator, n_waves: int = 12) -> CosineTexture:
    """Draw a random texture with isotropic frequencies in _FREQ_BAND."""
    mag = rng.uniform(*_FREQ_BAND, size=n_waves)
    ang = rng.uniform(0.0, 2.0 * math.pi, size=n_waves)
    freqs = np.column_stack([mag * np.cos(ang), mag * np.sin(ang)])
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_waves)
    amps = rng.uniform(0.5, 1.0, size=n_waves)
    return CosineTexture(freqs, phases, amps)


def render_texture(
    tex: CosineTexture,
    width: int,
    height: int,
    shift: tuple[float, float] = (0.0, 0.0),
) -> Frame:
    """Rasterize a texture, with the scene translated by (sx, sy) pixels.

    A feature at (x, y) in the unshifted frame appears at (x+sx, y+sy) in
    the shifted one, so `shift` is exactly the displacement a tracker
    should recover between the two renders.  The sum is separable: with
    A[j, k] = 2 pi fx_k (j - sx) + phi_k and B[i, k] = 2 pi fy_k (i - sy),
    cos(A + B) = cos A cos B - sin A sin B makes the frame one
    (H, 2K) @ (2K, W) product, 2K(H + W) trig calls instead of K H W.
    """
    sx, sy = shift
    cols = 2.0 * math.pi * np.outer(np.arange(width) - sx, tex.freqs[:, 0]) + tex.phases
    rows = 2.0 * math.pi * np.outer(np.arange(height) - sy, tex.freqs[:, 1])
    waves = np.hstack([np.cos(rows), -np.sin(rows)]) @ np.vstack(
        [(tex.amps * np.cos(cols)).T, (tex.amps * np.sin(cols)).T])
    # cos A cos B - sin A sin B can round an ulp past -1 or 1 at a trough or crest
    return Frame(np.clip(0.5 + waves / (2.0 * tex.amps.sum()), 0.0, 1.0))


def pixel_to_bearing(px: float, width: int) -> float:
    """Horizontal bearing of an image column, positive to the right.

    Linear in the pixel offset from the image center: the center column maps
    to 0 and the edge columns to +-DEFAULT_HFOV/2.
    """
    if width < 2:
        raise ValueError(f"width must be >= 2 (got {width})")
    if not 0.0 <= px < width:
        raise ValueError(f"px must lie in [0, width) (got {px})")
    half = (width - 1) / 2.0
    return (px - half) / half * (DEFAULT_HFOV / 2.0)
