import math
import sys
import threading
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from stairclimber.cli import _tracking_check_lines
from stairclimber.perception import (
    DEFAULT_HFOV,
    REGIONS,
    Corner,
    CosineTexture,
    Frame,
    LkParams,
    NoCorners,
    RegionOccupancy,
    SonarTriple,
    TrackedPoint,
    TrackStatus,
    detect_corners,
    fb_track,
    lk_track,
    pixel_to_bearing,
    random_texture,
    read_pgm,
    region_map,
    render_texture,
    select_corner,
    write_pgm,
)
from stairclimber import perception
from stairclimber.perception import corners, flow, frames, sonar

CLEAR, NEAR = 3.0, 0.3


def triple(blocked: set[str]) -> SonarTriple:
    return SonarTriple(
        d_left=NEAR if "L" in blocked else CLEAR,
        d_front=NEAR if "F" in blocked else CLEAR,
        d_right=NEAR if "R" in blocked else CLEAR,
    )


def test_seven_regions():
    assert len(REGIONS) == 7
    assert frozenset("F") in REGIONS and frozenset("LFR") in REGIONS


def test_region_map_exhaustive():
    # a cell is occupied exactly when all of its sensors report near returns
    for k in range(4):
        for blocked in map(set, combinations("LFR", k)):
            occ = region_map(triple(blocked))
            expected = frozenset(r for r in REGIONS if r <= blocked)
            assert occ.occupied == expected


def test_region_map_monotone_in_blocked_set():
    # more blocked sensors can only add occupied cells
    subsets = [set(c) for k in range(4) for c in combinations("LFR", k)]
    for small in subsets:
        for big in subsets:
            if small <= big:
                occ_s = region_map(triple(small)).occupied
                occ_b = region_map(triple(big)).occupied
                assert occ_s <= occ_b


def test_occupancy_queries():
    occ = region_map(triple({"L", "F"}))
    assert occ.is_occupied("LF") and occ.is_occupied({"F"}) and occ.is_occupied(frozenset("L"))
    assert not occ.is_occupied("R") and not occ.is_occupied("LFR")
    assert occ.occupied == {frozenset("L"), frozenset("F"), frozenset("LF")}
    assert region_map(triple(set())).occupied == frozenset()
    assert region_map(triple({"L", "F", "R"})).occupied == set(REGIONS)


def test_occupancy_rejects_unknown_cells():
    with pytest.raises(ValueError):
        RegionOccupancy(frozenset({frozenset("X")}))


def test_sonar_validation():
    with pytest.raises(ValueError):
        SonarTriple(0.0, 1.0, 1.0)          # non-positive range
    with pytest.raises(ValueError):
        SonarTriple(5.0, 1.0, 1.0)          # beyond max_range
    with pytest.raises(ValueError):
        SonarTriple(1.0, 1.0, 1.0, threshold=4.0)
    # boundary: exactly at threshold counts as blocked
    assert SonarTriple(0.5, 1.0, 1.0).blocked() == frozenset("L")


def test_bearing_center_and_edges():
    assert pixel_to_bearing(319.5, 640) == pytest.approx(0.0, abs=1e-12)
    assert pixel_to_bearing(639.0, 640) == pytest.approx(DEFAULT_HFOV / 2, rel=1e-12)
    assert pixel_to_bearing(0.0, 640) == pytest.approx(-DEFAULT_HFOV / 2, rel=1e-12)


def test_bearing_halfway_to_the_edge():
    px = 0.75 * 639.0  # halfway between center and right edge
    assert math.degrees(pixel_to_bearing(px, 640)) == pytest.approx(53.5 / 4, rel=1e-12)


def test_bearing_is_odd_about_center():
    for d in (10.0, 55.5, 200.0):
        lhs = pixel_to_bearing(319.5 + d, 640)
        rhs = pixel_to_bearing(319.5 - d, 640)
        assert lhs == pytest.approx(-rhs, rel=1e-12)


def test_bearing_validation():
    with pytest.raises(ValueError):
        pixel_to_bearing(-1.0, 640)
    with pytest.raises(ValueError):
        pixel_to_bearing(640.0, 640)
    with pytest.raises(ValueError):
        pixel_to_bearing(0.0, 1)


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(np.zeros(16))
    f = Frame(np.zeros((20, 20)))
    assert f.width == 20 and f.height == 20
    with pytest.raises(ValueError):
        f.pixels[0, 0] = 1.0  # frozen buffer


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
def test_frame_refuses_zero_size(shape):
    with pytest.raises(ValueError, match=rf"pixels must not be empty \(got shape \({shape[0]}, {shape[1]}\)\)"):
        Frame(np.zeros(shape))


@pytest.mark.parametrize(
    "bad, message",
    [
        ([math.nan], "pixels must be finite"),
        ([math.inf], "pixels must be finite"),
        ([-math.inf], "pixels must be finite"),
        ([math.nan, 2.0], "pixels must be finite"),
        ([-0.5, math.inf], "pixels must be finite"),
        ([-1e-300], "intensities must lie in [0, 1]"),
        ([-0.5], "intensities must lie in [0, 1]"),
        ([math.nextafter(1.0, 2.0)], "intensities must lie in [0, 1]"),
        ([2.0], "intensities must lie in [0, 1]"),
        ([-0.5, 2.0], "intensities must lie in [0, 1]"),
    ],
)
def test_frame_refuses_bad_pixels(bad, message):
    px = np.full((6, 8), 0.5)
    px[2, 3 : 3 + len(bad)] = bad
    with pytest.raises(ValueError) as info:
        Frame(px)
    assert str(info.value) == message


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    # quantized values survive the 8-bit file exactly
    px = np.round(rng.uniform(0.0, 1.0, size=(24, 32)) * 255.0) / 255.0
    f = Frame(px)
    path = tmp_path / "frame.pgm"
    write_pgm(path, f)
    back = read_pgm(path)
    assert back.width == 32 and back.height == 24
    assert np.array_equal(back.pixels, px)


def test_pgm_comments_and_whitespace(tmp_path):
    path = tmp_path / "weird.pgm"
    body = bytes([0, 128, 255, 64])
    path.write_bytes(b"P5 # format\n# a comment line\n 2\t2 # size\n255\n" + body)
    f = read_pgm(path)
    assert f.pixels[0, 0] == 0.0
    assert f.pixels[1, 1] == pytest.approx(64.0 / 255.0)


def test_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        read_pgm(path)


@pytest.mark.parametrize(
    "header, raster, message",
    [
        (b"P5\n-4 4\n255\n", 16, "width must be a positive integer (got -4)"),
        (b"P5\n0 0\n255\n", 0, "width must be a positive integer (got 0)"),
        (b"P5\n4 0\n255\n", 0, "height must be a positive integer (got 0)"),
        (b"P5\n99999999999 99999999999\n255\n", 16,
         "raster holds 16 bytes, fewer than width*height = 9999999999800000000001"),
        (b"P5\n4 4\n255\n", 15, "raster holds 15 bytes, fewer than width*height = 16"),
    ],
    ids=["negative", "zero", "zero-height", "huge", "short"],
)
def test_pgm_rejects_bad_dimensions(tmp_path, header, raster, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(raster))
    with pytest.raises(ValueError) as info:
        read_pgm(path)
    assert str(info.value) == message


@st.composite
def pgm_files(draw):
    """Bytes for ``read_pgm``: arbitrary ones, or a P5 header whose tokens
    and separators are mostly good and sometimes hostile, before a raster
    of about the size the header gives, so that most files reach the raster
    checks and many make a frame."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    hostile = st.one_of(
        st.sampled_from([b"0", b"256", b"-3", b"+4", b"0x10", b"1e3", b"9" * 30, b"\xb2", b"P5"]),
        st.binary(min_size=1, max_size=3),
    )
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    fields = [draw(st.one_of(st.just(good), st.just(good), st.just(good), hostile))
              for good in (b"%d" % width, b"%d" % height, b"255")]
    sep = st.sampled_from([b" ", b"\n", b"\t\r", b"  ", b"\n# comment\n", b"#", b""])
    header = b"P5" + b"".join(draw(sep) + f for f in fields)
    # one whitespace byte ends the header, or it runs on into the raster
    end = draw(st.sampled_from([b"\n", b" ", b""]))
    size = max(0, width * height + draw(st.sampled_from([0, 0, 1, 7, -1])))
    return header + end + draw(st.binary(min_size=size, max_size=size))


# every example writes the same file, so the fixture is safe to share
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pgm_files())
@example(b"P5\n3 2\n255\n" + bytes(range(0, 256, 51)))
def test_read_pgm_returns_a_frame_or_refuses_arbitrary_bytes(tmp_path, data):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(data)
    try:
        frame = read_pgm(path)
    except ValueError:
        return
    assert isinstance(frame, Frame) and 0.0 <= frame.pixels.min() <= frame.pixels.max() <= 1.0


def test_corners_of_a_square():
    px = np.zeros((64, 64))
    px[20:41, 24:45] = 1.0
    corners = detect_corners(Frame(px))
    found = {(c.x, c.y) for c in corners[:4]}
    assert found == {(24.0, 20.0), (44.0, 20.0), (24.0, 40.0), (44.0, 40.0)}
    assert all(a.score >= b.score for a, b in zip(corners, corners[1:]))


def test_corner_response_offset_invariant():
    px = np.zeros((64, 64))
    px[20:41, 24:45] = 1.0
    base = [(c.x, c.y) for c in detect_corners(Frame(px))[:4]]
    lifted = [(c.x, c.y) for c in detect_corners(Frame(np.clip(0.5 * px + 0.3, 0, 1)))[:4]]
    assert base == lifted


def test_corner_translation_equivariance():
    px = np.zeros((64, 64))
    px[20:41, 24:45] = 1.0
    moved = np.zeros((64, 64))
    moved[25:46, 31:52] = 1.0
    base = sorted((c.x, c.y) for c in detect_corners(Frame(px))[:4])
    after = sorted((c.x, c.y) for c in detect_corners(Frame(moved))[:4])
    assert [(x + 7.0, y + 5.0) for x, y in base] == after


def test_flat_frame_has_no_corners():
    corners = detect_corners(Frame(np.full((32, 32), 0.5)))
    assert corners == []
    with pytest.raises(NoCorners):
        select_corner(corners, (16.0, 16.0))


def test_max_count_truncates():
    px = np.zeros((64, 64))
    px[20:41, 24:45] = 1.0
    assert len(detect_corners(Frame(px), max_count=2)) == 2


def test_select_corner_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(50):
        corners = [
            Corner(float(x), float(y), float(s))
            for x, y, s in zip(
                rng.integers(0, 100, 8), rng.integers(0, 100, 8), rng.uniform(0.1, 1.0, 8)
            )
        ]
        touch = (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        got = select_corner(corners, touch)
        best = min(
            range(len(corners)),
            key=lambda i: (
                (corners[i].x - touch[0]) ** 2 + (corners[i].y - touch[1]) ** 2,
                -corners[i].score,
                i,
            ),
        )
        assert got is corners[best]


def ref_detect_corners(frame, max_count=None):
    """detect_corners as it was, building each Corner from numpy scalars."""
    resp = corners.min_eig_response(frame)
    floor = max(corners._ABS_FLOOR, corners.DEFAULT_QUALITY * float(resp.max(initial=0.0)))
    p = np.pad(resp, 1, constant_values=-np.inf)
    is_peak = resp > floor
    h, w = resp.shape
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy or dx:
                is_peak &= resp > p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    ys, xs = np.nonzero(is_peak)
    order = np.lexsort((xs, ys, -resp[ys, xs]))
    found = [Corner(float(xs[i]), float(ys[i]), float(resp[ys[i], xs[i]])) for i in order]
    return found if max_count is None else found[:max_count]


@pytest.mark.parametrize("max_count", [None, 0, 1, 5, -1])
def test_detect_corners_matches_the_scalar_form(max_count):
    square = np.zeros((64, 64))
    square[20:41, 24:45] = 1.0
    frames = [Frame(square), Frame(np.full((32, 32), 0.5))]
    rng = np.random.default_rng(12)
    frames += [render_texture(random_texture(rng), w, h) for w, h in ((96, 96), (80, 48))]
    for frame in frames:
        got = detect_corners(frame, max_count)
        assert got == ref_detect_corners(frame, max_count)
        assert all(type(v) is float for c in got for v in (c.x, c.y, c.score))


@pytest.mark.parametrize(
    "touch", [(math.nan, 5.0), (5.0, math.nan), (math.inf, 5.0), (5.0, -math.inf)]
)
def test_select_corner_refuses_a_non_finite_touch(touch):
    with pytest.raises(ValueError, match="^touch must be finite"):
        select_corner([Corner(1.0, 2.0, 0.5), Corner(4.0, 5.0, 0.7)], touch)


def test_select_corner_rejects_empty():
    with pytest.raises(ValueError):
        select_corner([], (0.0, 0.0))


def test_lk_zero_motion_is_exact():
    rng = np.random.default_rng(5)
    tex = random_texture(rng)
    frame = render_texture(tex, 96, 96, (0.0, 0.0))
    got = lk_track(frame, frame, (48.0, 48.0))
    assert got is not None
    assert abs(got[0] - 48.0) <= 0.01 and abs(got[1] - 48.0) <= 0.01


def test_lk_recovers_known_shifts():
    rng = np.random.default_rng(5)
    for shift in ((1.7, -2.3), (-2.5, 0.4), (0.3, 2.9)):
        tex = random_texture(rng)
        a = render_texture(tex, 96, 96, (0.0, 0.0))
        b = render_texture(tex, 96, 96, shift)
        got = lk_track(a, b, (48.0, 48.0))
        assert got is not None
        assert math.hypot(got[0] - 48.0 - shift[0], got[1] - 48.0 - shift[1]) <= 0.1


def test_fb_track_confirms_good_tracks():
    rng = np.random.default_rng(6)
    tex = random_texture(rng)
    a = render_texture(tex, 96, 96, (0.0, 0.0))
    b = render_texture(tex, 96, 96, (2.0, 1.0))
    point = fb_track(a, b, TrackedPoint(48.0, 48.0))
    assert point.status is TrackStatus.TRACKING
    assert math.hypot(point.x - 50.0, point.y - 49.0) <= 0.1


def test_fb_track_flags_out_of_frame_motion():
    rng = np.random.default_rng(6)
    tex = random_texture(rng)
    a = render_texture(tex, 96, 96, (0.0, 0.0))
    b = render_texture(tex, 96, 96, (60.0, 0.0))
    point = fb_track(a, b, TrackedPoint(90.0, 48.0))
    assert point.lost
    assert point.position == (90.0, 48.0)  # last good position is kept


def test_fb_track_passes_lost_points_through():
    rng = np.random.default_rng(6)
    tex = random_texture(rng)
    a = render_texture(tex, 96, 96, (0.0, 0.0))
    lost = TrackedPoint(48.0, 48.0, TrackStatus.LOST)
    assert fb_track(a, a, lost) is lost


def test_track_on_flat_frames_is_lost_not_an_error():
    flat = Frame(np.full((64, 64), 0.5))
    point = fb_track(flat, flat, TrackedPoint(32.0, 32.0))
    assert point.lost


def test_lk_params_validation():
    with pytest.raises(ValueError):
        LkParams(window=14)  # window must be odd
    with pytest.raises(ValueError):
        LkParams(levels=0)
    assert LkParams().half == 7


@pytest.mark.parametrize(
    "field, value",
    [
        ("window", 15.0),
        ("window", True),
        ("window", 14),
        ("levels", 2.0),
        ("levels", 0),
        ("max_iters", 2.5),
        ("max_iters", 0),
        ("epsilon", math.nan),
        ("epsilon", math.inf),
        ("epsilon", 0.0),
        ("epsilon", -0.01),
        ("min_eig", math.nan),
        ("min_eig", math.inf),
        ("min_eig", -1.0),
        ("fb_threshold", math.nan),
        ("fb_threshold", math.inf),
        ("fb_threshold", 0.0),
    ],
)
def test_lk_params_refuse_a_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        LkParams(**{field: value})


def test_lk_params_take_numpy_integers_and_ints_for_float_fields():
    p = LkParams(window=np.int64(5), levels=np.int32(2), max_iters=10,
                 epsilon=1, min_eig=0.0, fb_threshold=2)
    assert p.half == 2


@pytest.mark.parametrize("min_eig", [0.0, 1e-300])
@pytest.mark.parametrize(
    "px",
    [np.full((64, 64), 0.5), np.tile(np.linspace(0.2, 0.8, 64), (64, 1))],
    ids=["flat", "ramp"],
)
def test_degenerate_windows_are_lost_at_any_min_eig(px, min_eig):
    # a flat window's gradient tensor is 0 and a ramp's has rank 1, so
    # det = 0 and the solve cannot divide by it
    frame = Frame(px)
    params = LkParams(min_eig=min_eig)
    assert lk_track(frame, frame, (32.0, 32.0), params) is None
    assert fb_track(frame, frame, TrackedPoint(32.0, 32.0), params).lost


def test_render_shift_moves_content():
    rng = np.random.default_rng(8)
    tex = random_texture(rng)
    a = render_texture(tex, 32, 32, (0.0, 0.0))
    b = render_texture(tex, 32, 32, (3.0, -2.0))
    # integer shift relocates samples exactly inside the overlap
    assert np.allclose(b.pixels[0:30, 3:32], a.pixels[2:32, 0:29], atol=1e-12)


def pointwise_render(tex, width, height, shift=(0.0, 0.0)):
    """The texture's closed form, one cosine per pixel per wave."""
    x = (np.arange(width, dtype=float) - shift[0])[None, :, None]
    y = (np.arange(height, dtype=float) - shift[1])[:, None, None]
    phase = 2.0 * math.pi * (tex.freqs[:, 0] * x + tex.freqs[:, 1] * y)
    waves = tex.amps * np.cos(phase + tex.phases)
    return 0.5 + waves.sum(axis=-1) / (2.0 * tex.amps.sum())


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.integers(2, 200),
    st.integers(2, 200),
    st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
)
def test_render_matches_pointwise_closed_form(seed, n_waves, width, height, shift):
    tex = random_texture(np.random.default_rng(seed), n_waves=n_waves)
    frame = render_texture(tex, width, height, shift)
    assert frame.pixels.shape == (height, width)
    np.testing.assert_allclose(frame.pixels, pointwise_render(tex, width, height, shift),
                               rtol=0.0, atol=1e-12)


def test_render_keeps_single_wave_troughs_in_range():
    # along this diagonal cos A cos B - sin A sin B rounds to just below -1,
    # which unclamped would put pixels an ulp below 0 and fail Frame's check
    for f in np.linspace(0.01, 0.49, 25):
        tex = CosineTexture([[f, -f]], [math.pi], [0.7])
        np.testing.assert_allclose(render_texture(tex, 200, 200).pixels,
                                   pointwise_render(tex, 200, 200), rtol=0.0, atol=1e-12)


# Reference pyramidal LK: the tracker as it was before it shared pyramids
# between directions, differentiated only the sampled block and read
# separable taps.  The current tracker must agree with it bit for bit.


def ref_pyramid(px, levels, min_size):
    pyr = [px]
    while len(pyr) < levels:
        h, w = pyr[-1].shape
        if h // 2 < min_size or w // 2 < min_size:
            break
        trimmed = pyr[-1][: (h // 2) * 2, : (w // 2) * 2]
        pyr.append(trimmed.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3)))
    return pyr


def ref_gradients(px):
    gx = np.zeros_like(px)
    gy = np.zeros_like(px)
    gx[:, 1:-1] = (px[:, 2:] - px[:, :-2]) / 2.0
    gy[1:-1, :] = (px[2:, :] - px[:-2, :]) / 2.0
    return gx, gy


def ref_window_fits(x, y, shape, hw):
    h, w = shape
    tol = 1e-9
    return (
        x - hw >= 1.0 - tol
        and y - hw >= 1.0 - tol
        and x + hw <= w - 2.0 + tol
        and y + hw <= h - 2.0 + tol
    )


def ref_bilinear(img, xs, ys):
    h, w = img.shape
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 2)
    fx = xs - x0
    fy = ys - y0
    return (
        img[y0, x0] * (1 - fx) * (1 - fy)
        + img[y0, x0 + 1] * fx * (1 - fy)
        + img[y0 + 1, x0] * (1 - fx) * fy
        + img[y0 + 1, x0 + 1] * fx * fy
    )


def ref_patch_grid(x, y, hw):
    offs = np.arange(-hw, hw + 1, dtype=float)
    return np.meshgrid(x + offs, y + offs)


class RefFail(Exception):
    pass


def ref_lk_level(prev_px, next_px, grads, px, py, guess, p):
    hw = p.half
    if not ref_window_fits(px, py, prev_px.shape, hw):
        raise RefFail
    tx, ty = ref_patch_grid(px, py, hw)
    template = ref_bilinear(prev_px, tx, ty)
    ix = ref_bilinear(grads[0], tx, ty)
    iy = ref_bilinear(grads[1], tx, ty)
    gxx = float((ix * ix).sum())
    gxy = float((ix * iy).sum())
    gyy = float((iy * iy).sum())
    half_trace = (gxx + gyy) / 2.0
    radius = math.hypot((gxx - gyy) / 2.0, gxy)
    if (half_trace - radius) / (2 * hw + 1) ** 2 < p.min_eig:
        raise RefFail
    det = gxx * gyy - gxy * gxy
    dx, dy = guess
    gain = 1.0
    residuals = []
    for _ in range(p.max_iters):
        qx, qy = px + dx, py + dy
        if not ref_window_fits(qx, qy, next_px.shape, hw):
            raise RefFail
        sx, sy = ref_patch_grid(qx, qy, hw)
        diff = ref_bilinear(next_px, sx, sy) - template
        residuals.append(float(np.sum(diff**2)))
        # damping: every rise of the residual halves the gain for good
        if len(residuals) > 1 and residuals[-1] > residuals[-2]:
            gain *= 0.5
        bx = float((diff * ix).sum())
        by = float((diff * iy).sum())
        step_x = gain * (-(gyy * bx - gxy * by) / det)
        step_y = gain * (-(gxx * by - gxy * bx) / det)
        dx += step_x
        dy += step_y
        if math.hypot(step_x, step_y) < p.epsilon:
            break
    if not ref_window_fits(px + dx, py + dy, next_px.shape, hw):
        raise RefFail
    return dx, dy


def ref_lk_track(prev, next_frame, point, p):
    pyr_prev = ref_pyramid(prev.pixels, p.levels, p.window + 2)
    pyr_next = ref_pyramid(next_frame.pixels, p.levels, p.window + 2)
    x, y = point
    dx, dy = 0.0, 0.0
    try:
        for level in reversed(range(min(len(pyr_prev), len(pyr_next)))):
            scale = 2.0**level
            grads = ref_gradients(pyr_prev[level])
            dx, dy = ref_lk_level(
                pyr_prev[level], pyr_next[level], grads, x / scale, y / scale, (dx, dy), p
            )
            if level > 0:
                dx *= 2.0
                dy *= 2.0
    except RefFail:
        return None
    return (x + dx, y + dy)


def ref_fb_track(prev, next_frame, point, p):
    lost = TrackedPoint(point[0], point[1], TrackStatus.LOST)
    forward = ref_lk_track(prev, next_frame, point, p)
    if forward is None:
        return lost
    backward = ref_lk_track(next_frame, prev, forward, p)
    if backward is None or math.dist(backward, point) > p.fb_threshold:
        return lost
    return TrackedPoint(forward[0], forward[1], TrackStatus.TRACKING)


def assert_matches_reference(a, b, point, params):
    assert lk_track(a, b, point, params) == ref_lk_track(a, b, point, params)
    assert lk_track(b, a, point, params) == ref_lk_track(b, a, point, params)
    assert fb_track(a, b, TrackedPoint(*point), params) == ref_fb_track(a, b, point, params)


@st.composite
def track_cases(draw):
    width = draw(st.integers(32, 240))
    height = draw(st.integers(32, 240))
    params = LkParams(
        window=draw(st.sampled_from([3, 5, 7, 15, 21])), levels=draw(st.integers(1, 4))
    )
    hw = params.half

    def mid(size):
        return st.floats(0.3 * size, 0.7 * size)

    def coord(size):
        # anywhere in the frame, on whole pixels, or with the level-0 window
        # touching the border
        return st.one_of(
            st.floats(0.0, size - 1.0),
            st.integers(0, size - 1).map(float),
            st.sampled_from([hw + 1.0, size - 2.0 - hw]),
        )

    # half the points sit mid-frame, where tracks can survive
    point = draw(
        st.one_of(
            st.tuples(mid(width), mid(height)),
            st.tuples(coord(width), coord(height)),
        )
    )
    tex = random_texture(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    shift = (draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0)))
    a = render_texture(tex, width, height)
    b = render_texture(tex, width, height, shift)
    return a, b, point, params


@settings(max_examples=80, deadline=None)
@given(track_cases())
def test_tracking_matches_reference_bit_for_bit(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize(
    "point, level",
    [
        ((math.nextafter(58.0, 0.0), 100.25), 0),  # x + 7 rounds up to 65
        ((120.5, math.nextafter(58.0, 0.0)), 0),
        ((math.nextafter(40.0, 0.0), 120.0), 2),  # x / 4 + 7 rounds up to 17
    ],
)
def test_tracking_matches_reference_across_skipped_taps(point, level):
    params = LkParams()
    offs = np.arange(-params.half, params.half + 1, dtype=float)
    floors = np.floor(np.array(point)[:, None] / 2.0**level + offs)
    assert (np.diff(floors) == 2).any()  # some tap skips a pixel at this level
    tex = random_texture(np.random.default_rng(21))
    a = render_texture(tex, 240, 240)
    b = render_texture(tex, 240, 240, (0.6, -0.3))
    assert_matches_reference(a, b, point, params)


def test_gradient_stack_is_the_image_over_its_gradients():
    px = np.random.default_rng(4).random((23, 31))
    stack = flow._gradients(px)
    assert stack.shape == (3, 23, 31) and stack.flags.c_contiguous
    for got, want in zip(stack, (px, *ref_gradients(px))):
        assert np.array_equal(got, want)


@st.composite
def tap_coords(draw, size, hw):
    """A window centre on one axis, and whether its taps must skip a pixel.

    Just below a whole m <= P, for a power of two P, x + k is exact below P,
    but past P it falls halfway between two floats and rounds up to m + k,
    so the floors jump by 2 where x + k crosses P (if m + hw > P); other
    centres almost never skip.
    """
    if draw(st.booleans()):
        power = draw(st.sampled_from([16, 32, 64, 128]))
        x = math.nextafter(float(power - draw(st.integers(0, hw - 1))), 0.0)
        assume(hw + 1.0 <= x <= size - 2.0 - hw)
        return x, True
    return draw(st.floats(hw + 1.0, size - 2.0 - hw)), False


def sample_at(src, block, taps):
    """The window of src, a C-contiguous level or a stack of them, at the
    taps, as the tracker samples it."""
    if taps[0] is not None:
        return flow._bilinear(src[..., block[0], block[1]], taps)
    n = taps[1].shape[-1]
    out = np.empty((*src.shape[:-2], n, n))
    flow._neighbours(src, block[0].start, block[1].start, taps, out, np.empty((2, 2, *out.shape)))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 15, 21]), st.data())
def test_stacked_sampling_matches_plane_by_plane(seed, window, data):
    px = np.random.default_rng(seed).random((150, 160))
    hw = window // 2
    (x, x_skips), (y, y_skips) = data.draw(tap_coords(160, hw)), data.draw(tap_coords(150, hw))
    block, taps = flow._taps(x, y, np.arange(-hw, hw + 1, dtype=float))
    if x_skips or y_skips:
        assert taps[0] is not None
    grads = flow._gradients(px)
    planes = [sample_at(g, block, taps) for g in grads]
    got = sample_at(grads, block, taps)
    assert got.shape == (3, window, window)
    for g, want in zip(got, planes):
        assert np.array_equal(g, want)
    # once contiguous, a sum over each plane adds in the order of that
    # plane's own .sum(), as do the products the solve reduces
    w = np.ascontiguousarray(got)
    assert w.sum(axis=(1, 2)).tolist() == [float(g.sum()) for g in planes]
    assert (w[0] * w).sum(axis=(1, 2)).tolist() == [float((planes[0] * g).sum()) for g in planes]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 15, 21]), st.data())
def test_sampling_matches_the_tap_by_tap_form_to_the_bit(seed, window, data):
    # Frame admits -0.0, and a sum of four -0.0 is -0.0 only when it starts
    # from the first term (or from -0.0), not from 0.0
    rng = np.random.default_rng(seed)
    px = rng.random((150, 160))
    px[rng.random(px.shape) < 0.3] = -0.0
    px[40:110, 50:120] = -0.0
    hw = window // 2
    (x, _), (y, _) = data.draw(tap_coords(160, hw)), data.draw(tap_coords(150, hw))
    offs = np.arange(-hw, hw + 1, dtype=float)
    xs, ys = ref_patch_grid(x, y, hw)
    got = np.full((window, window), np.nan)
    flow._sample(px, x, y, offs, got, np.empty((2, 2, window, window)))
    assert got.tobytes() == ref_bilinear(px, xs, ys).tobytes()
    # the set-up samples the level and its gradients as one stack
    stack = flow._setup(px, x, y, offs)[2]
    want = [ref_bilinear(plane, xs, ys) for plane in (px, *ref_gradients(px))]
    assert stack.tobytes() == np.stack(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(10, 300), st.integers(10, 300), st.integers(0, 2**32 - 1))
def test_pyramid_downsample_matches_block_mean(height, width, seed):
    px = np.random.default_rng(seed).random((height, width))
    params = LkParams(window=3, levels=5)
    got = flow._pyramid(px, params)
    want = ref_pyramid(px, params.levels, params.window + 2)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 2.5),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(64.0, 176.0),
    st.floats(64.0, 176.0),
)
def test_fb_track_accepts_only_accurate_tracks(seed, radius, angle, x, y):
    # the forward-backward gate: a track it accepts is within 0.1 px of the
    # true shift, and a track it rejects keeps the start position
    tex = random_texture(np.random.default_rng(seed))
    shift = (radius * math.cos(angle), radius * math.sin(angle))
    a = render_texture(tex, 240, 240)
    b = render_texture(tex, 240, 240, shift)
    got = fb_track(a, b, TrackedPoint(x, y))
    if got.lost:
        assert got.position == (x, y)
    else:
        assert math.hypot(got.x - x - shift[0], got.y - y - shift[1]) <= 0.1


def weak_coarse_level_case():
    # found by random search over the cases of the test above: undamped,
    # Gauss-Newton at the 60x60 level walked 1.3 px off a 0.07 px shift
    tex = random_texture(np.random.default_rng(3432261657))
    shift = (-0.2551097453529559, 0.1080592054603158)
    a = render_texture(tex, 240, 240)
    b = render_texture(tex, 240, 240, shift)
    return a, b, shift, (154.3870419476701, 90.28021621394598)


def test_fb_track_follows_a_small_shift_on_a_weak_coarse_level():
    a, b, shift, (x, y) = weak_coarse_level_case()
    got = fb_track(a, b, TrackedPoint(x, y))
    assert got.status is TrackStatus.TRACKING
    assert math.hypot(got.x - x - shift[0], got.y - y - shift[1]) <= 0.1


@pytest.fixture
def lk_iterations(monkeypatch):
    """Gauss-Newton iterations of each LK level solve while the test runs."""
    sample, level = flow._sample, flow._lk_level
    calls, solves = [0], []

    def counting_sample(*args):
        calls[0] += 1
        return sample(*args)

    def counting_level(*args):
        start = calls[0]
        try:
            return level(*args)
        finally:
            # each iteration samples the next frame once
            solves.append(calls[0] - start)

    monkeypatch.setattr(flow, "_sample", counting_sample)
    monkeypatch.setattr(flow, "_lk_level", counting_level)
    return solves


def test_lk_damping_keeps_the_weak_coarse_level_under_the_iteration_cap(lk_iterations):
    a, b, _, point = weak_coarse_level_case()
    fb_track(a, b, TrackedPoint(*point))
    assert lk_iterations and max(lk_iterations) < LkParams().max_iters


@pytest.mark.parametrize("seed", [1, 2])
def test_lk_damping_keeps_the_report_self_check_under_the_iteration_cap(lk_iterations, seed):
    assert _tracking_check_lines(seed)[-1] == "tracking self-check = pass"
    assert lk_iterations and max(lk_iterations) < LkParams().max_iters


def test_lk_damping_keeps_a_drifting_240px_pair_under_the_iteration_cap(lk_iterations):
    # undamped, the backward solve at the 60x60 level zigzags to the cap
    tex = random_texture(np.random.default_rng(7))
    shift = (1.2 * math.cos(2.0), 1.2 * math.sin(2.0))
    a = render_texture(tex, 240, 240)
    b = render_texture(tex, 240, 240, shift)
    got = fb_track(a, b, TrackedPoint(120.0, 120.0))
    assert math.hypot(got.x - 120.0 - shift[0], got.y - 120.0 - shift[1]) <= 0.1
    assert lk_iterations and max(lk_iterations) < LkParams().max_iters


# --- frames keep their pyramids and last set-ups: chains reuse them ---


def drifting_frames(seed, count, size=120):
    """A texture drifting by about a pixel a frame, as a chain of frames."""
    rng = np.random.default_rng(seed)
    tex = random_texture(rng)
    shifts = np.cumsum(rng.uniform(-1.2, 1.2, size=(count, 2)), axis=0)
    return [render_texture(tex, size, size, tuple(d)) for d in shifts]


def chain(frames, point, params):
    """fb_track along the frames, each result fed into the next call; a lost
    point starts again from where it was lost.  Returns every result."""
    got, pt = [], TrackedPoint(*point)
    for a, b in zip(frames, frames[1:]):
        new = fb_track(a, b, pt, params)
        got.append(new)
        pt = TrackedPoint(*new.position)
    return got


def ref_chain(frames, point, params):
    want, pt = [], point
    for a, b in zip(frames, frames[1:]):
        new = ref_fb_track(a, b, pt, params)
        want.append(new)
        pt = new.position
    return want


@pytest.mark.parametrize("seed", [3, 11])
def test_chained_tracking_matches_the_reference_at_every_frame(seed):
    frames = drifting_frames(seed, 12)
    params = LkParams()
    got = chain(frames, (60.0, 60.0), params)
    assert got == ref_chain(frames, (60.0, 60.0), params)
    assert sum(not p.lost for p in got) >= 8
    # tracked again, the frames' caches are full: the same results
    assert chain(frames, (60.0, 60.0), params) == got


def test_interleaved_params_each_match_the_reference():
    # the caches of one frame hold a pyramid per (window, levels); a solve
    # that takes a cached set-up still tests it against its own min_eig
    frames = drifting_frames(5, 6)
    kinds = [LkParams(), LkParams(window=7), LkParams(levels=2), LkParams(min_eig=1.0),
             LkParams(window=21, levels=1), LkParams(min_eig=1e-3)]
    point = (60.0, 60.0)
    for a, b in zip(frames, frames[1:]):
        for params in kinds + kinds[::-1]:
            got = fb_track(a, b, TrackedPoint(*point), params)
            assert got == ref_fb_track(a, b, point, params)
            assert lk_track(a, b, point, params) == ref_lk_track(a, b, point, params)
        # min_eig = 1.0 fails every window, cached or not
        assert fb_track(a, b, TrackedPoint(*point), LkParams(min_eig=1.0)).lost
        point = fb_track(a, b, TrackedPoint(*point)).position


def test_a_set_up_is_reused_only_at_its_exact_point():
    a, b = drifting_frames(7, 2)
    params = LkParams()
    for point in [(60.0, 60.0), (60.0, 60.5), (60.5, 60.5), (60.5, 60.0), (60.0, 60.0)]:
        assert lk_track(a, b, point, params) == ref_lk_track(a, b, point, params)


def test_a_chain_builds_one_pyramid_per_frame_and_reuses_each_backward_set_up(monkeypatch):
    pyramid, setup = flow._pyramid, flow._setup
    built, set_up = [], []
    monkeypatch.setattr(flow, "_pyramid", lambda px, p: built.append(px) or pyramid(px, p))
    monkeypatch.setattr(flow, "_setup", lambda *args: set_up.append(args) or setup(*args))
    k = 10
    frames = drifting_frames(3, k)
    got = chain(frames, (60.0, 60.0), LkParams())
    assert not any(p.lost for p in got)
    assert len(built) == k
    assert all(any(px is f.pixels for px in built) for f in frames)
    # three levels on a 120 px frame: the first call sets up both solves,
    # and each later call only its backward solve
    depth = len(pyramid(frames[0].pixels, LkParams()))
    assert depth == 3
    assert len(set_up) == depth * k


def test_threads_sharing_frames_get_the_sequential_results():
    # more threads than cores, switching often, fill and read the same
    # frames' caches, from different points: each must see the results of
    # tracking alone
    frames = drifting_frames(9, 6, size=96)
    points = [(40.0, 40.0), (48.0, 52.0), (56.0, 44.0)]
    want = [chain(drifting_frames(9, 6, size=96), p, LkParams()) for p in points]
    got = {}

    def work(i):
        got[i] = [chain(frames, points[i % 3], LkParams()) for _ in range(4)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {i: [want[i % 3]] * 4 for i in range(6)}


def test_tracking_leaves_frame_equality_and_repr_as_they_were():
    a, b = drifting_frames(3, 2)
    twin = Frame(a.pixels)
    before = (repr(a), repr(b), a == twin, twin == a)
    fb_track(a, b, TrackedPoint(60.0, 60.0))
    lk_track(b, a, (60.0, 60.0), LkParams(window=7))
    assert (repr(a), repr(b), a == twin, twin == a) == before
    assert before[2] and repr(a) == repr(twin)


def test_frame_copies_a_view_so_its_owner_cannot_change_the_pixels():
    owner = np.random.default_rng(2).random(400)
    frame = Frame(owner.reshape(20, 20))
    owner[0] = 2.0
    assert frame.pixels[0, 0] < 1.0


def test_package_names_are_their_home_modules_objects():
    homes = {name: module for module in (sonar, frames, corners, flow) for name in module.__all__}
    assert set(perception.__all__) <= set(homes)
    for name in perception.__all__:
        assert getattr(perception, name) is getattr(homes[name], name)


def test_star_import_and_dir_list_every_package_name():
    namespace = {}
    exec("from stairclimber.perception import *", namespace)
    assert set(perception.__all__) <= set(namespace)
    assert set(perception.__all__) <= set(dir(perception))


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'track_everything'"):
        perception.track_everything


@pytest.mark.parametrize("name", sorted(set(perception.__all__) - set(sonar.__all__)))
def test_lazy_name_is_stored_on_first_access(monkeypatch, name):
    # drop the cached binding, so the next access goes through the module __getattr__
    monkeypatch.delitem(vars(perception), name)
    value = getattr(perception, name)
    assert vars(perception)[name] is value
