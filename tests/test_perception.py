import math
import re
from itertools import combinations

import numpy as np
import pytest

from stairclimber.perception import (
    DEFAULT_HFOV,
    REGIONS,
    Corner,
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
    read_sonar_log,
    region_map,
    render_texture,
    select_corner,
    write_pgm,
)

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
    assert not occ.all_clear and not occ.all_blocked
    assert region_map(triple(set())).all_clear
    assert region_map(triple({"L", "F", "R"})).all_blocked


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


def test_sonar_log_round_trip(tmp_path):
    path = tmp_path / "sonar.csv"
    path.write_text("t,d_left,d_front,d_right\n0.5,3.0,0.4,2.0\n1.5,1.0,1.0,0.5\n")
    rows = read_sonar_log(path)
    assert [t for t, _ in rows] == [0.5, 1.5]
    assert rows[0][1].blocked() == frozenset("F")
    assert rows[1][1].blocked() == frozenset("R")


def test_sonar_log_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,left,front,right\n0,1,1,1\n")
    with pytest.raises(ValueError):
        read_sonar_log(path)


@pytest.mark.parametrize("row", ["2.0,1.0", "2.0,1.0,x,1.0"])
def test_sonar_log_bad_row_names_file_and_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,d_left,d_front,d_right\n0,1,1,1\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
        read_sonar_log(path)


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
    assert f.width == 20 and f.height == 20 and f.trackable()
    assert not Frame(np.zeros((8, 8))).trackable()
    with pytest.raises(ValueError):
        f.pixels[0, 0] = 1.0  # frozen buffer


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    # quantized values survive the 8-bit file exactly
    px = np.round(rng.uniform(0.0, 1.0, size=(24, 32)) * 255.0) / 255.0
    f = Frame(px, timestamp=1.5)
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


def test_render_shift_moves_content():
    rng = np.random.default_rng(8)
    tex = random_texture(rng)
    a = render_texture(tex, 32, 32, (0.0, 0.0))
    b = render_texture(tex, 32, 32, (3.0, -2.0))
    # integer shift relocates samples exactly inside the overlap
    assert np.allclose(b.pixels[0:30, 3:32], a.pixels[2:32, 0:29], atol=1e-12)
