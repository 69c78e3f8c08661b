import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stairclimber.control import ArbiterConfig
from stairclimber.eeg import (
    SYNC,
    EegRecord,
    EegStreamParser,
    LoessConfig,
    PostureState,
    TooFewPoints,
    encode_frame,
    loess_last,
    loess_smooth,
    posture_transition,
)


def make_stream(pairs):
    return b"".join(encode_frame(a, m) for a, m in pairs)


def test_frame_round_trip():
    parser = EegStreamParser()
    records = parser.feed(encode_frame(42, 77))
    assert records == [EegRecord(t=0.0, attention=42, meditation=77)]
    assert parser.checksum_failures == 0


def test_timestamps_count_frames():
    parser = EegStreamParser(dt=0.5)
    records = parser.feed(make_stream([(10, 20), (30, 40), (50, 60)]))
    assert [r.t for r in records] == [0.0, 0.5, 1.0]


def test_any_chunking_yields_identical_records():
    stream = make_stream([(i + 1, 100 - i) for i in range(6)])
    whole = EegStreamParser().feed(stream)
    for cut in range(1, len(stream)):
        parser = EegStreamParser()
        records = parser.feed(stream[:cut]) + parser.feed(stream[cut:])
        assert records == whole


@st.composite
def corrupted_streams(draw):
    """A stream in which some whole frames are corrupted, with its clean frames.

    A corrupted frame keeps its sync pair and length byte, and its payload
    and checksum become bytes that fail the checksum; or the whole frame
    becomes line noise.  Only the noise's last byte may be a sync byte, so
    the one false sync pair that can form, with the next frame's first sync
    byte, reads a bad length and cannot swallow part of that frame.
    """
    non_sync = st.integers(0, 255).filter(lambda b: b != SYNC)
    bad_tail = st.tuples(non_sync, non_sync, non_sync).filter(
        lambda t: (2 + t[0] + t[1]) & 0xFF != t[2])
    pieces, clean, n_bad_sums = [], [], 0
    for att, med in draw(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                                  max_size=30)):
        frame = encode_frame(att, med)
        kind = draw(st.sampled_from(["clean", "clean", "checksum", "noise"]))
        if kind == "clean":
            pieces.append(frame)
            clean.append(frame)
        elif kind == "checksum":
            pieces.append(frame[:3] + bytes(draw(bad_tail)))
            n_bad_sums += 1
        else:
            noise = draw(st.lists(non_sync, min_size=5, max_size=5))
            pieces.append(bytes(noise + [draw(st.sampled_from([SYNC, 0x00]))]))
    stream = b"".join(pieces)
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    return stream, b"".join(clean), cuts, n_bad_sums


@settings(max_examples=300, deadline=None)
@given(corrupted_streams())
def test_corrupted_frames_drop_out_under_any_chunking(case):
    stream, clean, cuts, n_bad_sums = case
    parser = EegStreamParser(dt=0.25)
    records = []
    for a, b in zip([0, *cuts], [*cuts, len(stream)]):
        records += parser.feed(stream[a:b])
    assert records == EegStreamParser(dt=0.25).feed(clean)
    assert parser.checksum_failures >= n_bad_sums


@st.composite
def sync_heavy_streams(draw):
    """Bytes rich in sync pairs, and the cuts that chunk them.

    Among the frames are ones whose checksum is itself a sync byte
    (attention + meditation = 168), so a frame can end in what looks like
    the first byte of the next sync pair.  The cuts are arbitrary, or one
    after every byte.
    """
    pieces = draw(st.lists(st.one_of(
        st.integers(0, 168).map(lambda att: encode_frame(att, 168 - att)),
        st.tuples(st.integers(0, 255), st.integers(0, 255)).map(lambda p: encode_frame(*p)),
        st.lists(st.sampled_from([SYNC, SYNC, 2, 0, 168]), max_size=4).map(bytes),
    ), max_size=30))
    stream = b"".join(pieces)
    cuts = draw(st.one_of(
        st.just(list(range(1, len(stream)))),
        st.lists(st.integers(0, len(stream)), max_size=12).map(sorted),
    ))
    return stream, cuts


def assert_chunking_is_invisible(stream, cuts):
    """The stream fed in the chunks between ``cuts`` gives the records and
    the checksum failures of one whole feed."""
    whole = EegStreamParser(dt=0.25)
    want = whole.feed(stream)
    parser = EegStreamParser(dt=0.25)
    records = []
    for a, b in zip([0, *cuts], [*cuts, len(stream)]):
        records += parser.feed(stream[a:b])
    assert records == want
    assert parser.checksum_failures == whole.checksum_failures


# a frame that ends in a sync byte, then a frame, fed one byte at a time: the
# first frame's checksum is consumed and must not start the next sync pair
@example((encode_frame(68, 100) + encode_frame(1, 2), list(range(1, 12))))
@settings(max_examples=300, deadline=None)
@given(sync_heavy_streams())
def test_records_and_failure_counts_do_not_depend_on_chunking(case):
    assert_chunking_is_invisible(*case)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=400), st.data())
def test_feed_takes_arbitrary_bytes_in_arbitrary_chunks(stream, data):
    # line noise from the headset: no byte sequence makes feed raise, and
    # no chunking changes what it reads
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=20)))
    assert_chunking_is_invisible(stream, cuts)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_parser_refuses_a_bad_dt(dt):
    with pytest.raises(ValueError, match=r"dt must be finite and > 0 \(got "):
        EegStreamParser(dt=dt)


def test_byte_at_a_time_feed():
    stream = make_stream([(5, 95), (60, 35)])
    parser = EegStreamParser()
    records = []
    for b in stream:
        records.extend(parser.feed(bytes([b])))
    assert [(r.attention, r.meditation) for r in records] == [(5, 95), (60, 35)]


def test_garbage_prefix_is_skipped():
    parser = EegStreamParser()
    records = parser.feed(b"\x01\x02\x03" + encode_frame(9, 9))
    assert len(records) == 1 and parser.checksum_failures == 0


def test_corrupt_checksum_resyncs_on_next_frame():
    good = encode_frame(40, 50)
    bad = bytearray(encode_frame(10, 10))
    bad[-1] ^= 0xFF
    parser = EegStreamParser()
    records = parser.feed(bytes(bad) + good)
    assert [(r.attention, r.meditation) for r in records] == [(40, 50)]
    assert parser.checksum_failures >= 1


def test_trailing_lone_sync_starts_next_frame():
    frame = encode_frame(33, 66)
    parser = EegStreamParser()
    assert parser.feed(b"\x00\x00" + frame[:1]) == []
    records = parser.feed(frame[1:])
    assert [(r.attention, r.meditation) for r in records] == [(33, 66)]


def test_scale_values_clamped_to_band():
    # 0 and out-of-band bytes clamp into [1, 100] rather than raising
    parser = EegStreamParser()
    records = parser.feed(encode_frame(0, 255))
    assert records[0].attention == 1
    assert records[0].meditation == 100


def test_record_validation():
    # a field out of range, or NaN, is refused by its own name
    for attention, meditation, bad in [
        (0, 50, "attention"), (101, 50, "attention"), (math.nan, 50, "attention"),
        (50, 0, "meditation"), (50, 101, "meditation"), (50, math.nan, "meditation"),
        (0, 101, "attention"),
    ]:
        with pytest.raises(ValueError, match=f"^{bad} must lie in \\[1, 100\\]"):
            EegRecord(0.0, attention, meditation)
    # both ends of the scale are in it
    for attention, meditation in [(1, 1), (1, 100), (100, 1), (100, 100)]:
        assert EegRecord(0.0, attention, meditation).meditation == meditation


def test_loess_reproduces_affine_data():
    ts = np.arange(25.0)
    series = [(t, 3.0 * t + 2.0) for t in ts]
    for span in (0.2, 0.5, 1.0):
        smoothed = loess_smooth(series, LoessConfig(span=span))
        for (t_in, _), (t_out, y_out) in zip(series, smoothed):
            assert t_out == t_in
            assert y_out == pytest.approx(3.0 * t_in + 2.0, abs=1e-9)


def oracle_loess(series, cfg):
    # straight normal-equations fit per point, same tricube bandwidth rule
    arr = np.asarray(series, dtype=float)
    t, y = arr[:, 0], arr[:, 1]
    n = len(t)
    q = min(n, max(3, math.ceil(cfg.span * n)))
    out = []
    for i in range(n):
        d = np.abs(t - t[i])
        h = np.sort(d)[q - 1]
        w = (1.0 - np.minimum(d / h, 1.0) ** 3) ** 3
        X = np.column_stack([np.ones(n), t])
        A = X.T @ (w[:, None] * X)
        b = X.T @ (w * y)
        coef = np.linalg.solve(A, b)
        out.append(coef[0] + coef[1] * t[i])
    return out


def test_loess_matches_normal_equations_on_spiky_series():
    rng = np.random.default_rng(7)
    ts = np.cumsum(rng.uniform(0.5, 1.5, size=40))
    ys = 50.0 + 20.0 * np.sin(ts / 3.0) + rng.normal(0.0, 4.0, size=40)
    ys[13] += 60.0
    ys[27] -= 55.0
    series = list(zip(ts, ys))
    cfg = LoessConfig(span=0.35)
    smoothed = loess_smooth(series, cfg)
    expected = oracle_loess(series, cfg)
    for (_, got), want in zip(smoothed, expected):
        assert got == pytest.approx(want, abs=1e-9)


def test_loess_damps_spikes():
    ts = np.arange(21.0)
    ys = np.full(21, 50.0)
    ys[10] = 100.0
    smoothed = loess_smooth(list(zip(ts, ys)), LoessConfig(span=0.4))
    assert abs(smoothed[10][1] - 50.0) < 25.0


def test_loess_value_shift_equivariance():
    rng = np.random.default_rng(3)
    ts = np.arange(15.0)
    ys = rng.uniform(1.0, 100.0, size=15)
    base = loess_smooth(list(zip(ts, ys)))
    shifted = loess_smooth(list(zip(ts, ys + 17.0)))
    for (_, a), (_, b) in zip(base, shifted):
        assert b - a == pytest.approx(17.0, abs=1e-9)


def test_loess_time_shift_invariance():
    rng = np.random.default_rng(4)
    ts = np.arange(15.0)
    ys = rng.uniform(1.0, 100.0, size=15)
    base = loess_smooth(list(zip(ts, ys)))
    moved = loess_smooth(list(zip(ts + 1000.0, ys)))
    for (_, a), (_, b) in zip(base, moved):
        assert b == pytest.approx(a, abs=1e-6)


def test_loess_window_rule():
    cfg = LoessConfig(span=0.3)
    assert cfg.window(10) == 3
    assert cfg.window(20) == 6
    assert cfg.window(5) == 3   # never below 3 points
    assert LoessConfig(span=1.0).window(8) == 8


def test_loess_input_validation():
    with pytest.raises(TooFewPoints):
        loess_smooth([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        loess_smooth([(0.0, 1.0), (0.0, 2.0), (1.0, 3.0)])  # t not increasing
    with pytest.raises(ValueError):
        LoessConfig(span=0.0)


@st.composite
def loess_cases(draw):
    # past 128 points numpy sums in blocks, which loess_last must follow
    n = draw(st.integers(3, 300))
    values = draw(st.lists(st.floats(1.0, 100.0), min_size=n, max_size=n))
    span = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
    if draw(st.booleans()):
        # uneven steps from a millisecond to minutes, at times up to a day
        # and more, either side of zero
        steps = draw(st.lists(st.floats(1e-3, 300.0), min_size=n, max_size=n))
        offset = draw(st.sampled_from([0.0, 1.0, 1e6, 1.5e8, -1.0, -1e6, -1.5e8]))
        t = offset + np.cumsum(steps)
    else:
        # times just above zero, then a few whole seconds: x0 - t rounds to
        # the same distance for every tiny time, so the weights tie
        k = draw(st.integers(1, n))
        tiny = draw(st.lists(st.floats(1e-20, 1e-17), min_size=n - k, max_size=n - k))
        whole = draw(st.lists(st.floats(1.0, 10.0), min_size=k, max_size=k))
        t = np.cumsum(tiny + whole)
    return [(float(a), float(b)) for a, b in zip(t, values)], LoessConfig(span=span)


@settings(max_examples=300, deadline=None)
@given(loess_cases())
def test_loess_last_equals_the_last_smoothed_value(case):
    series, cfg = case
    want = loess_smooth(series, cfg)[-1][1]
    assert loess_last(series, cfg) == want
    assert loess_last(tuple(series), cfg) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "first, rest",
    [
        (-1.7e308, [4e307] * 19),                    # its residual overflows
        (math.inf, [50.0 + i % 7 for i in range(19)]),
        (math.nan, [50.0 + i % 7 for i in range(19)]),
        (3e200, [1e200 * (1 + i % 3) for i in range(19)]),  # finite, past 1e150
    ],
)
def test_loess_last_equals_loess_smooth_beyond_the_scalar_range(first, rest):
    # the first point has weight zero; numpy multiplies that zero by its value
    # and its residual, which gives nan when either is not finite
    series = [(0.0, first)] + [(float(i + 1), v) for i, v in enumerate(rest)]
    want, got = loess_smooth(series)[-1][1], loess_last(series)
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize(
    "series",
    [
        [(0.0, 1.0), (1.0, 2.0)],                          # too few points
        [(0.0, 1.0), (0.0, 2.0), (1.0, 3.0)],              # equal t
        [(0.0, 1.0), (math.nan, 2.0), (2.0, 3.0)],         # NaN t
        [(0.0, 1.0, 5.0), (1.0, 2.0, 5.0), (2.0, 3.0, 5.0)],  # not (t, value) pairs
        [0.0, 1.0, 2.0],
    ],
)
def test_loess_last_raises_what_loess_smooth_raises(series):
    with pytest.raises(ValueError) as smooth_err:
        loess_smooth(series)
    with pytest.raises(ValueError) as last_err:
        loess_last(series)
    assert type(last_err.value) is type(smooth_err.value)
    assert str(last_err.value) == str(smooth_err.value)


def test_hysteresis_band():
    s = PostureState.HOLDING
    s = posture_transition(70.0, s)
    assert s is PostureState.RAISING
    s = posture_transition(50.0, s)  # dead band keeps the previous state
    assert s is PostureState.RAISING
    s = posture_transition(39.0, s)
    assert s is PostureState.LOWERING
    s = posture_transition(45.0, s)
    assert s is PostureState.LOWERING
    s = posture_transition(60.0, s)  # boundary belongs to the raise side
    assert s is PostureState.RAISING
    assert posture_transition(40.0, s) is PostureState.LOWERING


def test_hysteresis_never_commands_both_ways():
    # one state at a time: the rate command is single-valued by construction
    state = PostureState.HOLDING
    rng = np.random.default_rng(11)
    for value in rng.uniform(1.0, 100.0, size=200):
        state = posture_transition(float(value), state)
        assert state.seat_rate(1.0) in (-1.0, 0.0, 1.0)


def test_posture_controller_rates():
    state = PostureState.HOLDING
    for value, rate in [(80.0, 0.7), (50.0, 0.7), (20.0, -0.7)]:  # 50 is held by the band
        state = posture_transition(value, state)
        assert state.seat_rate(0.7) == pytest.approx(rate)


def test_posture_validation():
    with pytest.raises(ValueError):
        posture_transition(0.5, PostureState.HOLDING)
    with pytest.raises(ValueError):
        ArbiterConfig(hysteresis_lo=60.0, hysteresis_hi=40.0)
    with pytest.raises(ValueError):
        ArbiterConfig(hysteresis_lo=50.0, hysteresis_hi=50.0)
