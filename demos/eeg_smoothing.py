"""Decode a headset byte stream and drive the seat from meditation level.

Builds a noisy synthetic wire stream (with one corrupted frame), parses it
back into records, smooths the meditation channel, and runs the hysteresis
band that decides when the seat raises or lowers.
"""

import numpy as np

from stairclimber.eeg import (
    EegStreamParser,
    LoessConfig,
    PostureState,
    encode_frame,
    loess_smooth,
    posture_transition,
)

rng = np.random.default_rng(42)

# a session that relaxes, dips, then relaxes again
profile = np.concatenate(
    [
        np.linspace(35, 85, 12),
        np.linspace(85, 30, 8),
        np.linspace(30, 75, 10),
    ]
)
noisy = np.clip(profile + rng.normal(0.0, 8.0, size=profile.size), 1, 100).astype(int)

stream = bytearray()
for i, med in enumerate(noisy):
    frame = bytearray(encode_frame(50, int(med)))
    if i == 7:
        frame[-1] ^= 0x55  # corrupt one checksum in transit
    stream += frame

parser = EegStreamParser(dt=1.0)
records = []
# feed in uneven chunks, the way a serial port delivers them
for i in range(0, len(stream), 5):
    records.extend(parser.feed(bytes(stream[i : i + 5])))

print(f"{len(records)} records decoded, {parser.checksum_failures} corrupt frame(s) dropped")

series = [(r.t, float(r.meditation)) for r in records]
smoothed = loess_smooth(series, LoessConfig(span=0.3))

seat = PostureState.HOLDING
print()
print(f"{'t':>4} {'raw':>4} {'smooth':>7} {'seat':>9}")
for (t, raw), (_, level) in zip(series, smoothed):
    seat = posture_transition(min(100.0, max(1.0, level)), seat, lo=40.0, hi=60.0)
    rate = seat.seat_rate(1.0)
    label = {1.0: "raising", -1.0: "lowering", 0.0: "holding"}[rate]
    print(f"{t:4.0f} {raw:4.0f} {level:7.1f} {label:>9}")
