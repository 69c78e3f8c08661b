"""Seeded input generators of the climb, teleop_eeg and tracking workloads.

Each generator is a pure function of its seed and writes plain files (the
program reads only those files).  The same seed gives the same bytes.  Every
input range below carries the reason it was chosen, and the edge inputs that
real use produces are kept on purpose:

* climb:       staircases at exactly the 40 deg cap, and unclimbable ones
               (exit 2 is their expected verdict)
* teleop_eeg:  meditation values 1 and 100, and corrupted wire bytes
* tracking:    targets drifting out of the frame
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Defaults of the scenario schema, pinned in every generated scenario so the
# expected verdict can be derived here without asking the program.
PULLEY_R_M = 0.036
GRAVITY = 9.81
MOTOR_TORQUE_NM = 22.0
MOTOR_REDUCTION = 2.0
MOTOR_LIMIT_NM = MOTOR_TORQUE_NM * MOTOR_REDUCTION
TRACK_ZONE_M = 0.15
STAIR_CAP_MPS = 0.1

# ---------------------------------------------------------------- climb ----

STUDY_SIZE = 8                   # one study takes about 2 s at dt = 1 ms
# The study is a fixed design grid, jittered by the seed.  A run's cost is
# its step count, duration / dt, so if every seed drew its own mix of long
# and short climbs, study throughput would measure the mix instead of the
# program.  The grid's layout (which stratum of each range a scenario takes)
# is fixed; the seed moves each value within the middle STRATUM_JITTER of
# its stratum and shuffles the order in which the scenarios run.  On a
# 16-scenario grid, full strata made the study's step count spread 7% across
# seeds, and 0.3 of them 2%.
GRID_LAYOUT_SEED = 20180110
STRATUM_JITTER = 0.3
# the integrator step of every bundled scenario (the schema's default)
STUDY_DT_S = 1e-3
# ranges split into STUDY_SIZE strata:
INCLINATION_DEG = (15.0, 40.0)   # gentle public stairs up to the design cap
STEP_RISE_M = (0.15, 0.19)       # building-code riser heights
RAMP_LENGTH_M = (0.3, 1.2)       # two to seven steps along the slope
ROLLING_COEFF = (0.0, 0.2)       # 0 is the ideal track; 0.13 is baseline40
APPROACH_M = (0.0, 0.5)          # flat run-up before the first nose
LEVEL_RUN_M = (0.0, 0.3)         # run-out required after the crest
MASS_KG = (60.0, 150.0)          # per-track mass: light user up to full load
HORIZON_FACTOR = (1.3, 2.0)      # duration over the time the climb needs
# Climbable scenarios stay below 90% of the motor limit, the unclimbable one
# above 105%, so no verdict hinges on rounding.
CLIMBABLE_DEMAND = 0.9
UNCLIMBABLE_DEMAND = (1.05, 1.3)
# the unclimbable scenario sits on a steep, rough staircase, where a heavy
# load is what makes real climbs fail
UNCLIMBABLE_INCLINATION_DEG = (35.0, 40.0)
UNCLIMBABLE_ROLLING = (0.1, 0.2)
CAP_INDEX, UNCLIMBABLE_INDEX = 0, 1   # grid rows pinned to the two edge cases


def _strata(rng: np.random.Generator, layout: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """One draw near the middle of each scenario's fixed stratum of [lo, hi]."""
    n = len(layout)
    u = 0.5 + STRATUM_JITTER * (rng.uniform(0.0, 1.0, size=n) - 0.5)
    return lo + (hi - lo) * (layout + u) / n


def demand_nm(mass: float, inclination_deg: float, rolling: float) -> float:
    """Track torque that holds the robot moving at constant speed on the slope."""
    th = math.radians(inclination_deg)
    return PULLEY_R_M * mass * GRAVITY * (math.sin(th) + rolling * math.cos(th))


def climb_study(seed: int) -> list[dict]:
    """Scenario specs of one study: the scenario JSON plus its expected verdict."""
    rng = np.random.default_rng([seed, 1])
    n = STUDY_SIZE
    layout = np.random.default_rng(GRID_LAYOUT_SEED)
    incl, rise, ramp, roll, approach, level, mass_u, horizon = (
        _strata(rng, layout.permutation(n), lo, hi) for lo, hi in (
            INCLINATION_DEG, STEP_RISE_M, RAMP_LENGTH_M, ROLLING_COEFF,
            APPROACH_M, LEVEL_RUN_M, (0.0, 1.0), HORIZON_FACTOR))
    cap_idx, unclimbable_idx = CAP_INDEX, UNCLIMBABLE_INDEX

    specs = []
    for i in range(n):
        inclination = float(incl[i])
        rolling = float(roll[i])
        if i == cap_idx:
            inclination = 40.0
        if i == unclimbable_idx:
            inclination = float(rng.uniform(*UNCLIMBABLE_INCLINATION_DEG))
            rolling = float(rng.uniform(*UNCLIMBABLE_ROLLING))
            ratio = float(rng.uniform(*UNCLIMBABLE_DEMAND))
            mass = ratio * MOTOR_LIMIT_NM / demand_nm(1.0, inclination, rolling)
        else:
            top = min(MASS_KG[1], CLIMBABLE_DEMAND * MOTOR_LIMIT_NM / demand_nm(1.0, inclination, rolling))
            mass = MASS_KG[0] + float(mass_u[i]) * (top - MASS_KG[0])
        stair_path = 2.0 * TRACK_ZONE_M + float(ramp[i]) + float(level[i])
        duration = round(float(horizon[i]) * (stair_path / STAIR_CAP_MPS + 1.0), 3)
        obj = {
            "name": f"study{i}",
            "robot": {
                "per_track_mass_kg": round(mass, 6),
                "pulley23_radius_m": PULLEY_R_M,
                "gravity_mps2": GRAVITY,
                "motor": {"torque_nm": MOTOR_TORQUE_NM, "reduction": MOTOR_REDUCTION},
            },
            "staircase": {
                "inclination_deg": round(inclination, 6),
                "step_rise_m": round(float(rise[i]), 6),
                "ramp_length_m": round(float(ramp[i]), 6),
                "approach_length_m": round(float(approach[i]), 6),
            },
            "sim": {
                "dt_s": STUDY_DT_S,
                "duration_s": duration,
                "rolling_resist_coeff": round(rolling, 6),
                "track_zone_m": TRACK_ZONE_M,
                "level_run_m": round(float(level[i]), 6),
            },
        }
        d = demand_nm(obj["robot"]["per_track_mass_kg"], obj["staircase"]["inclination_deg"],
                      obj["sim"]["rolling_resist_coeff"])
        specs.append({
            "scenario": obj,
            "climbable": d < MOTOR_LIMIT_NM,
            "static_nm": PULLEY_R_M * obj["robot"]["per_track_mass_kg"] * GRAVITY
            * math.sin(math.radians(obj["staircase"]["inclination_deg"])),
        })
    return [specs[i] for i in rng.permutation(n)]


def write_climb(seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    specs = climb_study(seed)
    for i, spec in enumerate(specs):
        (out / f"study{i}.json").write_text(json.dumps(spec["scenario"], indent=1) + "\n")
    meta = [{k: v for k, v in spec.items() if k != "scenario"} for spec in specs]
    (out / "study_expected.json").write_text(json.dumps(meta, indent=1) + "\n")
    return {"study": [out / f"study{i}.json" for i in range(len(specs))], "expected": meta}


# ----------------------------------------------------------- teleop_eeg ----

EEG_FRAMES = 1200            # 20 min of 1 Hz eSense values
EEG_PERIOD_S = 1.0           # the headset reports eSense values once a second
# The signal and wire figures below are assumed, not measured: the repo
# holds no recorded headset byte stream.
WALK_STEP = 6.0              # meditation drifts a few points per second
SPIKE_P = 0.03               # artefact spikes (blinks, jaw clench)
SPIKE_VALUES = (1, 100)      # the scale's ends, which spikes saturate to
# 2% of frames get one byte flipped on the wire, and 2% of the gaps between
# frames get line noise.  The counts are fixed (the seed picks where), so
# every seed yields the same number of clean frames.
FLIPPED_FRAMES = 24
NOISY_GAPS = 24
JUNK_LEN = (1, 5)            # noise bytes per gap; never 0xAA (see below)
CHUNK_LEN = (1, 48)          # serial reads return any number of bytes
# The operator's mode timeline is the one recorded in
# scenarios/teleop_events.jsonl, in seconds: of its 24 s, 10 are keypad,
# 5 EEG, 4 voice and 5 tracking, so 21% of the session is in EEG mode.
FIXTURE_TIMELINE = (("keypad", 8), ("eeg", 5), ("keypad", 1), ("voice", 4),
                    ("keypad", 1), ("tracking", 5))
# Assumed: a real session stays in each mode longer than the 24 s demo
# that visits them all.  Stretched 7x, an EEG stay is 35 frames, more than
# twice the arbiter's 15-sample LOESS window, so most EEG events smooth a
# full window.  Seven stretched timelines make the 1176 clean frames.
TIMELINE_STRETCH = 7
TIMELINE_REPEATS = 7
# Operator inputs per second of each mode, as in the fixture: 5 drive keys
# in 10 s of keypad, 3 voice commands in 4 s, a touch and 3 track updates
# in 5 s of tracking (1 of the 3 reports a lost target).  EEG mode has no
# operator inputs besides the headset.  The fixture's content (which key,
# which symbol, which bearing) is drawn by the seed.
INPUT_RATE = {"keypad": 0.5, "voice": 0.75, "tracking": 0.8, "eeg": 0.0}
TRACK_LOST_EVERY = 3
DRIVE_KEYS = "82465"
SONAR_EVERY = 12             # the fixture's 2 sonar triples in 24 s
SONAR_BLOCKED_P = 0.2        # assumed share of readings inside the threshold
VOICE_SYMBOLS = ("FORWARD", "BACK", "LEFT", "RIGHT", "STOP", "RAISE", "LOWER")


def _walk(rng: np.random.Generator, n: int) -> np.ndarray:
    v = float(rng.uniform(1, 100))
    out = np.empty(n, dtype=int)
    for i in range(n):
        if rng.random() < SPIKE_P:
            out[i] = SPIKE_VALUES[int(rng.integers(2))]
            continue
        v = min(100.0, max(1.0, v + rng.normal(0.0, WALK_STEP)))
        out[i] = int(round(v))
    return out


def _sonar_payload(rng: np.random.Generator) -> dict:
    def d():
        if rng.random() < SONAR_BLOCKED_P:
            return round(float(rng.uniform(0.1, 0.5)), 3)
        return round(float(rng.uniform(0.6, 4.0)), 3)
    return {"d_left": d(), "d_front": d(), "d_right": d()}


def teleop_session(seed: int) -> dict:
    """Wire bytes, chunking, non-EEG events and the frames that must parse."""
    from stairclimber.eeg import SYNC, encode_frame

    rng = np.random.default_rng([seed, 2])
    med = _walk(rng, EEG_FRAMES)
    att = _walk(rng, EEG_FRAMES)
    flipped = set(rng.choice(EEG_FRAMES, size=FLIPPED_FRAMES, replace=False).tolist())
    noisy = set(rng.choice(EEG_FRAMES, size=NOISY_GAPS, replace=False).tolist())
    wire = bytearray()
    clean = []
    for i, (a, m) in enumerate(zip(att, med)):
        frame = bytearray(encode_frame(int(a), int(m)))
        if i in flipped:
            pos = int(rng.integers(len(frame)))
            frame[pos] ^= int(rng.integers(1, 256))
        else:
            clean.append((int(a), int(m)))
        wire += frame
        if i in noisy:
            # noise without sync bytes: a sync byte in a gap could open a
            # frame that swallows the header of the next clean one, and the
            # workload checks that exactly the clean frames parse
            k = int(rng.integers(JUNK_LEN[0], JUNK_LEN[1] + 1))
            wire += bytes(b if b != SYNC else 0 for b in rng.integers(0, 256, size=k).tolist())
    chunks = []
    left = len(wire)
    while left > 0:
        c = min(left, int(rng.integers(CHUNK_LEN[0], CHUNK_LEN[1] + 1)))
        chunks.append(c)
        left -= c

    # non-EEG events at half-period offsets, so they never tie with a frame
    events = []
    keys = {"eeg": "A", "voice": "B", "tracking": "C"}
    plan = [(mode, secs * TIMELINE_STRETCH) for mode, secs in FIXTURE_TIMELINE] * TIMELINE_REPEATS
    assert sum(n for _, n in plan) == len(clean)
    k = 0
    mode = "keypad"
    for target, seg in plan:
        t0 = (k + 0.5) * EEG_PERIOD_S
        if target != mode:
            # 'D' returns to keypad; a mode key then enters the target mode
            events.append({"t": t0, "type": "key", "payload": {"key": "D"}})
            if target != "keypad":
                events.append({"t": t0 + 0.1, "type": "key", "payload": {"key": keys[target]}})
            mode = target
        rate = INPUT_RATE[mode]
        inputs = 0
        for j in range(seg):
            t = (k + j + 0.5) * EEG_PERIOD_S + 0.2
            if (k + j) % SONAR_EVERY == 0:
                events.append({"t": t, "type": "sonar", "payload": _sonar_payload(rng)})
            t += 0.1
            # a fixed cadence of `rate` inputs per second of the stay
            if int((j + 1) * rate) == int(j * rate):
                continue
            if mode == "keypad":
                events.append({"t": t, "type": "key", "payload": {"key": str(rng.choice(list(DRIVE_KEYS)))}})
            elif mode == "voice":
                events.append({"t": t, "type": "voice", "payload": {"symbol": str(rng.choice(VOICE_SYMBOLS))}})
            elif inputs == 0:
                events.append({"t": t, "type": "touch", "payload": {
                    "px": round(float(rng.uniform(0, 96)), 1), "py": round(float(rng.uniform(0, 96)), 1)}})
            else:
                b = {"lost": True} if inputs % TRACK_LOST_EVERY == 0 else {"bearing": round(float(rng.uniform(-0.45, 0.45)), 4)}
                events.append({"t": t, "type": "track", "payload": b})
            inputs += 1
        k += seg
    return {"wire": bytes(wire), "chunks": chunks, "clean": clean, "events": events}


def write_teleop(seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    s = teleop_session(seed)
    (out / "eeg.bin").write_bytes(s["wire"])
    (out / "chunks.json").write_text(json.dumps(s["chunks"]) + "\n")
    (out / "clean_frames.json").write_text(json.dumps(s["clean"]) + "\n")
    with open(out / "events.jsonl", "w") as fh:
        for e in s["events"]:
            fh.write(json.dumps(e) + "\n")
    return {"wire": out / "eeg.bin", "chunks": out / "chunks.json",
            "clean": out / "clean_frames.json", "events": out / "events.jsonl"}


# ------------------------------------------------------------- tracking ----

# Two sequences per frame size: 96 px is the CLI self-check size, 240 px a
# QVGA-height camera; the sizes show how perception scales with pixels, and
# two textures each average out how fast tracking converges on one texture.
# (frame size, frames, touch point's offset from the centre along the pan,
# as a share of the size).  The 240 px touch starts off-centre so the pan
# carries it out of the trackable area within the sequence.
SEQUENCES = ((96, 40, 0.0), (240, 60, 0.25)) * 2
DRIFT_PX = 1.2               # per-frame pan of a hand-held target, below the
                             # ~2.5 px where tracking stays within 0.1 px
JITTER_PX = 0.2              # hand shake on top of the pan
# The scenes are a fixed library, like the bundled scenarios: texture and
# pan direction per sequence (the four diagonals, which the trackable area
# is symmetric about).  The seed moves the camera over them: hand shake on
# the pan, the touch point and the sonar readings.  How fast Lucas-Kanade
# converges depends on the texture under the tracked path; drawing texture,
# angle and speed per seed made frames/s spread 8-19% across seeds.
SCENE_SEED = 20180111
DIAGONALS = (45.0, 135.0, 225.0, 315.0)
TOUCH_JITTER_PX = 2.0        # a fingertip lands within a few pixels


def tracking_sequences(seed: int) -> list[dict]:
    """Texture, per-frame scene shifts and touch point of each sequence.

    The pan carries the touched point towards the border, so tracks are lost
    at the frame edge and reacquired from corners near the touch point.
    """
    from stairclimber.perception import random_texture

    rng = np.random.default_rng([seed, 3])
    seqs = []
    for i, (size, frames, offset) in enumerate(SEQUENCES):
        tex = random_texture(np.random.default_rng([SCENE_SEED, i]))
        ang = math.radians(DIAGONALS[i % len(DIAGONALS)])
        direction = np.array([math.cos(ang), math.sin(ang)])
        shifts = [np.zeros(2)]
        for _ in range(frames - 1):
            shifts.append(shifts[-1] + DRIFT_PX * direction + rng.normal(0.0, JITTER_PX, size=2))
        touch = (size - 1) / 2.0 + offset * size * direction + rng.uniform(-1, 1, 2) * TOUCH_JITTER_PX
        sonar = [_sonar_payload(rng) for _ in range(frames // 5)]
        seqs.append({"size": size, "texture": tex, "shifts": [tuple(map(float, s)) for s in shifts],
                     "touch": tuple(map(float, touch)), "sonar": sonar})
    return seqs


def write_tracking(seed: int, out: Path) -> list[dict]:
    from stairclimber.perception import render_texture, write_pgm

    out.mkdir(parents=True, exist_ok=True)
    meta = []
    for i, seq in enumerate(tracking_sequences(seed)):
        paths = []
        for k, shift in enumerate(seq["shifts"]):
            p = out / f"seq{i}_{k:03d}.pgm"
            write_pgm(p, render_texture(seq["texture"], seq["size"], seq["size"], shift=shift))
            paths.append(p)
        entry = {"size": seq["size"], "shifts": seq["shifts"], "touch": seq["touch"], "sonar": seq["sonar"]}
        (out / f"seq{i}.json").write_text(json.dumps(entry) + "\n")
        meta.append({**entry, "frames": paths})
    return meta
