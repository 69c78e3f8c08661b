#!/usr/bin/env python3
"""Reproduce the first performance baseline list, measured into fresh directories.

Prints each figure of the list next to the value the list recorded, and
flags every figure that differs by more than 20%.  Run from the root of a
checkout (about 30 s):

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

from run import loess_1k, median_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench" / "baseline"
REPEATS = 5
TOLERANCE = 0.2

# (figure, recorded value, unit) as listed with the first baseline
RECORDED = (
    ("import", 0.06, "s"),
    ("design", 4.0, "ms"),
    ("sim", 39.0, "ms"),
    ("sweep", 187.0, "ms"),
    ("sweep probes", 11, "count"),
    ("teleop", 2.0, "ms"),
    ("report", 245.0, "ms"),
    ("run_climb per step", 2.6, "us"),
    ("run_climb steps", 8505, "count"),
    ("fb_track per point, 96x96", 1.6, "ms"),
    ("detect_corners per frame, 96x96", 0.7, "ms"),
    ("loess_smooth, n=1000", 20.5, "ms"),
)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from stairclimber import cli, eeg, perception, scenario, stairsim

    shutil.rmtree(OUT, ignore_errors=True)
    baseline = str(ROOT / "scenarios" / "baseline40.json")
    replay = str(ROOT / "scenarios" / "teleop_replay.json")
    measured = {}

    snippet = ("import time, sys; sys.path.insert(0, 'src'); t = time.perf_counter(); "
               "import stairclimber.cli; print(time.perf_counter() - t)")
    imports = [float(subprocess.run([sys.executable, "-c", snippet], cwd=ROOT, check=True,
                                    capture_output=True, text=True, timeout=60).stdout)
               for _ in range(REPEATS)]
    measured["import"] = median(imports)

    runs = iter(range(10**6))

    def call(cmd, scenario_path):
        out = OUT / f"{cmd}{next(runs)}"   # a fresh directory every call
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([cmd, "--scenario", scenario_path, "--out", str(out)])
        assert rc == 0, f"{cmd} exited {rc}"

    for cmd, path in (("design", baseline), ("sim", baseline), ("sweep", baseline),
                      ("teleop", replay), ("report", baseline)):
        measured[cmd] = median_time(lambda: call(cmd, path), REPEATS) * 1e3

    sc = scenario.load_scenario(baseline)
    probes = []
    stairsim.min_torque_sweep(sc.sim, sc.stairs, probes=probes)
    measured["sweep probes"] = len(probes)
    traj = stairsim.run_climb(sc.sim, sc.stairs, sc.motor.available_track_torque)
    steps = len(traj.states) - 1
    measured["run_climb steps"] = steps
    measured["run_climb per step"] = median_time(
        lambda: stairsim.run_climb(sc.sim, sc.stairs, sc.motor.available_track_torque), REPEATS) / steps * 1e6

    rng = np.random.default_rng(0)
    tex = perception.random_texture(rng)
    prev = perception.render_texture(tex, 96, 96)
    nxt = perception.render_texture(tex, 96, 96, shift=(1.3, -0.7))
    start = perception.TrackedPoint(48.0, 48.0)
    measured["fb_track per point, 96x96"] = median_time(lambda: perception.fb_track(prev, nxt, start), 20) * 1e3
    measured["detect_corners per frame, 96x96"] = median_time(lambda: perception.detect_corners(prev), 20) * 1e3

    # the series and timing of the traced runs' eeg.loess_smooth_1k_s
    measured["loess_smooth, n=1000"] = loess_1k(eeg, seed=0, repeats=REPEATS) * 1e3
    shutil.rmtree(OUT, ignore_errors=True)

    print(f"{'figure':34s} {'recorded':>10s} {'measured':>10s}  unit   ratio")
    for name, recorded, unit in RECORDED:
        value = measured[name]
        ratio = value / recorded
        flag = "" if abs(ratio - 1.0) <= TOLERANCE else "  differs"
        print(f"{name:34s} {recorded:>10.4g} {value:>10.4g}  {unit:6s} {ratio:5.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
