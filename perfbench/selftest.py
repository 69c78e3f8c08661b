#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Checks that the generators are deterministic for a seed (and differ across
seeds), that the edge inputs are present, that every workload prints each
of its named metrics with its unit, that the JSON line carries exactly the
metrics of BENCHMARK.json, and that the benchmark refuses to run without
the program.  Run from the root of a checkout (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench" / "selftest"

# the end-to-end metrics each workload names, with their units
NAMED = {
    "cli": (("setup_s", "s"), ("design_s", "s"), ("sim_s", "s"), ("sweep_s", "s"),
            ("report_s", "s"), ("teleop_s", "s")),
    "climb": (("setup_s", "s"), ("study_scenarios_per_s", "1/s")),
    "teleop_eeg": (("setup_s", "s"), ("events_per_s", "1/s")),
    "tracking": (("setup_s", "s"), ("frames_per_s", "1/s")),
    "rerun": (("setup_s", "s"), ("report_rerun_s", "s")),
}


def check_generators() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gen
    from workloads import tree_digest

    for name, write in (("climb", gen.write_climb), ("teleop_eeg", gen.write_teleop),
                        ("tracking", gen.write_tracking)):
        base = WORKDIR / "gen" / name
        write(7, base / "a")
        write(7, base / "b")
        write(8, base / "c")
        assert tree_digest(base / "a") == tree_digest(base / "b"), f"{name}: seed 7 not repeatable"
        assert tree_digest(base / "a") != tree_digest(base / "c"), f"{name}: seeds 7 and 8 agree"

    for seed in range(5):
        study = gen.climb_study(seed)
        assert any(s["scenario"]["staircase"]["inclination_deg"] == 40.0 for s in study), "no 40 deg cap"
        assert any(not s["climbable"] for s in study), "no unclimbable staircase"
        session = gen.teleop_session(seed)
        meditation = {m for _, m in session["clean"]}
        assert {1, 100} <= meditation, "meditation never reaches 1 and 100"
        assert len(session["clean"]) < gen.EEG_FRAMES, "no corrupted frames"
        # the pan must carry the touched point out of the trackable frame
        drifted = False
        for seq in gen.tracking_sequences(seed):
            x = seq["touch"][0] + seq["shifts"][-1][0]
            y = seq["touch"][1] + seq["shifts"][-1][1]
            drifted |= not (16 <= x <= seq["size"] - 16 and 16 <= y <= seq["size"] - 16)
        assert drifted, "no target drifts out of frame"
    print("generators: deterministic, edge inputs present")


def run(workload: str, trace: int, cwd: Path = ROOT, seconds: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_counts_repeat() -> None:
    """attempted and failed depend on the seed only, not on how many rounds fit."""
    counts = set()
    for seconds in (1, 3):
        proc = run("teleop_eeg", 0, seconds=seconds)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1, f"teleop_eeg counts change with --seconds: {counts}"
    print(f"teleop_eeg: attempted and failed independent of --seconds {counts.pop()}")


def check_outputs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {w["name"] for w in spec["workloads"]}
    assert gated <= set(NAMED), f"BENCHMARK.json names unknown workloads {gated - set(NAMED)}"
    for workload, named in NAMED.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, "\n".join(lines[:-1])
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metrics {got} != {want}"
            if trace == 0:
                for name, unit in named:
                    assert any(line.startswith(f"{name} ") and f" {unit} " in f"{line} "
                               for line in lines[:-1]), f"{workload}: {name} [{unit}] not printed"
        print(f"{workload}: named metrics printed; JSON metrics match BENCHMARK.json")


def check_bare_directory() -> None:
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("climb", 0, cwd=bare)
    assert proc.returncode != 0, "benchmark ran without the program"
    assert not proc.stdout.strip(), f"printed a result without the program: {proc.stdout!r}"
    shutil.rmtree(bare)
    print("bare directory: refused without a result")


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        check_generators()
        check_outputs()
        check_counts_repeat()
        check_bare_directory()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
