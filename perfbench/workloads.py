"""The benchmark workloads.

Each workload generates its inputs from the seed (``prepare``), then repeats
one fixed *round* of work on them.  A round is closed-loop and
single-threaded: every operation starts only after the previous one
returned.  ``run_round`` is the timed part; ``check_round`` verifies the
outputs afterwards, outside the timed region, and records a signature that
must repeat exactly in every round.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import math
import shutil
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

import gen


def tree_digest(path: Path) -> str:
    """sha256 over the names and bytes of every file below path."""
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


class RoundRecord:
    """What one round did: timings, counts, failures and check inputs."""

    def __init__(self):
        self.times: dict[str, list[float]] = defaultdict(list)
        self.items = 0
        self.item_time = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: Counter = Counter()
        self.cli: list[tuple[str, Path, int, set[str]]] = []
        self.data: dict = {}
        self.signature: list = []
        self.problems: list[str] = []
        self.span_range = (0, 0)          # this round's spans in the tracer
        self.hook_counts: Counter = Counter()   # counts the tracer's hooks made

    def fail(self) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc(limit=3))


class Workload:
    name = ""
    # end-to-end metrics this workload reports under its own names:
    # (metric, unit, "median" of round timings | "rate" of items per second)
    named: tuple[tuple[str, str, str], ...] = ()

    def __init__(self, ctx, seed: int, workdir: Path, tracer):
        self.ctx = ctx
        self.m = ctx.modules
        self.seed = seed
        self.work = workdir
        self.inputs = workdir / "inputs"
        self.tracer = tracer
        self.round_no = 0

    def prepare(self) -> str:
        """Generate the inputs and load them; returns their digest."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def run_round(self, rec: RoundRecord) -> None:
        raise NotImplementedError

    def check_round(self, rec: RoundRecord, first: bool) -> None:
        raise NotImplementedError

    def items_per_s(self, recs: list[RoundRecord], times: dict) -> tuple[float, str]:
        """The gated rate, and how it was formed: items over the time they took."""
        items = sum(r.items for r in recs)
        item_time = sum(r.item_time for r in recs)
        return items / item_time, f"{items} items in {item_time:.4g} s"

    def out_dir(self, label: str) -> Path:
        return self.work / "out" / f"r{self.round_no}" / label

    def cli(self, rec: RoundRecord, argv: list[str], out: Path, timing: str) -> None:
        """One in-process CLI call, timed, with its stdout kept out of ours."""
        before = {p.name for p in out.iterdir()} if out.exists() else set()
        self.tracer.current_op += 1
        rec.attempted += 1
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.m.cli.main(argv + ["--out", str(out), "--seed", str(self.seed)])
        except Exception:
            rec.fail()
            rc = None
        rec.times[timing].append(perf_counter() - t0)
        rec.cli.append((argv[0], out, rc, before))

    def check_cli(self, rec: RoundRecord, expected: dict[str, int]) -> None:
        """Exit codes against the expected verdicts, and what each call wrote."""
        for cmd, out, rc, before in rec.cli:
            if rc != expected[cmd]:
                rec.problems.append(f"{cmd}: exit {rc}, expected {expected[cmd]}")
            files = [p for p in out.iterdir() if p.is_file()] if out.exists() else []
            rec.counts["cli.files_written"] += len(files)
            rec.counts["cli.files_overwritten"] += sum(p.name in before for p in files)
            rec.counts["cli.bytes_written"] += sum(p.stat().st_size for p in files)
            rec.signature.append((cmd, rc, tree_digest(out) if out.exists() else None))

    def cleanup_round(self, rec: RoundRecord) -> None:
        shutil.rmtree(self.work / "out" / f"r{self.round_no}", ignore_errors=True)


class Cli(Workload):
    """Every user-facing subcommand once, each into a fresh output directory."""

    name = "cli"
    named = (
        ("design_s", "s", "median"),
        ("sim_s", "s", "median"),
        ("sweep_s", "s", "median"),
        ("report_s", "s", "median"),
        ("teleop_s", "s", "median"),
    )
    # baseline40 completes its climb and the replay is the golden session,
    # so every call is expected to succeed
    CALLS = (("design", "baseline"), ("sim", "baseline"), ("sweep", "baseline"),
             ("report", "baseline"), ("teleop", "teleop_replay"))

    def prepare(self) -> str:
        # the inputs are the bundled scenarios; the seed goes to each call's
        # --seed (report's tracking self-check)
        self.inputs.mkdir(parents=True, exist_ok=True)
        names = [self.m.scenario.load_scenario(getattr(self.ctx, src)).name for _, src in self.CALLS]
        (self.inputs / "calls.txt").write_text(f"{' '.join(names)} seed={self.seed}\n")
        return tree_digest(self.inputs)

    def run_round(self, rec: RoundRecord) -> None:
        for cmd, src in self.CALLS:
            self.cli(rec, [cmd, "--scenario", str(getattr(self.ctx, src))], self.out_dir(cmd), f"{cmd}_s")
        rec.items += len(self.CALLS)

    def items_per_s(self, recs: list[RoundRecord], times: dict) -> tuple[float, str]:
        # A plain calls/s would be ~90% sweep and report.  The geometric
        # mean of the per-subcommand rates weighs each subcommand alike:
        # any one of them 5x slower lowers it by 1 - 5**-0.2, 28%.
        rates = [1.0 / median(times[f"{cmd}_s"]) for cmd, _ in self.CALLS]
        rate = math.prod(rates) ** (1.0 / len(rates))
        return rate, (f"geometric mean of the {len(rates)} subcommands' calls/s, "
                      f"{sum(r.items for r in recs)} calls")

    def check_round(self, rec: RoundRecord, first: bool) -> None:
        self.check_cli(rec, {cmd: 0 for cmd, _ in self.CALLS})
        golden = self.ctx.golden.read_bytes()
        for cmd, out, _, _ in rec.cli:
            if cmd == "teleop":
                got = (out / "protocol.txt").read_bytes() if (out / "protocol.txt").exists() else b""
                if got != golden:
                    rec.problems.append("teleop: protocol.txt differs from the golden file")


class Climb(Workload):
    """A designer's study: generated staircases through load, climb and sweep."""

    name = "climb"
    named = (("study_scenarios_per_s", "1/s", "rate"),)

    def prepare(self) -> str:
        made = gen.write_climb(self.seed, self.inputs)
        self.study_paths = made["study"]
        self.expected = made["expected"]
        # loading validates every generated file through the program's loader
        for p in self.study_paths:
            self.m.scenario.load_scenario(p)
        return tree_digest(self.inputs)

    def run_round(self, rec: RoundRecord) -> None:
        m = self.m
        results = []
        t_study = perf_counter()
        for path in self.study_paths:
            self.tracer.current_op += 1
            rec.attempted += 1
            t0 = perf_counter()
            try:
                sc = m.scenario.load_scenario(path)
                traj = m.stairsim.run_climb(sc.sim, sc.stairs, sc.motor.available_track_torque)
                probes = []
                try:
                    best = m.stairsim.min_torque_sweep(sc.sim, sc.stairs, probes=probes)
                    verdict = 0
                except m.stairsim.Unclimbable:
                    best, verdict = None, 2   # the CLI's exit 2
                results.append((sc, traj.completed, traj.fall, len(traj.states) - 1,
                                best, verdict, len(probes)))
            except Exception:
                rec.fail()
                results.append(None)
            rec.times["study_scenario_s"].append(perf_counter() - t0)
        rec.item_time += perf_counter() - t_study
        rec.items += len(self.study_paths)
        rec.data["study"] = results

    def check_round(self, rec: RoundRecord, first: bool) -> None:
        m = self.m
        limit = gen.MOTOR_LIMIT_NM
        for i, (res, exp) in enumerate(zip(rec.data["study"], self.expected)):
            if res is None:
                continue
            sc, completed, fall, steps, best, verdict, probes = res
            want = 0 if exp["climbable"] else 2
            if verdict != want:
                rec.problems.append(f"study{i}: verdict {verdict}, expected {want}")
            if (completed and not fall) != exp["climbable"]:
                rec.problems.append(f"study{i}: motor-limit run completed={completed} fall={fall}")
            if best is not None:
                if not exp["static_nm"] - 1e-9 <= best <= limit + 1e-9:
                    rec.problems.append(f"study{i}: swept torque {best} outside "
                                        f"[{exp['static_nm']}, {limit}]")
                if first:
                    # the swept torque must itself climb; later rounds repeat
                    # the same numbers, which the signature checks
                    again = m.stairsim.run_climb(sc.sim, sc.stairs, best)
                    if not again.completed or again.fall:
                        rec.problems.append(f"study{i}: swept torque {best} does not re-climb")
            rec.signature.append((i, verdict, repr(best), steps, probes))


class TeleopEeg(Workload):
    """A headset session through the parser and the arbiter."""

    name = "teleop_eeg"
    named = (("events_per_s", "1/s", "rate"),)

    def prepare(self) -> str:
        made = gen.write_teleop(self.seed, self.inputs)
        m = self.m
        wire = made["wire"].read_bytes()
        sizes = json.loads(made["chunks"].read_text())
        # serial reads hand the parser ready-made chunks
        self.chunks, pos = [], 0
        for n in sizes:
            self.chunks.append(wire[pos:pos + n])
            pos += n
        self.wire = wire
        self.clean = [tuple(x) for x in json.loads(made["clean"].read_text())]
        self.others = m.control.read_event_log(made["events"])
        # the arbiter settings of the bundled replay
        self.arbiter_cfg = m.scenario.load_scenario(self.ctx.teleop_replay).arbiter
        return tree_digest(self.inputs)

    def run_round(self, rec: RoundRecord) -> None:
        m = self.m
        control = m.control
        tracer = self.tracer
        t_session = perf_counter()
        tracer.current_op += 1
        parser = m.eeg.EegStreamParser(dt=gen.EEG_PERIOD_S)
        records = []
        for chunk in self.chunks:
            records.extend(parser.feed(chunk))
        eeg_events = [control.EegUpdate(r.t, r) for r in records]
        events = list(heapq.merge(eeg_events, self.others, key=lambda e: e.t))
        state = control.ArbiterState()
        cfg = self.arbiter_cfg
        eeg_us, other_us = rec.times["event_eeg_s"], rec.times["event_other_s"]
        commands = []
        failed_before = rec.failed
        step = control.arbiter_step
        EegUpdate, EEG = control.EegUpdate, control.Mode.EEG
        for ev in events:
            tracer.current_op += 1
            eeg_path = type(ev) is EegUpdate and state.mode is EEG
            t0 = perf_counter()
            try:
                state, cmd = step(state, ev, cfg)
            except ValueError:
                # known defect: LOESS can overshoot [1, 100] and the posture
                # band rejects it; the event fails, the state stays as it was
                rec.fail()
                cmd = None
            (eeg_us if eeg_path else other_us).append(perf_counter() - t0)
            if cmd is not None:
                commands.append((ev.t, cmd))
        rec.item_time += perf_counter() - t_session
        rec.items += len(events)
        rec.attempted += len(events)
        rec.counts["control.events_failed"] += rec.failed - failed_before
        rec.counts["eeg.checksum_failures"] += parser.checksum_failures
        rec.data.update(records=records, commands=commands, n_events=len(events))

    def check_round(self, rec: RoundRecord, first: bool) -> None:
        m = self.m
        parsed = [(r.attention, r.meditation) for r in rec.data["records"]]
        if first:
            if parsed != self.clean:
                rec.problems.append(f"eeg: parsed {len(parsed)} frames, "
                                    f"{len(self.clean)} clean frames were sent")
            whole = m.eeg.EegStreamParser(dt=gen.EEG_PERIOD_S).feed(self.wire)
            if [(r.attention, r.meditation, r.t) for r in whole] != \
                    [(r.attention, r.meditation, r.t) for r in rec.data["records"]]:
                rec.problems.append("eeg: chunked parse differs from a single feed")
        cmd_digest = hashlib.sha256(json.dumps(
            [m.control.command_to_dict(t, c) for t, c in rec.data["commands"]]).encode()).hexdigest()
        rec.signature.append((len(parsed), rec.counts["eeg.checksum_failures"], rec.data["n_events"],
                              len(rec.data["commands"]), rec.counts["control.events_failed"], cmd_digest))


class Tracking(Workload):
    """Camera frames to drive bearings: read, track, reacquire, steer."""

    name = "tracking"
    named = (("frames_per_s", "1/s", "rate"),)
    FRAME_PERIOD_S = 0.1   # 10 frames per second from the onboard camera
    MAX_ERR_PX = 0.1

    def prepare(self) -> str:
        m = self.m
        self.seqs = gen.write_tracking(self.seed, self.inputs)
        for seq in self.seqs:
            seq["triples"] = [m.perception.SonarTriple(**p) for p in seq["sonar"]]
        # loading reads every frame once through the program's reader
        for seq in self.seqs:
            for p in seq["frames"]:
                m.perception.read_pgm(p)
        return tree_digest(self.inputs)

    def run_round(self, rec: RoundRecord) -> None:
        m = self.m
        per, ctl = m.perception, m.control
        tracer = self.tracer
        params = per.LkParams()
        cfg = ctl.ArbiterConfig()
        frame_times = rec.times["frame_s"]
        tracks = []
        t_all = perf_counter()
        for s, seq in enumerate(self.seqs):
            size, touch, paths = seq["size"], seq["touch"], seq["frames"]
            tracer.current_op += 1
            state, _ = ctl.arbiter_step(ctl.ArbiterState(), ctl.KeyPress(0.0, "C"), cfg)
            frame = per.read_pgm(paths[0])
            pt = per.TrackedPoint(*per.select_corner(per.detect_corners(frame), touch).position)
            for k in range(1, len(paths)):
                tracer.current_op += 1
                rec.attempted += 1
                t0 = perf_counter()
                try:
                    nxt = per.read_pgm(paths[k])
                    new = per.fb_track(frame, nxt, pt, params)
                    t = k * self.FRAME_PERIOD_S
                    if new.lost:
                        bearing = None
                        c = per.select_corner(per.detect_corners(nxt), touch)
                        tracks.append((s, k, None, None))
                        new = per.TrackedPoint(c.x, c.y)
                        rec.counts["perception.reacquisitions"] += 1
                    else:
                        tracks.append((s, k, pt.position, new.position))
                        bearing = per.pixel_to_bearing(new.x, size)
                    state, _ = ctl.arbiter_step(state, ctl.TrackUpdate(t, bearing), cfg)
                    if k % 5 == 0:
                        triple = seq["triples"][k // 5 - 1]
                        state, _ = ctl.arbiter_step(state, ctl.SonarUpdate(t + 0.05, triple), cfg)
                    frame, pt = nxt, new
                except Exception:
                    rec.fail()
                frame_times.append(perf_counter() - t0)
        rec.item_time += perf_counter() - t_all
        rec.items += sum(len(seq["frames"]) - 1 for seq in self.seqs)
        rec.data["tracks"] = tracks

    def check_round(self, rec: RoundRecord, first: bool) -> None:
        worst = 0.0
        for s, k, before, after in rec.data["tracks"]:
            if before is None:
                continue
            shifts = self.seqs[s]["shifts"]
            true_dx = shifts[k][0] - shifts[k - 1][0]
            true_dy = shifts[k][1] - shifts[k - 1][1]
            err = math.hypot(after[0] - before[0] - true_dx, after[1] - before[1] - true_dy)
            worst = max(worst, err)
            if err > self.MAX_ERR_PX:
                rec.problems.append(f"seq{s} frame {k}: tracked shift off by {err:.4f} px")
        rec.counts["perception.track_err_px"] = worst
        rec.signature.append((rec.counts["perception.reacquisitions"],
                              hashlib.sha256(repr(rec.data["tracks"]).encode()).hexdigest()))


class Rerun(Workload):
    """``report`` into an output directory that an earlier run populated."""

    name = "rerun"
    named = (("report_rerun_s", "s", "median"),)

    def prepare(self) -> str:
        # the bundled scenario is the input; the seed goes to report's
        # tracking self-check
        self.inputs.mkdir(parents=True, exist_ok=True)
        sc = self.m.scenario.load_scenario(self.ctx.baseline)
        (self.inputs / "scenario.txt").write_text(f"{sc.name} seed={self.seed}\n")
        return tree_digest(self.inputs)

    def warm_up(self) -> None:
        # the user's first run writes into a fresh directory; the reference
        # digest comes from there, and the rerun directory is populated by it
        self.target = self.work / "out" / "rerun"
        rec = RoundRecord()
        fresh = self.work / "out" / "fresh"
        self.cli(rec, ["report", "--scenario", str(self.ctx.baseline)], fresh, "fresh")
        self.fresh_digest = tree_digest(fresh)
        shutil.rmtree(fresh)
        self.cli(rec, ["report", "--scenario", str(self.ctx.baseline)], self.target, "fresh")

    def run_round(self, rec: RoundRecord) -> None:
        self.cli(rec, ["report", "--scenario", str(self.ctx.baseline)], self.target, "report_rerun_s")
        rec.items += 1
        rec.item_time += rec.times["report_rerun_s"][-1]

    def check_round(self, rec: RoundRecord, first: bool) -> None:
        self.check_cli(rec, {"report": 0})
        if rec.signature[-1][2] != self.fresh_digest:
            rec.problems.append("rerun: overwritten directory differs from a fresh run")

    def cleanup_round(self, rec: RoundRecord) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Cli, Climb, TeleopEeg, Tracking, Rerun)}
