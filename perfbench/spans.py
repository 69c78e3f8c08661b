"""In-memory span tracing around calls into the program's public functions.

A traced round patches each target function (in every ``stairclimber``
module that holds a reference to it) with a wrapper that records one span
per call: name, start, end, parent span and operation id.  Spans live in
flat arrays and are written out once, when the run ends.  Untraced rounds
run the unpatched functions, so they pay nothing.

``stairsim.step`` is deliberately not wrapped: a climb makes tens of
thousands of 2-3 us steps, so a span per step would cost more than the step
and hold millions of spans.  Its cost is ``run_climb`` time over the step
count, which the ``run_climb`` boundary records.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from stairclimber.control import EegUpdate, Mode, SonarUpdate, TouchTarget


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["stairsim.steps"] += len(result.states) - 1


def _count_samples(tracer, args, kwargs, result):
    tracer.counts["power.samples"] += len(args[0])


def _count_frames(tracer, args, kwargs, result):
    tracer.counts["eeg.frames_ok"] += len(result)


def _count_command(tracer, args, kwargs, result):
    if result[1] is not None:
        tracer.counts["control.commands"] += 1
    elif not isinstance(args[1], (SonarUpdate, TouchTarget)):
        # sonar and touch events never command; anything else that returns
        # no command was dropped (inactive mode, unknown key or symbol)
        tracer.counts["control.events_ignored"] += 1


def _count_lost(tracer, args, kwargs, result):
    if result.lost and not args[2].lost:
        tracer.counts["perception.tracks_lost"] += 1


def _event_kind(args):
    # the EEG path is an EEG update in EEG mode; everywhere else the event
    # takes one of the cheap paths (keypad, sonar, ignored)
    return ".eeg" if isinstance(args[1], EegUpdate) and args[0].mode is Mode.EEG else ".other"


# (module, attribute path, count hook, span-name suffix from the arguments)
TARGETS = (
    ("stairclimber.cli", "main", None, None),
    ("stairclimber.scenario", "load_scenario", None, None),
    ("stairclimber.scenario", "build_scenario", None, None),
    ("stairclimber.stairsim", "run_climb", _count_steps, None),
    ("stairclimber.stairsim", "min_torque_sweep", None, None),
    ("stairclimber.stairsim", "trajectory_rows", None, None),
    ("stairclimber.support", "force_profile", None, None),
    ("stairclimber.drivetrain", "torque_case", None, None),
    ("stairclimber.power", "check_driver", _count_samples, None),
    ("stairclimber.eeg", "EegStreamParser.feed", _count_frames, None),
    ("stairclimber.eeg", "loess_smooth", None, None),
    ("stairclimber.control", "arbiter_step", _count_command, _event_kind),
    ("stairclimber.control", "run_events", None, None),
    ("stairclimber.control", "read_event_log", None, None),
    ("stairclimber.control", "protocol_lines", None, None),
    ("stairclimber.perception.frames", "read_pgm", None, None),
    ("stairclimber.perception.frames", "render_texture", None, None),
    ("stairclimber.perception.frames", "pixel_to_bearing", None, None),
    ("stairclimber.perception.corners", "detect_corners", None, None),
    ("stairclimber.perception.corners", "select_corner", None, None),
    ("stairclimber.perception.flow", "fb_track", _count_lost, None),
    ("stairclimber.perception.sonar", "region_map", None, None),
)


def _short(module: str, attr: str) -> str:
    # span names use the layer names of the package map: perception.fb_track
    layer = module.split(".")[1]
    return f"{layer}.{attr.split('.')[-1]}"


class Tracer:
    """Spans of one run, in flat arrays; install() patches, remove() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = 0
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, hook, classify):
        base = self._nid(name)
        suffix_ids: dict[str, int] = {}
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, op = self.name_id, self.parent, self.op
        tracer = self

        def traced(*args, **kwargs):
            nid = base
            if classify is not None:
                suffix = classify(args)
                nid = suffix_ids.get(suffix)
                if nid is None:
                    nid = suffix_ids[suffix] = tracer._nid(name + suffix)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for modname, path, hook, classify in TARGETS:
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, _short(modname, path), hook, classify))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, _short(modname, path), hook, classify)
            # every module that imported the function holds its own reference
            for name, mod in list(sys.modules.items()):
                if not name.startswith("stairclimber") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Self time of spans lo..hi-1: duration minus their children's."""
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        out = list(dur)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                out[p - lo] -= dur[i - lo]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name_id[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i], "op": self.op[i],
                }) + "\n")
