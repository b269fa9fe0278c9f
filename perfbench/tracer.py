"""Span tracing from outside the program.

The tracer wraps the public functions of each `wxkit` module where callers
look them up at call time, records one span per call (name, start, end,
parent span, op id, error), keeps every span in memory, and restores the
originals when tracing ends. Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import csv
import gzip
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Span fields, stored as lists to keep the wrapper cheap.
NAME, START, END, PARENT, OP, ERROR = range(6)


def targets(wx) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced call.

    Names are looked up where the callers find them: `cli` and `simkit`
    reach `rfdecode.*`, `lorawan.*` and `simkit.run` through the module at
    call time; `channel_apply`, `merge_partial` and `record_to_obj` are
    globals of `simkit`, and `record_to_obj`/`record_from_obj` globals of
    `cli`; the two methods are patched on their classes.
    """
    cli, rfdecode, lorawan, simkit = wx.cli, wx.rfdecode, wx.lorawan, wx.simkit
    return [
        (cli, "main", "cli.main"),
        (cli, "record_to_obj", "core.record_to_obj"),
        (cli, "record_from_obj", "core.record_from_obj"),
        (simkit, "record_to_obj", "core.record_to_obj"),
        (simkit, "merge_partial", "core.merge_partial"),
        (rfdecode, "decode_a5n1", "rfdecode.decode_a5n1"),
        (rfdecode, "build_a5n1_frame", "rfdecode.build"),
        (lorawan, "payload_encode", "lorawan.payload_encode"),
        (lorawan, "payload_decode", "lorawan.payload_decode"),
        (lorawan, "frame_build", "lorawan.frame_build"),
        (lorawan, "frame_parse", "lorawan.frame_parse"),
        (lorawan, "airtime", "lorawan.airtime"),
        (simkit, "run", "simkit.run"),
        (simkit, "channel_apply", "simkit.channel_apply"),
        (simkit.Transponder, "step", "simkit.step"),
        (simkit.SimTrace, "to_jsonl", "simkit.to_jsonl"),
    ]


class Tracer:
    def __init__(self, wx):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._targets = targets(wx)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            return result

        return traced

    @contextmanager
    def installed(self, op: int):
        """Trace every target for the duration of one op."""
        self.op = op
        saved = []
        try:
            for owner, attr, name in self._targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span, once the run has ended, as gzip CSV: a traced
        run of the simulator holds several hundred thousand."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "op", "error"))
            out.writerows((i, *s) for i, s in enumerate(self.spans))


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("cli.self_s", "s", "lower"),
    ("core.busy_s", "s", "lower"),
    ("core.record_to_obj.us_p50", "us", "lower"),
    ("core.record_from_obj.us_p50", "us", "lower"),
    ("core.merge_partial.us_p50", "us", "lower"),
    ("rfdecode.busy_s", "s", "lower"),
    ("rfdecode.decode_a5n1.us_p50", "us", "lower"),
    ("rfdecode.decode_a5n1.us_p99", "us", "lower"),
    ("rfdecode.decode.calls", "count", "lower"),
    ("rfdecode.decode.errors", "count", "lower"),
    ("rfdecode.decode.ok_ratio", "ratio", "higher"),
    ("rfdecode.build.us_p50", "us", "lower"),
    ("lorawan.busy_s", "s", "lower"),
    ("lorawan.payload_encode.us_p50", "us", "lower"),
    ("lorawan.payload_decode.us_p50", "us", "lower"),
    ("lorawan.frame_build.us_p50", "us", "lower"),
    ("lorawan.frame_build.us_p99", "us", "lower"),
    ("lorawan.frame_parse.us_p50", "us", "lower"),
    ("lorawan.frame_parse.us_p99", "us", "lower"),
    ("lorawan.airtime.us_p50", "us", "lower"),
    ("lorawan.frame_errors", "count", "lower"),
    ("simkit.self_s", "s", "lower"),
    ("simkit.events", "count", "lower"),
    ("simkit.host_us_per_event", "us", "lower"),
    ("simkit.frames_heard_ratio", "ratio", "higher"),
    ("simkit.channel_apply.us_p50", "us", "lower"),
    ("simkit.step.us_p50", "us", "lower"),
    ("simkit.to_jsonl_s", "s", "lower"),
    ("simkit.trace_bytes", "count", "lower"),
    ("tracing.throughput_ratio", "ratio", "higher"),
]

# Spans whose own time counts as the simulator's loop; channel_apply and
# to_jsonl have metrics of their own.
_SIMKIT_LOOP = ("simkit.run", "simkit.step")
# Figures summed per op, then reported as the median over traced ops.
_PER_OP = ("cli.self_s", "core.busy_s", "rfdecode.busy_s", "lorawan.busy_s",
           "simkit.self_s", "simkit.to_jsonl_s", "rfdecode.decode.calls",
           "rfdecode.decode.errors", "lorawan.frame_errors")
_SIM_FIGURES = ("simkit.events", "simkit.host_us_per_event",
                "simkit.frames_heard_ratio", "simkit.trace_bytes")
_MIN_BEYOND_P99 = 10


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _p99(values: list[float]) -> float | None:
    """The 99th percentile, or None unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.99 * len(ordered))
    if len(ordered) - rank < _MIN_BEYOND_P99:
        return None
    return ordered[rank - 1]


def layer_metrics(spans: list[list], sim_stats: dict | None) -> tuple[dict, dict, dict]:
    """Per-layer metrics over all traced ops, the sample count behind each,
    and the reason for each metric that has nothing to measure (value None).

    Seconds (``*_s``) and counts are medians over the traced ops; ``us_*``
    figures pool every call of every traced op.
    """
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += duration[i]

    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        name, parent, acc = s[NAME], s[PARENT], per_op[s[OP]]
        layer = _layer(name)
        if parent < 0 or _layer(spans[parent][NAME]) != layer:
            acc[f"{layer}.busy_s"] += duration[i]
        if name == "cli.main":
            acc["cli.self_s"] += duration[i] - child_time[i]
        elif name in _SIMKIT_LOOP:
            acc["simkit.self_s"] += duration[i] - child_time[i]
        elif name == "simkit.to_jsonl":
            acc["simkit.to_jsonl_s"] += duration[i]
        if name.startswith("rfdecode.decode_"):
            acc["rfdecode.decode.calls"] += 1
            acc["rfdecode.decode.errors"] += s[ERROR] is not None
        elif layer == "lorawan" and s[ERROR] is not None:
            acc["lorawan.frame_errors"] += 1

    values: dict[str, float | None] = {}
    samples: dict[str, int] = {}
    absent: dict[str, str] = {}
    for key in _PER_OP:
        values[key] = statistics.median(acc[key] for acc in per_op.values()) if per_op else 0.0
        samples[key] = len(per_op)

    for metric, _, _ in LAYER_METRICS:
        name, _, stat = metric.rpartition(".")
        if stat not in ("us_p50", "us_p99"):
            continue
        pooled = [duration[i] for i in by_name.get(name, [])]
        samples[metric] = len(pooled)
        values[metric] = None
        if not pooled:
            absent[metric] = f"{name} is not called on this workload"
            continue
        v = statistics.median(pooled) if stat == "us_p50" else _p99(pooled)
        if v is None:
            absent[metric] = f"only {len(pooled)} calls; p99 needs ten beyond it"
        else:
            values[metric] = v * 1e6

    calls = values["rfdecode.decode.calls"]
    values["rfdecode.decode.ok_ratio"] = (
        (calls - values["rfdecode.decode.errors"]) / calls if calls else None)
    samples["rfdecode.decode.ok_ratio"] = samples["rfdecode.decode.calls"]
    if not calls:
        absent["rfdecode.decode.ok_ratio"] = "no frame is decoded on this workload"

    runs = [duration[i] for i in by_name.get("simkit.run", [])]
    for key in _SIM_FIGURES:
        samples[key] = len(runs)
        values[key] = None
    if sim_stats and runs:
        kinds = sim_stats["events_by_kind"]
        values["simkit.events"] = sim_stats["events"]
        values["simkit.host_us_per_event"] = statistics.median(runs) / sim_stats["events"] * 1e6
        values["simkit.frames_heard_ratio"] = kinds.get("frame_rx", 0) / kinds["emit"]
        values["simkit.trace_bytes"] = sim_stats["trace_bytes"]
    else:
        for key in (*_SIM_FIGURES, "simkit.self_s", "simkit.to_jsonl_s"):
            absent[key] = "the simulator does not run on this workload"
    return values, samples, absent
