"""The benchmark workloads: seeded input generation, the `wxkit` calls
one operation makes, and the checks of each operation's output against the
generator's ground truth.

Inputs are generated with the library's own encoders before any timing
starts; `wxkit` itself only ever sees the generated files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from wxkit.core import FIELD_FLAGS, Protocol, quantize_roundtrip_bounds, record_from_obj

# Work per operation at scale 1.0, sized so one op takes about a quarter of
# a second on a quiet 2-core VM. The shared host this was sized on switches
# between a fast and a 2x slower regime for tens of seconds at a time, so a
# run needs many short ops for some of them to land in a quiet stretch.
SIM_DAYS = 1.0
UPLINK_RECORDS = 1500


@dataclass
class Op:
    """One benchmark operation: a fixed sequence of `wxkit` calls.

    ``items`` is the work one op completes when its output is correct (the
    numerator of the workload's throughput). ``check`` receives the exit
    codes and captured stdout of the calls and returns a list of problems,
    empty when the output is right. ``stats`` holds the simulated statistics
    of the first checked op (``sim_lossy`` only).
    """

    calls: list[list[str]]
    items: float
    item_name: str
    rate_name: str
    check: Callable[[list[int], str], list[str]]
    inputs: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


def prepare(workload: str, workdir: Path, seed: int, scale: float = 1.0) -> Op:
    """Generate the inputs for one workload under ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](rng, workdir, seed, scale)


# ---------------------------------------------------------------------------
# sim_lossy

SIM_STAT_KEYS = ("cycles", "uplinks_attempted", "uplinks_delivered",
                 "energy_uwh_total", "max_hour_window_airtime_s")


def _sim_config(seed: int, days: float) -> dict:
    return {
        "duration_s": round(days * 86_400.0, 3),
        "seed": seed,
        "station": {"protocol": "a5n1"},
        "channel": {"frame_loss_p": 0.1, "bit_flip_q": 1e-3},
        "transponder": {"t_cycle_s": 300},
        "gateway": {"uplink_loss_p": 0.05},
    }


def _trace_stats(trace_path: Path, summary: dict) -> dict:
    """Simulated statistics of one run: not performance figures, but they
    must repeat exactly for the same code and seed."""
    data = trace_path.read_bytes()
    kinds: dict[str, int] = {}
    for line in data.splitlines()[1:-1]:
        ev = json.loads(line)["ev"]
        kinds[ev] = kinds.get(ev, 0) + 1
    stats = {k: summary[k] for k in SIM_STAT_KEYS}
    stats["events"] = sum(kinds.values())
    stats["events_by_kind"] = dict(sorted(kinds.items()))
    stats["trace_bytes"] = len(data)
    stats["trace_sha256"] = hashlib.sha256(data).hexdigest()
    return stats


def _prepare_sim(rng: random.Random, workdir: Path, seed: int, scale: float) -> Op:
    days = SIM_DAYS * scale
    config_path = workdir / "sim.json"
    trace_path = workdir / "trace.jsonl"
    config_path.write_text(json.dumps(_sim_config(seed, days)))
    first: dict = {}

    def check(codes: list[int], stdout: str) -> list[str]:
        if codes != [0]:
            return [f"simulate exited {codes}"]
        try:
            summary = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return ["simulate printed no summary"]
        if summary.get("invariants_ok") is not True:
            return [f"invariants violated: {summary.get('violations')}"]
        stats = _trace_stats(trace_path, summary)
        if not first:
            first.update(stats)
        elif stats != first:
            return ["simulated statistics differ between ops of the same seed"]
        return []

    return Op([["simulate", "--config", str(config_path), "--out", str(trace_path)]],
              items=days, item_name="simulated days", rate_name="sim_days_per_s",
              check=check, inputs={"simulated_days": days}, stats=first)


# ---------------------------------------------------------------------------
# uplink_chain

def _uplink_record(rng: random.Random) -> dict:
    a5n1 = rng.random() < 2 / 3
    protocol = Protocol.A5N1 if a5n1 else Protocol.LCW
    values = {
        "temperature_c": round(rng.uniform(-30.0, 50.0), 3),
        "humidity_pct": round(rng.uniform(0.0, 100.0), 3),
        "wind_speed_kph": round(rng.uniform(0.0, 150.0), 3),
        "wind_dir_deg": round(rng.uniform(0.0, 359.9), 3),
        "rain_mm": round(rng.uniform(0.0, 5000.0), 3),
        "pressure_pa": rng.randrange(95_000, 105_000),
    }
    return {
        "station": {"protocol": protocol.label,
                    "id": rng.randrange(0x4000 if a5n1 else 0x80),
                    "channel": rng.randrange(4) if a5n1 else 0},
        "seq": rng.randrange(0x10000),
        "sensor_battery_ok": rng.random() < 0.8,
        **{k: (v if rng.random() < 0.7 else None) for k, v in values.items()},
        "board_temp_c": round(rng.uniform(-10.0, 40.0), 2) if a5n1 else 0.0,
        "battery_mv": rng.randrange(2500, 3600),
        "frames_received": rng.randrange(11),
        "cycle_time_s": rng.choice((300, 900)),
    }


def _check_roundtrip(sent: list[dict], text: str) -> list[str]:
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    if len(rows) != len(sent):
        return [f"{len(rows)} records came back, {len(sent)} sent"]
    for n, (obj, row) in enumerate(zip(sent, rows), 1):
        bounds = quantize_roundtrip_bounds(record_from_obj(obj))
        for key in ("station", "seq", "sensor_battery_ok", "battery_mv",
                    "frames_received", "cycle_time_s"):
            if row[key] != obj[key]:
                return [f"record {n}: {key} {row[key]!r} != {obj[key]!r}"]
        if abs(row["board_temp_c"] - obj["board_temp_c"]) > 0.005 + 1e-9:
            return [f"record {n}: board_temp_c {row['board_temp_c']} != {obj['board_temp_c']}"]
        for fname in FIELD_FLAGS:
            want, got = obj[fname], row[fname]
            if want is None:
                if got is not None:
                    return [f"record {n}: {fname} should be absent, got {got}"]
            elif got is None or abs(got - want) > bounds[fname] + 1e-9:
                return [f"record {n}: {fname} {got} outside {want} +- {bounds[fname]}"]
    return []


def _prepare_uplink(rng: random.Random, workdir: Path, seed: int, scale: float) -> Op:
    n = max(5, round(UPLINK_RECORDS * scale))
    sent = [_uplink_record(rng) for _ in range(n)]
    records = workdir / "records.jsonl"
    records.write_text("".join(json.dumps(obj) + "\n" for obj in sent))
    keys = ["--devaddr", rng.randbytes(4).hex(),
            "--nwkskey", rng.randbytes(16).hex(),
            "--appskey", rng.randbytes(16).hex()]
    payloads, frames = workdir / "payloads.hex", workdir / "frames.hex"
    parsed, decoded = workdir / "parsed.hex", workdir / "decoded.jsonl"
    calls = [
        ["payload", str(records), "-o", str(payloads)],
        ["frame", *keys, str(payloads), "-o", str(frames)],
        ["frame", "--parse", *keys, str(frames), "-o", str(parsed)],
        ["payload", "--decode", str(parsed), "-o", str(decoded)],
    ]

    def check(codes: list[int], stdout: str) -> list[str]:
        if codes != [0, 0, 0, 0]:
            return [f"uplink chain exited {codes}"]
        if parsed.read_bytes() != payloads.read_bytes():
            return ["parsed payloads differ from the built ones"]
        return _check_roundtrip(sent, decoded.read_text())

    return Op(calls, items=n, item_name="records through all four stages",
              rate_name="uplinks_per_s", check=check,
              inputs={"records": n, "a5n1_records": sum(
                  o["station"]["protocol"] == "a5n1" for o in sent)})


WORKLOADS = {
    "sim_lossy": _prepare_sim,
    "uplink_chain": _prepare_uplink,
}

# Layers each workload bypasses; a change confined to one of these layers
# should leave that workload's end-to-end figures unchanged.
BYPASSED = {
    "sim_lossy": (),
    "uplink_chain": ("rfdecode", "simkit"),
}
