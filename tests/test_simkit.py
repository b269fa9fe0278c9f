import collections
import dataclasses
import hashlib
import json
import math
import random
import re
import reprlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wxkit import cli, core, energy, lorawan, rfdecode, simkit
from wxkit.core import (
    FIELD_FLAGS,
    PAYLOAD_STEP,
    Protocol,
    StationId,
    merge_partial,
    record_from_obj,
)
from wxkit.rfdecode import (
    A5N1_MSG_TEMP_HUMIDITY,
    FRAME_AIR_S,
    LcwQuantity,
    a5n1_to_pulses,
    build_a5n1_frame,
    bytes_to_bits,
    decode_a5n1,
    decode_lcw,
    lcw_to_pulses,
)
from wxkit.simkit import (
    BOARD_TEMP_C_RANGE,
    EVENT_FIELDS,
    PRESSURE_PA_RANGE,
    BarometerSpec,
    ChannelSpec,
    GatewaySpec,
    ProtocolViolationError,
    SimConfig,
    SimConfigError,
    Simulator,
    State,
    StationSpec,
    Summary,
    Transponder,
    TransponderSpec,
    _Emitter,
    channel_apply,
    run,
    trace_line,
)

STATION = StationId(Protocol.A5N1, 0x2A7, 2)


def short_config(**kw) -> SimConfig:
    base = dict(duration_s=7200.0, seed=3)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# channel

def test_channel_identity():
    rng = random.Random(0)
    bits = "10" * 32
    assert channel_apply(bits, ChannelSpec(0.0, 0.0), rng) == bits


def test_channel_full_inversion():
    rng = random.Random(0)
    bits = bytes_to_bits(bytes(range(8)))
    out = channel_apply(bits, ChannelSpec(0.0, 1.0), rng)
    assert out == "".join("1" if b == "0" else "0" for b in bits)


def test_channel_drop():
    rng = random.Random(0)
    assert channel_apply("1010", ChannelSpec(1.0, 0.0), rng) is None


def test_channel_flip_rate_statistics():
    rng = random.Random(123)
    spec = ChannelSpec(0.0, 0.01)
    bits = "0" * 64
    flips = 0
    n_frames = 100_000
    for _ in range(n_frames):
        flips += channel_apply(bits, spec, rng).count("1")
    rate = flips / (n_frames * 64)
    assert abs(rate - 0.01) < 0.001


def _channel_per_bit(bits, spec, rng):
    """The channel as a plain per-bit loop: the reference for its draws."""
    if rng.random() < spec.frame_loss_p:
        return None
    if spec.bit_flip_q <= 0:
        return bits
    return "".join(("1" if b == "0" else "0") if rng.random() < spec.bit_flip_q else b
                   for b in bits)


@given(st.text("01", max_size=80),
       st.sampled_from([0.0, 0.5]),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       st.integers())
def test_channel_matches_per_bit_reference(bits, p, q, seed):
    spec = ChannelSpec(p, q)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    out = channel_apply(bits, spec, rng)
    expected = _channel_per_bit(bits, spec, ref_rng)
    assert out == expected
    assert rng.getstate() == ref_rng.getstate()
    # the simulator counts flips only for a frame that is not returned as is
    assert (out is bits) == (expected == bits)


# ---------------------------------------------------------------------------
# emitter

def test_emitter_rain_counter_wraps_at_14_bits():
    emitter = _Emitter(StationSpec(), random.Random(4))
    emitter.rain_tips = 0x4000 - 3
    tips, counters = [], []
    for _ in range(12):
        emitter.rain_tips += 1
        bits, label, frame_hex = emitter.emit()
        assert frame_hex == f"{int(bits, 2):016x}"
        rec = decode_a5n1(bits)
        if label == "0x31":
            tips.append(emitter.rain_tips)
            counters.append(round(rec.rain_mm / 0.254))
    assert tips[-1] > 0x4000 and counters == [t % 0x4000 for t in tips]
    # the tips between two readings of the wrapping counter
    assert sum((b - a) % 0x4000 for a, b in zip(counters, counters[1:])) == tips[-1] - tips[0]


@pytest.mark.parametrize("tips", [3990, 4100, 8000])
def test_emitter_lcw_rain_count_wraps_at_1000(tips):
    emitter = _Emitter(StationSpec(Protocol.LCW, 42, 0), random.Random(4))
    emitter.rain_tips = tips
    emitter.msg_index = LcwQuantity.RAIN
    bits, label, _ = emitter.emit()
    rec = decode_lcw(bits)
    assert label == "rain"
    # four tips to a count, as the station sends them
    assert round(rec.rain_mm / 0.518) == round(emitter.rain_tips / 4) % 1000


# ---------------------------------------------------------------------------
# transponder state machine

def make_transponder() -> tuple[Transponder, list]:
    """A transponder, and the list that collects what it records: its events
    and the frames it transmits, in order."""
    log: list = []
    record = lambda now, item: log.append(item)
    return Transponder(TransponderSpec(), STATION, BarometerSpec(), random.Random(1),
                       record, record), log


def step(tr: Transponder, log: list, now: float, bits: str | None = None) -> list:
    """What ``tr.step(now, bits)`` records."""
    start = len(log)
    tr.step(now, bits)
    return log[start:]


def fire(tr: Transponder, log: list) -> list:
    """Advance the transponder to its one live timer; what it records."""
    return step(tr, log, tr.wake_at)


@pytest.mark.parametrize("edge", [0, 1])
def test_noisy_barometer_is_clamped_to_payload_range(edge):
    baro = BarometerSpec(PRESSURE_PA_RANGE[edge], BOARD_TEMP_C_RANGE[edge], 1e6, 100.0)
    trace = run(short_config(barometer=baro))
    readings = [(e["pressure_pa"], e["board_temp_c"]) for e in trace.events if e["ev"] == "baro"]
    assert len(readings) == 8 and trace.summary["uplinks_delivered"] == 8
    assert all(PRESSURE_PA_RANGE[0] <= p <= PRESSURE_PA_RANGE[1] and
               BOARD_TEMP_C_RANGE[0] <= t <= BOARD_TEMP_C_RANGE[1] for p, t in readings)
    assert {PRESSURE_PA_RANGE[edge], BOARD_TEMP_C_RANGE[edge]} <= {v for r in readings for v in r}


def test_step_happy_path_through_cycle():
    tr, log = make_transponder()
    tr.boot()
    assert tr.wake_at == 0.1
    fire(tr, log)            # RESET -> INIT
    fire(tr, log)            # INIT -> RX1
    assert tr.state is State.RX1 and tr.cycle == 1
    assert tr.wake_at == 60.6

    bits = bytes_to_bits(build_a5n1_frame(
        STATION, A5N1_MSG_TEMP_HUMIDITY, temperature_c=20.0, humidity_pct=50))
    out = step(tr, log, 9.0, bits)
    assert tr.state is State.INTER_SLEEP and tr.wake_at == 19.0
    assert tr.record.temperature_c is not None and tr.record.humidity_pct is not None
    assert out[0]["ok"] is True

    fire(tr, log)            # INTER_SLEEP -> RX2
    assert tr.state is State.RX2 and tr.wake_at == 79.0
    fire(tr, log)            # RX2 timeout -> READ_BARO, wind dir and rain absent
    assert tr.state is State.READ_BARO
    assert tr.record.wind_dir_deg is None and tr.record.rain_mm is None
    fire(tr, log)            # READ_BARO -> BUILD_TX (pressure now present)
    assert tr.record.pressure_pa is not None
    fire(tr, log)            # BUILD_TX -> TRANSMIT
    assert tr.state is State.TRANSMIT
    assert tr.wake_at == pytest.approx(79.4 + 0.287744)
    out = fire(tr, log)
    assert tr.state is State.DEEP_SLEEP
    assert [type(item) for item in out] == [dict, bytes, dict, dict]
    assert [out[0]["ev"], out[2]["ev"], out[3]["ev"]] == ["uplink_tx", "state", "cycle_energy"]


def test_transmission_hands_over_its_frame_bytes_alone():
    # the network side receives what a LoRaWAN server receives, the PHYPayload:
    # the uplink_tx event that ends each transmission is followed by the frame
    # bytes, and a fresh session parses them back to that event's counter and record
    tr, log = make_transponder()
    tr.boot()
    fire(tr, log)
    fire(tr, log)
    step(tr, log, 9.0, bytes_to_bits(build_a5n1_frame(
        STATION, A5N1_MSG_TEMP_HUMIDITY, temperature_c=20.0, humidity_pct=50)))
    server = simkit._session()
    for fcnt in (0, 1):
        while tr.state is not State.TRANSMIT:
            fire(tr, log)
        tx, frame, *_ = fire(tr, log)
        assert (tx["ev"], tx["fcnt"], type(frame)) == ("uplink_tx", fcnt, bytes)
        payload, parsed_fcnt = lorawan.frame_parse(frame, server)
        record, _ = lorawan.payload_decode(payload)
        assert parsed_fcnt == fcnt
        assert core.record_to_obj(record) == tx["record"]


def test_step_corrupt_frame_stays_in_rx():
    tr, log = make_transponder()
    tr.boot()
    fire(tr, log)
    fire(tr, log)
    bits = bytes_to_bits(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY))
    corrupted = ("1" if bits[0] == "0" else "0") + bits[1:]
    out = step(tr, log, 5.0, corrupted)
    assert tr.state is State.RX1
    assert out[0]["ok"] is False
    # the absolute timeout still stands
    assert tr.wake_at == 60.6
    fire(tr, log)
    assert tr.state is State.INTER_SLEEP


def test_step_out_of_range_humidity_rejected_and_cycle_goes_on():
    # checksum and parity hold, but the payload cannot carry 127 %
    tr, log = make_transponder()
    tr.boot()
    fire(tr, log)
    fire(tr, log)
    frame = bytearray(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY))
    frame[6] = 0xFF   # 127 with its parity bit set
    frame[7] = sum(frame[:7]) & 0xFF
    out = step(tr, log, 5.0, bytes_to_bits(bytes(frame)))
    assert out == [{"ev": "frame_rx", "state": "rx1", "ok": False,
                    "reason_code": "ValueRangeError", "reason": "humidity 127 outside 0..100"}]
    assert tr.record.humidity_pct is None
    for _ in range(6):   # RX1 timeout, RX2 and its timeout, baro, build, transmit
        out = fire(tr, log)
    assert tr.state is State.DEEP_SLEEP and out[0]["ev"] == "uplink_tx"


def test_step_foreign_station_rejected():
    tr, log = make_transponder()
    tr.boot()
    fire(tr, log)
    fire(tr, log)
    other = StationId(Protocol.A5N1, 0x111, 1)
    bits = bytes_to_bits(build_a5n1_frame(other, A5N1_MSG_TEMP_HUMIDITY))
    out = step(tr, log, 5.0, bits)
    assert tr.state is State.RX1 and tr.wake_at == 60.6
    assert (out[0]["reason_code"], out[0]["reason"]) == ("StationMismatchError", "foreign station")


def test_step_ill_targeted_frame_raises():
    tr, _ = make_transponder()
    tr.boot()
    bits = bytes_to_bits(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY))
    with pytest.raises(ProtocolViolationError):
        tr.step(0.05, bits)   # still in RESET


def test_emission_goes_first_when_it_ties_with_a_wake():
    # the first emission lands at half a period: 0.1 s, when RESET ends, so
    # RESET misses it and INIT misses the two at 0.3 s and 0.5 s
    trace = run(short_config(duration_s=1.0, station=StationSpec(emission_period_s=0.2)))
    first = trace.events[:5]
    assert [(ev["t"], ev["ev"]) for ev in first] == [
        (0.0, "state"), (0.1, "frames_missed"), (0.1, "state"),
        (0.6, "frames_missed"), (0.6, "state")]
    assert (first[1]["state"], first[1]["n"]) == ("reset", 1)
    assert (first[2]["from"], first[2]["to"]) == ("reset", "init")
    assert (first[3]["state"], first[3]["n"]) == ("init", 2)


# ---------------------------------------------------------------------------
# whole runs

def test_lossless_day_delivers_every_cycle():
    trace = run(SimConfig(seed=1))
    s = trace.summary
    assert s["cycles"] == 96
    assert s["uplinks_attempted"] == 96
    assert s["uplinks_delivered"] == 96
    assert sum(ev["ev"] == "record" for ev in trace.events) == 96
    assert s["complete_records"] == 96
    assert s["invariants_ok"]


def test_lossless_fidelity_and_quantization():
    trace = run(short_config())
    cycles = []
    partials = []
    tx_record = None
    for ev in trace.events:
        if ev["ev"] == "state" and ev["to"] == "rx1":
            partials = []
        elif ev["ev"] == "frame_rx" and ev.get("ok"):
            partials.append(record_from_obj(ev["record"]))
        elif ev["ev"] == "uplink_tx":
            tx_record = record_from_obj(ev["record"])
            cycles.append((list(partials), tx_record))
    records = [ev for ev in trace.events if ev["ev"] == "record"]
    assert len(records) == len(cycles) > 0

    for (partials, tx_record), server_ev in zip(cycles, records):
        # ground truth: the merge of what the station actually sent
        merged = partials[0]
        for p in partials[1:]:
            merged = merge_partial(merged, p)
        for field in ("temperature_c", "humidity_pct", "wind_speed_kph",
                      "wind_dir_deg", "rain_mm"):
            assert getattr(tx_record, field) == getattr(merged, field)
        server = record_from_obj(server_ev["record"])
        for field, step in PAYLOAD_STEP.items():
            assert abs(getattr(server, field) - getattr(tx_record, field)) <= step / 2


def test_rain_is_monotone_across_uplinks():
    trace = run(short_config(duration_s=14_400.0))
    rains = [ev["record"]["rain_mm"] for ev in trace.events if ev["ev"] == "record"]
    assert rains == sorted(rains)


def test_total_loss_sends_empty_records():
    trace = run(short_config(channel=ChannelSpec(frame_loss_p=1.0)))
    s = trace.summary
    assert s["uplinks_attempted"] == s["uplinks_delivered"] > 0
    assert s["complete_records"] == 0
    for ev in trace.events:
        if ev["ev"] == "record":
            r = ev["record"]
            assert r["temperature_c"] is None
            assert r["rain_mm"] is None
            assert r["pressure_pa"] is not None   # the barometer is onboard


def test_weather_is_common_across_cycle_lengths():
    # the weather has its own random stream, so the frames a station sends
    # do not depend on which of them a transponder hears
    lossy = ChannelSpec(frame_loss_p=0.3, bit_flip_q=1e-3)
    frames = [{ev["t"]: ev["frame_hex"] for ev in run(short_config(
                  channel=lossy, transponder=TransponderSpec(t_cycle_s=t_cycle))).events
               if ev["ev"] == "emit"}
              for t_cycle in (300.0, 900.0)]
    common = frames[0].keys() & frames[1].keys()
    assert len(common) >= 10
    assert all(frames[0][t] == frames[1][t] for t in common)


def test_determinism_byte_identical():
    cfg = short_config(channel=ChannelSpec(frame_loss_p=0.3, bit_flip_q=0.01))
    a = run(cfg).to_jsonl()
    b = run(cfg).to_jsonl()
    assert a == b
    c = run(dataclasses.replace(cfg, seed=cfg.seed + 1)).to_jsonl()
    assert a != c


# Pinned traces: a refactor that keeps behaviour keeps these bytes. A change
# that alters a trace on purpose updates the hash and says why in CHANGES.md.
GOLDEN_TRACES = [
    ({"duration_s": 86_400.0, "seed": 7,
      "station": {"protocol": "a5n1"},
      "channel": {"frame_loss_p": 0.1, "bit_flip_q": 1e-3},
      "transponder": {"t_cycle_s": 300},
      "gateway": {"uplink_loss_p": 0.05}},
     "1b1513e1b56703ef65d41926657867f28dcc693ec9b11dac75cf48041b2756d1"),
    ({"duration_s": 86_400.0, "seed": 3,
      "station": {"protocol": "lcw", "id": 42, "channel": 0},
      "transponder": {"profile": "lopy4", "t_cycle_s": 600}},
     "471e2e641a0266aaa085196249521e1a40acfbcbfc30536214faf0935086ddf9"),
    # 52-bit frames with bit flips, so failed LCW decodes are pinned too
    ({"duration_s": 86_400.0, "seed": 5,
      "station": {"protocol": "lcw", "id": 42, "channel": 0},
      "channel": {"frame_loss_p": 0.1, "bit_flip_q": 0.01},
      "transponder": {"profile": "lopy4", "t_cycle_s": 300},
      "gateway": {"uplink_loss_p": 0.05}},
     "f17475a3eeb85901a9c72d6de890e86711467772f7266aa775066a5fbcd21b4b"),
]


@pytest.mark.parametrize("obj,sha256", GOLDEN_TRACES,
                         ids=["a5n1_lossy", "lcw_lopy4", "lcw_lossy"])
def test_golden_trace(obj, sha256):
    trace = run(SimConfig.from_dict(obj)).to_jsonl()
    actual = hashlib.sha256(trace.encode()).hexdigest()
    assert actual == sha256, f"trace sha256 {actual} != pinned {sha256}"


@pytest.mark.parametrize("obj,sha256", GOLDEN_TRACES,
                         ids=["a5n1_lossy", "lcw_lopy4", "lcw_lossy"])
def test_golden_trace_streamed_by_cli(obj, sha256, tmp_path, capsys):
    # the file `simulate --out` writes line by line holds the same bytes
    cfg, out = tmp_path / "cfg.json", tmp_path / "trace.jsonl"
    cfg.write_text(json.dumps(obj))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    actual = hashlib.sha256(out.read_bytes()).hexdigest()
    assert actual == sha256, f"trace sha256 {actual} != pinned {sha256}"
    last = json.loads(out.read_bytes().splitlines()[-1])
    assert last == {"summary": json.loads(capsys.readouterr().out)}
    # the writer the CLI and scripts/trace_digest.py share hands out those bytes
    digest = hashlib.sha256()
    summary = simkit.write_trace(SimConfig.from_dict(obj), lambda text: digest.update(text.encode("ascii")))
    assert digest.hexdigest() == sha256
    assert {"summary": summary} == last


@pytest.mark.parametrize("obj", [obj for obj, _ in GOLDEN_TRACES] + [
    {"duration_s": 3 * 86_400.0, "seed": 11,
     "station": {"protocol": "a5n1"},
     "channel": {"frame_loss_p": 0.2, "bit_flip_q": 2e-3},
     "transponder": {"t_cycle_s": 300},
     "gateway": {"uplink_loss_p": 0.1}},
], ids=["a5n1_lossy", "lcw_lopy4", "lcw_lossy", "a5n1_lossy_3d"])
def test_summary_is_derived_from_the_trace(obj):
    trace = run(SimConfig.from_dict(obj))
    tx = [(ev["t"], ev["t_air"]) for ev in trace.events if ev["ev"] == "uplink_tx"]
    records = [ev["record"] for ev in trace.events if ev["ev"] == "record"]
    # every one-hour window, each starting at a transmission's end
    window_peak = max((sum(a for t, a in tx if t0 <= t <= t0 + 3600.0) for t0, _ in tx),
                      default=0.0)
    unheard = [ev for ev in trace.events if ev["ev"] == "frames_missed"]
    period = trace.config["station"]["emission_period_s"]
    emissions = math.floor(obj["duration_s"] / period - 0.5) + 1
    s = trace.summary
    assert s["frames_ignored"] == sum(ev["n"] for ev in unheard if ev["state"] == "inter_sleep")
    assert s["frames_missed"] == sum(ev["n"] for ev in unheard if ev["state"] != "inter_sleep")
    # every emission is either traced or counted
    assert sum(ev["ev"] == "emit" for ev in trace.events) + s["frames_missed"] + \
        s["frames_ignored"] == emissions
    assert s["uplinks_attempted"] == len(tx)
    assert s["uplinks_delivered"] == len(records)
    assert s["complete_records"] == sum(all(r[f] is not None for f in FIELD_FLAGS)
                                        for r in records)
    assert s["total_airtime_s"] == pytest.approx(sum(a for _, a in tx), abs=1e-9)
    assert s["max_hour_window_airtime_s"] == pytest.approx(window_peak, abs=1e-9)
    assert s["uplinks_delivered"] > 0 and s["invariants_ok"]


# ---------------------------------------------------------------------------
# trace schema and line writer

# Configs that reach the event kinds the golden traces do not: an uplink the
# server rejects (a counter left behind by heavy loss) and a governor wait.
SCHEMA_CONFIGS = [obj for obj, _ in GOLDEN_TRACES] + [
    {"transponder": {"t_cycle_s": 300}, "gateway": {"uplink_loss_p": 0.9}},
    {"duration_s": 3600.0, "seed": 3, "transponder": {"t_cycle_s": 60.0, "duty_limit": 0.001}},
]


def _random_config(rng: random.Random) -> dict:
    """A short valid config; about one in three is lossless. Its length ends
    the run at any point of a cycle."""
    lossy = rng.random() < 2 / 3
    if rng.random() < 0.5:
        station = {"protocol": "lcw", "id": rng.randrange(0x80), "channel": 0}
    else:
        station = {"protocol": "a5n1", "id": rng.randrange(0x4000), "channel": rng.randrange(4)}
    return {
        "duration_s": round(rng.uniform(60.0, 7200.0), 3),
        "seed": rng.randrange(1 << 16),
        "station": station,
        "channel": {"frame_loss_p": rng.uniform(0.0, 0.5) if lossy else 0.0,
                    "bit_flip_q": rng.choice([1e-3, 1e-2]) if lossy else 0.0},
        "transponder": {"profile": rng.choice(sorted(energy.PROFILES)),
                        "t_cycle_s": rng.choice([60, 120, 300, 600.5]),
                        "duty_limit": rng.choice([0.01, 0.001])},
        "gateway": {"uplink_loss_p": rng.uniform(0.0, 0.5) if lossy else 0.0},
        "barometer": {"pressure_noise_pa": rng.uniform(0.0, 50.0),
                      "temp_noise_c": rng.uniform(0.0, 2.0)},
    }


RANDOM_CONFIGS = [_random_config(random.Random(f"trace-lines/{i}")) for i in range(30)]


@pytest.fixture(scope="module")
def schema_traces():
    return [run(SimConfig.from_dict(obj)) for obj in SCHEMA_CONFIGS]


def _field_set(ev: dict) -> tuple[str, ...]:
    return tuple(sorted(ev.keys() - {"t", "ev"}))


def test_every_event_has_exactly_its_kinds_fields(schema_traces):
    seen = set()
    for trace in schema_traces:
        for ev in trace.events:
            assert ev["ev"] in EVENT_FIELDS, ev
            assert _field_set(ev) in EVENT_FIELDS[ev["ev"]], ev
            seen.add(ev["ev"])
    assert seen == EVENT_FIELDS.keys()


def test_events_hold_states_as_plain_text(schema_traces):
    """A state in an event is its text, a plain ``str``; only the first
    event's ``from`` is None."""
    for trace in schema_traces:
        assert trace.events[0]["from"] is None
        states = [ev[key] for ev in trace.events for key in ("state", "from", "to") if key in ev]
        assert all(type(v) is str for v in states[1:]), collections.Counter(map(type, states))
        assert set(states[1:]) <= {v for k, v in vars(State).items() if k.isupper()}


def test_readme_lists_the_event_field_sets():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| `ev` | fields | written when |\n|---|---|---|\n", 1)[1].split("\n\n")[0]
    listed = collections.defaultdict(list)
    for kind, fields, _ in (line.split(" | ") for line in table.splitlines()):
        listed[kind.strip("| `")].append(tuple(re.findall(r"`(\w+)`", fields)))
    assert listed == {kind: list(sets) for kind, sets in EVENT_FIELDS.items()}


def test_reason_codes_name_library_error_classes(schema_traces):
    errors = (rfdecode.DecodeError, lorawan.FrameError, core.StationMismatchError)
    classes = {name for module in (core, rfdecode, lorawan) for name, obj in vars(module).items()
               if isinstance(obj, type) and issubclass(obj, errors)}
    codes = collections.Counter(ev["reason_code"] for trace in schema_traces
                                for ev in trace.events if "reason_code" in ev)
    assert codes.keys() <= classes, codes
    # a failed frame decode and a counter left behind by heavy loss
    assert {"ChecksumError", "CounterError"} <= codes.keys(), codes


def test_trace_lines_are_what_the_json_encoder_writes(schema_traces):
    """The encoder is the oracle: every line, templated or not, holds the
    bytes ``json.dumps(obj, sort_keys=True)`` writes."""
    traces = schema_traces + [run(SimConfig.from_dict(obj)) for obj in RANDOM_CONFIGS]
    seen = set()
    for trace in traces:
        for obj in [{"config": trace.config}, *trace.events, {"summary": trace.summary}]:
            assert trace_line(obj) == json.dumps(obj, sort_keys=True) + "\n", obj
            if "ev" in obj:
                seen.add((obj["ev"], _field_set(obj)))
    # every field set of every kind, so each shape the encoder still writes
    assert seen == {(kind, fields) for kind, sets in EVENT_FIELDS.items() for fields in sets}


@pytest.mark.parametrize("obj", [
    {"t": 1.5, "ev": "state", "from": "rx1", "to": "inter_sleep", "extra": 1},
    {"t": 1.5, "ev": "state", "to": "inter_sleep"},
    {"t": 1.5, "ev": "frame_rx", "state": "rx1", "ok": False,
     "reason": 'checksum "0x3" != computed 0x4 \u00b5 \u2013 \\'},
    {"t": 1.5, "ev": "uplink_tx", "fcnt": 3, "phy_len": 42, "t_air": 0.287744,
     "record": {"seq": 1, "station": {"protocol": "lcw", "id": 42}}},
], ids=["extra_key", "missing_key", "quoted_reason", "partial_record"])
def test_trace_line_of_an_untemplated_shape(obj):
    assert trace_line(obj) == json.dumps(obj, sort_keys=True) + "\n"


class _WrongServerKey(Simulator):
    """A simulator whose server holds another NwkSKey than the device, so
    every uplink it is delivered fails its MIC."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        device = self.transponder.session
        self.server_session = lorawan.AbpSession(device.dev_addr, "ff" * 16, device.app_skey)


@pytest.mark.parametrize("obj,simulator,code", [(obj, Simulator, 0) for obj in SCHEMA_CONFIGS] + [
    ({"duration_s": 7200.0, "seed": 3}, _WrongServerKey, 1),
], ids=["a5n1_lossy", "lcw_lopy4", "lcw_lossy", "heavy_loss", "governor_wait", "wrong_server_key"])
def test_written_trace_re_derives_its_summary(obj, simulator, code, tmp_path, monkeypatch):
    # the file alone re-derives its summary line, violations too, through the
    # simulator's own fold
    monkeypatch.setattr(simkit, "Simulator", simulator)
    cfg, out = tmp_path / "cfg.json", tmp_path / "trace.jsonl"
    cfg.write_text(json.dumps(obj))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == code
    first, *events, last = out.read_text().splitlines(keepends=True)
    summary = Summary()
    for line in events:
        summary.add(json.loads(line))
    config = SimConfig.from_dict(json.loads(first)["config"])
    assert trace_line({"summary": summary.result(config)}) == last


@pytest.mark.parametrize("t2,duty_limit,peak,violations", [
    (3600.0, 0.01, 2.0, []),
    (3600.000001, 0.01, 1.0, []),
    # 2 s in one hour against 0.0001 * 3600 s plus one straddling 1 s transmission
    (3600.0, 0.0001, 2.0, ["duty cycle exceeded: 2.000 s airtime in one hour"]),
], ids=["one_window", "split", "duty_exceeded"])
def test_hour_window_is_taken_on_written_times(t2, duty_limit, peak, violations):
    summary = Summary()
    for t in (0.0, t2):
        summary.add({"t": t, "ev": "uplink_tx", "fcnt": 0, "phy_len": 24, "t_air": 1.0,
                     "record": {}})
    s = summary.result(SimConfig(duration_s=7200.0,
                                 transponder=TransponderSpec(duty_limit=duty_limit)))
    assert (s["max_hour_window_airtime_s"], s["violations"]) == (peak, violations)
    assert s["invariants_ok"] == (not violations)


@pytest.mark.parametrize("code,violations", [
    ("CounterError", []),
    ("MicMismatchError", ["t=12.5: delivered uplink failed to decode: some reason"]),
    ("PayloadError", ["t=12.5: delivered uplink failed to decode: some reason"]),
], ids=["counter_left_behind", "mic", "payload"])
def test_summary_counts_a_failed_uplink_unless_its_counter_was_left_behind(code, violations):
    summary = Summary()
    summary.add({"t": 12.5, "ev": "uplink_error", "reason_code": code, "reason": "some reason"})
    s = summary.result(SimConfig())
    assert (s["violations"], s["invariants_ok"]) == (violations, not violations)


def test_summary_without_uplinks_writes_int_zero_airtime():
    s = run(short_config(duration_s=5.0)).summary
    assert s["uplinks_attempted"] == 0
    # sum() of no airtime is the int 0, and the trace writes "0", not "0.0"
    assert s["total_airtime_s"] == 0 and type(s["total_airtime_s"]) is int


def test_ledger_matches_closed_form_at_300s():
    cfg = SimConfig(seed=2, transponder=TransponderSpec(t_cycle_s=300.0))
    trace = run(cfg)
    closed = 86_400 / 300 * energy.cycle_energy(energy.BSF32, 300)
    total = trace.summary["energy_uwh_total"]
    assert abs(total - closed) / closed < 0.01


def test_ledger_is_sum_of_event_entries():
    trace = run(short_config())
    by_state = {}
    for ev in trace.events:
        if ev["ev"] == "cycle_energy":
            entries = ev["by_state"].items()
        elif ev["ev"] == "sleep_energy":
            entries = [("deep_sleep", ev["uwh"])]
        else:
            continue
        for state, uwh in entries:
            by_state[state] = by_state.get(state, 0.0) + uwh
    summary = trace.summary
    assert summary["energy_uwh_by_state"] == pytest.approx(by_state, rel=1e-12)
    assert sum(by_state.values()) == pytest.approx(summary["energy_uwh_total"], rel=1e-12)


@pytest.mark.parametrize("profile", sorted(energy.PROFILES))
@pytest.mark.parametrize("duration_s", [0.3, 5.0, 15.0, 22.0, 27.1, 27.3, 27.5, 905.0],
                         ids=["init", "rx1", "inter_sleep", "rx2", "read_baro", "build_tx",
                              "transmit", "rx1_cycle2"])
def test_cut_off_active_phase_is_charged_at_component_draws(profile, duration_s):
    """A run that ends mid-phase charges each active state its seconds since
    the last energy entry at its component draw, the MCU's where it has none."""
    trace = run(SimConfig(duration_s=duration_s, seed=1,
                          transponder=TransponderSpec(profile=profile)))
    p = energy.PROFILES[profile]
    draw = {"rx1": p.shr_power_uw, "inter_sleep": p.shr_power_uw, "rx2": p.shr_power_uw,
            "transmit": p.tx_power_uw}
    seconds, state, entered = {}, None, 0.0
    for ev in trace.events:
        if ev["ev"] == "state":
            if state is not None:
                seconds[state] = seconds.get(state, 0.0) + ev["t"] - entered
            state, entered = ev["to"], ev["t"]
        elif ev["ev"] == "cycle_energy" and not ev.get("partial"):
            seconds = {}
    seconds[state] = seconds.get(state, 0.0) + duration_s - entered
    seconds.pop("deep_sleep", None)     # charged by its own sleep_energy entry
    last = [ev for ev in trace.events if ev["ev"] == "cycle_energy"][-1]
    assert last["partial"] is True
    assert last["by_state"].keys() == seconds.keys()
    mcu_uw = energy.fit_component_power(p)
    for name, uwh in last["by_state"].items():
        assert uwh == pytest.approx(draw.get(name, mcu_uw) * seconds[name] / 3600, rel=1e-9)


def test_duty_cycle_window_invariant():
    trace = run(short_config())
    assert trace.summary["max_hour_window_airtime_s"] <= 36.0
    assert trace.summary["invariants_ok"]


def test_governor_delays_when_duty_limit_is_tight():
    cfg = short_config(
        duration_s=3600.0,
        transponder=TransponderSpec(t_cycle_s=60.0, duty_limit=0.001))
    trace = run(cfg)
    waits = [ev for ev in trace.events if ev["ev"] == "governor_wait"]
    assert waits, "expected the governor to defer at least one transmission"
    # the wait rule bounds a window by limit*3600 plus one edge transmission
    t_air = max(ev["t_air"] for ev in trace.events if ev["ev"] == "uplink_tx")
    assert trace.summary["max_hour_window_airtime_s"] <= 0.001 * 3600 + t_air + 1e-9
    assert trace.summary["invariants_ok"]


class _AlwaysAllow:
    """A duty-cycle governor that never makes the transmitter wait."""

    def check(self, now):
        return True, now

    def note_transmission(self, tx_end, t_air):
        pass


def test_duty_cycle_oracle_catches_a_governor_that_never_waits():
    sim = Simulator(short_config(
        duration_s=3600.0,
        transponder=TransponderSpec(t_cycle_s=60.0, duty_limit=0.001)))
    sim.transponder.governor = _AlwaysAllow()
    s = sim.run().summary
    assert not any(ev["ev"] == "governor_wait" for ev in sim.trace.events)
    max_t_air = max(ev["t_air"] for ev in sim.trace.events if ev["ev"] == "uplink_tx")
    assert s["max_hour_window_airtime_s"] > 0.001 * 3600 + max_t_air
    assert not s["invariants_ok"]
    assert s["violations"] == [
        f"duty cycle exceeded: {s['max_hour_window_airtime_s']:.3f} s airtime in one hour"]


def test_lossy_run_still_delivers_some_records():
    cfg = short_config(duration_s=28_800.0,
                       channel=ChannelSpec(frame_loss_p=0.3, bit_flip_q=0.001))
    trace = run(cfg)
    s = trace.summary
    assert s["uplinks_delivered"] > 0
    assert sum(ev["ev"] == "record" for ev in trace.events) == s["uplinks_delivered"]
    assert s["invariants_ok"]


def test_lcw_station_round_robin():
    cfg = short_config(
        station=StationSpec(protocol=Protocol.LCW, id=42, channel=0,
                            emission_period_s=8.0))
    trace = run(cfg)
    s = trace.summary
    assert s["uplinks_delivered"] == s["cycles"]
    # two receive windows per cycle never complete a five-quantity record
    assert s["complete_records"] == 0
    recs = [ev["record"] for ev in trace.events if ev["ev"] == "record"]
    assert any(r["temperature_c"] is not None or r["humidity_pct"] is not None
               for r in recs)


def test_gateway_loss_counts():
    cfg = short_config(duration_s=28_800.0, gateway=GatewaySpec(uplink_loss_p=1.0))
    s = run(cfg).summary
    assert s["uplinks_attempted"] > 0
    assert s["uplinks_delivered"] == 0


def test_gateway_loss_statistics_over_10k_cycles():
    cfg = SimConfig(duration_s=600_000.0, seed=8,
                    transponder=TransponderSpec(t_cycle_s=60.0),
                    gateway=GatewaySpec(uplink_loss_p=0.5))
    s = run(cfg).summary
    n, p = s["uplinks_attempted"], 0.5
    assert n == 10_000
    assert abs(s["uplinks_delivered"] - n * p) <= 3 * math.sqrt(n * p * (1 - p))


def test_server_left_behind_by_heavy_loss_logs_uplink_errors(tmp_path, capsys):
    # after more than FCNT_RESYNC_WINDOW drops in a row the server accepts no
    # later frame: each is an uplink_error, and the run stays valid
    cfg, out = tmp_path / "cfg.json", tmp_path / "trace.jsonl"
    cfg.write_text(json.dumps({"transponder": {"t_cycle_s": 300},
                               "gateway": {"uplink_loss_p": 0.9}}))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["uplinks_attempted"], summary["uplinks_delivered"]) == (288, 18)
    assert summary["invariants_ok"] and summary["violations"] == []
    kinds = collections.Counter(json.loads(line).get("ev") for line in out.read_text().splitlines())
    assert (kinds["uplink_tx"], kinds["uplink_drop"], kinds["uplink_error"], kinds["record"]) \
        == (288, 248, 22, 18)
    first_error = next(json.loads(line) for line in out.read_text().splitlines()
                       if '"uplink_error"' in line)
    assert (first_error["reason_code"], first_error["reason"]) == \
        ("CounterError", "counter 105 outside resync window [85, 101]")


def test_wrong_server_key_is_still_a_violation():
    sim = _WrongServerKey(short_config())
    s = sim.run().summary
    assert not s["invariants_ok"] and s["uplinks_delivered"] == 0 and s["uplinks_attempted"] > 0
    # each violation names the time its uplink_error event holds
    times = [ev["t"] for ev in sim.trace.events if ev["ev"] == "uplink_error"]
    assert s["violations"] == [
        f"t={t}: delivered uplink failed to decode: MIC verification failed" for t in times]


# ---------------------------------------------------------------------------
# config plumbing

def test_config_validation_collects_everything():
    with pytest.raises(SimConfigError) as info:
        SimConfig(
            duration_s=-1,
            station=StationSpec(emission_period_s=0.0),
            channel=ChannelSpec(frame_loss_p=2.0),
            transponder=TransponderSpec(profile="nope", rx_timeout_s=0.0),
        )
    assert len(info.value.problems) >= 4


def test_config_validation_reports_one_problem_per_object():
    with pytest.raises(SimConfigError) as info:
        SimConfig(
            station=StationSpec(protocol=Protocol.LCW, id=200, channel=0),
            transponder=TransponderSpec(sf=6, duty_limit=1.5),
        )
    labels = [p.split(":")[0] for p in info.value.problems]
    assert labels == ["station", "transponder.duty_limit", "transponder radio settings"]


@pytest.mark.parametrize("name,spec,problem", [
    ("station", 5, "station must be a StationSpec, not 5"),
    ("transponder", None, "transponder must be a TransponderSpec, not None"),
    ("station", ChannelSpec(), "station must be a StationSpec, not ChannelSpec(f...it_flip_q=0.0)"),
], ids=["int", "none", "other-spec"])
def test_nested_spec_of_the_wrong_type_is_one_problem(name, spec, problem):
    with pytest.raises(SimConfigError) as info:
        run(SimConfig(**{name: spec}))
    assert info.value.problems == [problem]


def test_config_dict_roundtrip():
    cfg = SimConfig.from_dict({
        "duration_s": 3600,
        "seed": 9,
        "station": {"protocol": "lcw", "id": 5, "channel": 0},
        "transponder": {"profile": "lopy4", "t_cycle_s": 300.0},
    })
    assert cfg.station.protocol is Protocol.LCW
    assert cfg.transponder.profile == "lopy4"
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(SimConfigError):
        SimConfig.from_dict({"stations": {}})
    with pytest.raises(SimConfigError):
        SimConfig.from_dict({"station": {"ids": 4}})
    # the simulated link's session is fixed, and LoRaWAN fixes its coding rate and bandwidth
    for name in ("fport", "bandwidth_hz", "coding_rate"):
        with pytest.raises(SimConfigError) as info:
            SimConfig.from_dict({"transponder": {name: 1}})
        assert info.value.problems == [f"unknown transponder option(s): ['{name}']"]


@pytest.mark.parametrize("obj", [5, None, "ab", [1], 10 ** 400],
                         ids=["int", "none", "str", "list", "huge-int"])
def test_config_not_an_object_is_a_config_error(obj):
    with pytest.raises(SimConfigError) as info:
        SimConfig.from_dict(obj)
    assert info.value.problems == [f"config must be a JSON object, not {reprlib.repr(obj)}"]


# The one problem each float field reports for a value that is not finite:
# the field's own range rule, with the value where the rule names it.
NON_FINITE_RULES = {
    "duration_s": "duration_s must be positive and at most 31622400 (366 days)",
    "station.emission_period_s":
        "station.emission_period_s must be finite and at least 0.0432 s, one a5n1 frame on air",
    "channel.frame_loss_p": "channel.frame_loss_p {} outside [0, 1]",
    "channel.bit_flip_q": "channel.bit_flip_q {} outside [0, 1]",
    "transponder.t_cycle_s": "transponder.t_cycle_s must be in (0, 65535]",
    "transponder.rx_timeout_s": "transponder.rx_timeout_s must be positive and finite",
    "transponder.duty_limit": "transponder.duty_limit: duty limit {} outside (0, 1]",
    "gateway.uplink_loss_p": "gateway.uplink_loss_p {} outside [0, 1]",
    "barometer.board_temp_c": "barometer.board_temp_c {} outside [-327.68, 327.67]",
    "barometer.pressure_noise_pa": "barometer.pressure_noise_pa must be non-negative and finite",
    "barometer.temp_noise_c": "barometer.temp_noise_c must be non-negative and finite",
}


def _float_fields() -> list[str]:
    """Every float field of the config, as a dotted option name."""
    config = SimConfig()
    floats = [f.name for f in dataclasses.fields(config) if f.type == "float"]
    for spec in dataclasses.fields(config):
        if dataclasses.is_dataclass(spec.default):
            floats += [f"{spec.name}.{f.name}" for f in dataclasses.fields(spec.default)
                       if f.type == "float"]
    return floats


def _config_obj(field: str, value) -> dict:
    """A config object that sets the dotted option ``field`` to ``value``."""
    *spec, name = field.split(".")
    return {spec[0]: {name: value}} if spec else {name: value}


def _problems_with(field: str, value) -> list[str]:
    """The problems of a config that sets the dotted option ``field`` to ``value``."""
    with pytest.raises(SimConfigError) as info:
        SimConfig.from_dict(_config_obj(field, value))
    return info.value.problems


@pytest.mark.parametrize("field", _float_fields())
def test_non_finite_float_fails_its_fields_own_rule(field):
    for value in (math.inf, -math.inf, math.nan):
        assert _problems_with(field, value) == [NON_FINITE_RULES[field].format(value)]
    # only an int can be too large for a float
    assert _problems_with(field, 10 ** 400) == [f"{field} is too large for a float"]


@pytest.mark.parametrize("field", _float_fields())
def test_float_field_takes_an_int_as_a_float(field):
    default = SimConfig().to_dict()
    for key in field.split("."):
        default = default[key]
    value = int(default) or 1
    # one config line, and so one trace, for 300 and 300.0, read or built directly
    *spec, name = field.split(".")
    built = (SimConfig(**{spec[0]: type(getattr(SimConfig(), spec[0]))(**{name: value})})
             if spec else SimConfig(**{name: value}))
    lines = [trace_line({"config": config.to_dict()}) for config in
             (SimConfig.from_dict(_config_obj(field, value)),
              SimConfig.from_dict(_config_obj(field, float(value))), built)]
    assert len(set(lines)) == 1 and f"{float(value)!r}" in lines[0], lines
    # a rule that echoes its value echoes the float
    rule = NON_FINITE_RULES[field]
    assert _problems_with(field, -10 ** 6) == [rule.format(-1e6) if "{}" in rule else rule]


def test_readme_states_the_config_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Simulation config", 1)[1]
    shown = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert shown == SimConfig().to_dict()


@pytest.mark.parametrize("station", [
    StationSpec(), StationSpec(protocol=Protocol.LCW, id=5, channel=0)], ids=["a5n1", "lcw"])
def test_emission_period_at_least_one_frame_on_air(station):
    bound = FRAME_AIR_S[station.protocol]
    for period in (1e-300, math.nextafter(bound, 0.0)):
        with pytest.raises(SimConfigError) as info:
            SimConfig(duration_s=2.0, station=dataclasses.replace(station, emission_period_s=period))
        assert [p.split()[0] for p in info.value.problems] == ["station.emission_period_s"]
    cfg = SimConfig(duration_s=2.0, station=dataclasses.replace(station, emission_period_s=bound))
    assert run(cfg).summary["invariants_ok"]


def test_frame_air_time_bounds_every_emitted_frame():
    assert FRAME_AIR_S == {Protocol.A5N1: 0.0432, Protocol.LCW: 0.1286}
    for station in (STATION, StationId(Protocol.LCW, 5, 0)):
        emitter = _Emitter(StationSpec(station.protocol, station.id, station.channel),
                           random.Random(4))
        for _ in range(20):
            frame_hex = emitter.emit()[2]
            if station.protocol is Protocol.A5N1:
                train = a5n1_to_pulses(bytes.fromhex(frame_hex))
            else:
                train = lcw_to_pulses(tuple(int(c, 16) for c in frame_hex))
            assert sum(train.durations) / 1e6 <= FRAME_AIR_S[station.protocol]


def test_short_cycle_rejected():
    with pytest.raises(SimConfigError) as info:
        SimConfig(transponder=TransponderSpec(t_cycle_s=30.0))
    assert any("active phase" in p for p in info.value.problems)
