"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import random
import time

import pytest

from lorawan_oracle import parse_uplink
from wxkit import energy
from wxkit.cli import main as cli_main
from wxkit.core import PAYLOAD_STEP, Protocol, StationId, merge_partial, record_from_obj
from wxkit.lorawan import AbpSession, RadioParams, airtime, frame_build, frame_parse
from wxkit.rfdecode import (
    A5N1_MSG_TEMP_HUMIDITY,
    A5N1_MSG_WIND_DIR_RAIN,
    DecodeError,
    LcwQuantity,
    a5n1_to_pulses,
    build_a5n1_frame,
    build_lcw_frame,
    bytes_to_bits,
    decode_a5n1,
    decode_lcw,
    frame_pulses,
    lcw_to_pulses,
    nibbles_to_bits,
)
from wxkit.simkit import SimConfig, run as sim_run


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / reference


# ---------------------------------------------------------------------------

def test_criterion_1_airtime():
    """SF9, 125 kHz, CR 4/5, preamble 8, CRC on, explicit header, 42-byte
    PHY payload: 287.744 ms, within 1% of the 289 ms anchor."""
    params = RadioParams(sf=9, bandwidth_hz=125_000, coding_rate=1,
                         preamble_symbols=8, explicit_header=True, crc_on=True)
    ms = airtime(params, 42) * 1000.0
    assert ms == pytest.approx(287.744, abs=1e-9)
    assert rel_err(ms, 289.0) < 0.01
    report("1 airtime", f"{ms:.3f} ms ({rel_err(ms, 289.0) * 100:.2f}% from 289 ms)")


def test_criterion_2_battery_life_rows(capsys):
    rows = [
        # (profile, t_cycle_s, reference_days, tolerance)
        (energy.BSF32, 323, 56.7, 0.02),
        (energy.BSF32, 3600, 326.0, 0.05),
        (energy.LOPY4, 300, 141.0, 0.03),
        (energy.LOPY4, 900, 414.0, 0.03),
        (energy.LOPY4, 3600, 1478.0, 0.05),
        # documented-discrepancy rows, wider band
        (energy.BSF32, 900, 123.0, 0.10),
        (energy.BSF32, 1800, 204.0, 0.10),   # table prints 4204; text says 204
    ]
    results = []
    for profile, t_cycle, reference, tol in rows:
        days = energy.battery_life_days(profile, t_cycle)
        err = rel_err(days, reference)
        assert err <= tol, (
            f"{profile.name}@{t_cycle}s: {days:.1f} d vs {reference} d "
            f"({err * 100:.1f}% > {tol * 100:.0f}%)")
        results.append(f"{profile.name}@{t_cycle}s {days:.1f}d ({err * 100:.1f}%)")

    # lopy4@1800 has no agreed reference; the model value is reported with a note
    lopy_1800 = energy.battery_life_days(energy.LOPY4, 1800)

    # the discrepancy rows must come with explanatory notes in the table
    assert cli_main(["battery", "--table"]) == 0
    table = capsys.readouterr().out
    assert "4204" in table and "204" in table and "typo" in table
    assert "622" in table                       # the 15-minute energy mismatch
    assert f"{lopy_1800:.1f}" in table          # lopy4@1800 model value printed
    assert "conflicts" in table                 # ... with a note
    report("2 battery", "; ".join(results) + f"; lopy4@1800s {lopy_1800:.1f}d noted")


def test_criterion_3_daily_energy(capsys):
    bsf = energy.daily_energy(energy.BSF32, 323)
    assert rel_err(bsf, 130_803.0) < 0.01
    lopy = energy.daily_energy(energy.LOPY4, 300)
    assert rel_err(lopy, 339_800.0) < 0.01
    # the tool must call out the 10x misprint in the reference daily figure
    assert cli_main(["battery", "--table"]) == 0
    out = capsys.readouterr().out
    assert "33.98" in out and "10x typo" in out and "339.8" in out
    report("3 daily energy",
           f"bsf32 {bsf:.0f} uWh/day ({rel_err(bsf, 130_803) * 100:.2f}%), "
           f"lopy4 {lopy:.0f} uWh/day ({rel_err(lopy, 339_800) * 100:.2f}%)")


def test_criterion_4_roundtrip_property_suite():
    """10^4 random records per protocol survive encode -> pulses -> framing
    -> decode with protocol-quantization-bounded error. Zero failures."""
    rng = random.Random(0xA5)
    n = 10_000
    for _ in range(n):
        station = StationId(Protocol.A5N1, rng.randrange(0x4000), rng.randrange(4))
        battery = rng.random() < 0.5
        wind = rng.uniform(0, 106.0)
        if rng.random() < 0.5:
            dir_deg = rng.randrange(16) * 22.5
            rain = rng.uniform(0, 4000.0)
            train = a5n1_to_pulses(build_a5n1_frame(
                station, A5N1_MSG_WIND_DIR_RAIN, battery_ok=battery,
                wind_kph=wind, wind_dir_deg=dir_deg, rain_mm=rain))
            runs = frame_pulses(train, protocol=Protocol.A5N1)
            assert len(runs) == 1 and len(runs[0]) == 64
            rec = decode_a5n1(runs[0])
            assert rec.wind_dir_deg == dir_deg
            assert abs(rec.rain_mm - rain) <= 0.127 + 1e-9       # 0.254 mm/tip
        else:
            temp = rng.uniform(-40.0, 73.0)
            hum = rng.randrange(101)
            train = a5n1_to_pulses(build_a5n1_frame(
                station, A5N1_MSG_TEMP_HUMIDITY, battery_ok=battery,
                wind_kph=wind, temperature_c=temp, humidity_pct=hum))
            runs = frame_pulses(train, protocol=Protocol.A5N1)
            assert len(runs) == 1 and len(runs[0]) == 64
            rec = decode_a5n1(runs[0])
            assert abs(rec.temperature_c - temp) <= (0.1 * 5 / 9) / 2 + 1e-9
            assert rec.humidity_pct == hum
        assert rec.station == station
        assert rec.sensor_battery_ok == battery
        # wind has a representability gap below 1.8278 kph (the zero code);
        # inside it the quantization bound is half the gap
        wind_bound = 0.8278 / 2 if wind >= 0.8278 + 1.0 else (0.8278 + 1.0) / 2
        assert abs(rec.wind_speed_kph - wind) <= wind_bound + 1e-9

    for _ in range(n):
        station = StationId(Protocol.LCW, rng.randrange(128), 0)
        battery = rng.random() < 0.5
        quantity = LcwQuantity(rng.randrange(5))
        if quantity is LcwQuantity.TEMP:
            physical, step, field = rng.uniform(-40, 59.9), 0.1, "temperature_c"
        elif quantity is LcwQuantity.HUMIDITY:
            physical, step, field = rng.uniform(0, 99.9), 0.1, "humidity_pct"
        elif quantity is LcwQuantity.RAIN:
            physical, step, field = rng.uniform(0, 517.0), 0.518, "rain_mm"
        elif quantity is LcwQuantity.WIND_SPEED:
            physical, step, field = rng.uniform(0, 99.9), 0.1, "wind_speed_kph"
        else:
            physical, step, field = rng.randrange(16) * 22.5, 0.0, "wind_dir_deg"
        train = lcw_to_pulses(build_lcw_frame(quantity, physical, station, battery_ok=battery))
        runs = frame_pulses(train, protocol=Protocol.LCW)
        assert len(runs) == 1 and len(runs[0]) == 52
        rec = decode_lcw(runs[0])
        got = getattr(rec, field)
        expect = physical * 3.6 if quantity is LcwQuantity.WIND_SPEED else physical
        bound = step * (3.6 if quantity is LcwQuantity.WIND_SPEED else 1.0) / 2
        assert abs(got - expect) <= bound + 1e-9
        assert rec.station == station and rec.sensor_battery_ok == battery
    report("4 round trips", f"{2 * n} random records, 0 failures")


def test_criterion_5_integrity():
    frame = build_a5n1_frame(StationId(Protocol.A5N1, 0x2A7, 2),
                             A5N1_MSG_TEMP_HUMIDITY,
                             temperature_c=21.0, humidity_pct=45, wind_kph=5.0)
    bits = bytes_to_bits(frame)
    detected = 0
    for pos in range(56):
        flipped = bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1:]
        try:
            decode_a5n1(flipped)
        except DecodeError:
            detected += 1
    assert detected == 56

    nibbles = build_lcw_frame(LcwQuantity.TEMP, 25.3, StationId(Protocol.LCW, 42, 0))
    subs = 0
    caught = 0
    for i in range(13):
        for sub in range(16):
            if sub == nibbles[i]:
                continue
            subs += 1
            try:
                decode_lcw(nibbles_to_bits(nibbles[:i] + (sub,) + nibbles[i + 1:]))
            except DecodeError:
                caught += 1
    assert caught == subs
    report("5 integrity", f"56/56 bit flips, {caught}/{subs} nibble substitutions")


def test_criterion_6_lorawan_oracle():
    rng = random.Random(0x10A)
    mismatches = 0
    for i in range(100):
        dev_addr = bytes(rng.randrange(256) for _ in range(4))
        nwk = bytes(rng.randrange(256) for _ in range(16))
        app = bytes(rng.randrange(256) for _ in range(16))
        fcnt = rng.randrange(2**16)
        fport = rng.randrange(1, 224)
        payload_len = 29 if i < 50 else rng.randrange(0, 223)
        payload = bytes(rng.randrange(256) for _ in range(payload_len))
        session = AbpSession(dev_addr, nwk, app, fcnt_up=fcnt, fport=fport)
        frame = frame_build(session, payload)
        if payload_len == 29:
            assert len(frame) == 42

        server = AbpSession(dev_addr, nwk, app, fcnt_up=fcnt, fport=fport)
        got, got_fcnt = frame_parse(frame, server)
        oracle = parse_uplink(frame, nwk, app)
        ok = (got == payload and got_fcnt == fcnt
              and oracle["payload"] == payload
              and oracle["fcnt"] == fcnt & 0xFFFF
              and oracle["dev_addr"] == dev_addr
              and (oracle["fport"] == fport if payload else oracle["fport"] is None))
        mismatches += not ok
    assert mismatches == 0
    report("6 lorawan", "100 sessions round-tripped and oracle-verified, 0 mismatches")


def test_criterion_7_simulation():
    t0 = time.time()
    config = SimConfig(seed=1)    # 24 h, t_cycle 900 s, lossless, bsf32
    trace = sim_run(config)
    elapsed = time.time() - t0
    s = trace.summary

    assert s["uplinks_attempted"] == 96
    assert s["uplinks_delivered"] == 96
    assert sum(ev["ev"] == "record" for ev in trace.events) == 96
    assert s["complete_records"] == 96

    # server records equal ground truth within payload quantization
    partials, cycles = [], []
    for ev in trace.events:
        if ev["ev"] == "state" and ev["to"] == "rx1":
            partials = []
        elif ev["ev"] == "frame_rx" and ev.get("ok"):
            partials.append(record_from_obj(ev["record"]))
        elif ev["ev"] == "uplink_tx":
            cycles.append(list(partials))
    server_records = [record_from_obj(ev["record"]) for ev in trace.events
                      if ev["ev"] == "record"]
    assert len(server_records) == len(cycles) == 96
    for received, server in zip(cycles, server_records):
        truth = received[0]
        for p in received[1:]:
            truth = merge_partial(truth, p)
        for field, step in PAYLOAD_STEP.items():
            if field == "pressure_pa":
                continue   # transponder-side, not station ground truth
            assert abs(getattr(server, field) - getattr(truth, field)) <= step / 2

    closed = 86_400 / 900 * energy.cycle_energy(energy.BSF32, 900)
    ledger_err = abs(s["energy_uwh_total"] - closed) / closed
    assert ledger_err < 0.01

    duty = s["duty_cycle_utilization"]
    assert duty == pytest.approx(0.00032, abs=0.00002)   # ~0.032%
    assert s["max_hour_window_airtime_s"] <= 36.0        # 1% of an hour
    assert s["invariants_ok"]

    assert sim_run(config).to_jsonl() == trace.to_jsonl()

    assert elapsed < 5.0
    report("7 simulation",
           f"96/96 records, ledger within {ledger_err * 100:.2f}% of closed form, "
           f"duty {duty * 100:.4f}%, byte-identical reruns, {elapsed:.2f}s")
