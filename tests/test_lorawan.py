import hashlib
import json
import random
import re
import struct
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorawan_oracle import aes_block, parse_uplink
from lorawan_oracle import cmac as oracle_cmac
from wxkit.cli import _record_line
from wxkit.core import FIELD_FLAGS, PAYLOAD_SCALE, Protocol, StationId, WeatherRecord, record_to_obj
from wxkit.lorawan import (
    _FIELDS,
    _HEADER,
    _PAYLOADS,
    FCNT_RESYNC_WINDOW,
    MAX_FRM_PAYLOAD,
    MAX_PHY_PAYLOAD,
    AbpSession,
    CounterError,
    DutyCycleGovernor,
    FrameError,
    MicMismatchError,
    PayloadError,
    PayloadMeta,
    RadioParams,
    UnsupportedMhdrError,
    airtime,
    duty_cycle_wait,
    frame_build,
    frame_parse,
    payload_decode,
    payload_encode,
)

A5N1_STATION = StationId(Protocol.A5N1, 1234, 2)
LCW_STATION = StationId(Protocol.LCW, 42, 0)

KEYS = dict(
    dev_addr="26011157",
    nwk_skey="2b7e151628aed2a6abf7158809cf4f3c",
    app_skey="000102030405060708090a0b0c0d0e0f",
)


def fresh_session(**kw) -> AbpSession:
    return AbpSession(**KEYS, **kw)


# ---------------------------------------------------------------------------
# compact payload codec

def full_record(station=A5N1_STATION) -> WeatherRecord:
    return WeatherRecord(
        station, seq=7, sensor_battery_ok=True,
        temperature_c=21.94, humidity_pct=45.0, wind_speed_kph=9.3,
        wind_dir_deg=90.0, rain_mm=30.48, pressure_pa=101_325,
        board_temp_c=24.5, battery_mv=3700,
    )


def test_payload_temperature_scaling():
    data = payload_encode(full_record())
    assert len(data) == 29
    assert data[7:9] == bytes.fromhex("0892")   # 21.94 C * 100 = 2194


def test_payload_all_invalid():
    record = WeatherRecord(station=A5N1_STATION, sensor_battery_ok=True)
    data = payload_encode(record)
    assert len(data) == 29
    assert data[6] == 0x01                      # only the battery bit
    assert data[7:22] == bytes(15)              # measurement bytes all zero


def test_payload_lcw_is_27_bytes():
    record = full_record(LCW_STATION).replace(board_temp_c=0.0)
    data = payload_encode(record, PayloadMeta(2, 900))
    assert len(data) == 27
    # fields after pressure shift down by two (no board-temp field)
    assert data[22:24] == (3700).to_bytes(2, "big")
    assert data[24] == 2
    assert data[25:27] == (900).to_bytes(2, "big")


def test_payload_roundtrip_bytes_and_record():
    record = full_record()
    meta = PayloadMeta(frames_received=2, cycle_time_s=900)
    data = payload_encode(record, meta)
    back, back_meta = payload_decode(data)
    assert payload_encode(back, back_meta) == data
    assert back_meta == meta
    assert back.temperature_c == pytest.approx(record.temperature_c, abs=0.005)
    assert back.humidity_pct == pytest.approx(record.humidity_pct, abs=0.25)
    assert back.pressure_pa == record.pressure_pa


def test_payload_decode_errors():
    def with_bytes(record, changes: dict[int, int]) -> bytes:
        data = bytearray(payload_encode(record))
        for index, value in changes.items():
            data[index] = value
        return bytes(data)

    lcw = full_record(LCW_STATION).replace(board_temp_c=0.0)
    hum_201 = {9: 201}
    dir_3600 = {12: 3600 >> 8, 13: 3600 & 0xFF}     # 360.0 degrees, which encode rejects
    cases = (
        (b"\x01", "payload too short (1 bytes)"),
        (bytes([0x02]) + bytes(28), "unknown payload version 0x02"),
        (bytes([0x01, 0x07]) + bytes(27), "unknown station type 0x07"),
        (payload_encode(full_record())[:-1], "wrong length 28 for a5n1 (expected 29)"),
        (payload_encode(lcw) + b"\x00", "wrong length 28 for lcw (expected 27)"),
        # channel 1 on an LCW station
        (with_bytes(lcw, {2: payload_encode(lcw)[2] | 0x40}), "lcw stations use channel 0 only"),
        # the reserved flag bit; the pin corpus below encodes all 128 legal
        # flag bytes of each station, and the decode properties cover them
        (with_bytes(full_record(), {6: payload_encode(full_record())[6] | 0x80}),
         "reserved validity bit is set"),
        (with_bytes(full_record(), {6: payload_encode(full_record())[6] | 0x80} | hum_201),
         "reserved validity bit is set"),
        (with_bytes(full_record(), hum_201), "humidity wire value 201 outside 0..200"),
        (with_bytes(full_record(), dir_3600), "wind direction wire value 3600 outside 0..3599"),
        (with_bytes(lcw, dir_3600), "wind direction wire value 3600 outside 0..3599"),
        # two fields out of range: the first in wire order is named
        (with_bytes(full_record(), hum_201 | dir_3600), "humidity wire value 201 outside 0..200"),
        (with_bytes(lcw, {9: 255} | dir_3600), "humidity wire value 255 outside 0..200"),
    )
    for data, message in cases:
        with pytest.raises(PayloadError) as info:
            payload_decode(data)
        assert str(info.value) == message, data.hex()


def test_payload_encode_range_errors():
    record = full_record().replace(humidity_pct=101.0)
    with pytest.raises(PayloadError):
        payload_encode(record)
    for temperature_c in (400.0, float("inf"), float("nan")):
        with pytest.raises(PayloadError):
            payload_encode(full_record().replace(temperature_c=temperature_c))
    # a value that is not a number: None in an always-carried field, text, a
    # list, or a bool in a scaled field
    for changes in (dict(board_temp_c=None), dict(battery_mv=None), dict(temperature_c="x"),
                    dict(humidity_pct=[1]), dict(wind_dir_deg="x"), dict(temperature_c=True)):
        with pytest.raises(PayloadError, match="must be a number"):
            payload_encode(full_record().replace(**changes))
    for meta in (PayloadMeta(frames_received=None), PayloadMeta(cycle_time_s="x")):
        with pytest.raises(PayloadError, match="must be a number"):
            payload_encode(full_record(), meta)


# Each scaled field at both ends of its range, just beyond each end (some
# still round into range), and non-finite. Field names are WeatherRecord or
# PayloadMeta attributes.
PAYLOAD_EDGE_VALUES = {
    "temperature_c": (-327.68, 327.67, -327.69, 327.68),
    "humidity_pct": (0.0, 100.0, -0.2, -0.3, 100.2, 100.3),
    "wind_speed_kph": (0.0, 6553.5, -0.04, -0.1, 6553.6),
    "wind_dir_deg": (0.0, 359.94, -0.01, 359.95, 360.0),
    "rain_mm": (0.0, 42949672.95, -0.01, 42949672.96),
    "pressure_pa": (0, 0xFFFFFFFF, -1, 0x100000000),
    "board_temp_c": (-327.68, 327.67, -327.69, 327.68),
    "battery_mv": (0, 0xFFFF, -1, 0x10000),
    "frames_received": (0, 0xFF, -1, 0x100),
    "cycle_time_s": (0, 0xFFFF, -1, 0x10000),
}
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def payload_corpus():
    """Seeded (record, meta) pairs over both protocols: every validity byte
    with random values (None in the fields whose bit is clear), then every
    edge value of every field with its bit set and with it clear."""
    rng = random.Random(29)

    def values():
        return dict(
            temperature_c=rng.uniform(-40, 60), humidity_pct=rng.uniform(0, 100),
            wind_speed_kph=rng.uniform(0, 200), wind_dir_deg=rng.uniform(0, 359.9),
            rain_mm=rng.uniform(0, 5000), pressure_pa=rng.randrange(80_000, 110_000),
            board_temp_c=rng.uniform(-40, 80), battery_mv=rng.randrange(2500, 4200),
            frames_received=rng.randrange(256), cycle_time_s=rng.choice((300, 900, 3600)))

    def pair(station, flag_byte, v):
        meta = PayloadMeta(v.pop("frames_received"), v.pop("cycle_time_s"))
        for bit, field in enumerate(FIELD_FLAGS, 1):
            if not flag_byte & (1 << bit):
                v[field] = None
        return WeatherRecord(station=station, seq=rng.randrange(0x10000),
                             sensor_battery_ok=bool(flag_byte & 1), **v), meta

    stations = [StationId(Protocol.A5N1, 0, 0), StationId(Protocol.A5N1, 0x3FFF, 3),
                StationId(Protocol.LCW, 0, 0), StationId(Protocol.LCW, 0x7F, 0)]
    for station in stations:
        for flag_byte in range(0x80):
            yield pair(station, flag_byte, values())
        for field, edges in PAYLOAD_EDGE_VALUES.items():
            for flag_byte in (0x7F, 0x01):
                for edge in edges + NON_FINITE:
                    yield pair(station, flag_byte, {**values(), field: edge})
    yield WeatherRecord(station=stations[0], seq=0xFFFF), PayloadMeta()


def test_payload_bytes_pinned():
    """The wire image of every corpus record, or the fact that encoding
    rejects it, is pinned: a codec refactor must keep this hash."""
    h = hashlib.sha256()
    count = 0
    for record, meta in payload_corpus():
        try:
            h.update(payload_encode(record, meta).hex().encode())
        except PayloadError:
            h.update(b"PayloadError")
        h.update(b"\n")
        count += 1
    assert count == 4 * (0x80 + 2 * sum(len(e) + 3 for e in PAYLOAD_EDGE_VALUES.values())) + 1
    assert h.hexdigest() == "c5020c90378c7857ee74db7dca24537ce3ce7c82227f7b32201fc0505360c7d2"


@st.composite
def records_and_meta(draw):
    protocol = draw(st.sampled_from((Protocol.A5N1, Protocol.LCW)))
    max_id = 0x7F if protocol is Protocol.LCW else 0x3FFF
    station = StationId(protocol, draw(st.integers(0, max_id)),
                        0 if protocol is Protocol.LCW else draw(st.integers(0, 3)))
    fields = {}
    if draw(st.booleans()):
        fields["temperature_c"] = draw(st.floats(-300, 300, allow_nan=False))
    if draw(st.booleans()):
        fields["humidity_pct"] = draw(st.floats(0, 100, allow_nan=False))
    if draw(st.booleans()):
        fields["wind_speed_kph"] = draw(st.floats(0, 6000, allow_nan=False))
    if draw(st.booleans()):
        fields["wind_dir_deg"] = draw(st.floats(0, 359.9, allow_nan=False))
    if draw(st.booleans()):
        fields["rain_mm"] = draw(st.floats(0, 10_000, allow_nan=False))
    if draw(st.booleans()):
        fields["pressure_pa"] = draw(st.integers(0, 200_000))
    record = WeatherRecord(
        station, seq=draw(st.integers(0, 0xFFFF)),
        sensor_battery_ok=draw(st.booleans()),
        board_temp_c=draw(st.floats(-40, 80, allow_nan=False)),
        battery_mv=draw(st.integers(0, 65535)),
        **fields)
    meta = PayloadMeta(draw(st.integers(0, 255)), draw(st.integers(0, 65535)))
    return record, meta


@settings(max_examples=300)
@given(records_and_meta())
def test_payload_codec_identity_on_bytes(record_meta):
    record, meta = record_meta
    data = payload_encode(record, meta)
    back, back_meta = payload_decode(data)
    assert payload_encode(back, back_meta) == data


# Byte spans of the six gated measurements, by validity bit. They are written
# here independently of the codec, and are the same for both protocols.
GATED_SPANS = {1: (7, 9), 2: (9, 10), 3: (10, 12), 4: (12, 14), 5: (14, 18), 6: (18, 22)}


def zero_clear_fields(data: bytes) -> bytes:
    """The canonical image of a payload: each field whose validity bit is
    clear holds zero."""
    out = bytearray(data)
    for bit, (start, end) in GATED_SPANS.items():
        if not out[6] & (1 << bit):
            out[start:end] = bytes(end - start)
    return bytes(out)


@st.composite
def candidate_payloads(draw):
    """Version byte, station type and length right; everything else drawn."""
    protocol = draw(st.sampled_from((Protocol.A5N1, Protocol.LCW)))
    station_word = draw(st.one_of(st.integers(0, 0x7F), st.integers(0, 0xFFFF)))
    size = 25 if protocol is Protocol.A5N1 else 23
    body = draw(st.binary(min_size=size, max_size=size))
    return zero_clear_fields(bytes([0x01, protocol.value]) + station_word.to_bytes(2, "big") + body)


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=32), candidate_payloads()))
def test_payload_decode_accepts_only_what_encode_gives_back(data):
    try:
        record, meta = payload_decode(data)
    except PayloadError:
        return
    assert payload_encode(record, meta) == zero_clear_fields(data)


@settings(max_examples=300)
@given(st.one_of(candidate_payloads(), records_and_meta().map(lambda rm: payload_encode(*rm))))
def test_record_line_is_what_the_json_encoder_writes(data):
    # the proof that a decoded payload holds only plain, finite ints and floats
    try:
        record, meta = payload_decode(data)
    except PayloadError:
        return
    assert _record_line(record, meta) == json.dumps(record_to_obj(record) | vars(meta))


def _wire_int(text: str) -> int:
    return 2**32 - 1 if text == "2^32-1" else int(text)


def test_readme_states_the_payload_layout():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Uplink payload", 1)[1].split("\n\n| offset |", 1)[1]
    rows = [line.split(" | ") for line in table.split("\n\n", 1)[0].splitlines()
            if line.startswith("| ") and "`" in line]
    offsets = {}
    for protocol, (layout, fields) in _PAYLOADS.items():
        at = struct.calcsize(_HEADER)
        for f in fields:
            offsets[protocol, f.name] = at
            at += struct.calcsize(">" + f.code)
        assert at == layout.size
    assert [re.search(r"`(\w+)`", row[2]).group(1) for row in rows] == [f.name for f in _FIELDS]
    for f, (offset, width, name, scale, wire) in zip(_FIELDS, rows):
        a5n1, lcw = re.fullmatch(r"\| (\d+)(?: \(LCW (\d+)\))?", offset).groups()
        assert int(a5n1) == offsets[Protocol.A5N1, f.name]
        if "A5N1 only" in name:
            assert (Protocol.LCW, f.name) not in offsets
        else:
            assert int(lcw or a5n1) == offsets[Protocol.LCW, f.name]
        assert int(width) == struct.calcsize(">" + f.code)
        assert ("signed" in name) == f.code.islower()
        assert int(scale) == PAYLOAD_SCALE.get(f.name, 1) == f.scale
        lo, hi = wire.rstrip(" |").split("..")
        assert (_wire_int(lo), _wire_int(hi)) == (f.lo, f.hi)


# ---------------------------------------------------------------------------
# frames

def test_frame_build_lengths():
    session = fresh_session()
    frame = frame_build(session, payload_encode(full_record()))
    assert len(frame) == 42
    assert session.fcnt_up == 1
    empty = frame_build(session, b"")
    assert len(empty) == 12


def test_frame_roundtrip_and_replay():
    session = fresh_session()
    payload = payload_encode(full_record())
    frame = frame_build(session, payload)
    server = fresh_session()
    got, fcnt = frame_parse(frame, server)
    assert got == payload
    assert fcnt == 0
    with pytest.raises(CounterError):        # replayed frame, same counter
        frame_parse(frame, server)


def test_frame_tamper_detection_every_byte():
    session = fresh_session()
    frame = frame_build(session, payload_encode(full_record()))
    server = fresh_session()
    for pos in range(len(frame)):
        for delta in (0x01, 0x80, 0xFF):
            mutated = bytearray(frame)
            mutated[pos] ^= delta
            with pytest.raises((MicMismatchError, CounterError, UnsupportedMhdrError,
                                PayloadError, ValueError)):
                frame_parse(bytes(mutated), fresh_session())


def test_frame_counter_window():
    session = fresh_session()
    payload = b"\x01\x02"
    frames = [frame_build(session, payload) for _ in range(20)]
    server = fresh_session()
    # frame 16 is at the edge of the resync window, frame 17 beyond it
    _, fcnt = frame_parse(frames[16], server)
    assert fcnt == 16
    with pytest.raises(CounterError):
        frame_parse(frames[17], fresh_session())


def test_frame_keystream_involution_all_lengths():
    rng = random.Random(7)
    for n in range(0, 223):
        session = fresh_session()
        payload = bytes(rng.randrange(256) for _ in range(n))
        frame = frame_build(session, payload)
        got, _ = frame_parse(frame, fresh_session())
        assert got == payload


def test_frame_roundtrip_1000_random_payloads_and_keys():
    rng = random.Random(41)
    for _ in range(1000):
        dev_addr = bytes(rng.randrange(256) for _ in range(4))
        nwk = bytes(rng.randrange(256) for _ in range(16))
        app = bytes(rng.randrange(256) for _ in range(16))
        fcnt = rng.randrange(2**20)
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 223)))
        sender = AbpSession(dev_addr, nwk, app, fcnt_up=fcnt)
        frame = frame_build(sender, payload)
        got, got_fcnt = frame_parse(frame, AbpSession(dev_addr, nwk, app, fcnt_up=fcnt))
        assert got == payload and got_fcnt == fcnt


@st.composite
def candidate_frames(draw):
    """Some or all of a header this session accepts, then drawn bytes."""
    header = (bytes([0x40]) + bytes.fromhex(KEYS["dev_addr"])[::-1] + b"\x00"
              + draw(st.integers(0, 20)).to_bytes(2, "little"))
    head = header[:draw(st.sampled_from((1, 5, 8)))]
    return head + draw(st.binary(max_size=MAX_PHY_PAYLOAD + 8 - len(head)))


@settings(max_examples=200)
@given(st.one_of(st.binary(max_size=300), candidate_frames()))
def test_frame_parse_raises_only_frame_error(data):
    try:
        frame_parse(data, fresh_session())
    except FrameError:
        pass


def test_frame_payload_too_long():
    with pytest.raises(PayloadError):
        frame_build(fresh_session(), bytes(223))


def test_frame_parse_against_independent_oracle():
    session = fresh_session(fport=42)
    payload = payload_encode(full_record())
    frame = frame_build(session, payload)
    parsed = parse_uplink(frame, bytes.fromhex(KEYS["nwk_skey"]),
                          bytes.fromhex(KEYS["app_skey"]))
    assert parsed["payload"] == payload
    assert parsed["fcnt"] == 0
    assert parsed["fport"] == 42
    assert parsed["dev_addr"] == bytes.fromhex(KEYS["dev_addr"])


def test_long_lived_session_against_independent_oracle():
    # one device session and one server session carry their AES contexts
    # across every frame; the oracle keys its own on each call
    rng = random.Random(3)
    nwk, app = bytes.fromhex(KEYS["nwk_skey"]), bytes.fromhex(KEYS["app_skey"])
    device, server = fresh_session(fport=7), fresh_session()
    for i in range(333):
        payload = rng.randbytes(1 + i % MAX_FRM_PAYLOAD)
        frame = frame_build(device, payload)
        parsed = parse_uplink(frame, nwk, app)
        assert (parsed["payload"], parsed["fcnt"], parsed["fport"]) == (payload, i, 7)
        assert frame_parse(frame, server) == (payload, i)


def test_session_identity_fixed_at_construction():
    session = fresh_session()
    for name, value in (("dev_addr", bytes(4)), ("nwk_skey", bytes(16)),
                        ("app_skey", bytes(16)), ("fport", 2)):
        with pytest.raises(AttributeError):
            setattr(session, name, value)
    assert session == fresh_session()
    session.fcnt_up = 7                                 # the counter alone moves
    assert frame_parse(frame_build(fresh_session(fcnt_up=7), b"\x01"), session) == (b"\x01", 7)
    # both keys are given there: no all-zero key stands in for one left out
    for name in ("nwk_skey", "app_skey"):
        with pytest.raises(TypeError):
            AbpSession(**{k: v for k, v in KEYS.items() if k != name})


@pytest.mark.parametrize("kw", [
    {"dev_addr": None}, {"dev_addr": 5}, {"nwk_skey": None}, {"app_skey": list(range(16))},
    {"fport": "1"}, {"fport": True}, {"fport": 1.0},
    {"fcnt_up": 1.5}, {"fcnt_up": True}, {"fcnt_up": "0"}, {"fcnt_up": None},
])
def test_session_rejects_wrong_types(kw):
    with pytest.raises(ValueError):
        AbpSession(**{**KEYS, **kw})


@pytest.mark.parametrize("fcnt,message", [
    (1.5, "fcnt_up 1.5 is not a 32-bit counter"),
    (-1, "fcnt_up -1 is not a 32-bit counter"),
    (True, "fcnt_up True is not a 32-bit counter"),
    (None, "fcnt_up None is not a 32-bit counter"),
    (2**32, "uplink counter exhausted"),
    (2**40, "uplink counter exhausted"),
])
def test_frame_functions_reject_an_assigned_bad_counter(fcnt, message):
    # the constructor checks the counter, but fcnt_up stays assignable
    device, server = fresh_session(), fresh_session()
    frame = frame_build(fresh_session(), b"\x01")
    device.fcnt_up = server.fcnt_up = fcnt
    with pytest.raises(CounterError) as info:
        frame_build(device, b"\x01")
    assert str(info.value) == message
    with pytest.raises(CounterError) as info:
        frame_parse(frame, server)
    assert str(info.value) == message
    assert device.fcnt_up is fcnt and server.fcnt_up is fcnt


def test_session_takes_bytes_like_keys():
    raw = {name: bytes.fromhex(value) for name, value in KEYS.items()}
    assert AbpSession(**{name: bytearray(v) for name, v in raw.items()}) == fresh_session()
    assert AbpSession(**{name: memoryview(v) for name, v in raw.items()}) == fresh_session()


def test_frame_parse_advances_counter_only_past_accepted_frames():
    # one server session fed a seeded mix; it starts below a 16-bit rollover
    rng = random.Random(15)
    server = fresh_session(fcnt_up=0xFFF0)
    accepted, seen = [], Counter()
    for _ in range(500):
        kind = rng.choice(("accepted", "tampered", "replayed", "foreign", "beyond window"))
        if kind == "replayed" and not accepted:
            kind = "accepted"
        seen[kind] += 1
        expected = server.fcnt_up
        fcnt = expected + rng.randrange(FCNT_RESYNC_WINDOW + 1)
        payload = rng.randbytes(rng.randrange(30))
        if kind == "accepted":
            frame = frame_build(fresh_session(fcnt_up=fcnt), payload)
            assert frame_parse(frame, server) == (payload, fcnt)
            assert server.fcnt_up == fcnt + 1
            accepted.append(frame)
            continue
        if kind == "tampered":
            frame = bytearray(frame_build(fresh_session(fcnt_up=fcnt), payload))
            frame[-1 - rng.randrange(4)] ^= 1 << rng.randrange(8)
            error = MicMismatchError
        elif kind == "replayed":
            frame, error = rng.choice(accepted), CounterError
        elif kind == "foreign":
            foreign = AbpSession("26011158", KEYS["nwk_skey"], KEYS["app_skey"], fcnt_up=fcnt)
            frame, error = frame_build(foreign, payload), FrameError
        else:
            beyond = fresh_session(fcnt_up=expected + FCNT_RESYNC_WINDOW + 1 + rng.randrange(1000))
            frame, error = frame_build(beyond, payload), CounterError
        with pytest.raises(error):
            frame_parse(bytes(frame), server)
        assert server.fcnt_up == expected
    assert min(seen.values()) >= 50
    assert server.fcnt_up > 0x10000


def test_session_cache_stays_out_of_eq_and_repr():
    used = fresh_session()
    frame_parse(frame_build(fresh_session(), b"\x01"), used)
    assert used == fresh_session(fcnt_up=1)
    assert repr(used) == repr(fresh_session(fcnt_up=1))


def test_frame_parse_fport0_decrypts_with_nwk_skey():
    nwk = bytes.fromhex(KEYS["nwk_skey"])
    dev_addr_le = bytes.fromhex(KEYS["dev_addr"])[::-1]
    fcnt = 5
    plain = bytes(range(1, 21))                         # spans two keystream blocks
    enc = bytearray()
    for i in range(0, len(plain), 16):
        a = (bytes([0x01, 0, 0, 0, 0, 0]) + dev_addr_le
             + fcnt.to_bytes(4, "little") + bytes([0, i // 16 + 1]))
        enc += bytes(x ^ y for x, y in zip(plain[i:i + 16], aes_block(nwk, a)))
    msg = (bytes([0x40]) + dev_addr_le + b"\x00" + fcnt.to_bytes(2, "little")
           + b"\x00" + bytes(enc))
    b0 = (bytes([0x49, 0, 0, 0, 0, 0]) + dev_addr_le
          + fcnt.to_bytes(4, "little") + bytes([0, len(msg)]))
    frame = msg + oracle_cmac(nwk, b0 + msg)[:4]

    # an application frame first: one session then decrypts with each of its two keys
    server = fresh_session(fcnt_up=4)
    app_frame = frame_build(fresh_session(fcnt_up=4), b"\x09" * 20)
    assert frame_parse(app_frame, server) == (b"\x09" * 20, 4)
    assert frame_parse(frame, server) == (plain, fcnt)


def test_frame_parse_counter_rollover_is_counter_error():
    frame = frame_build(fresh_session(fcnt_up=0x10000), b"\x01\x02")   # 16-bit counter 0
    with pytest.raises(CounterError):
        frame_parse(frame, fresh_session(fcnt_up=0xFFFFFFFF))


def test_frame_parse_rejects_foreign_dev_addr():
    foreign = AbpSession("26011158", KEYS["nwk_skey"], KEYS["app_skey"])
    frame = frame_build(foreign, b"\x01\x02")
    with pytest.raises(FrameError) as info:
        frame_parse(frame, fresh_session())
    assert not isinstance(info.value, MicMismatchError)
    assert "DevAddr" in str(info.value)


def test_frame_parse_rejects_oversized_frame():
    # longer than a LoRa PHY payload can be; the MIC's B0 block has a
    # one-byte length field that such a frame would overflow
    frame = frame_build(fresh_session(), bytes(MAX_FRM_PAYLOAD))
    for size in (256, 300):
        too_long = frame[:9] + bytes(size - len(frame)) + frame[9:]
        with pytest.raises(FrameError):
            frame_parse(too_long, fresh_session())


def test_oracle_cmac_rfc4493_vectors():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    m = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710")
    vectors = [
        (m[:0], "bb1d6929e95937287fa37d129b756746"),
        (m[:16], "070a16b46b4d4144f79bdd9dd04a287c"),
        (m[:40], "dfa66747de9ae63030ca32611497c827"),
        (m[:64], "51f0bebf7e3b9d92fc49741779363cfe"),
    ]
    for msg, expected in vectors:
        assert oracle_cmac(key, msg).hex() == expected


def test_session_validation():
    with pytest.raises(ValueError):
        AbpSession("2601", KEYS["nwk_skey"], KEYS["app_skey"])
    with pytest.raises(ValueError):
        fresh_session(fport=0)
    with pytest.raises(ValueError):
        fresh_session(fport=224)


def test_session_counter_bound_at_construction():
    assert fresh_session(fcnt_up=2**32 - 1).fcnt_up == 2**32 - 1
    with pytest.raises(ValueError, match="is not a 32-bit counter"):
        fresh_session(fcnt_up=2**32)


# ---------------------------------------------------------------------------
# airtime

def test_airtime_sf9_42_bytes():
    assert airtime(RadioParams(sf=9), 42) * 1000 == pytest.approx(287.744, abs=1e-9)


def test_airtime_sf7_1_byte():
    assert airtime(RadioParams(sf=7), 1) * 1000 == pytest.approx(25.856, abs=1e-9)


def test_airtime_sf12_clamp():
    params = RadioParams(sf=12, crc_on=False)
    assert params.de == 1   # auto low-data-rate optimization at SF12/125k
    assert airtime(params, 0) * 1000 == pytest.approx(663.552, abs=1e-9)


def test_airtime_domain_errors():
    with pytest.raises(ValueError):
        RadioParams(sf=13)
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=100_000)
    with pytest.raises(ValueError):
        airtime(RadioParams(), 256)
    for coding_rate in (0, 5):
        with pytest.raises(ValueError, match="coding rate"):
            RadioParams(coding_rate=coding_rate)
    for preamble in (0, 0x10000, 10**400):
        with pytest.raises(ValueError):
            RadioParams(preamble_symbols=preamble)


@settings(max_examples=200)
@given(st.integers(7, 12), st.sampled_from((125_000, 250_000, 500_000)),
       st.integers(1, 4), st.integers(0, 254))
def test_airtime_monotone_in_payload(sf, bw, cr, pl):
    p = RadioParams(sf=sf, bandwidth_hz=bw, coding_rate=cr)
    assert airtime(p, pl + 1) >= airtime(p, pl)


@settings(max_examples=200)
@given(st.integers(7, 11), st.sampled_from((125_000, 250_000, 500_000)),
       st.integers(1, 4), st.integers(0, 255))
def test_airtime_monotone_in_sf(sf, bw, cr, pl):
    p1 = RadioParams(sf=sf, bandwidth_hz=bw, coding_rate=cr)
    p2 = RadioParams(sf=sf + 1, bandwidth_hz=bw, coding_rate=cr)
    assert airtime(p2, pl) >= airtime(p1, pl)


# ---------------------------------------------------------------------------
# duty cycle

def test_duty_cycle_wait_values():
    assert duty_cycle_wait(0.287744, 0.01) == pytest.approx(28.486656)
    assert duty_cycle_wait(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        duty_cycle_wait(0.1, 0.0)
    for t_air in (0.0, -0.287744):
        with pytest.raises(ValueError, match="airtime must be positive"):
            duty_cycle_wait(t_air, 0.01)


def governor_after(tx_end: float, t_air: float) -> DutyCycleGovernor:
    gov = DutyCycleGovernor(0.01)
    gov.note_transmission(tx_end, t_air)
    return gov


def test_governor_check():
    allowed, next_allowed = governor_after(10.0, 0.287744).check(10.0 + 28.0)
    assert not allowed
    assert next_allowed == pytest.approx(38.486656)
    allowed, _ = governor_after(10.0, 0.287744).check(10.0 + 29.0)
    assert allowed


def test_five_minute_interval_is_legal():
    # the 289 ms / 5 min operating point sits far below the 1% cap
    duty = 0.287744 / 300.0
    assert duty < 0.001
    allowed, _ = governor_after(0.0, 0.287744).check(300.0)
    assert allowed
