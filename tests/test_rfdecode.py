import contextlib
import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wxkit.cli import _record_line
from wxkit.core import Protocol, StationId, record_to_obj
from wxkit.rfdecode import (
    A5N1_ONE_US,
    A5N1_SYNC_US,
    A5N1_ZERO_US,
    LCW_FRAME_GAP_US,
    LCW_GAP_US,
    LCW_ONE_HIGH_US,
    LCW_ZERO_HIGH_US,
    A5N1_MSG_TEMP_HUMIDITY,
    A5N1_MSG_WIND_DIR_RAIN,
    BcdError,
    ChecksumError,
    DecodeError,
    FRAME_BITS,
    DigitRepeatError,
    LcwQuantity,
    MAX_PULSE_US,
    ParityError,
    PulseTrain,
    SyncError,
    UnknownMessageTypeError,
    ValueRangeError,
    bits_to_bytes,
    bits_to_nibbles,
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

STATION = StationId(Protocol.A5N1, 0x2A7, 2)
LCW_STATION = StationId(Protocol.LCW, 42, 0)


def _scaled(train: PulseTrain, factor: float) -> PulseTrain:
    return PulseTrain(train.first, tuple(max(1, round(d * factor)) for d in train.durations))


# ---------------------------------------------------------------------------
# pulse framing

def test_frame_pulses_roundtrip_single_frame():
    train = a5n1_to_pulses(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY,
                                            temperature_c=21.0, humidity_pct=50))
    runs = frame_pulses(train, protocol=Protocol.A5N1)
    assert len(runs) == 1
    assert len(runs[0]) == 64


def test_frame_pulses_tolerates_20pct_scaling():
    train = a5n1_to_pulses(build_a5n1_frame(STATION, A5N1_MSG_WIND_DIR_RAIN,
                                            wind_kph=12.0, wind_dir_deg=90.0, rain_mm=5.08))
    runs = frame_pulses(train, protocol=Protocol.A5N1)
    scaled = frame_pulses(_scaled(train, 1.2), protocol=Protocol.A5N1)
    assert scaled == runs


def test_frame_pulses_uniform_train_yields_nothing():
    train = PulseTrain("H", (1000,) * 40)
    assert frame_pulses(train, protocol=Protocol.A5N1) == []


def test_frame_pulses_back_to_back_frames():
    t1 = a5n1_to_pulses(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY, temperature_c=10.0))
    t2 = a5n1_to_pulses(build_a5n1_frame(STATION, A5N1_MSG_WIND_DIR_RAIN, wind_dir_deg=45.0))
    joined = PulseTrain("H", t1.durations + t2.durations)
    runs = frame_pulses(joined, protocol=Protocol.A5N1)
    assert [len(r) for r in runs] == [64, 64]


def test_frame_pulses_lcw_concatenation():
    t1 = lcw_to_pulses(build_lcw_frame(LcwQuantity.TEMP, 25.3, LCW_STATION))
    t2 = lcw_to_pulses(build_lcw_frame(LcwQuantity.HUMIDITY, 60.0, LCW_STATION))
    joined = PulseTrain("H", t1.durations + t2.durations)
    runs = frame_pulses(joined, protocol=Protocol.LCW)
    assert [len(r) for r in runs] == [52, 52]


@settings(max_examples=60)
@given(st.floats(0.7, 1.3))
def test_frame_pulses_scale_property(factor):
    train = a5n1_to_pulses(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY,
                                            temperature_c=3.3, humidity_pct=70, wind_kph=20.0))
    assert frame_pulses(_scaled(train, factor), protocol=Protocol.A5N1) == \
        frame_pulses(train, protocol=Protocol.A5N1)


@settings(max_examples=60)
@given(st.floats(0.7, 1.3))
def test_frame_pulses_scale_property_lcw(factor):
    train = lcw_to_pulses(build_lcw_frame(LcwQuantity.WIND_SPEED, 4.4, LCW_STATION))
    assert frame_pulses(_scaled(train, factor), protocol=Protocol.LCW) == \
        frame_pulses(train, protocol=Protocol.LCW)


@settings(max_examples=100)
@given(st.lists(st.integers(1, 20_000), min_size=0, max_size=80),
       st.booleans(), st.sampled_from((Protocol.A5N1, Protocol.LCW)))
def test_frame_pulses_never_raises_on_arbitrary_trains(durations, starts_low, protocol):
    train = PulseTrain("L" if starts_low else "H", tuple(durations))
    for run in frame_pulses(train, protocol=protocol):
        assert set(run) <= {"0", "1"}


def framer_corpus():
    """Seeded pulse trains for the framer pin, in three kinds: random
    durations; jittered nominal pairs of both protocols; and 1-3 valid frames
    of either protocol joined, scaled by 0.6-1.4, jittered per pulse, with up
    to 5 clobbered pulses and trimmed ends. A train may start with a low and
    may end with a lone high."""
    rng = random.Random(10)
    nominal = (A5N1_SYNC_US, A5N1_ONE_US, A5N1_ZERO_US,
               *((high, low) for high in (LCW_ZERO_HIGH_US, LCW_ONE_HIGH_US)
                 for low in (LCW_GAP_US, LCW_FRAME_GAP_US)))
    for n in range(1500):
        kind = n % 3
        starts_low = rng.random() < 0.5
        if kind == 0:
            durations = [rng.randint(1, 20_000) for _ in range(rng.randint(0, 80))]
        elif kind == 1:
            durations = [max(1, round(d * rng.uniform(0.6, 1.4))) for _ in range(rng.randint(0, 30))
                         for d in rng.choice(nominal) * rng.randint(1, 5)]
            if starts_low:
                durations.insert(0, rng.randint(1, 20_000))
            if rng.random() < 0.5:
                durations.append(rng.randint(1, 20_000))
        else:
            frames = [a5n1_to_pulses(rng.getrandbits(64).to_bytes(8, "big")) if rng.random() < 0.5
                      else lcw_to_pulses(tuple(rng.randrange(16) for _ in range(13)))
                      for _ in range(rng.randint(1, 3))]
            scale = rng.uniform(0.6, 1.4)
            durations = [max(1, round(d * scale * rng.uniform(0.9, 1.1)))
                         for frame in frames for d in frame.durations]
            for _ in range(rng.randint(0, 5)):
                durations[rng.randrange(len(durations))] = rng.randint(1, 20_000)
            front = rng.randint(0, 3)
            durations = durations[front:len(durations) - rng.randint(0, 3)]
            starts_low = front % 2 == 1
        yield PulseTrain("L" if starts_low else "H", tuple(durations))


def test_frame_pulses_pinned():
    """The runs both framers find in every corpus train are pinned: a
    framer rewrite must keep this hash."""
    h = hashlib.sha256()
    whole_frames = Counter()
    for train in framer_corpus():
        for protocol in (Protocol.A5N1, Protocol.LCW):
            runs = frame_pulses(train, protocol=protocol)
            whole_frames[protocol] += sum(len(run) == FRAME_BITS[protocol] for run in runs)
            h.update(f"{protocol.label} {','.join(runs)}\n".encode())
    assert whole_frames == {Protocol.A5N1: 43, Protocol.LCW: 48}
    assert h.hexdigest() == "8285c192afde3ce448ecaf6df21cea613d34614d2c8891a7c4640e043b3e9dd4"


@settings(max_examples=100)
@given(st.sampled_from("HL"), st.lists(st.integers(1, MAX_PULSE_US), min_size=1, max_size=40))
@example("H", a5n1_to_pulses(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY)).durations)
@example("H", ())   # a comment-only text is the one empty train, PulseTrain("H", ())
def test_pulse_train_text_roundtrip(first, durations):
    train = PulseTrain(first, tuple(durations))
    text = train.to_text()
    assert PulseTrain.from_text(text) == train
    assert PulseTrain.from_text("# comment\n\n" + text) == train


def test_pulse_train_alternation_enforced():
    with pytest.raises(ValueError, match="line 2: levels must strictly alternate"):
        PulseTrain.from_text("H 100\nH 100\n")
    with pytest.raises(ValueError, match="first level"):
        PulseTrain("X", (100,))
    for bad in (0, MAX_PULSE_US + 1):
        with pytest.raises(ValueError, match="durations must be in"):
            PulseTrain("H", (600, bad))


@pytest.mark.parametrize("durations,bad", [
    ((1.5, True), "1.5"), ((600, True), "True"), ((600, 600.0), "600.0"),
    ((600, "600"), "'600'"), ((600, None), "None"),
])
def test_pulse_train_rejects_non_int_durations(durations, bad):
    # to_text would write a line from_text rejects, e.g. 'H 1.5\nL True\n'
    with pytest.raises(ValueError, match=f"^durations must be integers, not {bad}$"):
        PulseTrain("H", durations)


# ---------------------------------------------------------------------------
# a5n1 decode

def _bits(station=STATION, msg=A5N1_MSG_TEMP_HUMIDITY, **kw) -> str:
    return bytes_to_bits(build_a5n1_frame(station, msg, **kw))


def test_decode_a5n1_temp_frame_offsets_cancel():
    # raw 400 -> 0.0 F; zero wind stays zero
    bits = _bits(temperature_c=(0.0 - 32) * 5 / 9, humidity_pct=45, wind_kph=0.0)
    rec = decode_a5n1(bits)
    assert rec.wind_speed_kph == 0.0
    assert rec.temperature_c == pytest.approx(-17.7778, abs=1e-3)
    assert rec.humidity_pct == 45.0


def test_decode_a5n1_temp_raw_1115():
    # 71.5 F = 21.944 C, hand-evaluated from raw/10 - 40
    frame = bytearray(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY))
    raw = 1115
    from wxkit.rfdecode import _with_parity
    frame[4] = _with_parity(raw >> 4)
    frame[5] = _with_parity((raw & 0xF) << 3)
    frame[7] = sum(frame[:7]) & 0xFF
    rec = decode_a5n1(bytes_to_bits(bytes(frame)))
    assert rec.temperature_c == pytest.approx(21.9444, abs=1e-3)


def test_decode_a5n1_wind_dir_rain():
    bits = _bits(msg=A5N1_MSG_WIND_DIR_RAIN, wind_dir_deg=90.0, rain_mm=0.254)
    rec = decode_a5n1(bits)
    assert rec.wind_dir_deg == 90.0
    assert rec.rain_mm == pytest.approx(0.254)
    assert rec.wind_dir_deg is not None and rec.rain_mm is not None and rec.temperature_c is None


def test_decode_a5n1_checksum_error():
    frame = bytearray(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY))
    frame[7] = (frame[7] + 1) & 0xFF
    with pytest.raises(ChecksumError):
        decode_a5n1(bytes_to_bits(bytes(frame)))


def test_decode_a5n1_parity_error_names_byte():
    frame = bytearray(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY))
    frame[4] ^= 0x80           # flip only the parity bit
    frame[7] = sum(frame[:7]) & 0xFF   # keep checksum consistent
    with pytest.raises(ParityError) as exc:
        decode_a5n1(bytes_to_bits(bytes(frame)))
    assert exc.value.byte_index == 4


def test_decode_a5n1_unknown_message_type():
    frame = bytearray(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY))
    frame[2] = 0x12   # even parity already; type 0x12 unknown
    frame[7] = sum(frame[:7]) & 0xFF
    with pytest.raises(UnknownMessageTypeError):
        decode_a5n1(bytes_to_bits(bytes(frame)))


@pytest.mark.parametrize("humidity", [101, 127])
def test_decode_a5n1_humidity_above_100_rejected(humidity):
    # the payload carries 0..100 %, so a decoded record must stay within it
    frame = bytearray(build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY, humidity_pct=100))
    assert decode_a5n1(bytes_to_bits(bytes(frame))).humidity_pct == 100.0
    from wxkit.rfdecode import _with_parity
    frame[6] = _with_parity(humidity)
    frame[7] = sum(frame[:7]) & 0xFF
    with pytest.raises(ValueRangeError, match=f"^humidity {humidity} outside 0..100$"):
        decode_a5n1(bytes_to_bits(bytes(frame)))


def test_decode_a5n1_station_identity():
    bits = _bits()
    rec = decode_a5n1(bits)
    assert rec.station == STATION
    assert rec.sensor_battery_ok


def test_decode_a5n1_battery_low():
    bits = _bits(battery_ok=False)
    rec = decode_a5n1(bits)
    assert not rec.sensor_battery_ok


@settings(max_examples=200)
@given(st.integers(0, 2**64 - 1))
def test_decode_a5n1_never_panics(value):
    bits = f"{value:064b}"
    try:
        decode_a5n1(bits)
    except DecodeError:
        pass


# ---------------------------------------------------------------------------
# a5n1 encode round trips

def test_encode_a5n1_mostly_zero_checksum():
    frame = build_a5n1_frame(StationId(Protocol.A5N1, 0, 0),
                             A5N1_MSG_WIND_DIR_RAIN, battery_ok=False)
    assert frame[3:7] == bytes(4)
    assert frame[7] == (frame[0] + frame[1] + frame[2]) & 0xFF


def test_encode_a5n1_range_errors():
    for humidity in (101, 127, 128, -1):
        with pytest.raises(ValueRangeError, match="outside 0..100"):
            build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY, humidity_pct=humidity)
    with pytest.raises(ValueRangeError):
        build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY, temperature_c=100.0)
    with pytest.raises(ValueRangeError):
        build_a5n1_frame(STATION, A5N1_MSG_WIND_DIR_RAIN, wind_dir_deg=360.0)
    with pytest.raises(ValueRangeError):
        build_a5n1_frame(STATION, A5N1_MSG_WIND_DIR_RAIN, wind_kph=120.0)
    with pytest.raises(ValueRangeError):
        build_a5n1_frame(STATION, A5N1_MSG_WIND_DIR_RAIN, wind_kph=float("inf"))
    with pytest.raises(ValueRangeError):
        build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY, temperature_c=float("nan"))
    with pytest.raises(ValueRangeError, match="rain total is negative"):
        build_a5n1_frame(STATION, A5N1_MSG_WIND_DIR_RAIN, rain_mm=-0.1)
    with pytest.raises(ValueRangeError, match="exceeds the 14-bit counter"):
        build_a5n1_frame(STATION, A5N1_MSG_WIND_DIR_RAIN, rain_mm=0x4000 * 0.254)
    with pytest.raises(ValueError, match="station protocol must be A5N1"):
        build_a5n1_frame(LCW_STATION, A5N1_MSG_TEMP_HUMIDITY)
    with pytest.raises(UnknownMessageTypeError, match="message type 0x32"):
        build_a5n1_frame(STATION, 0x32)


def test_encode_decode_a5n1_random_field_sets():
    rng = random.Random(20_240_817)
    for _ in range(1000):
        station = StationId(Protocol.A5N1, rng.randrange(0x4000), rng.randrange(4))
        battery = rng.random() < 0.5
        wind_raw = rng.randrange(128)
        wind_kph = 0.0 if wind_raw == 0 else 0.8278 * wind_raw + 1.0
        if rng.random() < 0.5:
            dir_code = rng.randrange(16)
            tips = rng.randrange(0x4000)
            train = a5n1_to_pulses(build_a5n1_frame(station, A5N1_MSG_WIND_DIR_RAIN,
                                                    battery_ok=battery, wind_kph=wind_kph,
                                                    wind_dir_deg=dir_code * 22.5,
                                                    rain_mm=tips * 0.254))
            runs = frame_pulses(train, protocol=Protocol.A5N1)
            assert len(runs) == 1
            rec = decode_a5n1(runs[0])
            assert rec.wind_dir_deg == dir_code * 22.5
            assert rec.rain_mm == pytest.approx(tips * 0.254)
        else:
            temp_raw = rng.randrange(0x800)
            temp_c = ((temp_raw / 10 - 40) - 32) * 5 / 9
            hum = rng.randrange(101)
            train = a5n1_to_pulses(build_a5n1_frame(station, A5N1_MSG_TEMP_HUMIDITY,
                                                    battery_ok=battery, wind_kph=wind_kph,
                                                    temperature_c=temp_c, humidity_pct=hum))
            runs = frame_pulses(train, protocol=Protocol.A5N1)
            assert len(runs) == 1
            rec = decode_a5n1(runs[0])
            assert rec.temperature_c == pytest.approx(temp_c, abs=0.006)
            assert rec.humidity_pct == hum
        assert rec.station == station
        assert rec.sensor_battery_ok == battery
        assert rec.wind_speed_kph == pytest.approx(wind_kph, abs=1e-9)


def test_a5n1_single_bit_flip_always_detected():
    frame = build_a5n1_frame(STATION, A5N1_MSG_TEMP_HUMIDITY,
                             temperature_c=21.0, humidity_pct=45, wind_kph=5.0)
    base = bytes_to_bits(frame)
    for pos in range(56):   # all payload bits, bytes 0..6
        flipped = base[:pos] + ("1" if base[pos] == "0" else "0") + base[pos + 1:]
        with pytest.raises(DecodeError):
            decode_a5n1(flipped)


# ---------------------------------------------------------------------------
# lcw

def test_decode_lcw_temp():
    nibbles = build_lcw_frame(LcwQuantity.TEMP, 25.3, LCW_STATION)
    assert nibbles[4:7] == (6, 5, 3)
    assert nibbles[12] == sum(nibbles[:12]) % 16
    rec = decode_lcw(nibbles_to_bits(nibbles))
    assert rec.temperature_c == pytest.approx(25.3)
    assert rec.station == LCW_STATION


def test_decode_lcw_zero_humidity():
    nibbles = build_lcw_frame(LcwQuantity.HUMIDITY, 0.0, LCW_STATION)
    rec = decode_lcw(nibbles_to_bits(nibbles))
    assert rec.humidity_pct == 0.0
    assert rec.humidity_pct is not None


def test_decode_lcw_digit_repeat_error():
    nibbles = list(build_lcw_frame(LcwQuantity.TEMP, 25.3, LCW_STATION))
    nibbles[10] = (nibbles[10] + 1) % 10
    nibbles[12] = sum(nibbles[:12]) % 16
    with pytest.raises(DigitRepeatError):
        decode_lcw(nibbles_to_bits(tuple(nibbles)))


def test_decode_lcw_sync_error():
    nibbles = list(build_lcw_frame(LcwQuantity.TEMP, 25.3, LCW_STATION))
    nibbles[0] = 0xA
    nibbles[12] = sum(nibbles[:12]) % 16
    with pytest.raises(SyncError):
        decode_lcw(nibbles_to_bits(tuple(nibbles)))


def test_decode_lcw_checksum_error():
    nibbles = list(build_lcw_frame(LcwQuantity.TEMP, 25.3, LCW_STATION))
    nibbles[12] = (nibbles[12] + 1) % 16
    with pytest.raises(ChecksumError):
        decode_lcw(nibbles_to_bits(tuple(nibbles)))


def test_decode_lcw_bcd_error():
    nibbles = list(build_lcw_frame(LcwQuantity.TEMP, 25.3, LCW_STATION))
    nibbles[6] = 0xB
    nibbles[12] = sum(nibbles[:12]) % 16
    with pytest.raises(BcdError):
        decode_lcw(nibbles_to_bits(tuple(nibbles)))


@pytest.mark.parametrize("position", [4, 5, 6])
def test_decode_lcw_bcd_error_at_first_non_digit(position):
    # 0xA is the smallest nibble that is not a decimal digit
    nibbles = list(build_lcw_frame(LcwQuantity.TEMP, 25.3, LCW_STATION))
    nibbles[position] = 0xA
    nibbles[10], nibbles[11] = nibbles[4], nibbles[5]
    nibbles[12] = sum(nibbles[:12]) % 16
    with pytest.raises(BcdError):
        decode_lcw(nibbles_to_bits(tuple(nibbles)))


def test_decode_lcw_unknown_quantity():
    nibbles = list(build_lcw_frame(LcwQuantity.TEMP, 25.3, LCW_STATION))
    nibbles[1] = 7
    nibbles[12] = sum(nibbles[:12]) % 16
    with pytest.raises(UnknownMessageTypeError):
        decode_lcw(nibbles_to_bits(tuple(nibbles)))


def test_decode_lcw_wind_dir_range():
    nibbles = list(build_lcw_frame(LcwQuantity.WIND_DIR, 337.5, LCW_STATION))
    assert decode_lcw(nibbles_to_bits(tuple(nibbles))).wind_dir_deg == 337.5
    nibbles[1] = int(LcwQuantity.WIND_DIR)
    nibbles[4], nibbles[5], nibbles[6] = 0, 1, 6   # code 16 is out of range
    nibbles[10], nibbles[11] = nibbles[4], nibbles[5]
    nibbles[12] = sum(nibbles[:12]) % 16
    with pytest.raises(ValueRangeError):
        decode_lcw(nibbles_to_bits(tuple(nibbles)))


def test_encode_lcw_value_range():
    with pytest.raises(ValueRangeError):
        build_lcw_frame(LcwQuantity.TEMP, 60.0, LCW_STATION)   # V would be 1000
    with pytest.raises(ValueRangeError):
        build_lcw_frame(LcwQuantity.HUMIDITY, -1.0, LCW_STATION)
    with pytest.raises(ValueRangeError):
        build_lcw_frame(LcwQuantity.TEMP, float("inf"), LCW_STATION)
    with pytest.raises(ValueError, match="station protocol must be LCW"):
        build_lcw_frame(LcwQuantity.TEMP, 20.0, STATION)
    # the A5N1 rule: [0, 360), no wrap
    for deg in (360.0, 400.0, -22.5, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueRangeError, match=r"outside \[0, 360\)"):
            build_lcw_frame(LcwQuantity.WIND_DIR, deg, LCW_STATION)
    for deg, decoded in ((0.0, 0.0), (337.5, 337.5), (349.0, 0.0), (359.9, 0.0)):
        bits = nibbles_to_bits(build_lcw_frame(LcwQuantity.WIND_DIR, deg, LCW_STATION))
        assert decode_lcw(bits).wind_dir_deg == decoded
    # A5N1's sign rule: a rain total or wind speed below zero is out of range,
    # though it would round to code 0; humidity rounds, as in both codecs
    for quantity, value in ((LcwQuantity.RAIN, -0.1), (LcwQuantity.WIND_SPEED, -0.04)):
        with pytest.raises(ValueRangeError, match=f"^{quantity.name.lower()} value {value} is not"):
            build_lcw_frame(quantity, value, LCW_STATION)
        assert build_lcw_frame(quantity, -0.0, LCW_STATION)[4:7] == (0, 0, 0)
    assert build_lcw_frame(LcwQuantity.HUMIDITY, -0.04, LCW_STATION)[4:7] == (0, 0, 0)


def test_lcw_single_nibble_substitutions_detected():
    nibbles = build_lcw_frame(LcwQuantity.TEMP, 25.3, LCW_STATION)
    for i in range(13):
        for sub in range(16):
            if sub == nibbles[i]:
                continue
            mutated = nibbles[:i] + (sub,) + nibbles[i + 1:]
            with pytest.raises(DecodeError):
                decode_lcw(nibbles_to_bits(mutated))


def test_encode_decode_lcw_random_values():
    rng = random.Random(99)
    for _ in range(1000):
        station = StationId(Protocol.LCW, rng.randrange(128), 0)
        battery = rng.random() < 0.5
        quantity = LcwQuantity(rng.randrange(5))
        v = rng.randrange(16 if quantity is LcwQuantity.WIND_DIR else 1000)
        physical = {
            LcwQuantity.TEMP: v / 10 - 40,
            LcwQuantity.HUMIDITY: v / 10,
            LcwQuantity.RAIN: v * 0.518,
            LcwQuantity.WIND_SPEED: v / 10,
            LcwQuantity.WIND_DIR: v * 22.5,
        }[quantity]
        train = lcw_to_pulses(build_lcw_frame(quantity, physical, station, battery_ok=battery))
        runs = frame_pulses(train, protocol=Protocol.LCW)
        assert len(runs) == 1
        rec = decode_lcw(runs[0])
        assert rec.station == station
        assert rec.sensor_battery_ok == battery
        expected_kph = physical * 3.6 if quantity is LcwQuantity.WIND_SPEED else None
        field = {
            LcwQuantity.TEMP: rec.temperature_c,
            LcwQuantity.HUMIDITY: rec.humidity_pct,
            LcwQuantity.RAIN: rec.rain_mm,
            LcwQuantity.WIND_SPEED: rec.wind_speed_kph,
            LcwQuantity.WIND_DIR: rec.wind_dir_deg,
        }[quantity]
        assert field == pytest.approx(expected_kph if expected_kph is not None else physical,
                                      abs=1e-9)


@settings(max_examples=200)
@given(st.integers(0, 2**52 - 1))
def test_decode_lcw_never_panics(value):
    bits = f"{value:052b}"
    try:
        decode_lcw(bits)
    except DecodeError:
        pass


# ---------------------------------------------------------------------------
# decoder pin

def _flip(bits: str, pos: int) -> str:
    return bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1:]


def _valid_frame(rng: random.Random, protocol: Protocol) -> str:
    """The bits of a builder frame with random in-range fields."""
    battery = rng.random() < 0.5
    if protocol is Protocol.A5N1:
        station = StationId(Protocol.A5N1, rng.randrange(0x4000), rng.randrange(4))
        return bytes_to_bits(build_a5n1_frame(
            station, rng.choice((A5N1_MSG_WIND_DIR_RAIN, A5N1_MSG_TEMP_HUMIDITY)),
            battery_ok=battery, wind_kph=rng.uniform(0.0, 100.0),
            wind_dir_deg=rng.randrange(16) * 22.5, rain_mm=rng.uniform(0.0, 4000.0),
            temperature_c=rng.uniform(-40.0, 73.0), humidity_pct=rng.randrange(101)))
    station = StationId(Protocol.LCW, rng.randrange(128), 0)
    quantity = LcwQuantity(rng.randrange(5))
    v = rng.randrange(16 if quantity is LcwQuantity.WIND_DIR else 1000)
    physical = (v / 10 - 40, v / 10, v * 0.518, v / 10, v * 22.5)[quantity]
    return nibbles_to_bits(build_lcw_frame(quantity, physical, station, battery_ok=battery))


def _with_checksum(bits: str, protocol: Protocol) -> str:
    """``bits`` with its checksum recomputed, so the later checks run."""
    if protocol is Protocol.A5N1:
        data = bits_to_bytes(bits)
        return bytes_to_bits(data[:7] + bytes([sum(data[:7]) & 0xFF]))
    n = bits_to_nibbles(bits)
    return nibbles_to_bits(n[:12] + (sum(n[:12]) % 16,))


def decoder_corpus(protocol: Protocol):
    """Seeded bitstrings for the decoder pin, in five kinds: valid frames
    from the builder; the same frames with 1-3 random bit flips; such
    frames with their checksum recomputed; random bitstrings of the frame's
    length; and random bitstrings of any other length up to 80, or of the
    frame's length with one character that is not a bit."""
    rng = random.Random(f"decoder/{protocol.label}")
    nbits = FRAME_BITS[protocol]
    for n in range(1500):
        kind = n % 5
        if kind < 3:
            bits = _valid_frame(rng, protocol)
            if kind > 0:
                for pos in rng.sample(range(nbits), rng.randint(1, 3)):
                    bits = _flip(bits, pos)
            if kind == 2:
                bits = _with_checksum(bits, protocol)
        elif kind == 3:
            bits = "".join(rng.choice("01") for _ in range(nbits))
        elif rng.random() < 0.5:
            length = rng.choice([k for k in range(81) if k != nbits])
            bits = "".join(rng.choice("01") for _ in range(length))
        else:
            pos = rng.randrange(nbits)
            bits = _valid_frame(rng, protocol)
            bits = bits[:pos] + rng.choice("2 _+x") + bits[pos + 1:]
        yield bits


def test_decoders_pinned():
    """Each corpus outcome, the decoded record or the exception's class and
    message, is pinned: a codec rewrite must keep this hash."""
    h = hashlib.sha256()
    outcomes = Counter()
    for protocol, decode in ((Protocol.A5N1, decode_a5n1), (Protocol.LCW, decode_lcw)):
        for bits in decoder_corpus(protocol):
            try:
                record = decode(bits)
                kind, line = "record", json.dumps(record_to_obj(record))
            except ValueError as exc:
                kind = type(exc).__name__
                line = f"{kind}: {exc}"
            outcomes[protocol.label, kind] += 1
            h.update(f"{protocol.label} {bits} {line}\n".encode())
    assert outcomes == {
        ("a5n1", "record"): 378, ("a5n1", "ChecksumError"): 594, ("a5n1", "ParityError"): 227,
        ("a5n1", "UnknownMessageTypeError"): 1, ("a5n1", "ValueError"): 300,
        ("lcw", "record"): 406, ("lcw", "SyncError"): 375, ("lcw", "ChecksumError"): 259,
        ("lcw", "DigitRepeatError"): 138, ("lcw", "BcdError"): 7,
        ("lcw", "UnknownMessageTypeError"): 13, ("lcw", "ValueRangeError"): 2,
        ("lcw", "ValueError"): 300,
    }
    assert h.hexdigest() == "b5cc7eaea204ca090d52fb3d4e34b899d3ca730997806808b55c5c1a902b97fc"


# ---------------------------------------------------------------------------
# encoder pin

def _encoded(build, decode, to_hex) -> tuple[str, str]:
    """The outcome kind and line of one encoder call: the frame's hex and
    its decoded record, or the exception's class and message."""
    try:
        frame = build()
    except ValueError as exc:
        return type(exc).__name__, f"{type(exc).__name__}: {exc}"
    return "frame", f"{to_hex(frame)} {json.dumps(record_to_obj(decode(frame)))}"


def _lcw_inputs():
    """Each LCW quantity's encoder inputs: for every code -1..1000 the value
    the decoder gives for it, two off-grid values and a value that is not
    positive; then NaN and both infinities."""
    for quantity in LcwQuantity:
        def physical(c):
            return (c / 10 - 40, c / 10, c * 0.518, c / 10, c * 22.5)[quantity]
        for code in range(-1, 1001):
            on_grid = physical(code)
            yield from ((quantity, v) for v in (on_grid, physical(code + 0.25),
                                                physical(code + 0.5), -abs(on_grid)))
        yield from ((quantity, float(v)) for v in ("nan", "inf", "-inf"))


def _a5n1_inputs(records: int):
    """Seeded A5N1 encoder inputs: (station, message type, keyword arguments),
    each field drawn past both ends of its range, with a few non-finite
    values, an unknown message type and an LCW station among them."""
    rng = random.Random("encoder/a5n1")

    def draw(lo: float, hi: float) -> float:
        if rng.random() < 0.05:
            return rng.choice((float("nan"), float("inf"), float("-inf"), -0.0))
        return rng.uniform(lo, hi)

    for _ in range(records):
        station = (StationId(Protocol.A5N1, rng.randrange(0x4000), rng.randrange(4))
                   if rng.random() < 0.99 else LCW_STATION)
        message_type = (rng.choice((A5N1_MSG_WIND_DIR_RAIN, A5N1_MSG_TEMP_HUMIDITY))
                        if rng.random() < 0.99 else 0x32)
        wind_dir = rng.randrange(-2, 18) * 22.5 if rng.random() < 0.5 else draw(-10.0, 370.0)
        yield station, message_type, dict(
            battery_ok=rng.random() < 0.5, wind_kph=draw(-3.0, 110.0), wind_dir_deg=wind_dir,
            rain_mm=draw(-2.0, 4200.0), temperature_c=draw(-45.0, 80.0),
            humidity_pct=rng.randrange(-2, 103) if rng.random() < 0.5 else draw(-2.0, 103.0))


def encoder_outcomes(a5n1_records: int = 20_000):
    """(kind, line) per encoder call of the encoder pin: the LCW sweep, then
    ``a5n1_records`` A5N1 inputs. Each line names its inputs."""
    for quantity, value in _lcw_inputs():
        kind, line = _encoded(lambda: build_lcw_frame(quantity, value, LCW_STATION),
                              lambda n: decode_lcw(nibbles_to_bits(n)),
                              lambda n: "".join(map("{:x}".format, n)))
        yield f"lcw {kind}", f"lcw {quantity.name} {value!r} {line}"
    for station, message_type, fields in _a5n1_inputs(a5n1_records):
        kind, line = _encoded(lambda: build_a5n1_frame(station, message_type, **fields),
                              lambda b: decode_a5n1(bytes_to_bits(b)), bytes.hex)
        yield (f"a5n1 {kind}",
               f"a5n1 {station.protocol.label} {station.id} {station.channel} "
               f"{message_type:#04x} {fields!r} {line}")


def test_encoders_pinned():
    """Each encoder outcome, the frame and its decode or the exception's
    class and message, is pinned: a codec rewrite must keep this hash."""
    h = hashlib.sha256()
    outcomes = Counter()
    for kind, line in encoder_outcomes():
        outcomes[kind] += 1
        h.update(f"{line}\n".encode())
    assert outcomes == {
        "lcw frame": 12852, "lcw ValueRangeError": 7203,
        "a5n1 frame": 14611, "a5n1 ValueRangeError": 4959,
        "a5n1 UnknownMessageTypeError": 212, "a5n1 ValueError": 218,
    }
    assert h.hexdigest() == "f14978ebb9f9bbb7ae27835b02500c3fae7819202852e99ea76780fda8126e3e"


def test_record_line_is_what_the_json_encoder_writes():
    """Every record the decoders give on the encoder pin's grid holds only
    plain, finite ints and floats: the CLI's line for it is the encoder's."""
    frames = []     # (decoder, bits) of each frame the encoders build
    for quantity, value in _lcw_inputs():
        with contextlib.suppress(ValueError):
            frames.append((decode_lcw, nibbles_to_bits(build_lcw_frame(quantity, value, LCW_STATION))))
    for station, message_type, fields in _a5n1_inputs(20_000):
        with contextlib.suppress(ValueError):
            frames.append((decode_a5n1, bytes_to_bits(build_a5n1_frame(station, message_type, **fields))))
    assert len(frames) == 12852 + 14611      # the frames test_encoders_pinned counts
    for decode, bits in frames:
        record = decode(bits)
        assert _record_line(record) == json.dumps(record_to_obj(record)), record


# ---------------------------------------------------------------------------
# corrupted frames that still decode

def two_bit_flip_outcomes(protocol: Protocol) -> Counter:
    """Decode every 2-bit flip of six seeded builder frames; count "sender"
    (a record for the sending station), "foreign" (a record for another
    station) and each exception class."""
    decode = decode_a5n1 if protocol is Protocol.A5N1 else decode_lcw
    rng = random.Random(f"flips/{protocol.label}")
    outcomes = Counter()
    for _ in range(6):
        bits = _valid_frame(rng, protocol)
        sender = decode(bits).station
        for i, j in itertools.combinations(range(len(bits)), 2):
            try:
                record = decode(_flip(_flip(bits, i), j))
            except DecodeError as exc:
                outcomes[type(exc).__name__] += 1
            else:
                outcomes["sender" if record.station == sender else "foreign"] += 1
    return outcomes


def test_a5n1_two_bit_flips_never_decode_for_the_sender():
    # A record needs an even number of flips in each of bytes 2..6 (parity)
    # and an unchanged byte sum against byte 7 (checksum). Two flips in one
    # of bytes 2..6 move the sum by +-2^a +-2^b, never 0 mod 256, and leave
    # byte 7 alone; two flips in byte 7 move it but not the sum. So a frame
    # that decodes has a flip in byte 0 or 1, and all 16 of those bits are
    # the station's channel and id.
    outcomes = two_bit_flip_outcomes(Protocol.A5N1)
    assert sum(outcomes.values()) == 6 * 2016
    assert outcomes["sender"] == 0
    assert outcomes["foreign"] == 80


def test_lcw_two_bit_flips_that_decode_for_the_sender_pinned():
    # the 4-bit checksum and the repeated digits are the only redundancy,
    # so a few corrupted frames still pass as the sender's: 142 of 7956
    outcomes = two_bit_flip_outcomes(Protocol.LCW)
    assert sum(outcomes.values()) == 6 * 1326
    assert outcomes["sender"] == 142


def test_bits_nibbles_helpers():
    assert bits_to_nibbles("10010000") == (9, 0)
    assert nibbles_to_bits((9, 0)) == "10010000"
    with pytest.raises(ValueError):
        bits_to_nibbles("101")


@given(st.binary(max_size=16))
def test_bits_bytes_round_trip(data):
    bits = bytes_to_bits(data)
    assert bits == "".join(f"{b:08b}" for b in data)
    assert bits_to_bytes(bits) == data


# whole-byte strings that int(..., 2) would accept
@pytest.mark.parametrize("bits", ["0_010010", "+0100101", "-0100101", " 0100101",
                                  "0100101\n", "٠١٠٠١٠١٠"])
def test_bits_to_bytes_rejects_non_bit_characters(bits):
    assert len(bits) == 8
    int(bits, 2)
    with pytest.raises(ValueError):
        bits_to_bytes(bits)
    with pytest.raises(ValueError):
        bits_to_nibbles(bits)
