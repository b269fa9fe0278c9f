import copy
import dataclasses
import inspect
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wxkit.core import (
    FIELD_FLAGS,
    Protocol,
    StationId,
    StationMismatchError,
    WeatherRecord,
    merge_partial,
    quantize_roundtrip_bounds,
    record_from_obj,
    record_to_obj,
)
from wxkit.lorawan import payload_encode

A5N1_STATION = StationId(Protocol.A5N1, 1234, 2)


def test_protocol_contract():
    assert [(p.label, p.value) for p in Protocol] == [("a5n1", 1), ("lcw", 2)]
    assert all(type(p.label) is str for p in Protocol)
    assert Protocol.from_label("A5N1") is Protocol.A5N1
    assert Protocol.from_label("lcw") is Protocol.LCW
    for label, text in ((None, "None"), (3, "3"), ("x", "'x'")):
        with pytest.raises(ValueError) as info:
            Protocol.from_label(label)
        assert str(info.value) == f"unknown protocol {text}"
    # members are singletons: a copy or a pickle round trip is the member itself
    for p in Protocol:
        for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert twin is p and hash(twin) == hash(p)


def test_station_id_invariants():
    with pytest.raises(ValueError):
        StationId(Protocol.A5N1, 0x4000, 0)
    with pytest.raises(ValueError):
        StationId(Protocol.A5N1, 1, 4)
    with pytest.raises(ValueError):
        StationId(Protocol.LCW, 1, 1)
    with pytest.raises(ValueError):
        StationId(Protocol.LCW, 128, 0)
    StationId(Protocol.LCW, 127, 0)
    for id_, channel in ((1.5, 0), (True, 0), ("7", 0), (None, 0), (7, 1.0), (7, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            StationId(Protocol.A5N1, id_, channel)


def test_merge_disjoint_union():
    existing = WeatherRecord(A5N1_STATION, temperature_c=20.0)
    incoming = WeatherRecord(A5N1_STATION, humidity_pct=55.0)
    merged = merge_partial(existing, incoming)
    assert merged.temperature_c == 20.0
    assert merged.humidity_pct == 55.0


def test_merge_incoming_wins():
    existing = WeatherRecord(A5N1_STATION, temperature_c=20.0)
    incoming = WeatherRecord(A5N1_STATION, seq=9, temperature_c=21.0)
    merged = merge_partial(existing, incoming)
    assert merged.temperature_c == 21.0
    assert merged.seq == 9
    # the transponder's own fields: a nonzero incoming value wins, a zero one
    # keeps the held value
    held = WeatherRecord(A5N1_STATION, board_temp_c=24.0, battery_mv=3300)
    merged = merge_partial(held, WeatherRecord(A5N1_STATION, board_temp_c=25.5, battery_mv=3700))
    assert (merged.board_temp_c, merged.battery_mv) == (25.5, 3700)
    assert merge_partial(held, WeatherRecord(A5N1_STATION)) == held


def test_merge_all_invalid_stays_invalid():
    a = WeatherRecord(station=A5N1_STATION)
    b = WeatherRecord(station=A5N1_STATION)
    merged = merge_partial(a, b)
    assert merged == a
    assert all(getattr(merged, field) is None for field in FIELD_FLAGS)


def test_merge_battery_ok_from_either_side():
    ok = WeatherRecord(A5N1_STATION, sensor_battery_ok=True)
    low = WeatherRecord(A5N1_STATION, temperature_c=20.0)
    assert merge_partial(ok, low).sensor_battery_ok
    assert merge_partial(low, ok).sensor_battery_ok
    assert not merge_partial(low, low).sensor_battery_ok


def test_merge_station_mismatch():
    other = StationId(Protocol.A5N1, 99, 0)
    with pytest.raises(StationMismatchError):
        merge_partial(WeatherRecord(station=A5N1_STATION), WeatherRecord(station=other))


@st.composite
def partial_records(draw):
    fields = {}
    for name in ("temperature_c", "humidity_pct", "wind_speed_kph",
                 "wind_dir_deg", "rain_mm"):
        if draw(st.booleans()):
            fields[name] = draw(st.floats(0, 99, allow_nan=False))
    if draw(st.booleans()):
        fields["pressure_pa"] = draw(st.integers(90_000, 110_000))
    return WeatherRecord(
        A5N1_STATION,
        seq=draw(st.integers(0, 0xFFFF)),
        sensor_battery_ok=draw(st.booleans()),
        **fields,
    )


@given(st.lists(partial_records(), min_size=1, max_size=6))
def test_merge_fold_is_associative(records):
    base = WeatherRecord(station=A5N1_STATION)
    left = base
    for r in records:
        left = merge_partial(left, r)
    # fold the tail first, then merge once: same result for a fixed order
    tail = records[0]
    for r in records[1:]:
        tail = merge_partial(tail, r)
    assert merge_partial(base, tail) == left


def test_quantize_roundtrip_bounds():
    record = WeatherRecord(
        A5N1_STATION, temperature_c=1.0, humidity_pct=2.0, pressure_pa=3)
    bounds = quantize_roundtrip_bounds(record)
    assert bounds == {
        "temperature_c": 0.005,
        "humidity_pct": 0.25,
        "pressure_pa": 0.5,
    }


def test_record_json_roundtrip():
    record = WeatherRecord(
        A5N1_STATION, seq=77, sensor_battery_ok=True,
        temperature_c=21.5, wind_speed_kph=9.3,
        board_temp_c=24.0, battery_mv=3700)
    line = json.dumps(record_to_obj(record))
    back = record_from_obj(json.loads(line))
    assert back == record
    assert '"humidity_pct": null' in line
    # the CLI prints records without sort_keys, so this order is its output order
    assert list(record_to_obj(record)) == [
        "station", "seq", "sensor_battery_ok", *FIELD_FLAGS, "board_temp_c", "battery_mv"]


def test_record_seq_range():
    with pytest.raises(ValueError):
        WeatherRecord(station=A5N1_STATION, seq=0x10000)
    with pytest.raises(ValueError):
        WeatherRecord(station=A5N1_STATION, seq=0.5)


# The value contract of the two record types, whatever builds their __init__.
CONTRACT_CASES = (
    (StationId, (Protocol.A5N1, 1234, 2), {"channel": 3},
     "StationId(protocol=<Protocol.A5N1: 1>, id=1234, channel=2)"),
    (WeatherRecord, (A5N1_STATION, 7, True, 21.5, None, 3.2, None, 0.5, 101325, 24.0, 3300),
     {"seq": 8, "humidity_pct": 40.0},
     "WeatherRecord(station=StationId(protocol=<Protocol.A5N1: 1>, id=1234, channel=2), "
     "seq=7, sensor_battery_ok=True, temperature_c=21.5, humidity_pct=None, "
     "wind_speed_kph=3.2, wind_dir_deg=None, rain_mm=0.5, pressure_pa=101325, "
     "board_temp_c=24.0, battery_mv=3300)"),
)


@pytest.mark.parametrize("cls, args, changes, text", CONTRACT_CASES,
                         ids=[case[0].__name__ for case in CONTRACT_CASES])
def test_record_type_contract(cls, args, changes, text):
    fields = dataclasses.fields(cls)
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in fields]
    names = [f.name for f in fields]
    assert cls.__match_args__ == tuple(names)
    value = cls(*args)
    assert value == cls(**dict(zip(names, args)))
    assert value != cls(*args[:2])
    assert vars(value) == dict(zip(names, args)) and list(vars(value)) == names
    assert hash(value) == hash(args)
    assert repr(value) == text
    for name in (names[1], "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, args[1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, names[1])
    assert vars(value) == dict(zip(names, args))
    changed = dataclasses.replace(value, **changes)
    assert type(changed) is cls and vars(changed) == dict(zip(names, args)) | changes
    if cls is WeatherRecord:
        assert value.replace(**changes) == changed
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and list(vars(twin)) == names
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) missing \d required "):
        cls()
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) got an unexpected "
                                        "keyword argument 'extra'$"):
        cls(*args, extra=1)


@pytest.mark.parametrize("build, message", [
    (lambda: StationId(Protocol.A5N1, "7", 0), "station id must be an integer, not '7'"),
    (lambda: StationId(Protocol.A5N1, True, 0), "station id must be an integer, not True"),
    (lambda: StationId(Protocol.A5N1, 7, 1.0), "station channel must be an integer, not 1.0"),
    (lambda: StationId(Protocol.A5N1, 0x4000), "station id 16384 does not fit 14 bits"),
    (lambda: StationId(Protocol.A5N1, -1), "station id -1 does not fit 14 bits"),
    (lambda: StationId(Protocol.A5N1, 7, 4), "channel 4 does not fit 2 bits"),
    (lambda: StationId(Protocol.LCW, 7, 1), "lcw stations use channel 0 only"),
    (lambda: StationId(Protocol.LCW, 128), "lcw station id 128 does not fit 7 bits"),
    (lambda: WeatherRecord(A5N1_STATION, 0x10000), "seq 65536 is not a 16-bit integer"),
    (lambda: WeatherRecord(A5N1_STATION, seq=-1), "seq -1 is not a 16-bit integer"),
    (lambda: WeatherRecord(A5N1_STATION, seq=True), "seq True is not a 16-bit integer"),
    (lambda: WeatherRecord(A5N1_STATION, seq="1" * 40),
     "seq '111111111111...1111111111111' is not a 16-bit integer"),
])
def test_record_type_error_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400) | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6)
# records that pass some of the reader's checks: known keys, often plausible values
STATIONS = st.fixed_dictionaries({}, optional={
    "protocol": st.sampled_from(["a5n1", "lcw", "A5N1"]) | JSON_VALUES,
    "id": st.integers(0, 0x4000) | JSON_VALUES,
    "channel": st.integers(0, 4) | JSON_VALUES,
})
RECORD_OBJECTS = st.one_of(JSON_VALUES, st.fixed_dictionaries({}, optional={
    "station": STATIONS | JSON_VALUES,
    **{key: st.floats(-1e3, 1e5) | st.integers(0, 0x10000) | JSON_VALUES
       for key in ("seq", "sensor_battery_ok", *FIELD_FLAGS, "board_temp_c", "battery_mv")},
}))


@settings(max_examples=200)
@given(RECORD_OBJECTS)
def test_arbitrary_json_record_raises_only_value_error(obj):
    try:
        payload_encode(record_from_obj(obj))
    except ValueError:
        pass
