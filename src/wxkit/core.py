"""Shared measurement types: station identity and the unified weather
record that every other module produces or consumes.

All types are immutable values; there is no interior mutation, so they are
safe to share across threads.
"""

from __future__ import annotations

import enum
import reprlib
from collections.abc import Iterator
from dataclasses import dataclass


class Protocol(enum.Enum):
    """Supported sensor-link protocols. The value is the wire byte used in
    compact uplink payloads, and ``label``, the lower-case name, is the text
    form. Members are singletons, also through a copy or a pickle round
    trip, so they hash by identity."""

    A5N1 = 1   # AcuRite 5-in-1 style, 8-byte frames at 433 MHz
    LCW = 2    # La Crosse WS-2300 style, 13-nibble frames at 434 MHz

    __hash__ = object.__hash__

    def __init__(self, value: int):
        self.label = self._name_.lower()

    @classmethod
    def from_label(cls, label: str) -> "Protocol":
        try:
            return _PROTOCOLS[label.upper()]
        except (KeyError, AttributeError):     # AttributeError: not a string
            raise ValueError(f"unknown protocol {reprlib.repr(label)}") from None


_PROTOCOLS = dict(Protocol.__members__)


class StationMismatchError(ValueError):
    """Raised when merging records that belong to different stations."""


class RecordError(ValueError):
    """A plain-dict record that does not describe a weather record."""


class SimConfigError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


MAX_STATION_ID = 0x3FFF  # 14-bit id space
MAX_LCW_STATION_ID = 0x7F  # an lcw frame carries 7 id bits


# StationId and WeatherRecord are built once per decoded or parsed record.
# A frozen dataclass's generated __init__ makes one object.__setattr__ call
# per field. These write each field into __dict__ directly, which halves the
# cost of a WeatherRecord, then run the same __post_init__ checks. One store
# per key keeps the dict's keys shared between instances; a dict.update
# would give each instance a full dict of its own, twice the memory. The
# signature repeats the fields in order, defaults included.
@dataclass(frozen=True, init=False)
class StationId:
    protocol: Protocol
    id: int
    channel: int = 0

    def __init__(self, protocol: Protocol, id: int, channel: int = 0):
        fields = self.__dict__
        fields["protocol"] = protocol
        fields["id"] = id
        fields["channel"] = channel
        self.__post_init__()

    def __post_init__(self):
        # exactly int: a bool or an int subclass is not an id
        if type(self.id) is not int or type(self.channel) is not int:
            name, value = ("channel", self.channel) if type(self.id) is int else ("id", self.id)
            raise ValueError(f"station {name} must be an integer, not {reprlib.repr(value)}")
        if not 0 <= self.id <= MAX_STATION_ID:
            raise ValueError(f"station id {reprlib.repr(self.id)} does not fit 14 bits")
        if not 0 <= self.channel <= 3:
            raise ValueError(f"channel {reprlib.repr(self.channel)} does not fit 2 bits")
        if self.protocol is Protocol.LCW:
            if self.channel != 0:
                raise ValueError("lcw stations use channel 0 only")
            if self.id > MAX_LCW_STATION_ID:
                raise ValueError(f"lcw station id {self.id} does not fit 7 bits")


# The six measurements a station may leave out of a message, in field order;
# an absent one is None in a WeatherRecord.
FIELD_FLAGS = (
    "temperature_c",
    "humidity_pct",
    "wind_speed_kph",
    "wind_dir_deg",
    "rain_mm",
    "pressure_pa",
)

# Integer scale of the scaled fields in the compact payload: the wire value is
# round(value * scale). Other fields go on the wire as they are. The payload
# layout itself is in ``lorawan``.
PAYLOAD_SCALE = {
    "temperature_c": 100,
    "humidity_pct": 2,
    "wind_speed_kph": 10,
    "wind_dir_deg": 10,
    "rain_mm": 100,
    "board_temp_c": 100,
}

# Scale step each gated field suffers through the compact payload encoding.
PAYLOAD_STEP = {field: 1 / PAYLOAD_SCALE.get(field, 1) for field in FIELD_FLAGS}


@dataclass(frozen=True, init=False)   # __init__ written out, as for StationId
class WeatherRecord:
    """Unified physical measurements for one station.

    A measurement the station did not report is None. The fields that
    describe the transponder itself (board_temp_c, battery_mv) are always
    carried.
    """

    station: StationId
    seq: int = 0
    sensor_battery_ok: bool = False
    temperature_c: float | None = None
    humidity_pct: float | None = None
    wind_speed_kph: float | None = None
    wind_dir_deg: float | None = None
    rain_mm: float | None = None
    pressure_pa: int | None = None
    board_temp_c: float = 0.0
    battery_mv: int = 0

    def __init__(self, station: StationId, seq: int = 0, sensor_battery_ok: bool = False,
                 temperature_c: float | None = None, humidity_pct: float | None = None,
                 wind_speed_kph: float | None = None, wind_dir_deg: float | None = None,
                 rain_mm: float | None = None, pressure_pa: int | None = None,
                 board_temp_c: float = 0.0, battery_mv: int = 0):
        fields = self.__dict__
        fields["station"] = station
        fields["seq"] = seq
        fields["sensor_battery_ok"] = sensor_battery_ok
        fields["temperature_c"] = temperature_c
        fields["humidity_pct"] = humidity_pct
        fields["wind_speed_kph"] = wind_speed_kph
        fields["wind_dir_deg"] = wind_dir_deg
        fields["rain_mm"] = rain_mm
        fields["pressure_pa"] = pressure_pa
        fields["board_temp_c"] = board_temp_c
        fields["battery_mv"] = battery_mv
        self.__post_init__()

    def __post_init__(self):
        if type(self.seq) is not int or not 0 <= self.seq <= 0xFFFF:
            raise ValueError(f"seq {reprlib.repr(self.seq)} is not a 16-bit integer")

    def replace(self, **changes) -> "WeatherRecord":
        return WeatherRecord(**(self.__dict__ | changes))


def merge_partial(existing: WeatherRecord, incoming: WeatherRecord) -> WeatherRecord:
    """Fold a newly decoded partial record into the one held in memory.

    Each measurement the incoming record carries wins; the others keep
    their held value. The battery is reported healthy if either side says
    so, and the sequence number is always taken from the incoming record.
    """
    if existing.station != incoming.station:
        raise StationMismatchError(
            f"cannot merge records for {existing.station} and {incoming.station}"
        )
    held, new = existing.__dict__, incoming.__dict__
    return WeatherRecord(
        existing.station,
        incoming.seq,
        existing.sensor_battery_ok or incoming.sensor_battery_ok,
        *[held[field] if new[field] is None else new[field] for field in FIELD_FLAGS],
        incoming.board_temp_c or existing.board_temp_c,
        incoming.battery_mv or existing.battery_mv,
    )


def quantize_roundtrip_bounds(record: WeatherRecord) -> dict[str, float]:
    """Worst-case absolute error each present measurement suffers through a
    payload encode/decode round trip (half the payload scale step)."""
    return {
        field: PAYLOAD_STEP[field] / 2
        for field in FIELD_FLAGS
        if getattr(record, field) is not None
    }


def record_to_obj(record: WeatherRecord) -> dict:
    """Plain-dict form, keys in field order; an absent measurement is None."""
    obj = dict(vars(record))
    st = record.station
    obj["station"] = {"protocol": st.protocol.label, "id": st.id, "channel": st.channel}
    return obj


def record_from_obj(obj: dict) -> WeatherRecord:
    """The record a plain dict describes, as ``record_to_obj`` writes it.
    Any object that does not describe one raises a ValueError: a
    ``RecordError`` for its shape, else the error of the protocol label,
    ``StationId`` or ``WeatherRecord`` that rejects a value. The measurements
    are checked where they are encoded."""
    if not isinstance(obj, dict):
        raise RecordError(f"a record must be an object, not {reprlib.repr(obj)}")
    st = obj.get("station")
    if not isinstance(st, dict):
        raise RecordError(f"station must be an object, not {reprlib.repr(st)}")
    station = StationId(Protocol.from_label(st.get("protocol")), st.get("id"), st.get("channel", 0))
    battery_ok = obj.get("sensor_battery_ok", False)
    if not isinstance(battery_ok, bool):
        raise RecordError(f"sensor_battery_ok must be true or false, not {reprlib.repr(battery_ok)}")
    return WeatherRecord(station, obj.get("seq", 0), battery_ok, *map(obj.get, FIELD_FLAGS),
                         obj.get("board_temp_c", 0.0), obj.get("battery_mv", 0))


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of ``text`` that is not blank once
    its ``#`` comment and surrounding whitespace are stripped; lines count
    from 1. The one comment rule of every line-based input."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line
