"""Shared measurement types: station identity, validity flags, and the
unified weather record that every other module produces or consumes.

All types are immutable values; there is no interior mutation, so they are
safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from dataclasses import dataclass


class Protocol(enum.Enum):
    """Supported sensor-link protocols. The value is the wire byte used in
    compact uplink payloads."""

    A5N1 = 1   # AcuRite 5-in-1 style, 8-byte frames at 433 MHz
    LCW = 2    # La Crosse WS-2300 style, 13-nibble frames at 434 MHz

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Protocol":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown protocol {label!r}") from None


class StationMismatchError(ValueError):
    """Raised when merging records that belong to different stations."""


MAX_STATION_ID = 0x3FFF  # 14-bit id space
MAX_LCW_STATION_ID = 0x7F  # an lcw frame carries 7 id bits


@dataclass(frozen=True)
class StationId:
    protocol: Protocol
    id: int
    channel: int = 0

    def __post_init__(self):
        if not 0 <= self.id <= MAX_STATION_ID:
            raise ValueError(f"station id {self.id} does not fit 14 bits")
        if not 0 <= self.channel <= 3:
            raise ValueError(f"channel {self.channel} does not fit 2 bits")
        if self.protocol is Protocol.LCW:
            if self.channel != 0:
                raise ValueError("lcw stations use channel 0 only")
            if self.id > MAX_LCW_STATION_ID:
                raise ValueError(f"lcw station id {self.id} does not fit 7 bits")


# Bit positions in the single-byte wire form. Bit 7 is reserved and must be 0.
_FLAG_BITS = (
    "sensor_battery_ok",
    "temp",
    "humidity",
    "wind_speed",
    "wind_dir",
    "rain",
    "pressure",
)


@dataclass(frozen=True)
class ValidityFlags:
    """Per-field validity bitset (one byte on the wire).

    The sensor_battery_ok bit doubles as the station battery status: set
    means the station reported a healthy battery this session. Consumers
    ignore any measurement whose bit is clear.
    """

    sensor_battery_ok: bool = False
    temp: bool = False
    humidity: bool = False
    wind_speed: bool = False
    wind_dir: bool = False
    rain: bool = False
    pressure: bool = False

    def to_byte(self) -> int:
        b = 0
        for i, name in enumerate(_FLAG_BITS):
            if getattr(self, name):
                b |= 1 << i
        return b

    @classmethod
    @functools.cache    # at most 128 valid bytes, each an immutable value
    def from_byte(cls, b: int) -> "ValidityFlags":
        if not 0 <= b <= 0xFF:
            raise ValueError(f"flags byte out of range: {b}")
        if b & 0x80:
            raise ValueError("reserved validity bit is set")
        return cls(**{name: bool(b & (1 << i)) for i, name in enumerate(_FLAG_BITS)})

    def union(self, other: "ValidityFlags") -> "ValidityFlags":
        return ValidityFlags.from_byte(self.to_byte() | other.to_byte())


# record field name -> validity flag name, for the six gated measurements
FIELD_FLAGS = {
    "temperature_c": "temp",
    "humidity_pct": "humidity",
    "wind_speed_kph": "wind_speed",
    "wind_dir_deg": "wind_dir",
    "rain_mm": "rain",
    "pressure_pa": "pressure",
}

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


@dataclass(frozen=True)
class WeatherRecord:
    """Unified physical measurements for one station.

    Fields without a validity bit (board_temp_c, battery_mv) describe the
    transponder itself and are always carried. Invalid measurement fields
    hold 0 by convention and must be ignored by consumers.
    """

    station: StationId
    seq: int = 0
    temperature_c: float = 0.0
    humidity_pct: float = 0.0
    wind_speed_kph: float = 0.0
    wind_dir_deg: float = 0.0
    rain_mm: float = 0.0
    pressure_pa: int = 0
    board_temp_c: float = 0.0
    battery_mv: int = 0
    valid: ValidityFlags = ValidityFlags()

    def __post_init__(self):
        if not (isinstance(self.seq, int) and 0 <= self.seq <= 0xFFFF):
            raise ValueError(f"seq {self.seq} is not a 16-bit integer")

    @property
    def sensor_battery_ok(self) -> bool:
        return self.valid.sensor_battery_ok

    @classmethod
    def build(
        cls,
        station: StationId,
        seq: int = 0,
        *,
        sensor_battery_ok: bool = False,
        temperature_c: float | None = None,
        humidity_pct: float | None = None,
        wind_speed_kph: float | None = None,
        wind_dir_deg: float | None = None,
        rain_mm: float | None = None,
        pressure_pa: int | None = None,
        board_temp_c: float = 0.0,
        battery_mv: int = 0,
    ) -> "WeatherRecord":
        """Construct a record, inferring validity from the non-None fields."""
        fields = {
            "temperature_c": temperature_c,
            "humidity_pct": humidity_pct,
            "wind_speed_kph": wind_speed_kph,
            "wind_dir_deg": wind_dir_deg,
            "rain_mm": rain_mm,
            "pressure_pa": pressure_pa,
        }
        flags = {FIELD_FLAGS[k]: v is not None for k, v in fields.items()}
        values = {k: (v if v is not None else 0) for k, v in fields.items()}
        return cls(
            station=station,
            seq=seq,
            board_temp_c=board_temp_c,
            battery_mv=battery_mv,
            valid=ValidityFlags(sensor_battery_ok=sensor_battery_ok, **flags),
            **values,
        )

    def replace(self, **changes) -> "WeatherRecord":
        return dataclasses.replace(self, **changes)


def merge_partial(existing: WeatherRecord, incoming: WeatherRecord) -> WeatherRecord:
    """Fold a newly decoded partial record into the one held in memory.

    The result carries the union of validity bits; where both sides are
    valid the incoming value wins. The sequence number is always taken from
    the incoming record.
    """
    if existing.station != incoming.station:
        raise StationMismatchError(
            f"cannot merge records for {existing.station} and {incoming.station}"
        )
    values = {}
    for field, flag in FIELD_FLAGS.items():
        if getattr(incoming.valid, flag):
            values[field] = getattr(incoming, field)
        else:
            values[field] = getattr(existing, field)
    return WeatherRecord(
        station=existing.station,
        seq=incoming.seq,
        board_temp_c=incoming.board_temp_c if incoming.board_temp_c else existing.board_temp_c,
        battery_mv=incoming.battery_mv if incoming.battery_mv else existing.battery_mv,
        valid=existing.valid.union(incoming.valid),
        **values,
    )


def quantize_roundtrip_bounds(record: WeatherRecord) -> dict[str, float]:
    """Worst-case absolute error each valid field suffers through a payload
    encode/decode round trip (half the payload scale step)."""
    return {
        field: PAYLOAD_STEP[field] / 2
        for field, flag in FIELD_FLAGS.items()
        if getattr(record.valid, flag)
    }


def record_to_obj(record: WeatherRecord) -> dict:
    """Plain-dict form; invalid measurement fields map to None."""
    obj: dict = {
        "station": {
            "protocol": record.station.protocol.label,
            "id": record.station.id,
            "channel": record.station.channel,
        },
        "seq": record.seq,
        "sensor_battery_ok": record.sensor_battery_ok,
    }
    for field, flag in FIELD_FLAGS.items():
        obj[field] = getattr(record, field) if getattr(record.valid, flag) else None
    obj["board_temp_c"] = record.board_temp_c
    obj["battery_mv"] = record.battery_mv
    return obj


def record_from_obj(obj: dict) -> WeatherRecord:
    st = obj["station"]
    station = StationId(Protocol.from_label(st["protocol"]), st["id"], st.get("channel", 0))
    kwargs = {field: obj.get(field) for field in FIELD_FLAGS}
    battery_ok = obj.get("sensor_battery_ok", False)
    if not isinstance(battery_ok, bool):
        raise ValueError(f"sensor_battery_ok must be true or false, not {battery_ok!r}")
    return WeatherRecord.build(
        station,
        seq=obj.get("seq", 0),
        sensor_battery_ok=battery_ok,
        board_temp_c=obj.get("board_temp_c", 0.0),
        battery_mv=obj.get("battery_mv", 0),
        **kwargs,
    )
