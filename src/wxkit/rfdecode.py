"""OOK/PWM pulse-train framing and protocol codecs for the two supported
sensor families.

The pipeline starts at the demodulated pulse level: a capture is a sequence
of alternating high/low durations. ``frame_pulses`` slices it into candidate
bitstrings. ``decode_a5n1``/``decode_lcw`` check one bitstring and return
the station's partial ``WeatherRecord``, or raise a typed DecodeError at
the first failed check: A5N1 checks the checksum, the parity of bytes 2..6,
the message type and then the humidity range; LCW the sync nibble, the
checksum, the digit repeat, the BCD digits, the quantity type and then the
wind direction code. A bitstring of the wrong length, or with a character
other than 0/1, is not a frame to check: it raises a plain ValueError, the
one failure that is not a DecodeError. ``build_a5n1_frame``/
``build_lcw_frame`` with ``a5n1_to_pulses``/``lcw_to_pulses`` run the whole
thing backwards for simulation and round-trip testing.

Each codec rule is written once. ``_LCW_FIELDS`` holds every LCW quantity's
record field and its formulas both ways, while A5N1's bit packing is spelled
out in its two codecs. ``_code`` rounds and range-checks every encoder field.
Each encoder checks, before rounding, the sign rule both share: a negative
rain total or wind speed is out of range, though it would round to code 0.

Bit layouts, timings and scale factors are normative for this toolkit (the
device vendors publish none of it); they follow the publicly documented
behaviour of the AcuRite 5-in-1 and La Crosse WS-2300 families. Codecs are
pure functions and the framer holds no state between calls.
"""

from __future__ import annotations

import enum
import re
import reprlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .core import Protocol, StationId, WeatherRecord, data_lines


class DecodeError(ValueError):
    """Base for all frame validation failures."""


class ChecksumError(DecodeError):
    pass


class ParityError(DecodeError):
    def __init__(self, byte_index: int):
        super().__init__(f"parity failure in byte {byte_index}")
        self.byte_index = byte_index


class SyncError(DecodeError):
    pass


class DigitRepeatError(DecodeError):
    pass


class BcdError(DecodeError):
    pass


class UnknownMessageTypeError(DecodeError):
    pass


class ValueRangeError(DecodeError):
    """Encoder input (or decoded value) outside the representable range."""


# ---------------------------------------------------------------------------
# Pulse trains

# The longest pulse a train may hold, about 71 minutes: the framer divides
# durations as floats, which a longer one could overflow.
MAX_PULSE_US = 2**32


@dataclass(frozen=True)
class PulseTrain:
    """Demodulated OOK capture: the level of the first pulse, 'H' or 'L',
    and every pulse's duration in us; the levels alternate from there."""

    first: str
    durations: tuple[int, ...]

    def __post_init__(self):
        if self.first not in ("H", "L"):
            raise ValueError(f"first level must be 'H' or 'L', got {reprlib.repr(self.first)}")
        # exactly int, as ``to_text`` writes it: a float or a bool is not a duration
        if {*map(type, self.durations)} - {int}:
            bad = next(d for d in self.durations if type(d) is not int)
            raise ValueError(f"durations must be integers, not {reprlib.repr(bad)}")
        if self.durations and not (min(self.durations) > 0 and max(self.durations) <= MAX_PULSE_US):
            raise ValueError(f"durations must be in 1..{MAX_PULSE_US} us")

    def to_text(self) -> str:
        levels = ("H", "L") if self.first == "H" else ("L", "H")
        return "".join(f"{levels[i % 2]} {d}\n" for i, d in enumerate(self.durations))

    @classmethod
    def from_text(cls, text: str) -> "PulseTrain":
        """Parse ``H <us>``/``L <us>`` lines, levels alternating and durations
        ASCII decimal. A ValueError names the first bad line; a text with no
        pulse gives ``PulseTrain("H", ())``."""
        first = prev = None
        durations = []
        for lineno, line in data_lines(text):
            parts = line.split()
            if (len(parts) != 2 or parts[0] not in ("H", "L")
                    or not (parts[1].isascii() and parts[1].isdigit())):
                raise ValueError(f"line {lineno}: expected 'H <us>' or 'L <us>', "
                                 f"got {reprlib.repr(line)}")
            level, digits = parts
            if level == prev:
                raise ValueError(f"line {lineno}: levels must strictly alternate")
            try:
                us = int(digits)
            except ValueError:   # more digits than int() converts: out of bounds
                us = 0
            if not 0 < us <= MAX_PULSE_US:
                raise ValueError(f"line {lineno}: duration must be in 1..{MAX_PULSE_US} us, "
                                 f"got {reprlib.repr(digits)}")
            first = first or level
            prev = level
            durations.append(us)
        return cls(first or "H", tuple(durations))


# Nominal PWM durations (us) per protocol plus the shared tolerance. The
# A5N1 link marks a frame with sync pairs and encodes bits in the high/low
# split of a fixed bit period. The LCW link has no pulse-level sync (sync
# lives in the first nibble); the bit value is the high width and the low is
# a fixed inter-bit gap, stretched after a frame's last bit so that
# concatenated frames stay separable.
A5N1_SYNC_US = (600, 600)
A5N1_SYNC_PAIRS = 4
A5N1_ONE_US = (400, 200)
A5N1_ZERO_US = (200, 400)
LCW_ZERO_HIGH_US = 1300
LCW_ONE_HIGH_US = 550
LCW_GAP_US = 1000
LCW_FRAME_GAP_US = 10_000
TOLERANCE = 0.35


_A5N1_CLASSES = (("S", *A5N1_SYNC_US), ("1", *A5N1_ONE_US), ("0", *A5N1_ZERO_US))


def _a5n1_token(high: int, low: int) -> str:
    # The nearest pair class by joint relative distance, which keeps the
    # classification stable under uniform scaling of the whole train (the
    # individual duration bands overlap). An explicit loop: min() with a key
    # function is twice as slow.
    best = None
    for token, nh, nl in _A5N1_CLASSES:
        dh = abs(high / nh - 1.0)
        dl = abs(low / nl - 1.0)
        if best is None or dh + dl < best:
            best = dh + dl
            nearest = token if dh <= TOLERANCE and dl <= TOLERANCE else "x"
    return nearest


def _lcw_token(high: int, low: int) -> str:
    # The bit value is carried by the high width alone; the low is a fixed
    # separator. A low longer than the tolerance band is an inter-frame gap:
    # the bit still counts but the run ends there.
    d0 = abs(high / LCW_ZERO_HIGH_US - 1.0)
    d1 = abs(high / LCW_ONE_HIGH_US - 1.0)
    if min(d0, d1) > TOLERANCE or low < LCW_GAP_US * (1 - TOLERANCE):
        return "x"
    bit = "0" if d0 <= d1 else "1"
    return bit + "|" if low > LCW_GAP_US * (1 + TOLERANCE) else bit


# Each protocol's pair tokenizer and the pattern of a frame's bits in the
# joined tokens: "x" is an unclassifiable pair, "S" an A5N1 sync pair, and
# "|" follows an LCW bit that ends a frame.
_FRAMERS = {
    Protocol.A5N1: (_a5n1_token, re.compile(f"(?<={'S' * A5N1_SYNC_PAIRS})[01]+")),
    Protocol.LCW: (_lcw_token, re.compile("[01]+")),
}


def frame_pulses(train: PulseTrain, protocol: Protocol) -> list[str]:
    """Slice a pulse train into candidate frame bitstrings.

    Each (high, low) pair becomes one token; a leading low and a trailing
    lone high form no pair. Returns every maximal run of bit tokens (for
    A5N1, only a run right after the sync pairs). There is no error path --
    an unmatchable train yields an empty list.
    """
    token, pattern = _FRAMERS[protocol]
    durations = train.durations
    start = 1 if train.first == "L" else 0
    return pattern.findall("".join(map(token, durations[start::2], durations[start + 1::2])))


# ---------------------------------------------------------------------------
# AcuRite 5-in-1 style frames (8 bytes, 64 bits)

A5N1_MSG_WIND_DIR_RAIN = 0x31
A5N1_MSG_TEMP_HUMIDITY = 0x38
A5N1_MESSAGE_TYPES = (A5N1_MSG_WIND_DIR_RAIN, A5N1_MSG_TEMP_HUMIDITY)

_WIND_SLOPE = 0.8278   # kph per raw count, +1.0 offset, 0 raw means calm
RAIN_MM_PER_TIP = 0.254
A5N1_RAIN_WRAP = 0x4000   # the 14-bit tip counter wraps to 0 here
DIR_STEP_DEG = 22.5


def _a5n1_checksum(data: bytes) -> int:
    return sum(data[:7]) & 0xFF


def _odd_parity(byte: int) -> int:
    """1 if ``byte`` has an odd number of set bits, else 0."""
    return byte.bit_count() & 1


# Deletes every 0/1 character: a bitstring translates to "".
_DROP_BITS = str.maketrans("", "", "01")


def bits_to_bytes(bits: str) -> bytes:
    # the 0/1 check runs first: int(..., 2) also accepts "_", signs and whitespace
    if len(bits) % 8 or bits.translate(_DROP_BITS):
        raise ValueError("bitstring must be 0/1 characters in whole bytes")
    return int(bits or "0", 2).to_bytes(len(bits) // 8, "big")


def bytes_to_bits(data: bytes) -> str:
    return f"{int.from_bytes(data, 'big'):0{len(data) * 8}b}" if data else ""


def decode_a5n1(bits: str) -> WeatherRecord:
    """Validate a 64-bit string and extract the partial weather record.

    The checks run in order: checksum, the even parity of bytes 2..6, then
    the message type; a humidity above 100 then raises ValueRangeError.
    Each failed check raises a typed DecodeError; a bitstring that is not
    64 characters of 0/1 raises a plain ValueError.
    """
    if len(bits) != (nbits := FRAME_BITS[Protocol.A5N1]):
        raise ValueError(f"expected {nbits} bits, got {len(bits)}")
    data = bits_to_bytes(bits)
    checksum = _a5n1_checksum(data)
    if data[7] != checksum:
        raise ChecksumError(f"checksum {data[7]:#04x} != computed {checksum:#04x}")
    for i in range(2, 7):
        if _odd_parity(data[i]):
            raise ParityError(i)
    message_type = data[2] & 0x3F
    if message_type not in A5N1_MESSAGE_TYPES:
        raise UnknownMessageTypeError(f"message type {message_type:#04x}")
    station = StationId(Protocol.A5N1, (data[0] & 0x3F) << 8 | data[1], data[0] >> 6)
    wind_raw = data[3] & 0x7F
    if message_type == A5N1_MSG_WIND_DIR_RAIN:
        counter = (data[5] & 0x7F) << 7 | (data[6] & 0x7F)
        fields = {"wind_dir_deg": (data[4] & 0x0F) * DIR_STEP_DEG, "rain_mm": counter * RAIN_MM_PER_TIP}
    else:
        temp_raw = (data[4] & 0x7F) << 4 | (data[5] >> 3) & 0x0F
        humidity = data[6] & 0x7F
        if humidity > 100:
            raise ValueRangeError(f"humidity {humidity} outside 0..100")
        fields = {"temperature_c": (temp_raw / 10.0 - 40.0 - 32.0) * 5.0 / 9.0,   # from Fahrenheit
                  "humidity_pct": float(humidity)}
    return WeatherRecord(
        station,
        sensor_battery_ok=bool(data[2] & 0x40),
        wind_speed_kph=0.0 if wind_raw == 0 else _WIND_SLOPE * wind_raw + 1.0,
        **fields,
    )


def _with_parity(byte: int) -> int:
    """Set bit 7 so the whole byte has even parity. Every caller passes a
    byte in 0..0x7F."""
    return byte | _odd_parity(byte) << 7


def _code(what: str, scaled: float, hi: int, out_of_range: str) -> int:
    """The wire code ``round(scaled)``, which must lie in 0..hi. NaN and
    infinity, given or reached by scaling, and a code out of range raise
    ValueRangeError, its message starting with ``what``."""
    try:
        code = round(scaled)
    except (OverflowError, ValueError):
        raise ValueRangeError(f"{what} cannot be encoded") from None
    if not 0 <= code <= hi:
        raise ValueRangeError(f"{what} {out_of_range}")
    return code


def _wind_raw(wind_kph: float) -> int:
    """Nearest representable wind code. The representable set is {0} plus
    {slope*raw + 1 : raw 1..127}, so values inside the (0, 1.8278) gap snap
    to whichever end is closer."""
    if wind_kph < 0:
        raise ValueRangeError(f"wind speed {wind_kph} kph is negative")
    if wind_kph <= (_WIND_SLOPE + 1.0) / 2:
        return 0
    return max(1, _code(f"wind speed {wind_kph} kph", (wind_kph - 1.0) / _WIND_SLOPE, 127,
                        "exceeds the 7-bit range"))


def _dir_code(wind_dir_deg: float) -> int:
    """The 4-bit code of a wind direction in [0, 360) degrees, either codec."""
    if not 0 <= wind_dir_deg < 360:
        raise ValueRangeError(f"wind direction {wind_dir_deg} outside [0, 360)")
    return round(wind_dir_deg / DIR_STEP_DEG) % 16


def build_a5n1_frame(
    station: StationId,
    message_type: int,
    *,
    battery_ok: bool = True,
    wind_kph: float = 0.0,
    wind_dir_deg: float = 0.0,
    rain_mm: float = 0.0,
    temperature_c: float = 0.0,
    humidity_pct: float = 0.0,
) -> bytes:
    """Assemble a valid frame; parity and checksum are always computed. A
    0x31 frame carries the wind direction and the rain, a 0x38 frame the
    temperature and the humidity, and both the wind speed; a frame ignores
    the fields of the other type."""
    if station.protocol is not Protocol.A5N1:
        raise ValueError("station protocol must be A5N1")
    if message_type not in A5N1_MESSAGE_TYPES:
        raise UnknownMessageTypeError(f"message type {message_type:#04x}")
    b = bytearray(8)
    b[0] = station.channel << 6 | station.id >> 8
    b[1] = station.id & 0xFF
    b[2] = _with_parity((0x40 if battery_ok else 0x00) | message_type)
    b[3] = _with_parity(_wind_raw(wind_kph))
    if message_type == A5N1_MSG_WIND_DIR_RAIN:
        b[4] = _with_parity(_dir_code(wind_dir_deg))
        if rain_mm < 0:
            raise ValueRangeError("rain total is negative")
        tips = _code(f"rain total {rain_mm} mm", rain_mm / RAIN_MM_PER_TIP, A5N1_RAIN_WRAP - 1,
                     "exceeds the 14-bit counter")
        b[5] = _with_parity(tips >> 7)
        b[6] = _with_parity(tips & 0x7F)
    else:
        deg_f = temperature_c * 9.0 / 5.0 + 32.0
        temp_raw = _code(f"temperature {temperature_c} C", (deg_f + 40.0) * 10.0, 0x7FF,
                         "outside the 11-bit range")
        hum = _code(f"humidity {humidity_pct}", humidity_pct, 100, "outside 0..100")
        b[4] = _with_parity(temp_raw >> 4)
        b[5] = _with_parity((temp_raw & 0x0F) << 3)
        b[6] = _with_parity(hum)
    b[7] = _a5n1_checksum(b)
    return bytes(b)


def a5n1_to_pulses(data: bytes) -> PulseTrain:
    durations = list(A5N1_SYNC_US * A5N1_SYNC_PAIRS)
    for bit in bytes_to_bits(data):
        durations += A5N1_ONE_US if bit == "1" else A5N1_ZERO_US
    return PulseTrain("H", tuple(durations))


# ---------------------------------------------------------------------------
# La Crosse WS-2300 style frames (13 nibbles, 52 bits)

LCW_SYNC_NIBBLE = 0x9
LCW_RAIN_MM_PER_COUNT = 0.518
LCW_VALUE_WRAP = 1000   # every value is three BCD digits; the station's rain count wraps here


def _lcw_checksum(nibbles: Sequence[int]) -> int:
    return sum(nibbles[:12]) % 16


class LcwQuantity(enum.IntEnum):
    TEMP = 0
    HUMIDITY = 1
    RAIN = 2
    WIND_SPEED = 3
    WIND_DIR = 4


# One row per quantity: the record field, the decoder's wire value -> value,
# and the encoder's value -> scaled wire value (a wind direction's is its code).
_LCW_FIELDS = {
    LcwQuantity.TEMP: ("temperature_c", lambda v: v / 10.0 - 40.0, lambda x: (x + 40.0) * 10.0),
    LcwQuantity.HUMIDITY: ("humidity_pct", lambda v: v / 10.0, lambda x: x * 10.0),
    LcwQuantity.RAIN: ("rain_mm", lambda v: v * LCW_RAIN_MM_PER_COUNT, lambda x: x / LCW_RAIN_MM_PER_COUNT),
    # m/s * 10 on the wire; records store km/h
    LcwQuantity.WIND_SPEED: ("wind_speed_kph", lambda v: v / 10.0 * 3.6, lambda x: x * 10.0),
    LcwQuantity.WIND_DIR: ("wind_dir_deg", lambda v: v * DIR_STEP_DEG, _dir_code),
}


def bits_to_hex(bits: str) -> str:
    """One lowercase hex digit per 4 bits, as ``bytes.hex`` writes a frame."""
    if len(bits) % 4 or bits.translate(_DROP_BITS):
        raise ValueError("bitstring must be 0/1 characters in whole nibbles")
    return f"{int(bits, 2):0{len(bits) // 4}x}" if bits else ""


def bits_to_nibbles(bits: str) -> tuple[int, ...]:
    return tuple(map("0123456789abcdef".index, bits_to_hex(bits)))


def nibbles_to_bits(nibbles: tuple[int, ...]) -> str:
    return "".join(f"{x:04b}" for x in nibbles)


def decode_lcw(bits: str) -> WeatherRecord:
    """Validate a 52-bit string and extract the single reported quantity.

    The checks run in order: sync nibble, checksum, digit repeat, BCD
    digits, quantity type; a wind direction code above 15 then raises
    ValueRangeError. Each failed check raises a typed DecodeError; a
    bitstring that is not 52 characters of 0/1 raises a plain ValueError.
    """
    if len(bits) != (nbits := FRAME_BITS[Protocol.LCW]):
        raise ValueError(f"expected {nbits} bits, got {len(bits)}")
    n = bits_to_nibbles(bits)
    if n[0] != LCW_SYNC_NIBBLE:
        raise SyncError(f"sync nibble {n[0]:#x} != 0x9")
    checksum = _lcw_checksum(n)
    if n[12] != checksum:
        raise ChecksumError(f"checksum {n[12]:#x} != computed {checksum:#x}")
    if n[10] != n[4] or n[11] != n[5]:
        raise DigitRepeatError(
            f"repeat nibbles {n[10]:#x}{n[11]:#x} != digits {n[4]:#x}{n[5]:#x}"
        )
    if any(d > 9 for d in n[4:7]):
        raise BcdError(f"non-BCD digit in value nibbles {n[4]:#x}{n[5]:#x}{n[6]:#x}")
    try:
        q = LcwQuantity(n[1])
    except ValueError:
        raise UnknownMessageTypeError(f"quantity type {n[1]:#x}") from None
    value = n[4] * 100 + n[5] * 10 + n[6]
    if q is LcwQuantity.WIND_DIR and value > 15:
        raise ValueRangeError(f"wind direction code {value} outside 0..15")
    field, to_value, _ = _LCW_FIELDS[q]
    station = StationId(Protocol.LCW, n[2] << 3 | n[3] >> 1, 0)
    return WeatherRecord(station, sensor_battery_ok=bool(n[3] & 1), **{field: to_value(value)})


FRAME_BITS = {Protocol.A5N1: 64, Protocol.LCW: 52}


def decoder(protocol: Protocol) -> Callable[[str], WeatherRecord]:
    """The frame decoder of ``protocol``."""
    return decode_a5n1 if protocol is Protocol.A5N1 else decode_lcw


def build_lcw_frame(
    quantity: LcwQuantity,
    value: float,
    station: StationId,
    *,
    battery_ok: bool = True,
) -> tuple[int, ...]:
    """Assemble a valid frame; checksum and digit repeats always computed.

    ``value`` is physical: temp degC, humidity %, rain mm, wind speed m/s,
    wind direction degrees. Nibbles 7..9 are reserved and sent as zero.
    """
    if station.protocol is not Protocol.LCW:
        raise ValueError("station protocol must be LCW")
    what = f"{quantity.name.lower()} value {value}"
    if value < 0 and quantity in (LcwQuantity.RAIN, LcwQuantity.WIND_SPEED):
        raise ValueRangeError(f"{what} is not encodable")
    v = _code(what, _LCW_FIELDS[quantity][2](value), LCW_VALUE_WRAP - 1, "is not encodable")
    d = (v // 100, v // 10 % 10, v % 10)
    n = [
        LCW_SYNC_NIBBLE,
        int(quantity),
        station.id >> 3,
        (station.id & 0x7) << 1 | (1 if battery_ok else 0),
        d[0], d[1], d[2],
        0, 0, 0,
        d[0], d[1],
    ]
    n.append(_lcw_checksum(n))
    return tuple(n)


def lcw_to_pulses(nibbles: tuple[int, ...]) -> PulseTrain:
    durations = []
    for bit in nibbles_to_bits(nibbles):
        durations += (LCW_ONE_HIGH_US if bit == "1" else LCW_ZERO_HIGH_US, LCW_GAP_US)
    durations[-1] = LCW_FRAME_GAP_US
    return PulseTrain("H", tuple(durations))


# The longest one frame takes on air, in seconds: every A5N1 bit takes one bit
# period, and a zero is the longer LCW bit.
FRAME_AIR_S = {
    protocol: sum(train.durations) / 1e6
    for protocol, train in ((Protocol.A5N1, a5n1_to_pulses(bytes(8))),
                            (Protocol.LCW, lcw_to_pulses((0,) * 13)))
}
