"""Compact uplink payload codec, LoRaWAN 1.0.x ABP frame construction and
parsing (uplink only, unconfirmed, no FOpts), LoRa time-on-air, and the
ETSI duty-cycle governor.

AES-128 and AES-CMAC come from the ``cryptography`` package; they are
standard primitives and not reimplemented here. It is imported where a
session is keyed, so the payload codec, airtime and the governor load no
crypto. The test suite carries an independent hand-rolled CMAC oracle to
keep the integrity check two-sided.
"""

from __future__ import annotations

import math
import reprlib
import struct
from dataclasses import dataclass
from operator import attrgetter

from .core import PAYLOAD_SCALE, Protocol, StationId, WeatherRecord


class FrameError(ValueError):
    """Base for uplink frame and payload codec failures."""


class PayloadError(FrameError):
    pass


class MicMismatchError(FrameError):
    pass


class CounterError(FrameError):
    pass


class UnsupportedMhdrError(FrameError):
    pass


# ---------------------------------------------------------------------------
# Compact application payload (29 bytes for A5N1, 27 for LCW)

PAYLOAD_VERSION = 0x01


@dataclass(frozen=True, init=False)   # __init__ written out, as for core.StationId
class PayloadMeta:
    frames_received: int = 0
    cycle_time_s: int = 0

    def __init__(self, frames_received: int = 0, cycle_time_s: int = 0):
        fields = self.__dict__
        fields["frames_received"] = frames_received
        fields["cycle_time_s"] = cycle_time_s


class _Field:
    """One payload field after the header. Its value is an int or a float
    (no subclass, so no bool), and its wire value round(value * scale) must
    lie in lo..hi; an unscaled field takes whole numbers only. A field with a
    validity bit may be None: it goes on the wire as 0 with its bit clear."""

    __slots__ = ("name", "label", "code", "scale", "lo", "hi", "bit", "in_meta")

    def __init__(self, name: str, label: str, code: str, lo: int, hi: int, bit: int | None = None):
        self.name = name                    # WeatherRecord or PayloadMeta attribute
        self.label = label                  # name in diagnostics
        self.code = code                    # struct format code
        self.scale = PAYLOAD_SCALE.get(name, 1)
        self.lo, self.hi = lo, hi
        self.bit = 0 if bit is None else 1 << bit   # mask in the flags byte; 0: always carried
        self.in_meta = name in PayloadMeta.__dataclass_fields__

    def wire(self, value: float) -> int:
        if type(value) is not float and type(value) is not int:
            raise PayloadError(f"{self.label} must be a number, not {reprlib.repr(value)}")
        try:
            raw = round(value * self.scale)
        except (OverflowError, ValueError):     # NaN or infinity, given or reached by scaling
            raw = None
        if raw is None or not self.lo <= raw <= self.hi:
            raise PayloadError(f"{self.label} value {reprlib.repr(value)} outside representable range")
        if self.scale == 1 and raw != value:
            raise PayloadError(f"{self.label} must be a whole number, not {reprlib.repr(value)}")
        return raw

    def value(self, raw: int) -> float | int:
        """The value a wire value stands for; an unscaled one stays an int."""
        return raw / self.scale if self.scale != 1 else raw


# The payload layout, big-endian, in wire order: a 7-byte header (version,
# station type, channel << 14 | station id, seq, validity flags), then one
# row per field. Only A5N1 carries the board temperature. In the flags byte,
# bit 0 is the station's battery status, bits 1-6 say which measurements are
# present, and bit 7 is reserved and must be 0.
_HEADER = ">BBHHB"
_BATTERY_OK_BIT = 0x01
_RESERVED_BIT = 0x80
_FIELDS = (
    _Field("temperature_c", "temperature", "h", -0x8000, 0x7FFF, bit=1),
    _Field("humidity_pct", "humidity", "B", 0, 200, bit=2),
    _Field("wind_speed_kph", "wind speed", "H", 0, 0xFFFF, bit=3),
    _Field("wind_dir_deg", "wind direction", "H", 0, 3599, bit=4),
    _Field("rain_mm", "rain", "I", 0, 0xFFFFFFFF, bit=5),
    _Field("pressure_pa", "pressure", "I", 0, 0xFFFFFFFF, bit=6),
    _Field("board_temp_c", "board temperature", "h", -0x8000, 0x7FFF),
    _Field("battery_mv", "battery voltage", "H", 0, 0xFFFF),
    _Field("frames_received", "frames_received", "B", 0, 0xFF),
    _Field("cycle_time_s", "cycle time", "H", 0, 0xFFFF),
)
_PAYLOADS = {
    protocol: (struct.Struct(_HEADER + "".join(f.code for f in fields)), fields)
    for protocol, fields in (
        (Protocol.A5N1, _FIELDS),
        (Protocol.LCW, tuple(f for f in _FIELDS if f.name != "board_temp_c")),
    )
}
_PROTOCOL_BYTES = {p.value: p for p in Protocol}
# (place after the header, field) of each field whose wire range is narrower
# than its struct code holds, in wire order; unpacking bounds the others.
_CODE_RANGES = {"B": (0, 0xFF), "h": (-0x8000, 0x7FFF), "H": (0, 0xFFFF), "I": (0, 0xFFFFFFFF)}
_RANGE_CHECKS = {protocol: [(i, f) for i, f in enumerate(fields) if (f.lo, f.hi) != _CODE_RANGES[f.code]]
                 for protocol, (_, fields) in _PAYLOADS.items()}
# The values each field can carry, in the field's own units.
PAYLOAD_RANGES = {f.name: (f.value(f.lo), f.value(f.hi)) for f in _FIELDS}


def payload_encode(
    record: WeatherRecord,
    meta: PayloadMeta = PayloadMeta(),
) -> bytes:
    """Pack a record into the fixed big-endian payload layout.

    An absent measurement encodes as zero with its flag bit clear, so the
    byte image is canonical: encode(decode(b)) == b for any b that decodes
    and whose absent fields are zero.
    """
    station, wind_dir = record.station, record.wind_dir_deg
    # a wind direction that is not a number is reported by its field below
    if isinstance(wind_dir, (int, float)) and not 0 <= wind_dir < 360:
        raise PayloadError(f"wind direction {reprlib.repr(wind_dir)} outside [0, 360)")
    layout, fields = _PAYLOADS[station.protocol]
    flags = _BATTERY_OK_BIT if record.sensor_battery_ok else 0
    raws = []
    for f in fields:
        value = getattr(meta if f.in_meta else record, f.name)
        if value is None and f.bit:
            raws.append(0)
        else:
            flags |= f.bit
            raws.append(f.wire(value))
    return layout.pack(PAYLOAD_VERSION, station.protocol.value,
                       station.channel << 14 | station.id, record.seq, flags, *raws)


def payload_decode(data: bytes) -> tuple[WeatherRecord, PayloadMeta]:
    if len(data) < 2:
        raise PayloadError(f"payload too short ({len(data)} bytes)")
    if data[0] != PAYLOAD_VERSION:
        raise PayloadError(f"unknown payload version {data[0]:#04x}")
    protocol = _PROTOCOL_BYTES.get(data[1])
    if protocol is None:
        raise PayloadError(f"unknown station type {data[1]:#04x}")
    layout, fields = _PAYLOADS[protocol]
    if len(data) != layout.size:
        raise PayloadError(f"wrong length {len(data)} for {protocol.label} (expected {layout.size})")

    _, _, sid, seq, flags, *raws = layout.unpack(data)
    try:
        station = StationId(protocol, sid & 0x3FFF, sid >> 14)
    except ValueError as exc:
        raise PayloadError(str(exc)) from None
    if flags & _RESERVED_BIT:
        raise PayloadError("reserved validity bit is set")
    for i, f in _RANGE_CHECKS[protocol]:
        if not f.lo <= raws[i] <= f.hi:
            raise PayloadError(f"{f.label} wire value {raws[i]} outside {f.lo}..{f.hi}")
    values = [None if f.bit and not flags & f.bit else f.value(raw) for f, raw in zip(fields, raws)]
    # wire order is the record's field order, then the meta's; lcw has no board temperature
    if protocol is Protocol.LCW:
        values.insert(6, 0.0)
    record = WeatherRecord(station, seq, bool(flags & _BATTERY_OK_BIT), *values[:8])
    return record, PayloadMeta(*values[8:])


# ---------------------------------------------------------------------------
# ABP session and uplink frames

MHDR_UNCONFIRMED_UP = 0x40
MAX_FRM_PAYLOAD = 222
MAX_PHY_PAYLOAD = 255    # the LoRa PHY length field is one byte
FCNT_RESYNC_WINDOW = 16


def _parse_key(value: bytes | str, length: int, name: str) -> bytes:
    try:
        value = bytes.fromhex(value) if isinstance(value, str) else value
    except ValueError as exc:   # its position, never the key text
        raise ValueError(f"{name}: {exc}") from None
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise ValueError(f"{name} must be hex text or bytes, not {type(value).__name__}")
    if len(value) != length:
        raise ValueError(f"{name} must be {length} bytes")
    return bytes(value)


class AbpSession:
    """Statically provisioned session state. ``fcnt_up`` is the next uplink
    counter on the device side, or the next expected counter on the server
    side; ``frame_build`` and ``frame_parse`` each advance it past their frame.

    The identity (``dev_addr``, ``nwk_skey``, ``app_skey``, ``fport``) is
    fixed at construction, as ABP provisions it once: it is parsed and keyed
    there, and assigning it later raises ``AttributeError``. An address or
    key is hex text or bytes, ``fcnt_up`` and ``fport`` are ints (not
    bools); anything else raises ``ValueError``. A ``fcnt_up`` assigned
    later that is not an int in 0..2^32-1 makes the frame functions raise
    ``CounterError``. The keys stay out of ``repr``. The session keeps the
    three AES contexts its frames use, reused across calls: the NwkSKey's
    CMAC template, which keys every MIC, and a never-finalized ECB encryptor
    per key for the FRMPayload. So a session has a single writer: no two
    threads may build or parse with it at once."""

    __slots__ = ("fcnt_up", "_dev_addr", "_nwk_skey", "_app_skey", "_fport",
                 "_mic_cmac", "_nwk_ecb", "_app_ecb")

    def __init__(self, dev_addr: bytes | str, nwk_skey: bytes | str, app_skey: bytes | str,
                 fcnt_up: int = 0, fport: int = 1):
        self._dev_addr = _parse_key(dev_addr, 4, "dev_addr")
        self._nwk_skey = _parse_key(nwk_skey, 16, "nwk_skey")
        self._app_skey = _parse_key(app_skey, 16, "app_skey")
        # exactly int: a bool is not a port or a counter
        if type(fport) is not int or not 1 <= fport <= 223:
            raise ValueError(f"fport {reprlib.repr(fport)} outside application range 1..223")
        if type(fcnt_up) is not int or not 0 <= fcnt_up < 2**32:
            raise ValueError(f"fcnt_up {reprlib.repr(fcnt_up)} is not a 32-bit counter")
        from cryptography.hazmat.primitives.cmac import CMAC
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        nwk, app = algorithms.AES(self._nwk_skey), algorithms.AES(self._app_skey)
        self._mic_cmac = CMAC(nwk)
        self._nwk_ecb, self._app_ecb = (Cipher(aes, modes.ECB()).encryptor() for aes in (nwk, app))
        self.fcnt_up, self._fport = fcnt_up, fport

    # read-only, and read in C; the frame functions read the slots themselves
    dev_addr = property(attrgetter("_dev_addr"))
    nwk_skey = property(attrgetter("_nwk_skey"))
    app_skey = property(attrgetter("_app_skey"))
    fport = property(attrgetter("_fport"))

    def __repr__(self) -> str:
        return f"AbpSession(dev_addr={self._dev_addr!r}, fcnt_up={self.fcnt_up}, fport={self._fport})"

    def __eq__(self, other) -> bool:    # defining it leaves the session unhashable
        state = attrgetter("_dev_addr", "_nwk_skey", "_app_skey", "fcnt_up", "_fport")
        return type(other) is AbpSession and state(self) == state(other)


# The first 15 bytes of the A_i and B_0 blocks: the first byte, four zeros, the
# direction (0: uplink), the DevAddr, the 32-bit counter and a zero, before
# the block index or the message length.
_block_head = struct.Struct("<B5x4sIx").pack


def _keystream_xor(ecb, dev_addr_le: bytes, fcnt32: int, data: bytes) -> bytes:
    """FRMPayload encryption: XOR with AES-encrypted counter blocks, all
    encrypted in one call. The operation is its own inverse."""
    n = len(data)
    head = _block_head(0x01, dev_addr_le, fcnt32)
    blocks = b"".join([head + bytes((i,)) for i in range(1, (n + 15) // 16 + 1)])
    keystream = ecb.update(blocks)[:n]
    return (int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")).to_bytes(n, "big")


def _mic(cmac, dev_addr_le: bytes, fcnt32: int, msg: bytes) -> bytes:
    c = cmac.copy()
    c.update(_block_head(0x49, dev_addr_le, fcnt32) + bytes((len(msg),)) + msg)
    return c.finalize()[:4]


def _counter(session: AbpSession) -> int:
    """``session.fcnt_up``; CounterError if an assignment left it out of range."""
    fcnt = session.fcnt_up
    if type(fcnt) is not int or fcnt < 0:
        raise CounterError(f"fcnt_up {reprlib.repr(fcnt)} is not a 32-bit counter")
    if fcnt >= 2**32:
        raise CounterError("uplink counter exhausted")
    return fcnt


def frame_build(session: AbpSession, payload: bytes) -> bytes:
    """Build an unconfirmed uplink and advance the session counter.

    An empty payload omits FPort and FRMPayload entirely (12-byte frame);
    otherwise the frame is 13 bytes of structure plus the payload.
    """
    if len(payload) > MAX_FRM_PAYLOAD:
        raise PayloadError(f"payload of {len(payload)} bytes exceeds {MAX_FRM_PAYLOAD}")
    fcnt32 = _counter(session)
    dev_addr_le = session._dev_addr[::-1]
    msg = bytes([MHDR_UNCONFIRMED_UP]) + dev_addr_le + b"\x00" + struct.pack("<H", fcnt32 & 0xFFFF)
    if payload:
        msg += bytes([session._fport])
        msg += _keystream_xor(session._app_ecb, dev_addr_le, fcnt32, payload)
    mic = _mic(session._mic_cmac, dev_addr_le, fcnt32, msg)
    session.fcnt_up = fcnt32 + 1
    return msg + mic


def frame_parse(data: bytes, session: AbpSession) -> tuple[bytes, int]:
    """Verify and decrypt an uplink frame and advance the session counter.

    The 16-bit counter in the frame is rolled forward from the session
    counter; frames more than 16 counts ahead, not strictly advancing, or
    past the 32-bit counter space are rejected before the MIC is even
    checked, as are frames from another DevAddr. The MIC is verified before
    any decryption. Once it verifies, ``session.fcnt_up`` becomes the
    frame's 32-bit counter + 1; a rejected frame leaves it unchanged.
    """
    if not 12 <= len(data) <= MAX_PHY_PAYLOAD:
        raise FrameError(f"frame of {len(data)} bytes is outside 12..{MAX_PHY_PAYLOAD} bytes")
    if data[0] != MHDR_UNCONFIRMED_UP:
        raise UnsupportedMhdrError(f"MHDR {data[0]:#04x} is not an unconfirmed uplink")
    if data[5] & 0x0F:
        raise FrameError("frames with FOpts are not supported")
    dev_addr_le = session._dev_addr[::-1]
    if data[1:5] != dev_addr_le:
        raise FrameError(f"DevAddr {data[4:0:-1].hex()} is not this session's "
                         f"{session._dev_addr.hex()}")
    fcnt16 = struct.unpack("<H", data[6:8])[0]

    expected = _counter(session)
    fcnt32 = (expected & 0xFFFF0000) | fcnt16
    if fcnt32 < expected:
        fcnt32 += 0x10000
    if fcnt32 - expected > FCNT_RESYNC_WINDOW:
        raise CounterError(
            f"counter {fcnt16} outside resync window [{expected}, {expected + FCNT_RESYNC_WINDOW}]"
        )
    if fcnt32 >= 2**32:
        raise CounterError(f"counter {fcnt16} rolls past the 32-bit counter space")

    msg, mic = data[:-4], data[-4:]
    if _mic(session._mic_cmac, dev_addr_le, fcnt32, msg) != mic:
        raise MicMismatchError("MIC verification failed")
    session.fcnt_up = fcnt32 + 1
    if len(msg) == 8:
        return b"", fcnt32
    ecb = session._app_ecb if msg[8] != 0 else session._nwk_ecb
    return _keystream_xor(ecb, dev_addr_le, fcnt32, msg[9:]), fcnt32


# ---------------------------------------------------------------------------
# Time on air and duty cycle

_BANDWIDTHS = (125_000, 250_000, 500_000)
MAX_PREAMBLE_SYMBOLS = 0xFFFF    # the transceiver's preamble length register is 16 bits


@dataclass(frozen=True)
class RadioParams:
    """LoRa modem settings. ``low_dr_optimize=None`` applies the transceiver
    convention: on for SF11/SF12 at 125 kHz, off otherwise."""

    sf: int = 9
    bandwidth_hz: int = 125_000
    coding_rate: int = 1          # 1..4 for 4/5..4/8
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_on: bool = True
    low_dr_optimize: bool | None = None

    def __post_init__(self):
        if not 7 <= self.sf <= 12:
            raise ValueError(f"sf {self.sf} outside 7..12")
        if self.bandwidth_hz not in _BANDWIDTHS:
            raise ValueError(f"bandwidth {self.bandwidth_hz} not one of {_BANDWIDTHS}")
        if not 1 <= self.coding_rate <= 4:
            raise ValueError(f"coding rate {self.coding_rate} outside 1..4")
        if not 1 <= self.preamble_symbols <= MAX_PREAMBLE_SYMBOLS:
            raise ValueError(f"preamble must have 1..{MAX_PREAMBLE_SYMBOLS} symbols")

    @property
    def de(self) -> int:
        if self.low_dr_optimize is None:
            return int(self.sf >= 11 and self.bandwidth_hz == 125_000)
        return int(self.low_dr_optimize)


def airtime(params: RadioParams, phy_payload_len: int) -> float:
    """LoRa time-on-air in seconds for a PHY payload of the given length."""
    if not 0 <= phy_payload_len <= MAX_PHY_PAYLOAD:
        raise ValueError(f"payload length {phy_payload_len} outside 0..{MAX_PHY_PAYLOAD}")
    t_sym = 2**params.sf / params.bandwidth_hz
    t_preamble = (params.preamble_symbols + 4.25) * t_sym
    crc = int(params.crc_on)
    ih = 0 if params.explicit_header else 1
    numerator = 8 * phy_payload_len - 4 * params.sf + 28 + 16 * crc - 20 * ih
    n_payload = 8 + max(
        math.ceil(numerator / (4 * (params.sf - 2 * params.de))) * (params.coding_rate + 4), 0
    )
    return t_preamble + n_payload * t_sym


def duty_cycle_wait(t_air: float, duty_limit: float) -> float:
    """Minimum post-transmission silence to honour the duty-cycle limit."""
    if not 0 < duty_limit <= 1:
        raise ValueError(f"duty limit {duty_limit} outside (0, 1]")
    if t_air <= 0:
        raise ValueError("airtime must be positive")
    return t_air * (1.0 / duty_limit - 1.0)


class DutyCycleGovernor:
    """Single sub-band transmit governor. Single writer."""

    def __init__(self, duty_limit: float = 0.01):
        duty_cycle_wait(1.0, duty_limit)   # raises for a limit outside (0, 1]
        self.duty_limit = duty_limit
        self._last_tx_end: float | None = None
        self._last_t_air = 0.0

    def check(self, now: float) -> tuple[bool, float]:
        """Whether a transmission is permitted now, and the earliest time
        one is. The airtime of the last transmission sets the silence that
        must follow it."""
        if self._last_tx_end is None:
            return True, now
        next_allowed = self._last_tx_end + duty_cycle_wait(self._last_t_air, self.duty_limit)
        return now >= next_allowed, next_allowed

    def note_transmission(self, tx_end: float, t_air: float) -> None:
        self._last_tx_end = tx_end
        self._last_t_air = t_air
