"""Compact uplink payload codec, LoRaWAN 1.0.x ABP frame construction and
parsing (uplink only, unconfirmed, no FOpts), LoRa time-on-air, and the
ETSI duty-cycle governor.

AES-128 and AES-CMAC come from the ``cryptography`` package; they are
standard primitives and not reimplemented here. The test suite carries an
independent hand-rolled CMAC oracle to keep the integrity check two-sided.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from cryptography.hazmat.primitives import cmac as _cmac
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .core import Protocol, StationId, ValidityFlags, WeatherRecord


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
PAYLOAD_LEN = {Protocol.A5N1: 29, Protocol.LCW: 27}


@dataclass(frozen=True)
class PayloadMeta:
    frames_received: int = 0
    cycle_time_s: int = 0


def _scale(value: float, factor: float, lo: int, hi: int, name: str) -> int:
    try:
        raw = round(value * factor)
    except (OverflowError, ValueError):     # NaN or infinity, given or reached by scaling
        raw = None
    if raw is None or not lo <= raw <= hi:
        raise PayloadError(f"{name} value {value} outside representable range")
    return raw


def payload_encode(
    record: WeatherRecord,
    meta: PayloadMeta = PayloadMeta(),
) -> bytes:
    """Pack a record into the fixed big-endian payload layout.

    Invalid fields encode as zero with the flag bit clear, so the byte
    image is canonical: encode(decode(b)) == b for any well-formed b.
    """
    v = record.valid
    out = bytearray()
    out.append(PAYLOAD_VERSION)
    out.append(record.station.protocol.value)
    out += struct.pack(">H", record.station.channel << 14 | record.station.id)
    out += struct.pack(">H", record.seq)
    out.append(v.to_byte())
    out += struct.pack(">h", _scale(record.temperature_c, 100, -32768, 32767, "temperature") if v.temp else 0)
    out.append(_scale(record.humidity_pct, 2, 0, 200, "humidity") if v.humidity else 0)
    out += struct.pack(">H", _scale(record.wind_speed_kph, 10, 0, 65535, "wind speed") if v.wind_speed else 0)
    if v.wind_dir and not 0 <= record.wind_dir_deg < 360:
        raise PayloadError(f"wind direction {record.wind_dir_deg} outside [0, 360)")
    out += struct.pack(">H", _scale(record.wind_dir_deg, 10, 0, 3599, "wind direction") if v.wind_dir else 0)
    out += struct.pack(">I", _scale(record.rain_mm, 100, 0, 0xFFFFFFFF, "rain") if v.rain else 0)
    out += struct.pack(">I", _scale(record.pressure_pa, 1, 0, 0xFFFFFFFF, "pressure") if v.pressure else 0)
    if record.station.protocol is Protocol.A5N1:
        out += struct.pack(">h", _scale(record.board_temp_c, 100, -32768, 32767, "board temperature"))
    out += struct.pack(">H", _scale(record.battery_mv, 1, 0, 65535, "battery voltage"))
    if not 0 <= meta.frames_received <= 255:
        raise PayloadError(f"frames_received {meta.frames_received} outside 0..255")
    out.append(meta.frames_received)
    out += struct.pack(">H", _scale(meta.cycle_time_s, 1, 0, 65535, "cycle time"))
    assert len(out) == PAYLOAD_LEN[record.station.protocol]
    return bytes(out)


def payload_decode(data: bytes) -> tuple[WeatherRecord, PayloadMeta]:
    if len(data) < 2:
        raise PayloadError(f"payload too short ({len(data)} bytes)")
    if data[0] != PAYLOAD_VERSION:
        raise PayloadError(f"unknown payload version {data[0]:#04x}")
    try:
        protocol = Protocol(data[1])
    except ValueError:
        raise PayloadError(f"unknown station type {data[1]:#04x}") from None
    expected = PAYLOAD_LEN[protocol]
    if len(data) != expected:
        raise PayloadError(f"wrong length {len(data)} for {protocol.label} (expected {expected})")

    sid = struct.unpack(">H", data[2:4])[0]
    try:
        station = StationId(protocol, sid & 0x3FFF, sid >> 14)
    except ValueError as exc:
        raise PayloadError(str(exc)) from None
    seq = struct.unpack(">H", data[4:6])[0]
    try:
        flags = ValidityFlags.from_byte(data[6])
    except ValueError as exc:
        raise PayloadError(str(exc)) from None
    hum_raw = data[9]
    if hum_raw > 200:
        raise PayloadError(f"humidity byte {hum_raw} > 200")

    temp = struct.unpack(">h", data[7:9])[0] / 100.0
    wind = struct.unpack(">H", data[10:12])[0] / 10.0
    wdir = struct.unpack(">H", data[12:14])[0] / 10.0
    rain = struct.unpack(">I", data[14:18])[0] / 100.0
    pressure = struct.unpack(">I", data[18:22])[0]
    off = 22
    board_temp = 0.0
    if protocol is Protocol.A5N1:
        board_temp = struct.unpack(">h", data[22:24])[0] / 100.0
        off = 24
    battery_mv = struct.unpack(">H", data[off:off + 2])[0]
    meta = PayloadMeta(
        frames_received=data[off + 2],
        cycle_time_s=struct.unpack(">H", data[off + 3:off + 5])[0],
    )
    record = WeatherRecord(
        station=station,
        seq=seq,
        temperature_c=temp if flags.temp else 0.0,
        humidity_pct=hum_raw / 2.0 if flags.humidity else 0.0,
        wind_speed_kph=wind if flags.wind_speed else 0.0,
        wind_dir_deg=wdir if flags.wind_dir else 0.0,
        rain_mm=rain if flags.rain else 0.0,
        pressure_pa=pressure if flags.pressure else 0,
        board_temp_c=board_temp,
        battery_mv=battery_mv,
        valid=flags,
    )
    return record, meta


# ---------------------------------------------------------------------------
# ABP session and uplink frames

MHDR_UNCONFIRMED_UP = 0x40
MAX_FRM_PAYLOAD = 222
MAX_PHY_PAYLOAD = 255    # the LoRa PHY length field is one byte
FCNT_RESYNC_WINDOW = 16
_AES_CACHE_MAX = 4       # NwkSKey and AppSKey, plus one reassignment of each


def _parse_key(value: bytes | str, length: int, name: str) -> bytes:
    if isinstance(value, str):
        value = bytes.fromhex(value)
    if len(value) != length:
        raise ValueError(f"{name} must be {length} bytes")
    return bytes(value)


class _AesContexts:
    """Reusable AES contexts for one key: an ECB encryptor that is never
    finalized (ECB over whole blocks carries no state between updates) and
    a keyed CMAC template that each MIC copies."""

    __slots__ = ("ecb", "cmac")

    def __init__(self, key: bytes):
        aes = algorithms.AES(key)
        self.ecb = Cipher(aes, modes.ECB()).encryptor()
        self.cmac = _cmac.CMAC(aes)


@dataclass
class AbpSession:
    """Statically provisioned session state. ``fcnt_up`` is the next uplink
    counter on the device side, or the next expected counter on the server
    side.

    The session keeps its keyed AES contexts in a small cache keyed by the
    key bytes, so assigning a new ``nwk_skey`` or ``app_skey`` takes effect
    on the next frame. A new key is checked as the constructor checks it:
    a hex string is accepted, and a key that is not 16 bytes makes
    ``frame_build`` and ``frame_parse`` raise ``ValueError``. The cache is
    not a field: it stays out of ``repr`` and ``==``. The contexts are
    reused across calls, so a session has a single writer: no two threads
    may build or parse with it at once."""

    dev_addr: bytes
    nwk_skey: bytes = field(repr=False, default=b"\x00" * 16)
    app_skey: bytes = field(repr=False, default=b"\x00" * 16)
    fcnt_up: int = 0
    fport: int = 1

    def __post_init__(self):
        self.dev_addr = _parse_key(self.dev_addr, 4, "dev_addr")
        self.nwk_skey = _parse_key(self.nwk_skey, 16, "nwk_skey")
        self.app_skey = _parse_key(self.app_skey, 16, "app_skey")
        if not 1 <= self.fport <= 223:
            raise ValueError(f"fport {self.fport} outside application range 1..223")
        if not 0 <= self.fcnt_up < 2**32:
            raise ValueError("fcnt_up must be a 32-bit counter")
        self._aes_cache: dict[bytes, _AesContexts] = {}

    @classmethod
    def from_hex(cls, dev_addr: str, nwk_skey: str, app_skey: str, **kw) -> "AbpSession":
        return cls(bytes.fromhex(dev_addr), bytes.fromhex(nwk_skey), bytes.fromhex(app_skey), **kw)

    def _aes(self, key: bytes) -> _AesContexts:
        try:
            ctx = self._aes_cache.get(key)
        except TypeError:       # a bytearray is unhashable: look it up by value
            key = bytes(key)
            ctx = self._aes_cache.get(key)
        if ctx is None:
            raw = _parse_key(key, 16, "session key")
            if len(self._aes_cache) >= _AES_CACHE_MAX:
                self._aes_cache.clear()
            ctx = self._aes_cache[key] = _AesContexts(raw)
        return ctx


def _block_head(first: int, dev_addr_le: bytes, fcnt32: int) -> bytes:
    """The first 15 bytes of the A_i and B_0 blocks; the last byte is the
    block index or the message length."""
    return bytes([first, 0, 0, 0, 0, 0x00]) + dev_addr_le + struct.pack("<I", fcnt32) + b"\x00"


def _keystream_xor(aes: _AesContexts, dev_addr_le: bytes, fcnt32: int, data: bytes) -> bytes:
    """FRMPayload encryption: XOR with AES-encrypted counter blocks, all
    encrypted in one call. The operation is its own inverse."""
    n = len(data)
    head = _block_head(0x01, dev_addr_le, fcnt32)
    blocks = b"".join([head + bytes((i,)) for i in range(1, (n + 15) // 16 + 1)])
    keystream = aes.ecb.update(blocks)[:n]
    return (int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")).to_bytes(n, "big")


def _mic(aes: _AesContexts, dev_addr_le: bytes, fcnt32: int, msg: bytes) -> bytes:
    c = aes.cmac.copy()
    c.update(_block_head(0x49, dev_addr_le, fcnt32) + bytes((len(msg),)) + msg)
    return c.finalize()[:4]


def frame_build(session: AbpSession, payload: bytes) -> bytes:
    """Build an unconfirmed uplink and advance the session counter.

    An empty payload omits FPort and FRMPayload entirely (12-byte frame);
    otherwise the frame is 13 bytes of structure plus the payload.
    """
    if len(payload) > MAX_FRM_PAYLOAD:
        raise PayloadError(f"payload of {len(payload)} bytes exceeds {MAX_FRM_PAYLOAD}")
    if session.fcnt_up >= 2**32:
        raise CounterError("uplink counter exhausted")
    fcnt32 = session.fcnt_up
    dev_addr_le = session.dev_addr[::-1]
    msg = bytes([MHDR_UNCONFIRMED_UP]) + dev_addr_le + b"\x00" + struct.pack("<H", fcnt32 & 0xFFFF)
    if payload:
        msg += bytes([session.fport])
        msg += _keystream_xor(session._aes(session.app_skey), dev_addr_le, fcnt32, payload)
    mic = _mic(session._aes(session.nwk_skey), dev_addr_le, fcnt32, msg)
    session.fcnt_up += 1
    return msg + mic


def frame_parse(data: bytes, session: AbpSession) -> tuple[bytes, int]:
    """Verify and decrypt an uplink frame.

    The 16-bit counter in the frame is rolled forward from the session
    counter; frames more than 16 counts ahead, not strictly advancing, or
    past the 32-bit counter space are rejected before the MIC is even
    checked, as are frames from another DevAddr. The MIC is verified before
    any decryption.
    """
    if not 12 <= len(data) <= MAX_PHY_PAYLOAD:
        raise FrameError(f"frame of {len(data)} bytes is outside 12..{MAX_PHY_PAYLOAD} bytes")
    if data[0] != MHDR_UNCONFIRMED_UP:
        raise UnsupportedMhdrError(f"MHDR {data[0]:#04x} is not an unconfirmed uplink")
    if data[5] & 0x0F:
        raise FrameError("frames with FOpts are not supported")
    dev_addr_le = session.dev_addr[::-1]
    if data[1:5] != dev_addr_le:
        raise FrameError(
            f"DevAddr {data[4:0:-1].hex()} is not this session's {session.dev_addr.hex()}"
        )
    fcnt16 = struct.unpack("<H", data[6:8])[0]

    expected = session.fcnt_up
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
    if _mic(session._aes(session.nwk_skey), dev_addr_le, fcnt32, msg) != mic:
        raise MicMismatchError("MIC verification failed")
    if len(msg) == 8:
        return b"", fcnt32
    frm = msg[9:]
    key = session.app_skey if msg[8] != 0 else session.nwk_skey
    return _keystream_xor(session._aes(key), dev_addr_le, fcnt32, frm), fcnt32


# ---------------------------------------------------------------------------
# Time on air and duty cycle

_BANDWIDTHS = (125_000, 250_000, 500_000)


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
        if self.preamble_symbols < 1:
            raise ValueError("preamble must have at least one symbol")

    @property
    def de(self) -> int:
        if self.low_dr_optimize is None:
            return int(self.sf >= 11 and self.bandwidth_hz == 125_000)
        return int(self.low_dr_optimize)


def airtime(params: RadioParams, phy_payload_len: int) -> float:
    """LoRa time-on-air in seconds for a PHY payload of the given length."""
    if not 0 <= phy_payload_len <= 255:
        raise ValueError(f"payload length {phy_payload_len} outside 0..255")
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
