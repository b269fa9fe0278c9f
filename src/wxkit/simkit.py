"""Deterministic discrete-event simulation of the sensor-to-LoRaWAN chain:
a weather-station emitter, a lossy 433 MHz channel, the transponder's
receive/repack/transmit state machine with an energy ledger and duty-cycle
governor, and a gateway/server endpoint that verifies and decodes uplinks.

Determinism contract: four named ``random.Random`` substreams, seeded from
``f"{seed}/{name}"``, drive the weather, the channel, the barometer and the
gateway, so a change to one component leaves the others' draws alone, and
identical (config, seed) pairs produce byte-identical traces. An emission
that lands while the transponder is not listening only moves the weather
on: it is counted, not traced, and draws nothing from the channel. Time
advances on two clocks, the next emission and the transponder's one wake
timer; when both fall at the same time, the emission goes first.

Each trace event is recorded as it happens, by the transponder or the
simulator, and reaches a sink in order; by default the returned ``SimTrace``
keeps them. With any other sink, nothing the run holds grows with its length.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import reprlib
import sys
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from . import energy as energy_mod
from . import lorawan, rfdecode
from .core import (
    FIELD_FLAGS,
    Protocol,
    SimConfigError,
    StationId,
    StationMismatchError,
    WeatherRecord,
    merge_partial,
    record_to_obj,
)
from .energy import DAY_S, HOUR_S
from .rfdecode import DIR_STEP_DEG, LCW_RAIN_MM_PER_COUNT, RAIN_MM_PER_TIP, LcwQuantity


class ProtocolViolationError(RuntimeError):
    """An event was delivered to a state that cannot accept it (test aid)."""


# ---------------------------------------------------------------------------
# Configuration

# The ABP test credentials of the simulated link. Its two ends hold the same
# session and no trace line holds a frame byte, so no choice of credentials or
# port could change a run; a real deployment sets its own in ``wxkit frame``.
_DEFAULT_DEVADDR = "26011157"
_DEFAULT_NWKSKEY = "2b7e151628aed2a6abf7158809cf4f3c"
_DEFAULT_APPSKEY = "000102030405060708090a0b0c0d0e0f"


class _Spec:
    """A config object: an int in a float field is held as a float, however the
    object is built. An int too large for a float is kept, for the check to report."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and type(value) is int and abs(value) <= sys.float_info.max:
                object.__setattr__(self, f.name, float(value))


@dataclass(frozen=True)
class StationSpec(_Spec):
    protocol: Protocol = Protocol.A5N1
    id: int = 0x2A7
    channel: int = 2
    emission_period_s: float = 18.0


@dataclass(frozen=True)
class ChannelSpec(_Spec):
    frame_loss_p: float = 0.0
    bit_flip_q: float = 0.0


@dataclass(frozen=True)
class TransponderSpec(_Spec):
    profile: str = "bsf32"
    t_cycle_s: float = 900.0
    rx_timeout_s: float = 60.0
    sf: int = 9
    duty_limit: float = 0.01


@dataclass(frozen=True)
class GatewaySpec(_Spec):
    uplink_loss_p: float = 0.0


@dataclass(frozen=True)
class BarometerSpec(_Spec):
    pressure_pa: int = 101_325
    board_temp_c: float = 24.0
    pressure_noise_pa: float = 0.0
    temp_noise_c: float = 0.0


PRESSURE_PA_RANGE = lorawan.PAYLOAD_RANGES["pressure_pa"]
BOARD_TEMP_C_RANGE = lorawan.PAYLOAD_RANGES["board_temp_c"]

# The longest run a config may ask for, as a sanity bound: a streamed run
# holds nothing that grows with its length.
MAX_DURATION_S = 366 * DAY_S


# The values a config field accepts, by its annotation; a bool is not a number.
_FIELD_TYPES = {"float": ((int, float), "a number"), "int": (int, "an integer"),
                "str": (str, "a string"),
                "Protocol": (Protocol, " or ".join(repr(p.label) for p in Protocol))}


def _mistyped(prefix: str, spec) -> list[str]:
    """One problem per field of ``spec`` whose value has the wrong type or is
    too large: an int outside 64 bits, or, in a float field, an int too large
    for a float. A value is echoed shortened, as it may be huge."""
    problems = []
    for f in dataclasses.fields(spec):
        if f.type in _FIELD_TYPES:
            types, what = _FIELD_TYPES[f.type]
            value = getattr(spec, f.name)
            if isinstance(value, bool) or not isinstance(value, types):
                problems.append(f"{prefix}{f.name} must be {what}, not {reprlib.repr(value)}")
            elif f.type == "int" and not -2**63 <= value < 2**63:
                problems.append(f"{prefix}{f.name} is too large")
            elif f.type == "float" and type(value) is int and abs(value) > sys.float_info.max:
                problems.append(f"{prefix}{f.name} is too large for a float")
    return problems


def _from_obj(spec_cls, obj: dict, where: str):
    """``spec_cls`` from the JSON object ``obj``, checked for unknown options
    first. A nested spec is built from its own object, a protocol label is
    converted, and an absent option keeps its default."""
    fields = dataclasses.fields(spec_cls)
    unknown = set(obj) - {f.name for f in fields}
    if unknown:
        raise SimConfigError([f"unknown {where} option(s): {sorted(unknown)}"])
    values = dict(obj)
    for f in fields:
        if dataclasses.is_dataclass(f.default):
            raw = obj.get(f.name, {})
            if not isinstance(raw, dict):
                raise SimConfigError([f"{f.name} must be an object, not {reprlib.repr(raw)}"])
            values[f.name] = _from_obj(type(f.default), raw, f.name)
        elif f.type == "Protocol" and f.name in obj:
            try:
                values[f.name] = Protocol.from_label(obj[f.name])
            except ValueError:
                pass    # kept as it is, for the config's check to report
    return spec_cls(**values)


def _session() -> lorawan.AbpSession:
    return lorawan.AbpSession(_DEFAULT_DEVADDR, _DEFAULT_NWKSKEY, _DEFAULT_APPSKEY)


@dataclass(frozen=True)
class SimConfig(_Spec):
    """The settings of one run, checked when they are built: ``SimConfig(...)``,
    ``from_dict`` and ``dataclasses.replace`` raise ``SimConfigError`` with
    every problem."""
    duration_s: float = 86_400.0
    seed: int = 1
    station: StationSpec = StationSpec()
    channel: ChannelSpec = ChannelSpec()
    transponder: TransponderSpec = TransponderSpec()
    gateway: GatewaySpec = GatewaySpec()
    barometer: BarometerSpec = BarometerSpec()

    def __post_init__(self):
        super().__post_init__()
        if problems := self._problems():
            raise SimConfigError(problems)

    def _problems(self) -> list[str]:
        """All problems at once, so the CLI can report them together. A
        wrongly typed field, or a nested spec of the wrong type, is one
        problem, and the other rules of its object are skipped. The rules of
        the station, radio, governor and energy model are checked by building
        those objects, one problem per object."""
        st, ch, tr, gw = self.station, self.channel, self.transponder, self.gateway
        problems = _mistyped("", self)
        typed = set() if problems else {""}
        for name, spec, spec_cls in (("station", st, StationSpec), ("channel", ch, ChannelSpec),
                                     ("transponder", tr, TransponderSpec), ("gateway", gw, GatewaySpec),
                                     ("barometer", self.barometer, BarometerSpec)):
            mistyped = (_mistyped(f"{name}.", spec) if isinstance(spec, spec_cls) else
                        [f"{name} must be a {spec_cls.__name__}, not {reprlib.repr(spec)}"])
            problems += mistyped
            if not mistyped:
                typed.add(f"{name}.")

        def check(label, build, *args, **kw):
            try:
                build(*args, **kw)
            except ValueError as exc:
                problems.append(f"{label}: {exc}")

        if "" in typed and not 0 < self.duration_s <= MAX_DURATION_S:
            problems.append(f"duration_s must be positive and at most {MAX_DURATION_S:.0f} (366 days)")
        if "station." in typed:
            # a shorter period would send the next frame before this one ends
            min_period = rfdecode.FRAME_AIR_S[st.protocol]
            if not min_period <= st.emission_period_s < math.inf:
                problems.append(f"station.emission_period_s must be finite and at least "
                                f"{min_period} s, one {st.protocol.label} frame on air")
            check("station", StationId, st.protocol, st.id, st.channel)
        for prefix, spec, name in (("channel.", ch, "frame_loss_p"), ("channel.", ch, "bit_flip_q"),
                                   ("gateway.", gw, "uplink_loss_p")):
            if prefix in typed and not 0 <= getattr(spec, name) <= 1:
                problems.append(f"{prefix}{name} {getattr(spec, name)} outside [0, 1]")
        if "barometer." in typed:
            b = self.barometer
            for name, (lo, hi) in (("pressure_pa", PRESSURE_PA_RANGE),
                                   ("board_temp_c", BOARD_TEMP_C_RANGE)):
                value = getattr(b, name)
                if not lo <= value <= hi:
                    problems.append(f"barometer.{name} {value} outside [{lo}, {hi}]")
            for name in ("pressure_noise_pa", "temp_noise_c"):
                if not 0 <= getattr(b, name) < math.inf:
                    problems.append(f"barometer.{name} must be non-negative and finite")
        if "transponder." not in typed:
            return problems
        profile = energy_mod.PROFILES.get(tr.profile)
        if profile is None:
            problems.append(f"transponder.profile {reprlib.repr(tr.profile)} unknown "
                            f"(have {sorted(energy_mod.PROFILES)})")
        max_cycle_s = lorawan.PAYLOAD_RANGES["cycle_time_s"][1]
        if not 0 < tr.t_cycle_s <= max_cycle_s:
            problems.append(f"transponder.t_cycle_s must be in (0, {max_cycle_s}]")
        elif profile is not None:
            check("transponder.t_cycle_s", energy_mod.cycle_energy, profile, tr.t_cycle_s)
        if not 0 < tr.rx_timeout_s < math.inf:
            problems.append("transponder.rx_timeout_s must be positive and finite")
        check("transponder.duty_limit", lorawan.DutyCycleGovernor, tr.duty_limit)
        check("transponder radio settings", lorawan.RadioParams, sf=tr.sf)
        return problems

    @classmethod
    def from_dict(cls, obj: dict) -> "SimConfig":
        """Options as ``_from_obj`` reads them. Any value not converted is kept
        as it is, for the config's check to report against its field."""
        if not isinstance(obj, dict):
            raise SimConfigError([f"config must be a JSON object, not {reprlib.repr(obj)}"])
        return _from_obj(cls, obj, "config")

    def to_dict(self) -> dict:
        obj = dataclasses.asdict(self)
        obj["station"]["protocol"] = self.station.protocol.label
        return obj


# ---------------------------------------------------------------------------
# Channel

def channel_apply(bits: str, spec: ChannelSpec, rng: random.Random) -> str | None:
    """Drop the frame with probability p, else flip each bit independently
    with probability q. Returns None for a dropped frame, and ``bits``
    itself when no bit flips. One draw per bit, in bit order, whenever
    q > 0."""
    if rng.random() < spec.frame_loss_p:
        return None
    q = spec.bit_flip_q
    if q <= 0:
        return bits
    draw = rng.random
    flips = [i for i in range(len(bits)) if draw() < q]
    if not flips:
        return bits
    out = list(bits)
    for i in flips:
        out[i] = "1" if out[i] == "0" else "0"
    return "".join(out)


# ---------------------------------------------------------------------------
# Weather-station emitter

class _Emitter:
    """Evolves a plausible weather state and emits protocol frames on the
    configured period (first emission at half a period, which keeps
    emissions off the transponder's cycle boundaries)."""

    def __init__(self, spec: StationSpec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.station = StationId(spec.protocol, spec.id, spec.channel)
        self.temp_c = 20.0
        self.humidity = 55.0
        self.wind_kph = 8.0
        self.dir_code = 4
        self.rain_tips = 120
        self.msg_index = 0

    def advance(self):
        """Move the weather and the message index on by one emission: all
        that an emission no receiver hears does."""
        # uniform steps as uniform(a, b) draws them, a + (b - a) * random(), and
        # min(hi, max(lo, x)) written out: the same float, signed zero included
        r = self.rng.random
        t = self.temp_c + (-0.05 + 0.1 * r())
        self.temp_c = t if -25.0 < t < 55.0 else 55.0 if t > -25.0 else -25.0
        h = self.humidity + (-0.3 + 0.6 * r())
        self.humidity = h if 5.0 < h < 99.0 else 99.0 if h > 5.0 else 5.0
        w = self.wind_kph + (-0.4 + 0.8 * r())
        self.wind_kph = w if 0.0 < w < 80.0 else 80.0 if w > 0.0 else 0.0
        self.dir_code = (self.dir_code + int(3 * r()) - 1) % 16
        if r() < 0.05:
            self.rain_tips += 1
        self.msg_index += 1

    def emit(self) -> tuple[str, str, str]:
        """Returns (bits, message label, frame hex)."""
        index = self.msg_index
        self.advance()
        if self.spec.protocol is Protocol.A5N1:
            message_type = rfdecode.A5N1_MESSAGE_TYPES[index % 2]
            bits = rfdecode.bytes_to_bits(rfdecode.build_a5n1_frame(
                self.station, message_type,
                wind_kph=self.wind_kph,
                wind_dir_deg=self.dir_code * DIR_STEP_DEG,
                # the station's tip counter is 14 bits and wraps
                rain_mm=(self.rain_tips % rfdecode.A5N1_RAIN_WRAP) * RAIN_MM_PER_TIP,
                temperature_c=self.temp_c,
                humidity_pct=self.humidity,
            ))
            label = f"{message_type:#04x}"
        else:
            quantity = LcwQuantity(index % 5)
            value = {
                LcwQuantity.TEMP: self.temp_c,
                LcwQuantity.HUMIDITY: self.humidity,
                # the station's three-digit rain count wraps too
                LcwQuantity.RAIN: round(self.rain_tips / 4) % rfdecode.LCW_VALUE_WRAP * LCW_RAIN_MM_PER_COUNT,
                LcwQuantity.WIND_SPEED: self.wind_kph / 3.6,
                LcwQuantity.WIND_DIR: self.dir_code * DIR_STEP_DEG,
            }[quantity]
            bits = rfdecode.nibbles_to_bits(rfdecode.build_lcw_frame(quantity, value, self.station))
            label = quantity.name.lower()
        return bits, label, rfdecode.bits_to_hex(bits)


# ---------------------------------------------------------------------------
# Transponder state machine

class State:
    """The transponder's states, as the plain text that every trace event,
    ``state_time`` and the energy ledger hold."""

    RESET = "reset"
    INIT = "init"
    RX1 = "rx1"
    INTER_SLEEP = "inter_sleep"
    RX2 = "rx2"
    READ_BARO = "read_baro"
    BUILD_TX = "build_tx"
    TRANSMIT = "transmit"
    DEEP_SLEEP = "deep_sleep"


RX_STATES = (State.RX1, State.RX2)
SHR_ON_STATES = (State.RX1, State.INTER_SLEEP, State.RX2)

RESET_S = 0.1
INIT_S = 0.5
INTER_SLEEP_S = 10.0
READ_BARO_S = 0.2
BUILD_TX_S = 0.2

# Where a receive window goes when it closes, on a frame or on its timeout.
RX_EXITS = {State.RX1: (State.INTER_SLEEP, INTER_SLEEP_S), State.RX2: (State.READ_BARO, READ_BARO_S)}


class Transponder:
    """Receive two sensor messages, read the barometer, repack, transmit,
    deep-sleep for the rest of the cycle.

    The transponder has one live timer, ``wake_at``; every state change and
    every governor wait replaces it. ``step(now)`` fires that timer and
    ``step(now, bits)`` delivers a received frame. Each mutates only this
    object and records what happens, in order, returning nothing: each trace
    event goes to ``record(now, event)``, and a transmission ends with its
    ``uplink_tx`` event, then ``uplink(now, frame)`` with the frame bytes
    alone, as a network server receives them. The emissions that arrive
    while it is not listening are added to ``unheard``; each state that ends
    with some records one ``frames_missed`` entry.
    """

    def __init__(self, spec: TransponderSpec, station: StationId, baro: BarometerSpec,
                 rng: random.Random, record: Callable[[float, dict], object],
                 uplink: Callable[[float, bytes], object]):
        self.spec = spec
        self.station = station
        self.baro = baro
        self.rng = rng
        self._record_event = record
        self._hand_over = uplink
        self.profile = energy_mod.PROFILES[spec.profile]
        self.session = _session()
        self.radio = lorawan.RadioParams(sf=spec.sf)
        self.governor = lorawan.DutyCycleGovernor(spec.duty_limit)

        self.state = State.RESET
        self.state_entered = 0.0
        self.wake_at = RESET_S
        self.cycle = 0
        self.cycle_start: float | None = None
        self.state_time: dict[str, float] = {}
        self.record = WeatherRecord(station)
        self.frames_received = 0
        self.unheard = 0
        # the built frame and its uplink_tx event, held until the transmission ends
        self._pending: tuple[bytes, dict] | None = None

    def boot(self):
        self._record_event(0.0, {"ev": "state", "from": None, "to": self.state})

    # -- transitions --------------------------------------------------------

    def _accrue(self, now: float):
        """Charge the time since the last accrual to the current state, and
        record the emissions it did not hear, as one count."""
        self.state_time[self.state] = self.state_time.get(self.state, 0.0) + (now - self.state_entered)
        self.state_entered = now
        if self.unheard:
            self._record_event(now, {"ev": "frames_missed", "state": self.state, "n": self.unheard})
            self.unheard = 0

    def _enter(self, now: float, new_state: str, duration: float):
        self._accrue(now)
        self._record_event(now, {"ev": "state", "from": self.state, "to": new_state})
        self.state = new_state
        self.wake_at = now + duration

    def step(self, now: float, bits: str | None = None):
        if bits is not None:
            self._on_frame(now, bits)
            return
        s = self.state
        if s == State.RESET:
            self._enter(now, State.INIT, INIT_S)
        elif s in RX_STATES:
            self._record_event(now, {"ev": "rx_timeout", "state": s})
            self._enter(now, *RX_EXITS[s])
        elif s == State.INTER_SLEEP:
            self._enter(now, State.RX2, self.spec.rx_timeout_s)
        elif s == State.READ_BARO:
            self._read_baro(now)
        elif s == State.BUILD_TX:
            self._build_and_maybe_transmit(now)
        elif s == State.TRANSMIT:
            self._finish_transmit(now)
        else:
            self._start_cycle(now)     # INIT or DEEP_SLEEP

    def _on_frame(self, now: float, bits: str):
        if self.state not in RX_STATES:
            raise ProtocolViolationError(f"frame delivered in state {self.state}")
        try:
            partial = rfdecode.decoder(self.station.protocol)(bits)
            if partial.station != self.station:
                raise StationMismatchError("foreign station")
        except (rfdecode.DecodeError, StationMismatchError) as exc:
            self._record_event(now, {"ev": "frame_rx", "state": self.state, "ok": False,
                                     "reason_code": type(exc).__name__, "reason": str(exc)})
            return
        self.record = merge_partial(self.record, partial)
        self.frames_received += 1
        self._record_event(now, {"ev": "frame_rx", "state": self.state,
                                 "ok": True, "record": record_to_obj(partial)})
        self._enter(now, *RX_EXITS[self.state])

    def _start_cycle(self, now: float):
        self.cycle += 1
        self.cycle_start = now
        self.record = WeatherRecord(self.station)
        self.frames_received = 0
        self._enter(now, State.RX1, self.spec.rx_timeout_s)
        # the sleep that just ended closes its energy entry here
        self._sleep_entry(now)

    def _read_baro(self, now: float):
        b = self.baro
        pressure = b.pressure_pa + (self.rng.gauss(0.0, b.pressure_noise_pa)
                                    if b.pressure_noise_pa > 0 else 0.0)
        board_temp = b.board_temp_c + (self.rng.gauss(0.0, b.temp_noise_c)
                                       if b.temp_noise_c > 0 else 0.0)
        # a noisy draw can leave what the payload carries
        pressure = min(max(pressure, PRESSURE_PA_RANGE[0]), PRESSURE_PA_RANGE[1])
        board_temp = min(max(board_temp, BOARD_TEMP_C_RANGE[0]), BOARD_TEMP_C_RANGE[1])
        self.record = self.record.replace(
            pressure_pa=round(pressure),
            board_temp_c=round(board_temp, 2),
            battery_mv=round(self.profile.supply_v * 1000),
        )
        self._record_event(now, {"ev": "baro", "pressure_pa": self.record.pressure_pa,
                                 "board_temp_c": self.record.board_temp_c})
        self._enter(now, State.BUILD_TX, BUILD_TX_S)

    def _build_and_maybe_transmit(self, now: float):
        if self._pending is None:
            self.record = self.record.replace(seq=self.cycle & 0xFFFF)
            meta = lorawan.PayloadMeta(
                frames_received=self.frames_received,
                cycle_time_s=round(self.spec.t_cycle_s),
            )
            payload = lorawan.payload_encode(self.record, meta)
            fcnt = self.session.fcnt_up
            frame = lorawan.frame_build(self.session, payload)
            self._pending = frame, {"ev": "uplink_tx", "fcnt": fcnt, "phy_len": len(frame),
                                    "t_air": lorawan.airtime(self.radio, len(frame)),
                                    "record": record_to_obj(self.record)}
        allowed, next_allowed = self.governor.check(now)
        if not allowed:
            # stay in BUILD_TX (MCU waiting on the governor) until permitted
            self.wake_at = next_allowed
            self._record_event(now, {"ev": "governor_wait", "until": next_allowed})
            return
        self._enter(now, State.TRANSMIT, self._pending[1]["t_air"])

    def _finish_transmit(self, now: float):
        (frame, tx), self._pending = self._pending, None
        self.governor.note_transmission(now, tx["t_air"])
        sleep_s = max(0.0, self.spec.t_cycle_s - (now - self.cycle_start))
        # recorded and handed over before the sleep begins: the handler reads no transponder state
        self._record_event(now, tx)
        self._hand_over(now, frame)
        self._enter(now, State.DEEP_SLEEP, sleep_s)
        self._cycle_entry(now, self._active_ledger(), t_air=tx["t_air"])

    # -- energy ledger ------------------------------------------------------

    def _active_ledger(self, mcu_uw: float | None = None) -> dict[str, float]:
        """Attribute the platform's measured active-phase energy across the
        cycle's states: receiver-on states at the measured combined draw,
        the transmission at the radio draw, and the remaining states share
        whatever residual keeps the total at the measured lump. With loss
        the receiver can stay on long enough that its share alone exceeds
        the lump; then the residual floors at zero and physics wins. Given
        ``mcu_uw``, the remaining states are charged at that draw instead and
        no lump applies. Deep sleep is never among the states:
        ``_sleep_entry`` takes its time out when the next cycle starts."""
        p = self.profile
        ledger: dict[str, float] = {}
        others_s = 0.0
        for state, dur in self.state_time.items():
            uw = (p.shr_power_uw if state in SHR_ON_STATES else
                  p.tx_power_uw if state == State.TRANSMIT else mcu_uw)
            if uw is None:
                others_s += dur
            else:
                ledger[state] = uw * dur / HOUR_S
        e_shr = sum(ledger[s] for s in self.state_time if s in SHR_ON_STATES)
        e_tx = ledger.get(State.TRANSMIT, 0.0)
        residual = max(0.0, p.e_active_uwh - e_shr - e_tx)
        for state, dur in self.state_time.items():
            if state not in ledger:
                ledger[state] = residual * dur / others_s if others_s > 0 else 0.0
        return ledger

    def _sleep_entry(self, now: float, **extra):
        """The deep sleep accrued since the last entry, at sleep power."""
        sleep_s = self.state_time.pop(State.DEEP_SLEEP, 0.0)
        if sleep_s <= 0:
            return
        uwh = self.profile.sleep_power_uw * sleep_s / HOUR_S
        self._record_event(now, {"ev": "sleep_energy", **extra, "uwh": uwh, "sleep_s": sleep_s})

    def _cycle_entry(self, now: float, ledger: dict[str, float], **extra):
        """The energy entry of the active states accrued since the last one;
        clears their accrued time."""
        by_state = {k: ledger[k] for k in sorted(ledger)}
        self._record_event(now, {"ev": "cycle_energy", "cycle": self.cycle, "by_state": by_state,
                                 "active_s": sum(self.state_time.values()), **extra})
        self.state_time = {}

    def flush(self, now: float):
        """Account the state in progress when the simulation ends: its
        unheard emissions, and its energy. A partial deep sleep is charged
        at sleep power; a partial active phase is charged per-state at
        component rates, the fitted MCU draw where a state has none (no lump
        for unfinished work)."""
        self._accrue(now)
        self._sleep_entry(now, cycle=self.cycle)
        if self.state_time:
            ledger = self._active_ledger(energy_mod.fit_component_power(self.profile))
            self._cycle_entry(now, ledger, partial=True, t_air=0.0)


# ---------------------------------------------------------------------------
# Trace

# The closed set of trace events. Each event is ``{"t": time, "ev": kind,
# **fields}``; a kind maps to the field sets its events take, the usual one
# first. A frame that fails to decode has a ``reason`` and its ``reason_code``,
# the exception's class name, where a decoded one has its ``record``, and the
# energy entries of a run's end (``flush``) carry one field more.
EVENT_FIELDS: dict[str, tuple[tuple[str, ...], ...]] = {
    "state": (("from", "to"),),
    "frames_missed": (("n", "state"),),
    "frame_rx": (("ok", "record", "state"), ("ok", "reason", "reason_code", "state")),
    "rx_timeout": (("state",),),
    "baro": (("board_temp_c", "pressure_pa"),),
    "governor_wait": (("until",),),
    "sleep_energy": (("sleep_s", "uwh"), ("cycle", "sleep_s", "uwh")),
    "cycle_energy": (("active_s", "by_state", "cycle", "t_air"),
                     ("active_s", "by_state", "cycle", "partial", "t_air")),
    "emit": (("frame_hex", "msg"),),
    "channel_drop": ((),),
    "channel_corrupt": (("flips",),),
    "uplink_tx": (("fcnt", "phy_len", "record", "t_air"),),
    "uplink_drop": ((),),
    "uplink_error": (("reason", "reason_code"),),
    "record": (("cycle_time_s", "fcnt", "frames_received", "record"),),
}

# One encoder for every line a template does not write; ``json.dumps(...,
# sort_keys=True)`` would build a new one per call and write the same text. A
# line is a tree of fresh dicts and lists the simulator builds, never a
# cycle, so the cycle check is skipped.
_to_json = json.JSONEncoder(sort_keys=True, check_circular=False).encode


_RECORD_KEYS = frozenset(f.name for f in dataclasses.fields(WeatherRecord))
_STATION_KEYS = frozenset(f.name for f in dataclasses.fields(StationId))


def _record_json(r: dict) -> str:
    """A record as ``record_to_obj`` writes it, keys sorted. A number goes
    in with ``%s``: ``str`` of an int or a float is its ``repr``."""
    st = r["station"]
    if r.keys() != _RECORD_KEYS or st.keys() != _STATION_KEYS:
        return _to_json(r)
    return (
        '{"battery_mv": %s, "board_temp_c": %s, "humidity_pct": %s, "pressure_pa": %s, '
        '"rain_mm": %s, "sensor_battery_ok": %s, "seq": %s, '
        '"station": {"channel": %s, "id": %s, "protocol": "%s"}, '
        '"temperature_c": %s, "wind_dir_deg": %s, "wind_speed_kph": %s}'
    ) % (r["battery_mv"], r["board_temp_c"],
         "null" if (v := r["humidity_pct"]) is None else v,
         "null" if (v := r["pressure_pa"]) is None else v,
         "null" if (v := r["rain_mm"]) is None else v,
         "true" if r["sensor_battery_ok"] else "false", r["seq"],
         st["channel"], st["id"], st["protocol"],
         "null" if (v := r["temperature_c"]) is None else v,
         "null" if (v := r["wind_dir_deg"]) is None else v,
         "null" if (v := r["wind_speed_kph"]) is None else v)


# How a line template writes each field. A number goes in as ``repr`` writes
# it, which is what the encoder writes for a finite int or float, and every
# traced number is finite (a ``SimConfig`` rejects non-finite input).
# A label (a state, a message label, a frame's hex) is plain ASCII and goes
# in quoted, as it is. ``ok`` is true in the one ``frame_rx`` field set with a
# template. The fields named in ``_FIELD_WRITERS`` go through a writer of
# their own. A field set with free text (a ``reason``) has no template.
_LABELS = frozenset(("frame_hex", "msg", "state", "to"))
_FIELD_WRITERS = {
    "from": lambda label: "null" if label is None else f'"{label}"',
    "record": _record_json,
    "by_state": _to_json,
}


def _line_writer(kind: str, fields: tuple[str, ...]) -> Callable[[dict], str]:
    """The writer of one event field set: a %-template of the event, keys
    sorted. A field with a writer of its own is the template's one bare
    ``%s``; the writer joins the two halves around it."""
    formats = {"ev": f'"{kind}"', "t": "%(t)r"}
    for name in fields:
        formats[name] = ("true" if name == "ok" else
                         f'"%({name})s"' if name in _LABELS else
                         "%s" if name in _FIELD_WRITERS else f"%({name})r")
    template = "{" + ", ".join(f'"{k}": {formats[k]}' for k in sorted(formats)) + "}\n"
    nested = [name for name in fields if name in _FIELD_WRITERS]
    if not nested:
        return template.__mod__
    (name,) = nested
    write = _FIELD_WRITERS[name]
    head, tail = template.split("%s")
    return lambda ev: head % ev + write(ev[name]) + tail % ev


# kind -> (key set, writer) for the first field set of each kind
_TEMPLATES = {kind: (frozenset(("t", "ev", *fields)), _line_writer(kind, fields))
              for kind, (fields, *_) in EVENT_FIELDS.items() if "reason" not in fields}


def trace_line(obj: dict) -> str:
    """One line of a JSON-lines trace: ``{"config": ...}`` first, then one
    per event, then ``{"summary": ...}``. The bytes are exactly what
    ``json.dumps(obj, sort_keys=True)`` writes. An event of a kind's first
    field set, as the simulator writes it, is written from that set's
    template; any other line goes through the JSON encoder."""
    template = _TEMPLATES.get(obj.get("ev"))
    if template is not None and obj.keys() == template[0]:
        return template[1](obj)
    return _to_json(obj) + "\n"


@dataclass
class SimTrace:
    config: dict
    events: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        return "".join(map(trace_line, [{"config": self.config}, *self.events,
                                        {"summary": self.summary}]))


# ---------------------------------------------------------------------------
# Simulator

# The trace events reach a sink in lists of at most this many, in order:
# formatting a batch of lines at once runs faster than formatting each one
# between the steps of the run.
SINK_BATCH = 256


class Summary:
    """The run summary as a fold over the trace events, in order: ``add`` each
    event, as the simulator records it or a trace file holds it, then take the
    ``result``. No summary figure is computed anywhere else."""

    def __init__(self):
        # the summary fields that are sums; each starts at the int 0, as sum() of none
        self.sums = dict.fromkeys(("cycles", "frames_missed", "frames_ignored", "uplinks_attempted",
                                   "uplinks_delivered", "complete_records", "total_airtime_s"), 0)
        self.energy: dict[str, float] = {}
        self.max_t_air = 0.0
        # (written time, airtime) of the transmissions in the hour up to the latest one
        self.last_hour: deque[tuple[float, float]] = deque()
        self.last_hour_airtime = 0.0
        self.max_hour_airtime = 0.0
        self.violations: list[str] = []

    def add(self, ev: dict):
        kind, sums = ev["ev"], self.sums
        if kind == "state":
            sums["cycles"] += ev["to"] == State.RX1
        elif kind == "frames_missed":
            sums["frames_ignored" if ev["state"] in SHR_ON_STATES else "frames_missed"] += ev["n"]
        elif kind == "sleep_energy":
            self.energy[State.DEEP_SLEEP] = self.energy.get(State.DEEP_SLEEP, 0.0) + ev["uwh"]
        elif kind == "cycle_energy":
            for state, uwh in ev["by_state"].items():
                self.energy[state] = self.energy.get(state, 0.0) + uwh
        elif kind == "uplink_tx":
            t, t_air = ev["t"], ev["t_air"]
            sums["uplinks_attempted"] += 1
            sums["total_airtime_s"] += t_air
            self.max_t_air = max(self.max_t_air, t_air)
            # a transmission is a point at its written end time: short next to an hour
            self.last_hour.append((t, t_air))
            self.last_hour_airtime += t_air
            while t - self.last_hour[0][0] > HOUR_S:
                self.last_hour_airtime -= self.last_hour.popleft()[1]
            self.max_hour_airtime = max(self.max_hour_airtime, self.last_hour_airtime)
        elif kind == "record":
            sums["uplinks_delivered"] += 1
            sums["complete_records"] += all(ev["record"][f] is not None for f in FIELD_FLAGS)
        elif kind == "uplink_error" and ev["reason_code"] != "CounterError":
            # a counter outside the resync window is the modelled result of
            # more than FCNT_RESYNC_WINDOW drops in a row, not a fault
            self.violations.append(f"t={ev['t']}: delivered uplink failed to decode: {ev['reason']}")

    def result(self, config: SimConfig) -> dict:
        """The summary of a run of ``config``, the duty-cycle check's violation last."""
        violations = list(self.violations)
        # a wait-based governor bounds any window by limit*window plus at
        # most one transmission straddling the edge
        if self.max_hour_airtime > config.transponder.duty_limit * HOUR_S + self.max_t_air + 1e-9:
            violations.append(
                f"duty cycle exceeded: {self.max_hour_airtime:.3f} s airtime in one hour")
        return {
            "duration_s": config.duration_s,
            "seed": config.seed,
            **self.sums,
            "energy_uwh_total": sum(self.energy.values()),
            "energy_uwh_by_state": dict(sorted(self.energy.items())),
            "duty_cycle_utilization": self.sums["total_airtime_s"] / config.duration_s,
            "max_hour_window_airtime_s": self.max_hour_airtime,
            "violations": violations,
            "invariants_ok": not violations,
        }


class Simulator:
    """Runs one config. The trace events go to ``sink`` as they happen, a
    list at a time; by default the trace keeps them in ``events``."""

    def __init__(self, config: SimConfig, sink: Callable[[list[dict]], object] | None = None):
        self.config = config
        rng = {name: random.Random(f"{config.seed}/{name}")
               for name in ("weather", "channel", "baro", "gateway")}
        self.channel_rng, self.gateway_rng = rng["channel"], rng["gateway"]
        self.trace = SimTrace(config=config.to_dict())
        self.sink = self.trace.events.extend if sink is None else sink
        self.pending: list[dict] = []
        self.emitter = _Emitter(config.station, rng["weather"])
        self.transponder = Transponder(
            config.transponder, self.emitter.station, config.barometer, rng["baro"],
            record=self._record_event, uplink=self._handle_uplink)
        self.server_session = _session()
        self.summary = Summary()

    def _record_event(self, t: float, event: dict):
        """Fold ``event`` into the summary and queue it for the sink at time ``t``, uncopied."""
        event["t"] = round(t, 6)
        self.summary.add(event)
        self.pending.append(event)
        if len(self.pending) >= SINK_BATCH:
            self.sink(self.pending)
            self.pending = []

    # -- event handlers -----------------------------------------------------

    def _handle_emit(self, now: float):
        """An emission the transponder is listening for."""
        bits, label, frame_hex = self.emitter.emit()
        self._record_event(now, {"ev": "emit", "msg": label, "frame_hex": frame_hex})
        out = channel_apply(bits, self.config.channel, self.channel_rng)
        if out is None:
            self._record_event(now, {"ev": "channel_drop"})
            return
        if out is not bits:
            flips = sum(a != b for a, b in zip(out, bits))
            self._record_event(now, {"ev": "channel_corrupt", "flips": flips})
        self.transponder.step(now, out)

    def _handle_uplink(self, t: float, frame: bytes):
        if self.gateway_rng.random() < self.config.gateway.uplink_loss_p:
            self._record_event(t, {"ev": "uplink_drop"})
            return
        try:
            payload, fcnt = lorawan.frame_parse(frame, self.server_session)
            record, meta = lorawan.payload_decode(payload)
        except lorawan.FrameError as exc:
            self._record_event(t, {"ev": "uplink_error", "reason_code": type(exc).__name__,
                                   "reason": str(exc)})
            return
        self._record_event(t, {"ev": "record", "fcnt": fcnt,
                               "record": record_to_obj(record), **vars(meta)})

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimTrace:
        cfg = self.config
        tr = self.transponder
        advance = self.emitter.advance
        period = cfg.station.emission_period_s
        next_emit = period / 2.0
        tr.boot()
        # two clocks: the next emission and the transponder's one timer; at
        # equal times the emission goes first
        while (now := min(next_emit, tr.wake_at)) <= cfg.duration_s:
            if now != next_emit:
                tr.step(now)
                continue
            if tr.state in RX_STATES:
                self._handle_emit(now)
            else:
                advance()
                tr.unheard += 1
            next_emit += period
        tr.flush(cfg.duration_s)
        self.sink(self.pending)
        self.pending = []
        self.trace.summary = self.summary.result(cfg)
        return self.trace


def run(config: SimConfig, sink: Callable[[list[dict]], object] | None = None) -> SimTrace:
    """Run a simulation to completion. Deterministic for a given config.
    With a ``sink``, the events are handed to it in lists as they happen
    and the returned trace keeps none, so memory does not grow with the run."""
    return Simulator(config, sink).run()


def write_trace(config: SimConfig, write: Callable[[str], object]) -> dict:
    """Run ``config`` and hand the trace file ``wxkit simulate --out`` writes
    to ``write`` as it goes: the config line, the event lines a batch at a
    time, then the summary line. Returns the summary."""
    write(trace_line({"config": config.to_dict()}))
    summary = run(config, sink=lambda events: write("".join(map(trace_line, events)))).summary
    write(trace_line({"summary": summary}))
    return summary
