"""Deterministic discrete-event simulation of the sensor-to-LoRaWAN chain:
a weather-station emitter, a lossy 433 MHz channel, the transponder's
receive/repack/transmit state machine with an energy ledger and duty-cycle
governor, and a gateway/server endpoint that verifies and decodes uplinks.

Determinism contract: one seeded ``random.Random`` drives every stochastic
decision, events are processed in (time, insertion order), and identical
(config, seed) pairs produce byte-identical traces.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import json
import math
import random
from dataclasses import dataclass, field

from . import energy as energy_mod
from . import lorawan, rfdecode
from .core import (
    Protocol,
    StationId,
    ValidityFlags,
    WeatherRecord,
    merge_partial,
    record_to_obj,
)
from .energy import HOUR_S
from .rfdecode import _DIR_STEP_DEG, _LCW_RAIN_MM_PER_COUNT, _RAIN_MM_PER_TIP, LcwQuantity


class SimConfigError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class ProtocolViolationError(RuntimeError):
    """An event was delivered to a state that cannot accept it (test aid)."""


# ---------------------------------------------------------------------------
# Configuration

# Default ABP test credentials; any real deployment provisions its own.
_DEFAULT_DEVADDR = "26011157"
_DEFAULT_NWKSKEY = "2b7e151628aed2a6abf7158809cf4f3c"
_DEFAULT_APPSKEY = "000102030405060708090a0b0c0d0e0f"


@dataclass(frozen=True)
class StationSpec:
    protocol: Protocol = Protocol.A5N1
    id: int = 0x2A7
    channel: int = 2
    emission_period_s: float = 18.0


@dataclass(frozen=True)
class ChannelSpec:
    frame_loss_p: float = 0.0
    bit_flip_q: float = 0.0


@dataclass(frozen=True)
class TransponderSpec:
    profile: str = "bsf32"
    t_cycle_s: float = 900.0
    rx_timeout_s: float = 60.0
    dev_addr: str = _DEFAULT_DEVADDR
    nwk_skey: str = _DEFAULT_NWKSKEY
    app_skey: str = _DEFAULT_APPSKEY
    fport: int = 1
    sf: int = 9
    bandwidth_hz: int = 125_000
    coding_rate: int = 1
    duty_limit: float = 0.01


@dataclass(frozen=True)
class GatewaySpec:
    uplink_loss_p: float = 0.0


@dataclass(frozen=True)
class BarometerSpec:
    pressure_pa: int = 101_325
    board_temp_c: float = 24.0
    pressure_noise_pa: float = 0.0
    temp_noise_c: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    duration_s: float = 86_400.0
    seed: int = 1
    station: StationSpec = StationSpec()
    channel: ChannelSpec = ChannelSpec()
    transponder: TransponderSpec = TransponderSpec()
    gateway: GatewaySpec = GatewaySpec()
    barometer: BarometerSpec = BarometerSpec()

    def validate(self) -> list[str]:
        """All problems at once, so the CLI can report them together. The
        rules of the station, session, radio, governor and energy model are
        checked by building those objects, one problem per object."""
        problems = []

        def check(label, build, *args, **kw):
            try:
                build(*args, **kw)
            except ValueError as exc:
                problems.append(f"{label}: {exc}")

        if not 0 < self.duration_s < math.inf:
            problems.append("duration_s must be positive and finite")
        st, ch, tr, gw = self.station, self.channel, self.transponder, self.gateway
        if not 0 < st.emission_period_s < math.inf:
            problems.append("station.emission_period_s must be positive and finite")
        check("station", StationId, st.protocol, st.id, st.channel)
        for name, p in (("channel.frame_loss_p", ch.frame_loss_p),
                        ("channel.bit_flip_q", ch.bit_flip_q),
                        ("gateway.uplink_loss_p", gw.uplink_loss_p)):
            if not 0 <= p <= 1:
                problems.append(f"{name} {p} outside [0, 1]")
        profile = energy_mod.PROFILES.get(tr.profile)
        if profile is None:
            problems.append(f"transponder.profile {tr.profile!r} unknown "
                            f"(have {sorted(energy_mod.PROFILES)})")
        else:
            check("transponder.t_cycle_s", energy_mod.cycle_energy, profile, tr.t_cycle_s)
        if not 0 < tr.t_cycle_s <= 65535:
            problems.append("transponder.t_cycle_s must be in (0, 65535]")
        if not 0 < tr.rx_timeout_s < math.inf:
            problems.append("transponder.rx_timeout_s must be positive and finite")
        check("transponder.duty_limit", lorawan.DutyCycleGovernor, tr.duty_limit)
        check("transponder session", lorawan.AbpSession.from_hex,
              tr.dev_addr, tr.nwk_skey, tr.app_skey, fport=tr.fport)
        check("transponder radio settings", lorawan.RadioParams,
              sf=tr.sf, bandwidth_hz=tr.bandwidth_hz, coding_rate=tr.coding_rate)
        return problems

    @classmethod
    def from_dict(cls, obj: dict) -> "SimConfig":
        def sub(spec_cls, key, **convert):
            raw = dict(obj.get(key, {}))
            for k, fn in convert.items():
                if k in raw:
                    raw[k] = fn(raw[k])
            known = {f.name for f in dataclasses.fields(spec_cls)}
            unknown = set(raw) - known
            if unknown:
                raise SimConfigError([f"unknown {key} option(s): {sorted(unknown)}"])
            return spec_cls(**raw)

        top = {k for k in obj if k not in
               ("duration_s", "seed", "station", "channel", "transponder", "gateway", "barometer")}
        if top:
            raise SimConfigError([f"unknown config option(s): {sorted(top)}"])
        return cls(
            duration_s=float(obj.get("duration_s", 86_400.0)),
            seed=int(obj.get("seed", 1)),
            station=sub(StationSpec, "station", protocol=Protocol.from_label),
            channel=sub(ChannelSpec, "channel"),
            transponder=sub(TransponderSpec, "transponder"),
            gateway=sub(GatewaySpec, "gateway"),
            barometer=sub(BarometerSpec, "barometer"),
        )

    def to_dict(self) -> dict:
        obj = dataclasses.asdict(self)
        obj["station"]["protocol"] = self.station.protocol.label
        return obj


# ---------------------------------------------------------------------------
# Channel

def channel_apply(bits: str, spec: ChannelSpec, rng: random.Random) -> str | None:
    """Drop the frame with probability p, else flip each bit independently
    with probability q. Returns None for a dropped frame."""
    if rng.random() < spec.frame_loss_p:
        return None
    if spec.bit_flip_q <= 0:
        return bits
    flipped = [("1" if b == "0" else "0") if rng.random() < spec.bit_flip_q else b
               for b in bits]
    return "".join(flipped)


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

    def _walk(self):
        r = self.rng
        self.temp_c = min(55.0, max(-25.0, self.temp_c + r.uniform(-0.05, 0.05)))
        self.humidity = min(99.0, max(5.0, self.humidity + r.uniform(-0.3, 0.3)))
        self.wind_kph = min(80.0, max(0.0, self.wind_kph + r.uniform(-0.4, 0.4)))
        self.dir_code = (self.dir_code + r.choice((-1, 0, 1))) % 16
        if r.random() < 0.05:
            self.rain_tips += 1

    def emit(self) -> tuple[str, str]:
        """Returns (bits, message label)."""
        self._walk()
        if self.spec.protocol is Protocol.A5N1:
            if self.msg_index % 2 == 0:
                frame = rfdecode.build_a5n1_frame(
                    self.station, rfdecode.A5N1_MSG_WIND_DIR_RAIN,
                    wind_kph=self.wind_kph,
                    wind_dir_deg=self.dir_code * _DIR_STEP_DEG,
                    rain_mm=self.rain_tips * _RAIN_MM_PER_TIP,
                )
                label = "0x31"
            else:
                frame = rfdecode.build_a5n1_frame(
                    self.station, rfdecode.A5N1_MSG_TEMP_HUMIDITY,
                    wind_kph=self.wind_kph,
                    temperature_c=self.temp_c,
                    humidity_pct=self.humidity,
                )
                label = "0x38"
            bits = rfdecode.bytes_to_bits(frame)
        else:
            quantity = LcwQuantity(self.msg_index % 5)
            value = {
                LcwQuantity.TEMP: self.temp_c,
                LcwQuantity.HUMIDITY: self.humidity,
                LcwQuantity.RAIN: min(999, round(self.rain_tips / 4)) * _LCW_RAIN_MM_PER_COUNT,
                LcwQuantity.WIND_SPEED: self.wind_kph / 3.6,
                LcwQuantity.WIND_DIR: self.dir_code * _DIR_STEP_DEG,
            }[quantity]
            nibbles = rfdecode.build_lcw_frame(quantity, value, self.station)
            bits = rfdecode.nibbles_to_bits(nibbles)
            label = quantity.name.lower()
        self.msg_index += 1
        return bits, label


# ---------------------------------------------------------------------------
# Transponder state machine

class State(enum.Enum):
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


@dataclass(frozen=True)
class WakeEvent:
    t: float
    epoch: int


@dataclass(frozen=True)
class FrameEvent:
    t: float
    bits: str


class Transponder:
    """Receive two sensor messages, read the barometer, repack, transmit,
    deep-sleep for the rest of the cycle.

    ``step`` mutates only this object and returns the actions for the event
    loop to perform: ("wake", t, epoch), ("uplink", t, frame, t_air, record)
    and ("trace", dict) tuples.
    """

    def __init__(self, spec: TransponderSpec, station: StationId,
                 baro: BarometerSpec, rng: random.Random):
        self.spec = spec
        self.station = station
        self.baro = baro
        self.rng = rng
        self.profile = energy_mod.PROFILES[spec.profile]
        if self.profile.detail is None:
            raise SimConfigError([f"profile {spec.profile} has no component detail"])
        self.session = lorawan.AbpSession.from_hex(
            spec.dev_addr, spec.nwk_skey, spec.app_skey, fport=spec.fport)
        self.radio = lorawan.RadioParams(
            sf=spec.sf, bandwidth_hz=spec.bandwidth_hz, coding_rate=spec.coding_rate)
        self.governor = lorawan.DutyCycleGovernor(spec.duty_limit)

        self.state = State.RESET
        self.state_entered = 0.0
        self.epoch = 0
        self.cycle = 0
        self.cycle_start: float | None = None
        self.state_time: dict[State, float] = {}
        self.record = self._fresh_record()
        self.frames_received = 0
        self._pending_frame: bytes | None = None
        self._pending_t_air = 0.0

    def _fresh_record(self) -> WeatherRecord:
        return WeatherRecord(station=self.station, valid=ValidityFlags())

    @property
    def shr_listening(self) -> bool:
        return self.state in RX_STATES

    @property
    def shr_powered(self) -> bool:
        return self.state in SHR_ON_STATES

    def boot(self) -> list[tuple]:
        return [("wake", RESET_S, self.epoch),
                ("trace", {"ev": "state", "from": None, "to": self.state.value})]

    # -- transitions --------------------------------------------------------

    def _enter(self, now: float, new_state: State, duration: float | None) -> list[tuple]:
        self.state_time[self.state] = self.state_time.get(self.state, 0.0) + (now - self.state_entered)
        actions = [("trace", {"ev": "state", "from": self.state.value, "to": new_state.value})]
        self.state = new_state
        self.state_entered = now
        self.epoch += 1
        if duration is not None:
            actions.append(("wake", now + duration, self.epoch))
        return actions

    def step(self, event: WakeEvent | FrameEvent) -> list[tuple]:
        if isinstance(event, FrameEvent):
            return self._on_frame(event.t, event.bits)
        if isinstance(event, WakeEvent):
            if event.epoch != self.epoch:
                return []   # a timer superseded by a state change
            return self._on_wake(event.t)
        raise ProtocolViolationError(f"unknown event {event!r}")

    def _on_frame(self, now: float, bits: str) -> list[tuple]:
        if self.state not in RX_STATES:
            raise ProtocolViolationError(f"frame delivered in state {self.state.value}")
        decode = rfdecode.decode_a5n1 if self.station.protocol is Protocol.A5N1 \
            else rfdecode.decode_lcw
        try:
            _, partial = decode(bits)
        except rfdecode.DecodeError as exc:
            return [("trace", {"ev": "frame_rx", "state": self.state.value,
                               "ok": False, "reason": str(exc)})]
        if partial.station != self.station:
            return [("trace", {"ev": "frame_rx", "state": self.state.value,
                               "ok": False, "reason": "foreign station"})]
        self.record = merge_partial(self.record, partial)
        self.frames_received += 1
        actions = [("trace", {"ev": "frame_rx", "state": self.state.value,
                              "ok": True, "record": record_to_obj(partial)})]
        if self.state is State.RX1:
            actions += self._enter(now, State.INTER_SLEEP, INTER_SLEEP_S)
        else:
            actions += self._enter(now, State.READ_BARO, READ_BARO_S)
        return actions

    def _on_wake(self, now: float) -> list[tuple]:
        s = self.state
        if s is State.RESET:
            return self._enter(now, State.INIT, INIT_S)
        if s is State.INIT:
            return self._start_cycle(now)
        if s in RX_STATES:
            actions = [("trace", {"ev": "rx_timeout", "state": s.value})]
            if s is State.RX1:
                return actions + self._enter(now, State.INTER_SLEEP, INTER_SLEEP_S)
            return actions + self._enter(now, State.READ_BARO, READ_BARO_S)
        if s is State.INTER_SLEEP:
            return self._enter(now, State.RX2, self.spec.rx_timeout_s)
        if s is State.READ_BARO:
            return self._read_baro(now)
        if s is State.BUILD_TX:
            return self._build_and_maybe_transmit(now)
        if s is State.TRANSMIT:
            return self._finish_transmit(now)
        if s is State.DEEP_SLEEP:
            return self._start_cycle(now)
        raise ProtocolViolationError(f"wake in state {s.value}")

    def _start_cycle(self, now: float) -> list[tuple]:
        self.cycle += 1
        self.cycle_start = now
        self.record = self._fresh_record()
        self.frames_received = 0
        actions = self._enter(now, State.RX1, self.spec.rx_timeout_s)
        # the sleep that just ended closes its energy entry here
        sleep_s = self.state_time.pop(State.DEEP_SLEEP, 0.0)
        if sleep_s > 0:
            actions.append(("trace", {
                "ev": "sleep_energy",
                "uwh": self.profile.sleep_power_uw * sleep_s / HOUR_S,
                "sleep_s": sleep_s}))
        return actions

    def _read_baro(self, now: float) -> list[tuple]:
        b = self.baro
        pressure = b.pressure_pa + (self.rng.gauss(0.0, b.pressure_noise_pa)
                                    if b.pressure_noise_pa > 0 else 0.0)
        board_temp = b.board_temp_c + (self.rng.gauss(0.0, b.temp_noise_c)
                                       if b.temp_noise_c > 0 else 0.0)
        self.record = self.record.replace(
            pressure_pa=round(pressure),
            board_temp_c=round(board_temp, 2),
            battery_mv=round(self.profile.supply_v * 1000),
            valid=dataclasses.replace(self.record.valid, pressure=True),
        )
        actions = [("trace", {"ev": "baro", "pressure_pa": self.record.pressure_pa,
                              "board_temp_c": self.record.board_temp_c})]
        return actions + self._enter(now, State.BUILD_TX, BUILD_TX_S)

    def _build_and_maybe_transmit(self, now: float) -> list[tuple]:
        if self._pending_frame is None:
            self.record = self.record.replace(seq=self.cycle & 0xFFFF)
            meta = lorawan.PayloadMeta(
                frames_received=self.frames_received,
                cycle_time_s=round(self.spec.t_cycle_s),
            )
            payload = lorawan.payload_encode(self.record, meta)
            self._pending_frame = lorawan.frame_build(self.session, payload)
            self._pending_t_air = lorawan.airtime(self.radio, len(self._pending_frame))
        allowed, next_allowed = self.governor.check(now)
        if not allowed:
            # stay in BUILD_TX (MCU waiting on the governor) until permitted
            self.epoch += 1
            return [("trace", {"ev": "governor_wait", "until": next_allowed}),
                    ("wake", next_allowed, self.epoch)]
        return self._enter(now, State.TRANSMIT, self._pending_t_air)

    def _finish_transmit(self, now: float) -> list[tuple]:
        frame = self._pending_frame
        t_air = self._pending_t_air
        self._pending_frame = None
        self.governor.note_transmission(now, t_air)
        actions = [("uplink", now, frame, t_air, record_to_obj(self.record))]
        sleep_s = max(0.0, self.spec.t_cycle_s - (now - self.cycle_start))
        actions += self._enter(now, State.DEEP_SLEEP, sleep_s)
        actions += self._close_cycle_ledger(t_air)
        return actions

    # -- energy ledger ------------------------------------------------------

    def _active_ledger(self) -> dict[str, float]:
        """Attribute the platform's measured active-phase energy across the
        cycle's states: receiver-on states at the measured combined draw,
        the transmission at the radio draw, and the remaining states share
        whatever residual keeps the total at the measured lump. With loss
        the receiver can stay on long enough that its share alone exceeds
        the lump; then the residual floors at zero and physics wins."""
        p = self.profile
        shr_uw = p.shr_power_uw
        tx_uw = p.tx_power_uw
        ledger: dict[str, float] = {}
        e_shr = e_tx = others_s = 0.0
        for state, dur in self.state_time.items():
            if state in SHR_ON_STATES:
                e = shr_uw * dur / HOUR_S
                ledger[state.value] = e
                e_shr += e
            elif state is State.TRANSMIT:
                e = tx_uw * dur / HOUR_S
                ledger[state.value] = e
                e_tx += e
            elif state is not State.DEEP_SLEEP:
                others_s += dur
        residual = max(0.0, p.e_active_uwh - e_shr - e_tx)
        for state, dur in self.state_time.items():
            if state not in SHR_ON_STATES and state not in (State.TRANSMIT, State.DEEP_SLEEP):
                ledger[state.value] = residual * dur / others_s if others_s > 0 else 0.0
        return ledger

    def _close_cycle_ledger(self, t_air: float) -> list[tuple]:
        ledger = self._active_ledger()
        active_s = sum(self.state_time.values())
        event = {"ev": "cycle_energy", "cycle": self.cycle,
                 "by_state": {k: ledger[k] for k in sorted(ledger)},
                 "active_s": active_s, "t_air": t_air}
        self.state_time = {}
        return [("trace", event)]

    def flush_energy(self, now: float) -> list[tuple]:
        """Account the state in progress when the simulation ends. A partial
        deep sleep is charged at sleep power; a partial active phase is
        charged per-state at component rates (no lump for unfinished work)."""
        self.state_time[self.state] = self.state_time.get(self.state, 0.0) + (now - self.state_entered)
        self.state_entered = now
        sleep_s = self.state_time.pop(State.DEEP_SLEEP, 0.0)
        actions = []
        if sleep_s > 0:
            actions.append(("trace", {
                "ev": "sleep_energy", "cycle": self.cycle,
                "uwh": self.profile.sleep_power_uw * sleep_s / HOUR_S,
                "sleep_s": sleep_s}))
        if self.state_time:
            p = self.profile
            rates = {}
            for state, dur in self.state_time.items():
                if state in SHR_ON_STATES:
                    rates[state.value] = p.shr_power_uw * dur / HOUR_S
                elif state is State.TRANSMIT:
                    rates[state.value] = p.tx_power_uw * dur / HOUR_S
                else:
                    rates[state.value] = energy_mod.fit_component_power(p) * dur / HOUR_S
            actions.append(("trace", {
                "ev": "cycle_energy", "cycle": self.cycle,
                "by_state": {k: rates[k] for k in sorted(rates)},
                "active_s": sum(self.state_time.values()), "partial": True,
                "t_air": 0.0}))
            self.state_time = {}
        return actions


# ---------------------------------------------------------------------------
# Trace

@dataclass
class SimTrace:
    config: dict
    events: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.summary.get("invariants_ok"))

    def to_jsonl(self) -> str:
        lines = [json.dumps({"config": self.config}, sort_keys=True)]
        lines += [json.dumps(e, sort_keys=True) for e in self.events]
        lines.append(json.dumps({"summary": self.summary}, sort_keys=True))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Simulator

class Simulator:
    def __init__(self, config: SimConfig):
        problems = config.validate()
        if problems:
            raise SimConfigError(problems)
        self.config = config
        self.rng = random.Random(config.seed)
        self.trace = SimTrace(config=config.to_dict())
        self.emitter = _Emitter(config.station, self.rng)
        self.transponder = Transponder(
            config.transponder, self.emitter.station, config.barometer, self.rng)
        self.server_session = lorawan.AbpSession.from_hex(
            config.transponder.dev_addr, config.transponder.nwk_skey,
            config.transponder.app_skey, fport=config.transponder.fport)
        self._heap: list[tuple[float, int, str, tuple]] = []
        self._seq = 0
        self._now = 0.0
        self.violations: list[str] = []
        self.uplinks_attempted = 0
        self.uplinks_delivered = 0
        self.records: list[tuple[float, WeatherRecord, lorawan.PayloadMeta]] = []
        self.transmissions: list[tuple[float, float]] = []   # (end time, airtime)
        self.energy_by_state: dict[str, float] = {}

    # -- scheduling ---------------------------------------------------------

    def _push(self, t: float, kind: str, args: tuple = ()):
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, args))

    def _record_event(self, t: float, event: dict):
        self.trace.events.append({"t": round(t, 6), **event})

    def _apply_actions(self, actions: list[tuple]):
        for action in actions:
            kind = action[0]
            if kind == "trace":
                event = action[1]
                self._account_energy(event)
                self._record_event(self._now, event)
            elif kind == "wake":
                _, t, epoch = action
                self._push(t, "wake", (epoch,))
            elif kind == "uplink":
                _, t, frame, t_air, record_obj = action
                self._handle_uplink(t, frame, t_air, record_obj)
            else:
                raise AssertionError(f"unknown action {kind}")

    def _account_energy(self, event: dict):
        if event["ev"] == "cycle_energy":
            for state, uwh in event["by_state"].items():
                self.energy_by_state[state] = self.energy_by_state.get(state, 0.0) + uwh
        elif event["ev"] == "sleep_energy":
            self.energy_by_state["deep_sleep"] = (
                self.energy_by_state.get("deep_sleep", 0.0) + event["uwh"])

    # -- event handlers -----------------------------------------------------

    def _handle_emit(self):
        bits, label = self.emitter.emit()
        self._record_event(self._now, {"ev": "emit", "msg": label,
                                       "frame_hex": f"{int(bits, 2):0{len(bits) // 4}x}"})
        out = channel_apply(bits, self.config.channel, self.rng)
        if out is None:
            self._record_event(self._now, {"ev": "channel_drop"})
            return
        if out != bits:
            flips = sum(a != b for a, b in zip(out, bits))
            self._record_event(self._now, {"ev": "channel_corrupt", "flips": flips})
        tr = self.transponder
        if tr.shr_listening:
            self._apply_actions(tr.step(FrameEvent(self._now, out)))
        elif tr.shr_powered:
            self._record_event(self._now, {"ev": "frame_ignored", "state": tr.state.value})
        else:
            self._record_event(self._now, {"ev": "frame_missed", "state": tr.state.value})

    def _handle_uplink(self, t: float, frame: bytes, t_air: float, record_obj: dict):
        self.uplinks_attempted += 1
        self.transmissions.append((t, t_air))
        self._record_event(t, {"ev": "uplink_tx", "fcnt": self.transponder.session.fcnt_up - 1,
                               "phy_len": len(frame), "t_air": t_air, "record": record_obj})
        if self.rng.random() < self.config.gateway.uplink_loss_p:
            self._record_event(t, {"ev": "uplink_drop"})
            return
        try:
            payload, fcnt = lorawan.frame_parse(frame, self.server_session)
            record, meta = lorawan.payload_decode(payload)
        except lorawan.FrameError as exc:
            self.violations.append(f"t={t}: delivered uplink failed to decode: {exc}")
            self._record_event(t, {"ev": "uplink_error", "reason": str(exc)})
            return
        self.server_session.fcnt_up = fcnt + 1
        self.uplinks_delivered += 1
        self.records.append((t, record, meta))
        self._record_event(t, {"ev": "record", "fcnt": fcnt,
                               "record": record_to_obj(record),
                               "frames_received": meta.frames_received,
                               "cycle_time_s": meta.cycle_time_s})

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimTrace:
        cfg = self.config
        period = cfg.station.emission_period_s
        t = period / 2.0
        while t <= cfg.duration_s:
            self._push(t, "emit")
            t += period
        self._apply_actions(self.transponder.boot())

        last_t = 0.0
        while self._heap:
            t, _, kind, args = heapq.heappop(self._heap)
            if t > cfg.duration_s:
                break
            assert t >= last_t, "event times must be non-decreasing"
            last_t = self._now = t
            if kind == "emit":
                self._handle_emit()
            elif kind == "wake":
                self._apply_actions(self.transponder.step(WakeEvent(t, args[0])))

        self._now = cfg.duration_s
        self._apply_actions(self.transponder.flush_energy(self._now))
        self._finish_summary()
        return self.trace

    def _finish_summary(self):
        cfg = self.config
        total_airtime = sum(a for _, a in self.transmissions)
        window_peak = self._max_window_airtime(3600.0)
        # a wait-based governor bounds any window by limit*window plus at
        # most one transmission straddling the edge
        max_t_air = max((a for _, a in self.transmissions), default=0.0)
        if window_peak > cfg.transponder.duty_limit * 3600.0 + max_t_air + 1e-9:
            self.violations.append(
                f"duty cycle exceeded: {window_peak:.3f} s airtime in one hour")
        complete = sum(
            1 for _, r, _ in self.records
            if all(getattr(r.valid, flag) for flag in
                   ("temp", "humidity", "wind_speed", "wind_dir", "rain", "pressure"))
        )
        total = sum(self.energy_by_state.values())
        self.trace.summary = {
            "duration_s": cfg.duration_s,
            "seed": cfg.seed,
            "cycles": self.transponder.cycle,
            "uplinks_attempted": self.uplinks_attempted,
            "uplinks_delivered": self.uplinks_delivered,
            "records_decoded": len(self.records),
            "complete_records": complete,
            "energy_uwh_total": total,
            "energy_uwh_by_state": {k: self.energy_by_state[k]
                                    for k in sorted(self.energy_by_state)},
            "total_airtime_s": total_airtime,
            "duty_cycle_utilization": total_airtime / cfg.duration_s,
            "max_hour_window_airtime_s": window_peak,
            "violations": self.violations,
            "invariants_ok": not self.violations,
        }

    def _max_window_airtime(self, window_s: float) -> float:
        """Largest total airtime inside any sliding window; transmissions are
        short enough relative to the window to treat them as points at their
        end time."""
        ends = self.transmissions
        peak = 0.0
        j = 0
        acc = 0.0
        for i in range(len(ends)):
            acc += ends[i][1]
            while ends[i][0] - ends[j][0] > window_s:
                acc -= ends[j][1]
                j += 1
            peak = max(peak, acc)
        return peak


def run(config: SimConfig) -> SimTrace:
    """Run a simulation to completion. Deterministic for a given config."""
    return Simulator(config).run()
