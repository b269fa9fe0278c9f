"""Command-line front end: decode, encode, payload, frame, airtime, battery
and simulate subcommands over the file formats the library defines.

Machine-readable output goes to stdout, diagnostics to stderr, and the two
never interleave. Exit codes: 0 success, 1 I/O or run failure, 2 no data
decoded, 3 validation/usage error. Subcommands raise, and only ``main`` maps
an error to a code. Exit 3 prints ``usage error:`` for the command line,
``config error:`` per simulation config problem, ``error:`` for other input.

The simulator is imported by ``simulate`` alone, so no other command loads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator

from . import energy, lorawan, rfdecode
from .core import (
    Protocol,
    SimConfigError,
    StationId,
    WeatherRecord,
    data_lines,
    record_from_obj,
    record_to_obj,   # unused here; perfbench's tracer patches it by name
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_NO_DATA = 2
EXIT_VALIDATION = 3

ENV_NWKSKEY = "WXKIT_NWKSKEY"
ENV_APPSKEY = "WXKIT_APPSKEY"
ENV_DEVADDR = "WXKIT_DEVADDR"


class UsageError(Exception):
    pass


class InputEncodingError(ValueError):
    """An input file that is not text in the expected encoding."""

    def __init__(self, path: str, exc: UnicodeDecodeError):
        super().__init__(f"{path}: not {exc.encoding} text "
                         f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputEncodingError(path, exc) from None


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _data_lines(text: str) -> Iterator[tuple[str, str]]:
    """``data_lines`` of ``text``, each number as its "line N" origin."""
    return ((f"line {lineno}", line) for lineno, line in data_lines(text))


def _convert_lines(items: Iterable[tuple[str, str]], convert: Callable[[str, str], str],
                   output: str) -> int:
    """Write ``convert(origin, item)`` of each (origin, item) to ``output``, one
    line each. An item whose conversion raises a ValueError or RecursionError is
    reported on stderr as ``origin: message`` and skipped, and no item at all as
    one stderr line. Exit 0 if any item converted, else 2."""
    lines, origin = [], None
    for origin, item in items:
        try:
            lines.append(convert(origin, item))
        except (ValueError, RecursionError) as exc:     # RecursionError: JSON nested too deeply
            print(f"{origin}: {exc}", file=sys.stderr)
    if origin is None:
        print("no data to convert", file=sys.stderr)
    _write_output(output, "\n".join([*lines, ""]))     # each line ends in a newline
    return EXIT_OK if lines else EXIT_NO_DATA


# ---------------------------------------------------------------------------
# decode / encode

# The line ``json.dumps(record_to_obj(r) | vars(meta))`` writes, meta
# optional. A decoder gives only plain, finite ints and floats, and the str of
# one is the repr the encoder writes.
_RECORD_LINE = ('{"station": {"protocol": "%s", "id": %s, "channel": %s}, "seq": %s, '
                '"sensor_battery_ok": %s, "temperature_c": %s, "humidity_pct": %s, '
                '"wind_speed_kph": %s, "wind_dir_deg": %s, "rain_mm": %s, "pressure_pa": %s, '
                '"board_temp_c": %s, "battery_mv": %s')


def _record_line(r: WeatherRecord, meta: lorawan.PayloadMeta | None = None) -> str:
    st = r.station
    line = _RECORD_LINE % (
        st.protocol.label, st.id, st.channel, r.seq, "true" if r.sensor_battery_ok else "false",
        "null" if (v := r.temperature_c) is None else v,
        "null" if (v := r.humidity_pct) is None else v,
        "null" if (v := r.wind_speed_kph) is None else v,
        "null" if (v := r.wind_dir_deg) is None else v,
        "null" if (v := r.rain_mm) is None else v,
        "null" if (v := r.pressure_pa) is None else v,
        r.board_temp_c, r.battery_mv)
    if meta is None:
        return line + "}"
    return f'{line}, "frames_received": {meta.frames_received}, "cycle_time_s": {meta.cycle_time_s}}}'


def _candidate_bits(text: str, fmt: str, protocol: Protocol) -> list[tuple[str, str]]:
    """(origin, bitstring) candidates from the given input format."""
    nbits = rfdecode.FRAME_BITS[protocol]
    if fmt == "pulses":
        train = rfdecode.PulseTrain.from_text(text)
        runs = rfdecode.frame_pulses(train, protocol=protocol)
        return [(f"run {i + 1}", run) for i, run in enumerate(runs)]
    out = []
    for origin, line in _data_lines(text):
        if fmt == "bits":
            if any(c not in "01" for c in line):
                raise ValueError(f"{origin}: bitstring lines must be 0/1 characters")
            out.append((origin, line))
        else:
            if len(line) * 4 != nbits or any(c not in "0123456789abcdef" for c in line):
                raise ValueError(f"{origin}: expected {nbits // 4} lowercase hex digits")
            out.append((origin, f"{int(line, 16):0{nbits}b}"))
    return out


def cmd_decode(args) -> int:
    protocol = Protocol.from_label(args.protocol)
    nbits = rfdecode.FRAME_BITS[protocol]
    candidates = _candidate_bits(_read_input(args.input), args.format, protocol)
    decode = rfdecode.decoder(protocol)

    def convert(_, bits: str) -> str:
        if len(bits) != nbits:
            raise rfdecode.DecodeError(f"skipped, {len(bits)} bits (need {nbits})")
        return _record_line(decode(bits))

    return _convert_lines(candidates, convert, args.output)


def cmd_encode(args) -> int:
    protocol = Protocol.from_label(args.protocol)
    battery_ok = not args.battery_low
    station = StationId(protocol, args.id, args.channel)
    if protocol is Protocol.A5N1:
        frame = rfdecode.build_a5n1_frame(
            station, int(args.message_type, 16),
            battery_ok=battery_ok,
            wind_kph=args.wind_kph,
            wind_dir_deg=args.wind_dir_deg,
            rain_mm=args.rain_mm,
            temperature_c=args.temp_c,
            humidity_pct=args.humidity_pct,
        )
        bits = rfdecode.bytes_to_bits(frame)
        train = rfdecode.a5n1_to_pulses(frame)
    else:
        if args.quantity is None or args.value is None:
            raise UsageError("--quantity and --value are required for lcw")
        quantity = rfdecode.LcwQuantity[args.quantity.upper()]
        nibbles = rfdecode.build_lcw_frame(
            quantity, args.value, station, battery_ok=battery_ok)
        bits = rfdecode.nibbles_to_bits(nibbles)
        train = rfdecode.lcw_to_pulses(nibbles)

    if args.format == "pulses":
        text = train.to_text()
    elif args.format == "bits":
        text = bits + "\n"
    else:
        text = rfdecode.bits_to_hex(bits) + "\n"
    _write_output(args.output, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# payload / frame

def _payload_of_json(_, line: str) -> str:
    obj = json.loads(line)
    record = record_from_obj(obj)
    meta = lorawan.PayloadMeta(
        frames_received=obj.get("frames_received", 0),
        cycle_time_s=obj.get("cycle_time_s", 0),
    )
    return lorawan.payload_encode(record, meta).hex()


def _json_of_payload(_, line: str) -> str:
    return _record_line(*lorawan.payload_decode(bytes.fromhex(line)))


def cmd_payload(args) -> int:
    convert = _json_of_payload if args.decode else _payload_of_json
    return _convert_lines(_data_lines(_read_input(args.input)), convert, args.output)


def _session_from(args) -> lorawan.AbpSession:
    def pick(flag_value, env_name, label):
        value = flag_value or os.environ.get(env_name)
        if not value:
            raise UsageError(f"{label} required (flag or {env_name})")
        return value

    return lorawan.AbpSession(
        pick(args.devaddr, ENV_DEVADDR, "--devaddr"),
        pick(args.nwkskey, ENV_NWKSKEY, "--nwkskey"),
        pick(args.appskey, ENV_APPSKEY, "--appskey"),
        fcnt_up=args.fcnt,
        fport=args.fport,
    )


def cmd_frame(args) -> int:
    session = _session_from(args)

    def convert(origin: str, line: str) -> str:
        try:
            data = bytes.fromhex(line)
        except ValueError:
            raise ValueError("not valid hex") from None
        if not args.parse:
            return lorawan.frame_build(session, data).hex()
        payload, fcnt = lorawan.frame_parse(data, session)
        print(f"{origin}: fcnt {fcnt}", file=sys.stderr)
        return payload.hex()

    return _convert_lines(_data_lines(_read_input(args.input)), convert, args.output)


# ---------------------------------------------------------------------------
# airtime / battery

def cmd_airtime(args) -> int:
    try:
        params = lorawan.RadioParams(
            sf=args.sf,
            bandwidth_hz=args.bw,
            coding_rate=args.cr - 4,
            preamble_symbols=args.preamble,
            explicit_header=not args.implicit_header,
            crc_on=not args.no_crc,
            low_dr_optimize=args.low_dr_optimize,
        )
        seconds = lorawan.airtime(params, args.payload)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"{seconds * 1000.0:.3f}")
    return EXIT_OK


# Reference battery life (days) against which the model is printed, one row
# per (interval in minutes, platform) in print order, with its note.
_REFERENCE_DAYS = (
    (5, "bsf32", 56, "reference assumes a 323 s cycle; the model at 323 s gives {bsf323:.1f}"),
    (5, "lopy4", 141, ""),
    (15, "bsf32", 123, "reference derives from 622 uWh/cycle (implying ~495 uWh active); "
                       "the model keeps the measured 449 uWh"),
    (15, "lopy4", 414, ""),
    (30, "bsf32", 4204, "reference value 4204 is a typo; the accompanying text says 204"),
    (30, "lopy4", 739, "reference conflicts with its own 5/15/60-minute arithmetic; "
                       "model value reported as-is"),
    (60, "bsf32", 326, ""),
    (60, "lopy4", 1478, ""),
)

# Reference daily energy (uWh/day) at the cycle (s) it is stated for, with its note.
_REFERENCE_DAILY = {
    ("bsf32", 323): (130803, ""),
    ("lopy4", 300): (339800, "reference prints 33.98 mWh per day, a 10x typo; the value "
                             "consistent with its 141-day result is 339.8 mWh/day"),
}


def cmd_battery(args) -> int:
    if args.table:
        bsf323 = energy.battery_life_days(energy.BSF32, 323)
        print(f"{'interval':>8}  {'platform':<8}  {'model d':>8}  {'reference d':>11}  note")
        for minutes, name, reference, note in _REFERENCE_DAYS:
            model = energy.battery_life_days(energy.PROFILES[name], minutes * 60)
            print(f"{minutes:>5} min  {name:<8}  {model:>8.1f}  {reference:>11}  "
                  f"{note.format(bsf323=bsf323)}")
        print()
        print("daily energy:")
        for (name, interval_s), (reference, note) in _REFERENCE_DAILY.items():
            model = energy.daily_energy(energy.PROFILES[name], interval_s)
            line = f"  {name} @ {interval_s} s: {model:.1f} uWh/day (reference {reference})"
            if note:
                line += f" -- {note}"
            print(line)
        return EXIT_OK

    if args.platform is None or args.interval_s is None:
        raise UsageError("--platform and --interval-s are required without --table")
    profile = energy.PROFILES[args.platform]     # argparse has checked the choice
    model = energy.daily_energy if args.daily else energy.battery_life_days
    try:
        print(f"{model(profile, args.interval_s):.1f}")
    except energy.EnergyModelError as exc:
        raise UsageError(str(exc)) from None
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    from . import simkit

    obj = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deeply
            raise ValueError(f"config is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputEncodingError(args.config, exc) from None
        except ValueError:      # an integer literal beyond the int-from-text digit limit
            raise SimConfigError(["an integer in the config has too many digits"]) from None
    if isinstance(obj, dict):   # from_dict reports anything else
        if args.seed is not None:
            obj["seed"] = args.seed
        if args.duration_s is not None:
            obj["duration_s"] = args.duration_s
    config = simkit.SimConfig.from_dict(obj)    # checked before --out is opened, so it is left alone
    if not args.out:
        # only the summary is printed: the events are dropped as they come
        summary = simkit.run(config, sink=lambda events: None).summary
    else:
        # the lines are written as the run goes on, so memory does not grow with it
        with open(args.out, "w", encoding="ascii") as fh:
            summary = simkit.write_trace(config, fh.write)
    print(json.dumps(summary, sort_keys=True))
    if not summary["invariants_ok"]:
        for v in summary["violations"]:
            print(f"invariant violated: {v}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="wxkit", description=__doc__)
    protocols = tuple(p.label for p in Protocol)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="pulse/bit/hex captures to weather records")
    p.add_argument("--protocol", required=True, choices=protocols)
    p.add_argument("--format", default="pulses", choices=("pulses", "bits", "hex"))
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("encode", help="weather values to a pulse/bit/hex frame")
    p.add_argument("--protocol", required=True, choices=protocols)
    p.add_argument("--format", default="pulses", choices=("pulses", "bits", "hex"))
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--battery-low", action="store_true")
    p.add_argument("--message-type", default=f"{rfdecode.A5N1_MSG_TEMP_HUMIDITY:#04x}",
                   choices=tuple(f"{t:#04x}" for t in rfdecode.A5N1_MESSAGE_TYPES))
    p.add_argument("--wind-kph", type=float, default=0.0)
    p.add_argument("--wind-dir-deg", type=float, default=0.0)
    p.add_argument("--rain-mm", type=float, default=0.0)
    p.add_argument("--temp-c", type=float, default=0.0)
    p.add_argument("--humidity-pct", type=float, default=0.0)
    p.add_argument("--quantity", choices=tuple(q.name.lower() for q in rfdecode.LcwQuantity))
    p.add_argument("--value", type=float)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("payload", help="compact uplink payload encode/decode")
    p.add_argument("--decode", action="store_true",
                   help="hex payloads in, JSON records out (default is the reverse)")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_payload)

    p = sub.add_parser("frame", help="LoRaWAN uplink build/parse")
    p.add_argument("--parse", action="store_true",
                   help="hex frames in, hex payloads out (default builds frames)")
    p.add_argument("--devaddr", help=f"4-byte hex (or {ENV_DEVADDR})")
    p.add_argument("--nwkskey", help=f"16-byte hex (or {ENV_NWKSKEY})")
    p.add_argument("--appskey", help=f"16-byte hex (or {ENV_APPSKEY})")
    p.add_argument("--fcnt", type=int, default=0)
    p.add_argument("--fport", type=int, default=1)
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_frame)

    p = sub.add_parser("airtime", help="LoRa time-on-air in milliseconds")
    p.add_argument("--sf", type=int, required=True)
    p.add_argument("--bw", type=int, default=125_000)
    p.add_argument("--cr", type=int, default=5, choices=(5, 6, 7, 8),
                   help="coding rate denominator of 4/x")
    p.add_argument("--payload", type=int, required=True, help="PHY payload bytes")
    p.add_argument("--preamble", type=int, default=8)
    p.add_argument("--no-crc", action="store_true")
    p.add_argument("--implicit-header", action="store_true")
    p.add_argument("--low-dr-optimize", action=argparse.BooleanOptionalAction,
                   help="default: on at SF11/SF12 with 125 kHz")
    p.set_defaults(fn=cmd_airtime)

    p = sub.add_parser("battery", help="battery life model")
    p.add_argument("--platform", choices=tuple(energy.PROFILES))
    p.add_argument("--interval-s", type=float)
    p.add_argument("--daily", action="store_true", help="print uWh/day instead of days")
    p.add_argument("--table", action="store_true",
                   help="4-interval comparison table for both platforms")
    p.set_defaults(fn=cmd_battery)

    p = sub.add_parser("simulate", help="run the transponder simulation")
    p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    p.add_argument("--seed", type=int)
    p.add_argument("--duration-s", type=float)
    p.add_argument("--out", help="trace output path (JSON lines)")
    p.set_defaults(fn=cmd_simulate)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` reuses. Building one takes about 2 ms, more than a
    short command's own work, and parsing leaves it unchanged. It is built
    on the first call, not at import, so an import does not pay for it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:   # every library input error, InputEncodingError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
