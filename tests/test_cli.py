import contextlib
import hashlib
import io
import json
import random
import reprlib
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wxkit import cli, simkit
from wxkit.cli import main
from wxkit.core import FIELD_FLAGS, Protocol, StationId
from wxkit.rfdecode import (
    A5N1_MSG_TEMP_HUMIDITY,
    LcwQuantity,
    PulseTrain,
    a5n1_to_pulses,
    build_a5n1_frame,
    bytes_to_bits,
)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# decode / encode round trips

def test_encode_decode_pulses_roundtrip(tmp_path, capsys):
    pulses = tmp_path / "capture.txt"
    code, out, err = run_cli(capsys, [
        "encode", "--protocol", "a5n1", "--message-type", "0x38",
        "--id", "1234", "--channel", "2", "--temp-c", "21.5",
        "--humidity-pct", "45", "--wind-kph", "9.3",
        "-o", str(pulses)])
    assert code == 0
    code, out, err = run_cli(capsys, [
        "decode", "--protocol", "a5n1", "--format", "pulses", str(pulses)])
    assert code == 0
    record = json.loads(out.strip())
    assert record["temperature_c"] == pytest.approx(21.5, abs=0.06)
    assert record["humidity_pct"] == 45.0
    assert record["station"] == {"protocol": "a5n1", "id": 1234, "channel": 2}


def test_encode_decode_hex_roundtrip_lcw(tmp_path, capsys):
    hexfile = tmp_path / "frames.hex"
    code, _, _ = run_cli(capsys, [
        "encode", "--protocol", "lcw", "--id", "42",
        "--quantity", "temp", "--value", "25.3", "--format", "hex",
        "-o", str(hexfile)])
    assert code == 0
    code, out, err = run_cli(capsys, [
        "decode", "--protocol", "lcw", "--format", "hex", str(hexfile)])
    assert code == 0
    record = json.loads(out.strip())
    assert record["temperature_c"] == pytest.approx(25.3)


def test_encode_lcw_rejects_channel(capsys):
    code, out, err = run_cli(capsys, [
        "encode", "--protocol", "lcw", "--id", "42", "--channel", "2",
        "--quantity", "temp", "--value", "25.3"])
    assert (code, out) == (3, "")
    assert err == "error: lcw stations use channel 0 only\n"


@pytest.mark.parametrize("argv,message", [
    (["--protocol", "a5n1", "--humidity-pct", "127"], "humidity 127.0 outside 0..100"),
    (["--protocol", "lcw", "--quantity", "wind_dir", "--value", "400"],
     "wind direction 400.0 outside [0, 360)"),
    (["--protocol", "lcw", "--quantity", "wind_dir", "--value=-22.5"],
     "wind direction -22.5 outside [0, 360)"),
    (["--protocol", "lcw", "--quantity", "rain", "--value=-0.1"], "rain value -0.1 is not encodable"),
])
def test_encode_out_of_range_value_exits_3(argv, message, capsys):
    code, out, err = run_cli(capsys, ["encode", "--id", "42", *argv])
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_encode_bits_format(capsys):
    code, out, err = run_cli(capsys, [
        "encode", "--protocol", "a5n1", "--id", "1234", "--channel", "2", "--temp-c", "21.5",
        "--humidity-pct", "45", "--wind-kph", "9.3", "--format", "bits"])
    assert (code, out, err) == (0, _bits(GOOD_38) + "\n", "")


@pytest.mark.parametrize("argv", [[], ["--quantity", "temp"], ["--value", "25.3"]],
                         ids=["neither", "no_value", "no_quantity"])
def test_encode_lcw_without_quantity_and_value_is_usage_error(argv, capsys):
    code, out, err = run_cli(capsys, ["encode", "--protocol", "lcw", "--id", "42", *argv])
    assert (code, out, err) == (3, "", "usage error: --quantity and --value are required for lcw\n")


def test_decode_empty_input_exits_2(capsys, monkeypatch):
    # no item at all is one stderr line, whatever the command and format; a
    # pulse capture of noise alone holds no frame run
    for argv, stdin in [
        (["decode", "--protocol", "a5n1", "--format", "bits"], ""),
        (["decode", "--protocol", "a5n1"], ""),
        (["decode", "--protocol", "a5n1"], "H 500\nL 1000\n"),
        (["decode", "--protocol", "lcw", "--format", "hex"], "# a comment alone\n"),
        (["payload"], ""),
        (["payload", "--decode"], ""),
        (["frame", *KEY_ARGS], ""),
        (["frame", "--parse", *KEY_ARGS], ""),
    ]:
        assert run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch) == \
            (2, "", "no data to convert\n"), (argv, stdin)


def test_decode_bad_checksum_names_reason(capsys, monkeypatch, tmp_path):
    hexfile = tmp_path / "frame.hex"
    run_cli(capsys, ["encode", "--protocol", "a5n1", "--message-type", "0x38",
                     "--id", "7", "--temp-c", "10", "--format", "hex",
                     "-o", str(hexfile)])
    frame = bytearray(bytes.fromhex(hexfile.read_text().strip()))
    frame[7] = (frame[7] + 1) & 0xFF
    code, out, err = run_cli(capsys, ["decode", "--protocol", "a5n1",
                                      "--format", "hex"],
                             stdin=frame.hex() + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "checksum" in err


def test_decode_missing_file_exits_1(capsys):
    code, out, err = run_cli(capsys, ["decode", "--protocol", "a5n1",
                                      "/nonexistent/capture.txt"])
    assert code == 1


@pytest.mark.parametrize("stdin, prefix", [
    ("H 600\nL 600\nwat\n", "line 3: expected"),
    ("H 600\nL \u00b2\n", "line 2: expected"),
    ("H \u0661\u0662\n", "line 1: expected"),
    (f"# capture\n\nH 1{'0' * 400}\nL 600\n", "line 3: duration"),
    (f"H {'1' * 5000}\n", "line 1: duration"),
    ("H 600\n\n# x\nH 600\n", "line 4: levels must strictly alternate"),
], ids=["shape", "superscript_digit", "arabic_indic_digits", "huge_after_comment",
        "too_many_digits", "repeat_after_comment"])
def test_decode_malformed_pulses_reports_line(stdin, prefix, capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["decode", "--protocol", "a5n1"],
                             stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {prefix}") and err.count("\n") == 1
    assert len(err) < 120


@pytest.mark.parametrize("protocol", ["a5n1", "lcw"])
def test_decode_huge_pulse_duration_is_validation_error(protocol, capsys, monkeypatch):
    # a duration too large for a float division in the framer
    code, out, err = run_cli(capsys, ["decode", "--protocol", protocol, "--format", "pulses"],
                             stdin=f"H 1{'0' * 400}\nL 600\n", monkeypatch=monkeypatch)
    assert (code, out) == (3, "")
    assert err.startswith("error: line 1: duration") and err.count("\n") == 1
    assert len(err) < 120


# ---------------------------------------------------------------------------
# payload / frame

RECORD_LINE = json.dumps({
    "station": {"protocol": "a5n1", "id": 1234, "channel": 2},
    "seq": 7, "sensor_battery_ok": True,
    "temperature_c": 21.94, "humidity_pct": 45.0, "wind_speed_kph": 9.3,
    "wind_dir_deg": 90.0, "rain_mm": 30.48, "pressure_pa": 101325,
    "board_temp_c": 24.5, "battery_mv": 3700,
    "frames_received": 2, "cycle_time_s": 900,
})


def _record_with(**changes) -> str:
    return json.dumps({**json.loads(RECORD_LINE), **changes})


@pytest.mark.parametrize("bad", [
    _record_with(station={"protocol": "a5n1", "id": "7", "channel": 0}),
    _record_with(frames_received="x"),
    _record_with(station={"protocol": 5, "id": 7}),
    _record_with(station={"protocol": "lcw", "id": 128}),
    "[1]",
    _record_with(temperature_c=float("inf")),
    # an unscaled field is not rounded, and a flag is not read by truthiness
    _record_with(pressure_pa=101325.7),
    _record_with(battery_mv=3700.4),
    _record_with(cycle_time_s=900.4),
    _record_with(frames_received=1.6),
    _record_with(frames_received=True),
    _record_with(sensor_battery_ok="no"),
    # a value that is not a number
    _record_with(board_temp_c=None),
    _record_with(temperature_c="x"),
    _record_with(humidity_pct=[1]),
    _record_with(wind_dir_deg="x"),
    _record_with(temperature_c=True),
    # a record or station of the wrong shape
    "{}",
    _record_with(station=1),
    _record_with(station={"protocol": "a5n1", "channel": 0}),
    _record_with(station={"protocol": "a5n1", "id": 1.5, "channel": 0}),
    _record_with(station={"protocol": "a5n1", "id": True, "channel": 0}),
    _record_with(station={"protocol": "a5n1", "id": 7, "channel": "0"}),
    # JSON nested deeper than the interpreter's stack
    "[" * 200_000,
    '{"station": ' + '{"id": ' * 200_000,
], ids=["id_str", "frames_received_str", "protocol_int", "lcw_id_128", "not_object",
        "temperature_inf", "pressure_fraction", "battery_mv_fraction", "cycle_time_fraction",
        "frames_received_fraction", "frames_received_bool", "sensor_battery_ok_str",
        "board_temp_null", "temperature_str", "humidity_list", "wind_dir_str", "temperature_bool",
        "empty_object", "station_int", "id_missing", "id_float", "id_bool", "channel_str",
        "nested_array", "nested_object"])
def test_payload_bad_record_reports_line_and_goes_on(bad, capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["payload"], stdin=f"{bad}\n{RECORD_LINE}\n",
                             monkeypatch=monkeypatch)
    assert code == 0
    assert len(out.split()) == 1            # the second record is still encoded
    assert err.startswith("line 1: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, ["payload"], stdin=f"{bad}\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("line 1: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [
    _record_with(station={"protocol": "a5n1", "id": 10**400, "channel": 0}),
    _record_with(battery_mv=10**400),
    _record_with(seq=10**400),
    _record_with(station={"protocol": "x" * 400, "id": 7}),
], ids=["id", "battery_mv", "seq", "protocol"])
def test_payload_echoes_huge_values_shortened(bad, capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["payload"], stdin=f"{bad}\n", monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("line 1: ") and err.count("\n") == 1 and len(err) < 120


def test_payload_roundtrip(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["payload"], stdin=RECORD_LINE + "\n",
                           monkeypatch=monkeypatch)
    assert code == 0
    hexline = out.strip()
    assert len(hexline) == 58   # 29 bytes
    code, out, _ = run_cli(capsys, ["payload", "--decode"],
                           stdin=hexline + "\n", monkeypatch=monkeypatch)
    assert code == 0
    back = json.loads(out.strip())
    assert back["temperature_c"] == pytest.approx(21.94)
    assert back["frames_received"] == 2
    assert back["cycle_time_s"] == 900


def test_payload_decode_out_of_range_word_reports_line(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, ["payload"], stdin=RECORD_LINE + "\n", monkeypatch=monkeypatch)
    good = out.strip()
    bad = good[:24] + "0e10" + good[28:]        # wind direction word 3600, i.e. 360.0 degrees
    code, out, err = run_cli(capsys, ["payload", "--decode"], stdin=f"{bad}\n{good}\n",
                             monkeypatch=monkeypatch)
    assert code == 0
    assert len(out.splitlines()) == 1
    assert err.startswith("line 1: wind direction") and err.count("\n") == 1


KEY_ARGS = ["--devaddr", "26011157",
            "--nwkskey", "2b7e151628aed2a6abf7158809cf4f3c",
            "--appskey", "000102030405060708090a0b0c0d0e0f"]


def test_frame_build_and_parse(capsys, monkeypatch):
    payload = "ab" * 29
    code, out, _ = run_cli(capsys, ["frame", *KEY_ARGS],
                           stdin=payload + "\n", monkeypatch=monkeypatch)
    assert code == 0
    frame = out.strip()
    assert len(frame) == 84   # 42 bytes
    code, out, err = run_cli(capsys, ["frame", "--parse", *KEY_ARGS],
                             stdin=frame + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == payload
    assert "fcnt 0" in err


def test_frame_keys_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("WXKIT_DEVADDR", "26011157")
    monkeypatch.setenv("WXKIT_NWKSKEY", "2b7e151628aed2a6abf7158809cf4f3c")
    monkeypatch.setenv("WXKIT_APPSKEY", "000102030405060708090a0b0c0d0e0f")
    code, out, _ = run_cli(capsys, ["frame"], stdin="0102\n",
                           monkeypatch=monkeypatch)
    assert code == 0
    assert len(out.strip()) == 30   # 2 + 13 bytes


def test_frame_missing_keys_is_validation_error(capsys, monkeypatch):
    monkeypatch.delenv("WXKIT_NWKSKEY", raising=False)
    monkeypatch.delenv("WXKIT_APPSKEY", raising=False)
    monkeypatch.delenv("WXKIT_DEVADDR", raising=False)
    code, _, err = run_cli(capsys, ["frame"], stdin="01\n",
                           monkeypatch=monkeypatch)
    assert code == 3
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "WXKIT_" in err


@pytest.mark.parametrize("flag,value,message", [
    ("--devaddr", "2601", "dev_addr must be 4 bytes"),
    ("--devaddr", "2601115700", "dev_addr must be 4 bytes"),
    ("--nwkskey", "2b7e15", "nwk_skey must be 16 bytes"),
    # the key is named and its position given, but its text is not echoed
    ("--nwkskey", "zz", "nwk_skey: non-hexadecimal number found in fromhex() arg at position 0"),
])
def test_frame_malformed_session_is_validation_error(flag, value, message, capsys, monkeypatch):
    argv = list(KEY_ARGS)
    argv[argv.index(flag) + 1] = value
    code, out, err = run_cli(capsys, ["frame", *argv], stdin="01\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (3, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# the line commands' exact transcript: good lines mixed with one of each error

GOOD_38, GOOD_31 = "84d2780ac5182de2", "84d2b10084007803"
BAD_CHECKSUM, BAD_PARITY = "84d2780ac5182de3", "84d2b10085007804"
LCW_RECORD = json.dumps({"station": {"protocol": "lcw", "id": 42}, "temperature_c": 25.3})
PAYLOAD_A5N1 = "010184d200077f08925a005d038400000be800018bcd09920e74020384"
PAYLOAD_LCW = "0102002a00000209e2000000000000000000000000000000000000"
FRAME_0 = "4057110126000000016546156a692becac509dc94a1acc996b235e5e8352060eb06becf945135db184d9"
FRAME_1 = "40571101260001000183099f896ba83cae62ba0b48363b4f959ecbc0efa34175e816f5e8fdb48ea0"

DECODED_38 = ('{"station": {"protocol": "a5n1", "id": 1234, "channel": 2}, "seq": 0, '
              '"sensor_battery_ok": true, "temperature_c": 21.5, "humidity_pct": 45.0, '
              '"wind_speed_kph": 9.278, "wind_dir_deg": null, "rain_mm": null, '
              '"pressure_pa": null, "board_temp_c": 0.0, "battery_mv": 0}\n')
DECODED_31 = ('{"station": {"protocol": "a5n1", "id": 1234, "channel": 2}, "seq": 0, '
              '"sensor_battery_ok": false, "temperature_c": null, "humidity_pct": null, '
              '"wind_speed_kph": 0.0, "wind_dir_deg": 90.0, "rain_mm": 30.48, '
              '"pressure_pa": null, "board_temp_c": 0.0, "battery_mv": 0}\n')


def _pulses(*frames: str) -> str:
    return PulseTrain("H", sum((a5n1_to_pulses(bytes.fromhex(f)).durations for f in frames),
                               ())).to_text()


def _bits(frame: str) -> str:
    return bytes_to_bits(bytes.fromhex(frame))


TRANSCRIPT = [
    (["decode", "--protocol", "a5n1"],
     _pulses(GOOD_38, BAD_CHECKSUM, GOOD_38[:14], GOOD_31, BAD_PARITY),
     0, DECODED_38 + DECODED_31,
     "run 2: checksum 0xe3 != computed 0xe2\n"
     "run 3: skipped, 56 bits (need 64)\n"
     "run 5: parity failure in byte 4\n"),
    (["decode", "--protocol", "a5n1", "--format", "bits"],
     f"{_bits(GOOD_38)}\n\n# comment\n{_bits(BAD_CHECKSUM)}  # trailing\n"
     f"{_bits(GOOD_38)[:60]}\n{_bits(GOOD_31)}\n",
     0, DECODED_38 + DECODED_31,
     "line 4: checksum 0xe3 != computed 0xe2\n"
     "line 5: skipped, 60 bits (need 64)\n"),
    (["decode", "--protocol", "lcw", "--format", "hex"],
     "905565300065c\n905565300065d\n805565300065b\n905565300075d\n",
     0, '{"station": {"protocol": "lcw", "id": 42, "channel": 0}, "seq": 0, '
        '"sensor_battery_ok": true, "temperature_c": 25.299999999999997, "humidity_pct": null, '
        '"wind_speed_kph": null, "wind_dir_deg": null, "rain_mm": null, "pressure_pa": null, '
        '"board_temp_c": 0.0, "battery_mv": 0}\n',
     "line 2: checksum 0xd != computed 0xc\n"
     "line 3: sync nibble 0x8 != 0x9\n"
     "line 4: repeat nibbles 0x70x5 != digits 0x60x5\n"),
    (["decode", "--protocol", "a5n1", "--format", "hex"], f"{GOOD_38}\n{GOOD_38[:-2]}\n",
     3, "", "error: line 2: expected 16 lowercase hex digits\n"),
    (["decode", "--protocol", "a5n1", "--format", "bits"], f"{_bits(GOOD_38)}\n0120\n",
     3, "", "error: line 2: bitstring lines must be 0/1 characters\n"),
    (["payload"],
     "\n".join([RECORD_LINE, "{not json", "[1]", '{"seq": 1}',
                _record_with(station={"protocol": "a5n1", "id": "7", "channel": 2}),
                _record_with(temperature_c=float("inf")), LCW_RECORD]) + "\n",
     0, f"{PAYLOAD_A5N1}\n{PAYLOAD_LCW}\n",
     "line 2: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
     "line 3: a record must be an object, not [1]\n"
     "line 4: station must be an object, not None\n"
     "line 5: station id must be an integer, not '7'\n"
     "line 6: temperature value inf outside representable range\n"),
    (["payload"], "{}\n[]\n",
     2, "", "line 1: station must be an object, not None\n"
            "line 2: a record must be an object, not []\n"),
    (["payload", "--decode"],
     f"{PAYLOAD_A5N1}\n{PAYLOAD_A5N1[:-1]}\n{PAYLOAD_A5N1[:-2]}\n03{PAYLOAD_A5N1[2:]}\n{PAYLOAD_LCW}\n",
     0, RECORD_LINE + "\n"
        '{"station": {"protocol": "lcw", "id": 42, "channel": 0}, "seq": 0, '
        '"sensor_battery_ok": false, "temperature_c": 25.3, "humidity_pct": null, '
        '"wind_speed_kph": null, "wind_dir_deg": null, "rain_mm": null, "pressure_pa": null, '
        '"board_temp_c": 0.0, "battery_mv": 0, "frames_received": 0, "cycle_time_s": 0}\n',
     "line 2: non-hexadecimal number found in fromhex() arg at position 57\n"
     "line 3: wrong length 28 for a5n1 (expected 29)\n"
     "line 4: unknown payload version 0x03\n"),
    (["frame", *KEY_ARGS], f"{PAYLOAD_A5N1}\nzz\n{'00' * 223}\n{PAYLOAD_LCW}\n",
     0, f"{FRAME_0}\n{FRAME_1}\n",
     "line 2: not valid hex\n"
     "line 3: payload of 223 bytes exceeds 222\n"),
    (["frame", "--parse", *KEY_ARGS],
     f"{FRAME_0}\nabc\n{FRAME_1[:-2]}00\n{FRAME_0}\n{FRAME_1}\n{'40' * 11}\n",
     0, f"{PAYLOAD_A5N1}\n{PAYLOAD_LCW}\n",
     "line 1: fcnt 0\n"
     "line 2: not valid hex\n"
     "line 3: MIC verification failed\n"
     "line 4: counter 0 outside resync window [1, 17]\n"
     "line 5: fcnt 1\n"
     "line 6: frame of 11 bytes is outside 12..255 bytes\n"),
    (["frame", "--parse", *KEY_ARGS], "0g\n", 2, "", "line 1: not valid hex\n"),
]


@pytest.mark.parametrize("argv,stdin,code,out,err", TRANSCRIPT, ids=[
    "decode_pulses", "decode_bits", "decode_lcw_hex", "decode_bad_hex", "decode_bad_bits",
    "payload", "payload_none", "payload_decode", "frame", "frame_parse", "frame_parse_none"])
def test_line_command_transcript(argv, stdin, code, out, err, capsys, monkeypatch):
    assert run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch) == (code, out, err)


# ---------------------------------------------------------------------------
# the uplink chain's exact bytes on seeded records

def _chain_record(rng: random.Random) -> str:
    """One seeded record line: either protocol, measurements absent, in range
    up to the ends of the wire range, or written as JSON ints."""
    a5n1 = rng.random() < 0.6
    ranges = {"temperature_c": (-327.68, 327.67), "humidity_pct": (0.0, 100.0),
              "wind_speed_kph": (0.0, 6553.5), "wind_dir_deg": (0.0, 359.9),
              "rain_mm": (0.0, 42949672.95), "pressure_pa": (0, 2**32 - 1)}
    obj = {"station": {"protocol": "a5n1" if a5n1 else "lcw",
                       "id": rng.randrange(0x4000 if a5n1 else 0x80),
                       "channel": rng.randrange(4) if a5n1 else 0},
           "seq": rng.randrange(0x10000), "sensor_battery_ok": rng.random() < 0.5}
    for field, (lo, hi) in ranges.items():
        kind = rng.randrange(5)
        if field == "pressure_pa" or kind == 0:
            value = rng.randint(int(lo) + 1, int(hi))
        elif kind == 1:
            value = rng.choice((lo, hi))
        else:
            value = round(rng.uniform(lo, hi), rng.choice((0, 1, 2, 3, 6)))
        obj[field] = None if rng.random() < 0.3 else value
    obj["board_temp_c"] = round(rng.uniform(-20.0, 60.0), 2) if a5n1 else 0.0
    obj["battery_mv"] = rng.randrange(0x10000)
    obj["frames_received"] = rng.randrange(0x100)
    obj["cycle_time_s"] = rng.choice((300, 900, 0xFFFF))
    return json.dumps(obj)


def test_uplink_chain_pinned(tmp_path, capsys):
    """300 seeded records, with a few invalid lines and comments, through
    payload, frame, frame --parse and payload --decode: every output file,
    stderr and exit code is pinned."""
    rng = random.Random("uplink-chain")
    lines = [_chain_record(rng) for _ in range(300)]
    for at, bad in ((7, "{not json"), (50, "[1]"), (120, _record_with(humidity_pct=100.5)),
                    (180, _record_with(wind_dir_deg=360)), (240, "# comment"), (260, "")):
        lines.insert(at, bad)
    (tmp_path / "records.jsonl").write_text("\n".join(lines) + "\n")
    h = hashlib.sha256()
    stages = [(["payload"], "records.jsonl", "payloads.hex"),
              (["frame", *KEY_ARGS], "payloads.hex", "frames.hex"),
              (["frame", "--parse", *KEY_ARGS], "frames.hex", "parsed.hex"),
              (["payload", "--decode"], "parsed.hex", "decoded.jsonl")]
    for argv, source, target in stages:
        code = main([*argv, str(tmp_path / source), "-o", str(tmp_path / target)])
        out, err = capsys.readouterr()
        assert code == 0 and out == ""
        h.update(f"{argv[0]} {code}\n{err}".encode() + (tmp_path / target).read_bytes())
    decoded = (tmp_path / "decoded.jsonl").read_text().splitlines()
    assert len(decoded) == 300 and len({json.loads(line)["seq"] for line in decoded}) > 280
    assert h.hexdigest() == "3a17587a321d50091ed85ded8410a3c396e43f5c8e4186fcefae298a9dc4f169"


@pytest.mark.parametrize("argv", [
    ["decode", "--protocol", "a5n1"],
    ["decode", "--protocol", "lcw", "--format", "hex"],
    ["payload"],
    ["payload", "--decode"],
    ["frame", *KEY_ARGS],
    ["frame", "--parse", *KEY_ARGS],
    ["simulate", "--config"],
])
def test_input_file_not_text_is_validation_error(argv, tmp_path, capsys):
    # valid UTF-8 but not ASCII on the first line, not UTF-8 on the second
    path = tmp_path / "input.txt"
    path.write_bytes("0102 # café\n".encode() + b"\xff\n")
    code, out, err = run_cli(capsys, [*argv, str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("argv", [
    ["decode", "--protocol", "a5n1"],
    ["payload"],
    ["frame", *KEY_ARGS],
])
def test_stdin_not_text_is_validation_error(argv, capsys, monkeypatch):
    # a strict UTF-8 stdin that is not UTF-8
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"0102\n\xff\n"), "utf-8"))
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["decode", "--protocol", "a5n1"],
    ["payload"],
    ["frame", *KEY_ARGS],
    ["simulate", "--config"],
])
def test_missing_input_file_exits_1(argv, tmp_path, capsys):
    code, out, err = run_cli(capsys, [*argv, str(tmp_path / "missing.txt")])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


A5N1_HEX = build_a5n1_frame(StationId(Protocol.A5N1, 7, 0), A5N1_MSG_TEMP_HUMIDITY).hex()


@pytest.mark.parametrize("argv,stdin", [
    (["decode", "--protocol", "a5n1", "--format", "hex", "-o"], A5N1_HEX + "\n"),
    (["encode", "--protocol", "a5n1", "--id", "7", "-o"], ""),
    (["payload", "-o"], RECORD_LINE + "\n"),
    (["frame", *KEY_ARGS, "-o"], "0102\n"),
    (["simulate", "--duration-s", "3600", "--out"], ""),
], ids=["decode", "encode", "payload", "frame", "simulate"])
def test_unwritable_output_exits_1(argv, stdin, tmp_path, capsys, monkeypatch):
    path = tmp_path / "no-such-dir" / "out.txt"
    code, out, err = run_cli(capsys, [*argv, str(path)], stdin=stdin,
                             monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_pipe_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["encode", "--protocol", "lcw", "--id", "42", "--quantity", "temp",
                 "--value", "25.3", "--format", "hex"]) == 1
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# one parser serves every main() call of a process

REUSE_PAIRS = [
    ((["payload", "--decode"], f"{PAYLOAD_A5N1}\n{PAYLOAD_A5N1[:-2]}\n"),
     (["payload"], f"{RECORD_LINE}\n[1]\n{LCW_RECORD}\n")),
    ((["frame", "--parse", *KEY_ARGS], f"{FRAME_0}\n{FRAME_0}\n"),
     (["frame", *KEY_ARGS], f"{PAYLOAD_A5N1}\nzz\n{PAYLOAD_LCW}\n")),
    ((["frame", "--fcnt", "x", *KEY_ARGS], ""),
     (["frame", "--parse", *KEY_ARGS], f"{FRAME_0}\n{FRAME_1}\n")),
    ((["--help"], ""),
     (["payload", "--decode"], f"{PAYLOAD_LCW}\n03{PAYLOAD_LCW[2:]}\n")),
]


@pytest.mark.parametrize("first,second", REUSE_PAIRS, ids=[
    "payload_decode_then_payload", "frame_parse_then_frame", "usage_error_then_valid",
    "help_then_valid"])
def test_reused_parser_gives_each_command_its_own_result(first, second, capsys, monkeypatch):
    def run(argv, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:   # --help
            code = exc.code
        return code, *capsys.readouterr()

    cli._parser.cache_clear()
    alone = run(*second)
    cli._parser.cache_clear()
    first_result = run(*first)
    parser = cli._parser()
    assert run(*second) == alone
    assert cli._parser() is parser
    assert first_result[0] in (0, 3) and alone[0] == 0 and alone[1] and alone[2]
    # the public builder still returns a parser of its own
    assert cli.build_parser() is not cli.build_parser() is not parser


# ---------------------------------------------------------------------------
# airtime / battery

def test_airtime_sf9_payload42(capsys):
    code, out, _ = run_cli(capsys, ["airtime", "--sf", "9", "--bw", "125000",
                                    "--cr", "5", "--payload", "42"])
    assert code == 0
    assert out.strip() == "287.744"


def test_airtime_sf7_payload1(capsys):
    code, out, _ = run_cli(capsys, ["airtime", "--sf", "7", "--payload", "1"])
    assert code == 0
    assert out.strip() == "25.856"


@pytest.mark.parametrize("argv,ms", [
    (["--sf", "12"], "2138.112"), (["--sf", "12", "--no-low-dr-optimize"], "1810.432"),
    (["--sf", "7"], "87.296"), (["--sf", "7", "--low-dr-optimize"], "112.896"),
])
def test_airtime_low_dr_optimize_flags(argv, ms, capsys):
    code, out, _ = run_cli(capsys, ["airtime", "--payload", "42", *argv])
    assert (code, out.strip()) == (0, ms)


@pytest.mark.parametrize("argv", [["--cr", "9"], ["--preamble", "65536"], ["--preamble", "0"]])
def test_airtime_radio_limits_usage_error(argv, capsys):
    code, out, err = run_cli(capsys, ["airtime", "--sf", "9", "--payload", "10", *argv])
    assert (code, out) == (3, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_airtime_sf13_usage_error(capsys):
    code, out, err = run_cli(capsys, ["airtime", "--sf", "13", "--payload", "1"])
    assert code == 3
    assert "sf" in err


def test_battery_single_values(capsys):
    code, out, _ = run_cli(capsys, ["battery", "--platform", "lopy4",
                                    "--interval-s", "300"])
    assert code == 0
    assert out.strip() == "141.2"
    code, out, _ = run_cli(capsys, ["battery", "--platform", "bsf32",
                                    "--interval-s", "323"])
    assert out.strip() == "56.4"


def test_battery_daily(capsys):
    code, out, _ = run_cli(capsys, ["battery", "--platform", "bsf32",
                                    "--interval-s", "323", "--daily"])
    assert code == 0
    assert out.strip() == "131220.6"


def test_battery_table_flags_typo(capsys):
    code, out, _ = run_cli(capsys, ["battery", "--table"])
    assert code == 0
    assert out.count("\n") >= 8
    assert "4204" in out and "204" in out and "typo" in out
    assert "10x typo" in out          # the daily-energy misprint note
    assert "339.8" in out


LOPY4_DAILY_NOTE = ("reference prints 33.98 mWh per day, a 10x typo; the value "
                    "consistent with its 141-day result is 339.8 mWh/day")


def test_battery_table_text_is_pinned(capsys):
    code, out, err = run_cli(capsys, ["battery", "--table"])
    assert (code, err) == (0, "")
    assert out == (
        "interval  platform   model d  reference d  note\n"
        "    5 min  bsf32         52.7           56  reference assumes a 323 s cycle; "
        "the model at 323 s gives 56.4\n"
        "    5 min  lopy4        141.2          141  \n"
        "   15 min  bsf32        133.8          123  reference derives from 622 uWh/cycle "
        "(implying ~495 uWh active); the model keeps the measured 449 uWh\n"
        "   15 min  lopy4        414.9          414  \n"
        "   30 min  bsf32        217.4         4204  reference value 4204 is a typo; "
        "the accompanying text says 204\n"
        "   30 min  lopy4        805.2          739  reference conflicts with its own "
        "5/15/60-minute arithmetic; model value reported as-is\n"
        "   60 min  bsf32        316.1          326  \n"
        "   60 min  lopy4       1520.0         1478  \n"
        "\n"
        "daily energy:\n"
        "  bsf32 @ 323 s: 131220.6 uWh/day (reference 130803)\n"
        f"  lopy4 @ 300 s: 339982.1 uWh/day (reference 339800) -- {LOPY4_DAILY_NOTE}\n")


def test_battery_unknown_platform(capsys):
    code, _, err = run_cli(capsys, ["battery", "--platform", "bsf32",
                                    "--interval-s", "10"])
    assert code == 3   # shorter than the active phase


def test_battery_without_platform_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["battery", "--interval-s", "300"])
    assert (code, out, err) == (
        3, "", "usage error: --platform and --interval-s are required without --table\n")


# ---------------------------------------------------------------------------
# simulate

def test_simulate_lossless_summary(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"duration_s": 7200, "seed": 4}))
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == 0
    summary = json.loads(out)
    assert summary["uplinks_delivered"] == summary["uplinks_attempted"]
    assert summary["invariants_ok"]


def test_simulate_flags_override_config(tmp_path, capsys):
    flagged, expected = tmp_path / "flagged.json", tmp_path / "expected.json"
    flagged.write_text(json.dumps({"duration_s": 3600, "seed": 4}))
    expected.write_text(json.dumps({"duration_s": 600, "seed": 9}))
    code, out, err = run_cli(capsys, ["simulate", "--config", str(flagged),
                                      "--seed", "9", "--duration-s", "600"])
    assert (code, err) == (0, "")
    assert json.loads(out)["seed"] == 9 and json.loads(out)["duration_s"] == 600.0
    assert run_cli(capsys, ["simulate", "--config", str(expected)]) == (0, out, "")


def test_simulate_failed_invariants_exit_1(capsys, monkeypatch):
    violations = ["duty cycle exceeded: 40.000 s airtime in one hour",
                  "t=900.0: delivered uplink failed to decode: MIC mismatch"]
    summary = {"invariants_ok": False, "violations": violations}
    monkeypatch.setattr(simkit, "run", lambda config, sink: simkit.SimTrace({}, summary=summary))
    code, out, err = run_cli(capsys, ["simulate", "--duration-s", "60"])
    assert (code, out) == (1, json.dumps(summary, sort_keys=True) + "\n")
    assert err == "".join(f"invariant violated: {v}\n" for v in violations)


def test_simulate_deterministic_trace_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "duration_s": 7200, "seed": 11,
        "channel": {"frame_loss_p": 0.25, "bit_flip_q": 0.005}}))
    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    assert run_cli(capsys, ["simulate", "--config", str(cfg), "--out", str(t1)])[0] == 0
    assert run_cli(capsys, ["simulate", "--config", str(cfg), "--out", str(t2)])[0] == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_simulate_config_errors_listed_together(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "duration_s": -5,
        "channel": {"frame_loss_p": 7},
        "transponder": {"profile": "nope"}}))
    code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == 3
    assert err.count("config error:") >= 3


@pytest.mark.parametrize("field,value", [
    *(pytest.param(field, value, id=f"{field}-{name}")
      for field in ("duration_s", "station.emission_period_s",
                    "transponder.rx_timeout_s", "transponder.t_cycle_s")
      for name, value in (("nan", float("nan")), ("inf", float("inf")))),
    # wrongly typed fields
    pytest.param("station.protocol", 5, id="station.protocol-int"),
    pytest.param("barometer.pressure_noise_pa", "x", id="barometer.pressure_noise_pa-str"),
    pytest.param("transponder.t_cycle_s", "300", id="transponder.t_cycle_s-str"),
    pytest.param("channel.frame_loss_p", None, id="channel.frame_loss_p-null"),
    # values outside what the run or the payload can carry
    pytest.param("barometer.pressure_noise_pa", float("inf"), id="barometer.pressure_noise_pa-inf"),
    pytest.param("barometer.pressure_pa", -5, id="barometer.pressure_pa-negative"),
    pytest.param("barometer.board_temp_c", float("nan"), id="barometer.board_temp_c-nan"),
    pytest.param("duration_s", 366 * 86_400 + 1, id="duration_s-over-366-days"),
    # a period that never lets the run's clock advance
    pytest.param("station.emission_period_s", 1e-300, id="station.emission_period_s-tiny"),
    # an int that converts to no float
    *(pytest.param(field, 10 ** 400, id=f"{field}-huge-int")
      for field in ("duration_s", "station.emission_period_s", "transponder.rx_timeout_s",
                    "barometer.pressure_noise_pa", "barometer.temp_noise_c")),
    # an int outside 64 bits, or a huge int where a string or an object goes
    *(pytest.param(field, 10 ** 400, id=f"{field}-huge-int")
      for field in ("seed", "station.id", "station.channel", "transponder.sf",
                    "barometer.pressure_pa", "transponder.profile", "station")),
    pytest.param("seed", 2 ** 63, id="seed-2**63"),
    pytest.param("station.id", -2 ** 63 - 1, id="station.id-below-int64"),
])
def test_simulate_rejects_non_finite_durations(field, value, tmp_path, capsys):
    obj = {"duration_s": 3600}
    *parents, key = field.split(".")
    target = obj
    for name in parents:
        target = target.setdefault(name, {})
    target[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))          # NaN and Infinity as Python's json writes them
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: {field} ")
    assert len(err) < 200                    # a huge value is not echoed


def test_simulate_rejects_an_int_past_the_digit_limit(tmp_path, capsys):
    # json.load applies the digit limit of int-from-text conversion
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"duration_s": ' + "1" * 4400 + "}")
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert (code, out) == (3, "")
    assert err == "config error: an integer in the config has too many digits\n"


def test_simulate_nested_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"channel": ' + "[" * 200_000)
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert (code, out) == (3, "")
    assert err.startswith("error: config is not valid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["[1]", "5", "null",
                                  pytest.param(f"[{10 ** 400}]", id="[huge-int]")])
def test_simulate_config_not_an_object_exits_3(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg), "--seed", "2"])
    assert (code, out) == (3, "")
    assert err == f"config error: config must be a JSON object, not {reprlib.repr(json.loads(text))}\n"
    assert len(err) < 200


def test_simulate_loss_statistics(tmp_path, capsys):
    # with per-frame loss p=0.5 both receive windows still usually fill
    # from retries; assert the delivered count is plausible, not exact
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "duration_s": 43200, "seed": 8,
        "transponder": {"t_cycle_s": 300},
        "channel": {"frame_loss_p": 0.5}}))
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == 0
    summary = json.loads(out)
    assert summary["uplinks_delivered"] == summary["uplinks_attempted"] == 144
    assert summary["invariants_ok"]
    assert 0 < summary["complete_records"] <= 144


@pytest.mark.parametrize("config", [{"nope": 1}, {"duration_s": -5}],
                         ids=["unknown_option", "invalid_value"])
@pytest.mark.parametrize("existing", [b"an earlier trace\n", None], ids=["existing", "absent"])
def test_simulate_config_error_leaves_out_alone(config, existing, tmp_path, capsys):
    # the config is checked before --out is opened for writing
    cfg, out = tmp_path / "cfg.json", tmp_path / "trace.jsonl"
    cfg.write_text(json.dumps(config))
    if existing is not None:
        out.write_bytes(existing)
    code, stdout, err = run_cli(capsys, ["simulate", "--config", str(cfg), "--out", str(out)])
    assert (code, stdout) == (3, "")
    assert err.startswith("config error: ")
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


@pytest.mark.parametrize("out", [False, True], ids=["no_out", "out"])
def test_simulate_memory_does_not_grow_with_duration(out, tmp_path, capsys):
    # Holding the events, 4 more days cost about 1.1 MB (dropped) and 2.3 MB
    # (written to --out) more at the peak. Rare emissions and short receive
    # windows keep the run cheap under tracemalloc.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"station": {"emission_period_s": 600},
                               "transponder": {"t_cycle_s": 1800, "rx_timeout_s": 5}}))
    argv = ["simulate", "--config", str(cfg), *(["--out", str(tmp_path / "t.jsonl")] * out)]

    def peak_bytes(days: int) -> int:
        tracemalloc.start()
        try:
            assert main([*argv, "--duration-s", str(days * 86_400)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert main([*argv, "--duration-s", "3600"]) == 0   # first-call allocations
    one_day = peak_bytes(1)
    assert peak_bytes(5) - one_day < 256 * 1024


# ---------------------------------------------------------------------------
# extreme numbers and arbitrary text end in an exit code, never in an
# escaped exception

def exit_code_of(argv: list[str], stdin: str = "") -> int:
    """``main(argv)`` with ``stdin`` as input and its output discarded;
    capsys is function-scoped, so a property swaps the streams per example."""
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = old_stdin


EXTREME_FLOATS = st.one_of(
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308]))
EXTREME_INTS = st.one_of(st.integers(), st.integers(-10**400, 10**400))
ENCODE_FLOAT_FLAGS = ("--wind-kph", "--wind-dir-deg", "--rain-mm", "--temp-c", "--humidity-pct")
PAYLOAD_FLOAT_FIELDS = (*FIELD_FLAGS, "seq", "board_temp_c", "battery_mv",
                        "frames_received", "cycle_time_s")


@st.composite
def cli_calls(draw):
    """(argv, stdin) for one subcommand given extreme numbers. Flags take
    ``--flag=value`` so that argparse reads a negative value as a value."""
    kind = draw(st.sampled_from(("a5n1", "lcw", "battery", "airtime", "payload")))
    if kind == "a5n1":
        flags = draw(st.dictionaries(st.sampled_from(ENCODE_FLOAT_FLAGS), EXTREME_FLOATS, min_size=1))
        return ["encode", "--protocol", "a5n1", "--id", "1",
                "--message-type", draw(st.sampled_from(("0x31", "0x38"))),
                *(f"{flag}={value!r}" for flag, value in flags.items())], ""
    if kind == "lcw":
        return ["encode", "--protocol", "lcw", "--id", "1",
                "--quantity", draw(st.sampled_from([q.name.lower() for q in LcwQuantity])),
                f"--value={draw(EXTREME_FLOATS)!r}"], ""
    if kind == "airtime":
        payload = draw(st.one_of(st.integers(0, 255), EXTREME_INTS))
        return ["airtime", "--sf", "9", f"--payload={payload}", f"--preamble={draw(EXTREME_INTS)}"], ""
    if kind == "battery":
        return ["battery", "--platform", draw(st.sampled_from(("bsf32", "lopy4"))),
                f"--interval-s={draw(EXTREME_FLOATS)!r}", *draw(st.sampled_from(((), ("--daily",))))], ""
    fields = draw(st.dictionaries(st.sampled_from(PAYLOAD_FLOAT_FIELDS), EXTREME_FLOATS, min_size=1))
    return ["payload"], _record_with(**fields) + "\n"


@settings(max_examples=100, deadline=None)
@given(cli_calls())
def test_cli_exits_cleanly_on_extreme_numbers(call):
    assert exit_code_of(*call) in (0, 1, 2, 3)


# Arbitrary text, and lines that each pass some of a reader's checks.
NEAR_VALID_LINES = (GOOD_38, BAD_PARITY, _bits(GOOD_31), _bits(GOOD_31)[:60], "905565300065c",
                    RECORD_LINE, LCW_RECORD, PAYLOAD_A5N1, FRAME_0, "H 600", "L 600", "H 400",
                    "L 200", "# comment")
FUZZ_TEXT = st.one_of(st.text(), st.lists(st.one_of(
    st.text("01HL 23456789abcdef{}[]\":,.-+e#"), st.sampled_from(NEAR_VALID_LINES)),
    max_size=6).map("\n".join))
LINE_COMMANDS = [
    *(["decode", "--protocol", protocol, "--format", fmt]
      for protocol in ("a5n1", "lcw") for fmt in ("pulses", "bits", "hex")),
    ["payload"], ["payload", "--decode"], ["frame", *KEY_ARGS], ["frame", "--parse", *KEY_ARGS],
]
# a base call and the flags given arbitrary text; simulate is kept short
FLAG_COMMANDS = [
    (["encode", "--protocol", "a5n1", "--id", "1"],
     ("--id", "--channel", "--message-type", "--wind-kph", "--wind-dir-deg", "--rain-mm",
      "--temp-c", "--humidity-pct", "--format")),
    (["encode", "--protocol", "lcw", "--id", "1", "--quantity", "rain", "--value", "1"],
     ("--id", "--quantity", "--value")),
    (["airtime", "--sf", "9", "--payload", "20"], ("--sf", "--bw", "--cr", "--payload", "--preamble")),
    (["battery", "--platform", "bsf32", "--interval-s", "900"], ("--platform", "--interval-s")),
    (["simulate", "--duration-s", "600"], ("--seed",)),
]


@st.composite
def text_calls(draw):
    """(argv, stdin, config text) for one subcommand given arbitrary text: as
    its input lines, as the ``--flag=value`` of one of its flags, or as the
    config file of a short simulation."""
    kind = draw(st.sampled_from(("lines", "flag", "config")))
    if kind == "lines":
        return draw(st.sampled_from(LINE_COMMANDS)), draw(FUZZ_TEXT), None
    if kind == "flag":
        argv, flags = draw(st.sampled_from(FLAG_COMMANDS))
        return [*argv, f"{draw(st.sampled_from(flags))}={draw(FUZZ_TEXT)}"], "", None
    return ["simulate", "--duration-s", "600"], "", draw(FUZZ_TEXT)


@settings(max_examples=150, deadline=None)
@given(call=text_calls())
def test_cli_exits_cleanly_on_arbitrary_text(call, tmp_path_factory):
    argv, stdin, config = call
    if config is not None:
        path = tmp_path_factory.getbasetemp() / "arbitrary_config.json"
        path.write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    assert exit_code_of(argv, stdin) in (0, 1, 2, 3)
