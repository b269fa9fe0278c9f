"""The package from outside, each case in a fresh interpreter: a module
and a command load only what they use, and ``python -m wxkit`` is the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, input=stdin, capture_output=True,
                          text=True, timeout=60)


def heavy_modules_after(code: str, stdin: str = "") -> list[str]:
    """The ``wxkit.simkit`` and ``cryptography`` modules a fresh interpreter
    holds after running ``code``."""
    proc = run_python("-c", f"{code}\nimport sys; print(' '.join(sys.modules))", stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    return [m for m in proc.stdout.split() if m == "wxkit.simkit" or m.split(".")[0] == "cryptography"]


def main_run(*argv: str) -> str:
    """Code that runs the CLI with ``argv`` and its output dropped, and
    fails unless it exits 0."""
    return f"import os; from wxkit.cli import main; assert main([*{argv!r}, '-o', os.devnull]) == 0"


@pytest.mark.parametrize("module", ["wxkit.core", "wxkit.energy", "wxkit.rfdecode",
                                    "wxkit.lorawan", "wxkit.cli"])
def test_a_module_loads_neither_crypto_nor_the_simulator(module):
    assert heavy_modules_after(f"import {module}") == []


RECORD = '{"station": {"protocol": "a5n1", "id": 1234, "channel": 2}, "seq": 1, "temperature_c": 21.5}\n'


@pytest.mark.parametrize("argv,stdin", [
    pytest.param(("payload",), RECORD, id="payload"),
    pytest.param(("decode", "--protocol", "a5n1", "--format", "hex"), "84d2780ac5182de2\n",
                 id="decode"),
])
def test_payload_and_decode_load_neither_crypto_nor_the_simulator(argv, stdin):
    assert heavy_modules_after(main_run(*argv), stdin) == []


def test_frame_loads_crypto_but_not_the_simulator():
    keys = ("--devaddr", "26011157", "--nwkskey", "2b7e151628aed2a6abf7158809cf4f3c",
            "--appskey", "000102030405060708090a0b0c0d0e0f")
    loaded = heavy_modules_after(main_run("frame", *keys), "0101\n")
    assert "cryptography" in loaded and "wxkit.simkit" not in loaded


def test_a_submodule_is_imported_on_first_use():
    proc = run_python("-c", "import wxkit.cli, wxkit as wx; print(wx.simkit.__name__); wx.nope")
    assert proc.stdout == "wxkit.simkit\n"
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "AttributeError: module 'wxkit' has no attribute 'nope'"


def test_simulate_config_errors_exit_3_in_a_fresh_interpreter(tmp_path):
    # the CLI maps the simulator's error without importing it first
    from wxkit.simkit import SimConfig, SimConfigError

    obj = {"duration_s": -5, "channel": {"frame_loss_p": 7}, "transponder": {"profile": "nope"}}
    with pytest.raises(SimConfigError) as info:
        SimConfig.from_dict(obj)
    assert len(info.value.problems) >= 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    proc = run_python("-m", "wxkit", "simulate", "--config", str(cfg))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "".join(f"config error: {p}\n" for p in info.value.problems)


def test_sim_config_error_is_cores_and_loads_nothing_heavy():
    # the CLI catches the simulator's config error by name: the class lives in
    # core, so importing it loads neither the simulator nor cryptography
    code = "import wxkit.core, wxkit.cli; from wxkit.core import SimConfigError"
    assert heavy_modules_after(code) == []
    proc = run_python("-c", f"{code}; import wxkit.simkit; "
                            "assert wxkit.simkit.SimConfigError is SimConfigError")
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs_the_cli():
    proc = run_python("-m", "wxkit", "airtime", "--sf", "9", "--payload", "42")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "287.744\n", "")


def test_module_entry_point_usage_error_exits_3():
    proc = run_python("-m", "wxkit", "airtime", "--sf", "9")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("usage error:")
