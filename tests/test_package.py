"""The package from outside, each case in a fresh interpreter: a module
loads only what it imports, and ``python -m wxkit`` is the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("module", ["wxkit.core", "wxkit.energy", "wxkit.rfdecode"])
def test_a_module_loads_neither_crypto_nor_the_simulator(module):
    proc = run_python("-c", f"import sys, {module}; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert module in loaded
    assert not [m for m in loaded if m == "wxkit.simkit" or m.split(".")[0] == "cryptography"]


def test_module_entry_point_runs_the_cli():
    proc = run_python("-m", "wxkit", "airtime", "--sf", "9", "--payload", "42")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "287.744\n", "")


def test_module_entry_point_usage_error_exits_3():
    proc = run_python("-m", "wxkit", "airtime", "--sf", "9")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("usage error:")
