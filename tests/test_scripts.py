"""The scripts under scripts/ run to completion and print one row per
platform and interval, or per config."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PLATFORMS = ("bsf32", "lopy4")


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_battery_table_rows():
    out = run_script("battery_table.py")
    sweep = re.findall(r"^(\w+) +((?:[\d.]+ *){8})$", out, re.MULTILINE)
    assert [p for p, _ in sweep] == list(PLATFORMS)
    assert len(out.splitlines()) == 2 + len(sweep)     # a title and a header


def test_day_in_the_life_rows():
    out = run_script("day_in_the_life.py")
    rows = re.findall(r"^(\w+) +@ +(\d+)s ", out, re.MULTILINE)
    assert sorted(rows) == sorted((p, str(t)) for p in PLATFORMS for t in (300, 900, 1800, 3600))
    assert len(out.splitlines()) == len(rows)


def test_trace_digest_repeats():
    args = ("--configs", "3", "--seed", "7")
    out = run_script("trace_digest.py", *args)
    rows = [line.split() for line in out.splitlines()]
    assert [label for label, _ in rows] == ["0", "1", "2", "combined"]
    shas = [sha for _, sha in rows]
    assert all(re.fullmatch(r"[0-9a-f]{64}", sha) for sha in shas) and len(set(shas)) == 4
    assert hashlib.sha256("".join(shas[:3]).encode("ascii")).hexdigest() == shas[3]
    assert run_script("trace_digest.py", *args) == out


def test_trace_digest_pinned():
    """The trace bytes of 64 seeded random configs, by their combined digest.
    A change that keeps the simulator's behaviour leaves it as it is; one that
    changes the traces on purpose re-pins it with the golden hashes."""
    out = run_script("trace_digest.py", "--configs", "64", "--seed", "20261019")
    assert out.splitlines()[-1] == (
        "combined 6d78ded1e1cc5faa266b7c65c04753c0711912f01d3d0a9e1947497777131fbd")
