"""The scripts under scripts/ run to completion and print one row per
platform and interval."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PLATFORMS = ("bsf32", "lopy4")


def run_script(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_battery_table_rows():
    out = run_script("battery_table.py")
    rows = re.findall(r"^ +(\d+) min  (\w+) ", out, re.MULTILINE)
    assert sorted(rows) == sorted((str(m), p) for m in (5, 15, 30, 60) for p in PLATFORMS)
    sweep = re.findall(r"^(\w+) +((?:[\d.]+ *){8})$", out, re.MULTILINE)
    assert [p for p, _ in sweep] == list(PLATFORMS)


def test_day_in_the_life_rows():
    out = run_script("day_in_the_life.py")
    rows = re.findall(r"^(\w+) +@ +(\d+)s ", out, re.MULTILINE)
    assert sorted(rows) == sorted((p, str(t)) for p in PLATFORMS for t in (300, 900, 1800, 3600))
    assert len(out.splitlines()) == len(rows)
