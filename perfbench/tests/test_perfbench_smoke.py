"""Smoke test of the benchmark harness on tiny inputs.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import wxkit  # noqa: E402
import wxkit.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                  "--trace", trace, "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert report["env"]["nproc"] >= 1
    if workload == "sim_lossy":
        assert report["simulated"]["trace_sha256"]
    if trace == "1":
        assert "tracing.throughput_ratio" in report["layer_samples"]


def test_benchmark_json_lists_the_tracer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracer.LAYER_METRICS
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def _run_op(op, tmp_path):
    runner = run.Runner(wxkit, op, tmp_path)
    try:
        runner.run()
    finally:
        runner.close()
    return runner


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_output_checks_pass_and_catch_tampering(workload, tmp_path):
    op = workloads.prepare(workload, tmp_path, seed=3, scale=0.02)
    assert _run_op(op, tmp_path).failed == 0
    if workload == "sim_lossy":
        summary = json.dumps({"invariants_ok": False, "violations": ["x"]})
        assert op.check([0], summary)
        assert op.check([1], "")
        return
    out = Path(op.calls[-1][-1])
    lines = out.read_text().splitlines()
    row = json.loads(lines[0])
    field = next(k for k in ("temperature_c", "humidity_pct", "wind_speed_kph",
                             "rain_mm", "wind_dir_deg") if row.get(k) is not None)
    row[field] += 1.0
    out.write_text("\n".join([json.dumps(row)] + lines[1:]) + "\n")
    assert op.check([0] * len(op.calls), "")
    out.write_text("\n".join(lines[1:]) + "\n")
    assert op.check([0] * len(op.calls), "")


def test_tracer_restores_the_program(tmp_path):
    before = {(id(owner), attr): owner.__dict__[attr]
              for owner, attr, _ in tracer.targets(wxkit)}
    t = tracer.Tracer(wxkit)
    op = workloads.prepare("uplink_chain", tmp_path, seed=3, scale=0.02)
    runner = run.Runner(wxkit, op, tmp_path)
    try:
        with t.installed(op=1):
            runner.run()
    finally:
        runner.close()
    assert runner.failed == 0
    assert {s[tracer.NAME] for s in t.spans} >= {"cli.main", "lorawan.frame_build"}
    after = {(id(owner), attr): owner.__dict__[attr]
             for owner, attr, _ in tracer.targets(wxkit)}
    assert after == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "uplink_chain", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
