#!/usr/bin/env python3
"""wxkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the real entry point in-process (`wxkit.cli.main(argv)`) on inputs
generated from the seed, as a closed loop with one client: one op at a time,
no extra threads. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops and reports per-layer
metrics from the spans, plus the tracing overhead. Every op's output is
checked against the generator's ground truth.

Stdout ends with a detail line ``{"report": ...}`` and then the result line
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every op was correct.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("sim_lossy", "uplink_chain")
SETUP_SAMPLES = 15      # fresh interpreters timed per run for setup_s
RSS_SAMPLES = 3         # fresh processes per run for peak_rss_mb
MIN_OPS = 3             # timed ops per run even when --seconds is short
CHILD_TIMEOUT_S = 120


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_sample() -> float:
    """Wall time for a fresh interpreter to import the CLI module, which
    every `wxkit` invocation pays. No timeout: with one, `wait` polls in
    sleeps of up to 50 ms, which would quantise the measurement."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wxkit.cli"], env=_child_env(),
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


def peak_rss_sample(op, workdir: Path) -> tuple[float, list[str]]:
    """Peak RSS (MB) of a fresh process running one op on existing inputs,
    and the problems found in that op's output."""
    spec = workdir / "rss_spec.json"
    stdout_path = workdir / "rss_stdout.txt"
    spec.write_text(json.dumps({"src": str(SRC), "calls": op.calls,
                                "stdout": str(stdout_path),
                                "stderr": str(workdir / "rss_stderr.txt")}))
    proc = subprocess.run([sys.executable, str(HERE / "rss_child.py"), str(spec)],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return 0.0, [f"peak-RSS child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["peak_rss_kb"] / 1024.0, op.check(result["codes"], stdout_path.read_text())


class Runner:
    """Runs ops of one workload in this process and keeps the tallies."""

    def __init__(self, wx, op, workdir: Path):
        self.cli = wx.cli
        self.op = op
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._stderr = open(workdir / "stderr.txt", "w+", encoding="utf-8")

    def close(self) -> None:
        self._stderr.close()

    def run(self) -> float:
        """One op: returns its wall time; checks its output afterwards."""
        self._stderr.seek(0)
        self._stderr.truncate()
        out = io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(self._stderr):
                codes = [self.cli.main(argv) for argv in self.op.calls]
        except Exception as exc:
            # a crash inside wxkit is a failed op; the run still reports
            elapsed = time.perf_counter() - t0
            self.tally([f"wxkit raised {type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = time.perf_counter() - t0
        self.tally(self.op.check(codes, out.getvalue()))
        return elapsed

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:3]


def _summary(values: list[float]) -> dict:
    ordered = sorted(values)
    out = {"n": len(ordered), "min": ordered[0], "median": statistics.median(ordered)}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3, max=ordered[-1])
    return out


def measure_end_to_end(runner: Runner, seconds: float, workdir: Path) -> tuple[dict, dict]:
    """Throughput from the fastest op of the run: on a host that switches
    between a quiet and a 2x slower regime for tens of seconds at a time,
    the fastest of many short ops tracks the program's own speed far more
    steadily than their median. The full distribution is in the report."""
    op = runner.op
    times, setups = [], []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < seconds:
        times.append(runner.run())
        # setup samples spread evenly over the run, not bunched in one regime
        if time.perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup_sample())
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    rss = []
    for _ in range(RSS_SAMPLES):
        mb, problems = peak_rss_sample(op, workdir)
        runner.tally(problems)
        rss.append(mb)

    rate = op.items / min(times)
    metrics = {
        "items_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    detail = {
        op.rate_name: {"value": rate, "unit": f"{op.item_name} / s"},
        "items_per_op": op.items,
        "op_seconds": _summary(times),
        "setup_seconds": _summary(setups),
        "peak_rss_mb_samples": rss,
    }
    return metrics, detail


def measure_layers(runner: Runner, tracer_mod, wx, seconds: float,
                   spans_path: Path) -> tuple[dict, dict]:
    tracer = tracer_mod.Tracer(wx)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while len(traced) < MIN_OPS or time.perf_counter() < deadline:
        if i % 2:
            with tracer.installed(op=i):
                traced.append(runner.run())
        else:
            untraced.append(runner.run())
        i += 1
    values, samples, absent = tracer_mod.layer_metrics(tracer.spans, runner.op.stats)
    values["tracing.throughput_ratio"] = min(untraced) / min(traced)
    samples["tracing.throughput_ratio"] = len(traced)
    tracer.write(spans_path)
    metrics = {name: {"value": values.get(name) or 0, "unit": unit}
               for name, unit, _ in tracer_mod.LAYER_METRICS}
    detail = {
        "untraced_op_seconds": _summary(untraced),
        "traced_op_seconds": _summary(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layer_samples": samples,
        "absent": absent,
    }
    return metrics, detail


def _sim_reference(seed: int, stats: dict) -> dict:
    """Compare the simulated statistics with those recorded when the
    benchmark was defined. A difference means the model or its random
    stream changed; it is reported, never counted as a failure."""
    ref_path = HERE / "sim_reference.json"
    reference = json.loads(ref_path.read_text()).get(str(seed)) if ref_path.exists() else None
    if reference is None:
        return {"matches_reference": None, "note": f"no reference recorded for seed {seed}"}
    changed = sorted(k for k in reference if stats.get(k) != reference[k])
    return {"matches_reference": not changed, "changed": changed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "wxkit" / "cli.py").is_file():
        print(f"error: no wxkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import wxkit.cli  # noqa: F401  (loads every module the tracer patches)
    import wxkit as wx
    import tracer as tracer_mod
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        op = workloads.prepare(args.workload, workdir, args.seed, args.scale)
        runner = Runner(wx, op, workdir)
        try:
            runner.run()     # warm-up: lazy imports and first-call costs
            if args.trace:
                spans_path = SPANS_OUT / f"spans_{args.workload}_seed{args.seed}.csv.gz"
                metrics, detail = measure_layers(runner, tracer_mod, wx, args.seconds,
                                                 spans_path)
            else:
                metrics, detail = measure_end_to_end(runner, args.seconds, workdir)
        finally:
            runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale,
        "env": {"python": platform.python_version(),
                "cryptography": metadata.version("cryptography"),
                "nproc": os.cpu_count(), "load": "closed loop, 1 client"},
        "inputs": op.inputs,
        "bypassed_layers": workloads.BYPASSED[args.workload],
        **detail,
    }
    if op.stats:
        report["simulated"] = {**op.stats, **_sim_reference(args.seed, op.stats)}
    if runner.problems:
        report["problems"] = runner.problems[:20]
    print(json.dumps({"report": report}))
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
