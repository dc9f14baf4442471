"""ncgl2 benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload sweep_ell6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in NOTES.md):

  sweep_ell6      simples.classify_crosscheck on all 407 labels with ell <= 6,
                  in an order permuted by the seed
  canonical_d7    standard.canonical_map(d^7), the 128 -> 8 map of rank 8
  check_all_len4  `ncgl2 check all --len 4` as a subprocess

Load is a closed loop with one caller in one single-threaded process: the
next item starts when the previous verdict returns.  Each pass runs in a
fresh interpreter (perfbench/worker.py), so every pass starts with a cold
normal-form cache, as a CLI user's run does.  Passes repeat while the next
one is expected to end within --seconds (at least two); timings are
medians over the passes.  Set-up is also timed in extra set-up-only
interpreters, and setup_s is the median.

Every end-to-end time is in seconds of a host of fixed speed, from the
host-speed probe of perfbench/hostspeed.py: each pass runs a fixed
calibration slice every half second in the middle of its work, and each
stretch of work between two slices is scaled by the speed of the slices
around it.  The unscaled pass times and their mean factors are printed in
the env record.

--trace 0 reports the end-to-end metrics declared in BENCHMARK.json.
--trace 1 runs one untraced pass and then at least two traced passes, and
reports the per-layer metrics (medians over the traced passes) and
trace_overhead_frac.  The exact counters must agree between the traced
passes; a difference is a benchmark error (exit 3, no result).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it print every metric by
name with its unit, failed_frac (failed / attempted), and an environment
record.  Exit status: 0 with a result, 1 when a worker broke, 2 on usage
errors or when there are no ncgl2 sources to measure, 3 when the exact
counters of the traced passes differ.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTS
from worker import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_ONLY_RUNS = 3
MIN_PASSES = 2
WORKER_TIMEOUT_S = 170
TAIL_SAMPLES = 10
SIMPSON_STEPS = 8


class BenchError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with TAIL_SAMPLES of n samples beyond it."""
    p = math.floor(100 * (1 - TAIL_SAMPLES / n))
    return p if p > 50 else None


def harrell_davis(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982).

    A mean of the order statistics weighted by Beta((n+1)q, (n+1)(1-q)).
    Label latencies fall in clusters with gaps between them; a single order
    statistic jumps from one cluster to the next on small noise, this
    estimate moves smoothly.  The weights are integrated by Simpson's rule.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    simpson = [1] + [4 if k % 2 else 2 for k in range(1, SIMPSON_STEPS)] + [1]
    weights = [
        sum(c * density((i + k / SIMPSON_STEPS) / n) for k, c in enumerate(simpson))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def latency_summary(latencies) -> tuple[float, float]:
    """(p50, tail) of item latencies; the tail is the max when there are too few."""
    p = tail_percentile(len(latencies))
    tail = harrell_davis(latencies, p / 100) if p is not None else max(latencies)
    return harrell_davis(latencies, 0.5), tail


def failed_frac(attempted: int, failed: int) -> float:
    return failed / attempted


def spawn(options: dict) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON record."""
    options = dict(options, t0=time.monotonic())
    # own process group, so a timeout also ends the CLI the worker may run
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(options)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {options}") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def read_steal() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def repeat(spawn_pass, seconds: float, at_least: int) -> list:
    """Passes while the next is expected to end within seconds, at least at_least."""
    passes, longest = [], 0.0
    start = time.monotonic()
    while len(passes) < at_least or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        passes.append(spawn_pass())
        longest = max(longest, time.monotonic() - began)
    return passes


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list]:
    base = {"workload": workload, "seed": seed, "trace": 0}
    setups = [spawn(dict(base, setup_only=True))["setup_scaled"] for _ in range(SETUP_ONLY_RUNS)]
    passes = repeat(lambda: spawn(base), seconds, MIN_PASSES)
    setups += [p["setup_scaled"] for p in passes]
    # every pass of a run feeds the items in the same order, so an item's
    # latency is its median over the passes
    p50, tail = latency_summary([statistics.median(x) for x in zip(*(p["scaled"] for p in passes))])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(p["scaled"]) for p in passes),
        "labels_per_s": statistics.median(len(p["scaled"]) / sum(p["scaled"]) for p in passes),
        "label_p50_s": p50,
        "label_p97_s": tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    return metrics, attempted, failed, passes


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list]:
    base = {"workload": workload, "seed": seed}
    start = time.monotonic()
    plain = spawn(dict(base, trace=0))
    passes = repeat(lambda: spawn(dict(base, trace=1)), seconds - (time.monotonic() - start), MIN_PASSES)
    for name in EXACT_COUNTS:
        values = {p["layers"][name] for p in passes}
        if len(values) != 1:
            raise BenchError(f"{name} differs between traced passes: {sorted(values)}", code=3)
    metrics = {
        name: statistics.median(p["layers"][name] for p in passes) for name in passes[0]["layers"]
    }
    metrics["trace_overhead_frac"] = (
        statistics.median(p["wall_s"] for p in passes) / plain["wall_s"] - 1
    )
    everything = [plain] + passes
    attempted = sum(len(p["latencies"]) for p in everything)
    failed = sum(p["failed"] for p in everything)
    return metrics, attempted, failed, everything


def declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: int, units: dict) -> tuple[dict, int, int]:
    steal0, total0 = read_steal()
    metrics, attempted, failed, passes = (traced if trace else untraced)(workload, seed, seconds)
    steal1, total1 = read_steal()
    missing = [name for name in units if name not in metrics]
    if missing:
        raise BenchError(f"{workload}: declared metrics not measured: {missing}")
    for name, unit in units.items():
        print(f"{workload:15s} {name:40s} {metrics[name]:14.6g} {unit}")
    print(f"{workload:15s} {'failed_frac':40s} {failed_frac(attempted, failed):14.6g} ratio")
    for p in passes:
        for error in p["errors"]:
            print(f"{workload}: FAILED {error}", file=sys.stderr)
    env = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_scale": [sum(p["scaled"]) / p["wall_s"] if "scaled" in p else None for p in passes],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "cpu_steal_frac": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
    }
    print("env " + json.dumps(env))
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ncgl2" / "__init__.py").is_file():
        print(f"perfbench: no ncgl2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            metrics, attempted, failed = measure(workload, args.seed, args.seconds, args.trace, units)
            prefix = "" if len(workloads) == 1 else workload + "."
            result["attempted"] += attempted
            result["failed"] += failed
            for name, unit in units.items():
                result["metrics"][prefix + name] = {"value": metrics[name], "unit": unit}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
