"""One pass of one workload, in a fresh interpreter.

Started by run.py as ``python3 perfbench/worker.py '<json options>'``; the
options are workload, seed, trace (0 or 1), setup_only, and t0, the
parent's ``time.monotonic()`` just before the spawn.  Set-up time runs
from t0 until ncgl2 is imported and the inputs are generated.  The last
line of stdout is a JSON record of the pass.

Every item is checked against the reference outputs in ``reference/``.  An
item that raises, exits non-zero or differs counts as failed; the
remaining items still run.

An untraced pass runs the host-speed probe (``hostspeed.py``) around and
during its work.  It reports item latencies net of the probe slices that
ran inside them, and the same latencies, and its set-up time, scaled to
reference-host seconds.  A traced pass runs no probe, so that no slice
lands inside a span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import STDERR_TAG, Probe, factor, scaled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference"

WORKLOADS = ("sweep_ell6", "canonical_d7", "check_all_len4")
SWEEP_ELL = 6
D7 = "d^7"
CHECK_ARGV = ["check", "all", "--len", "4"]
# the ncgl2 console script's entry point, with the host-speed probe running
PROBED_CLI = BENCH_DIR / "hostspeed.py"
# probe slices run before and after the timed work of a pass
EDGE_SLICES = 3
SWEEP_FIELDS = ("expression", "dim", "rank", "dimL", "consistent")


def import_engine():
    """Import ncgl2 from this checkout's src/, never from anywhere else."""
    if not (SRC / "ncgl2" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ncgl2 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncgl2
    import ncgl2.cli

    if Path(ncgl2.__file__).resolve().parent != SRC / "ncgl2":
        raise SystemExit(f"perfbench: imported ncgl2 from {ncgl2.__file__}, not {SRC}")
    return ncgl2


def sweep_row(report: dict) -> dict:
    return {key: report[key] for key in SWEEP_FIELDS}


def sweep_mismatches(rows: dict, reference: dict) -> list[str]:
    """Labels whose row is missing or differs from the reference row."""
    return [label for label, row in rows.items() if reference.get(label) != row]


def matrix_digest(matrix) -> str:
    text = "\n".join(",".join(str(x) for x in row) for row in matrix)
    return hashlib.sha256(text.encode()).hexdigest()


def d7_record(f) -> dict:
    return {
        "source_dim": f.source.dim,
        "target_dim": f.target.dim,
        "rank": f.rank(),
        "digest": matrix_digest(f.matrix),
    }


def load_reference(workload: str):
    if workload == "check_all_len4":
        return (REFERENCE / "check_all_len4.stdout").read_text(encoding="utf-8")
    return json.loads((REFERENCE / f"{workload}.json").read_text(encoding="utf-8"))


def run_cli(argv: list) -> subprocess.CompletedProcess:
    """Run the ncgl2 console-script entry point on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(PROBED_CLI), *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )


def probe_record(stderr: str) -> dict | None:
    """The probe record on the last stderr line of a probed CLI run, if any."""
    lines = stderr.splitlines()
    if lines and lines[-1].startswith(STDERR_TAG):
        return json.loads(lines[-1][len(STDERR_TAG) :])
    return None


class Pass:
    """Items of one pass: latencies net of probe slices, spans, and failures."""

    def __init__(self, probe: Probe | None = None):
        self.latencies: list[float] = []
        # (start, end) of each item in time.perf_counter() seconds
        self.spans: list[tuple[float, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        self.probe = probe

    def spent(self) -> float:
        return self.probe.spent if self.probe is not None else 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def run_sweep(labels, reference, record: Pass) -> None:
    from ncgl2 import simples

    for lam in labels:
        spent = record.spent()
        start = time.perf_counter()
        try:
            row = sweep_row(simples.classify_crosscheck(lam))
        except Exception:
            row = None
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
        record.latencies.append(end - start - (record.spent() - spent))
        record.spans.append((start, end))
        if row is None:
            record.fail(f"{lam}: {error}")
        elif sweep_mismatches({str(lam): row}, reference):
            record.fail(f"{lam}: {row} != {reference.get(str(lam))}")


def run_d7(lam, reference, record: Pass) -> None:
    from ncgl2 import standard

    spent = record.spent()
    start = time.perf_counter()
    try:
        f = standard.canonical_map(lam)
    except Exception:
        f = None
        got = traceback.format_exc(limit=3)
    end = time.perf_counter()
    record.latencies.append(end - start - (record.spent() - spent))
    record.spans.append((start, end))
    if f is not None:
        got = d7_record(f)
    if got != reference:
        record.fail(f"{D7}: {got} != {reference}")


def run_check_all(argv: list, traced: bool, t0: float, reference: str, record: Pass) -> None:
    if traced:
        # in-process, so the tracer sees it; timed from the interpreter spawn
        # like the untraced subprocess
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = sys.modules["ncgl2.cli"].main(argv)
        except Exception:
            code = traceback.format_exc(limit=3)
        record.latencies.append(time.monotonic() - t0)
        stdout = out.getvalue()
    else:
        start = time.perf_counter()
        proc = run_cli(argv)
        end = time.perf_counter()
        code, stdout = proc.returncode, proc.stdout
        child = probe_record(proc.stderr)
        took = end - start
        if child is not None:
            record.probe.add(child)
            took -= child["spent"]
        elif code == 0:
            code = "no probe record from the CLI subprocess"
        record.latencies.append(took)
        record.spans.append((start, end))
    if code != 0:
        record.fail(f"exit {code}")
    elif stdout != reference:
        record.fail("stdout differs from reference")


def main(options: dict) -> dict:
    workload, seed = options["workload"], options["seed"]
    traced = bool(options.get("trace"))
    if workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    ncgl2 = import_engine()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if workload == "sweep_ell6":
        inputs = ncgl2.weights.enumerate_lambda(SWEEP_ELL)
        random.Random(seed).shuffle(inputs)
    elif workload == "canonical_d7":
        inputs = ncgl2.weights.parse_lambda(D7)
    else:
        inputs = list(CHECK_ARGV)
    setup_s = time.monotonic() - options["t0"]
    result = {"setup_s": setup_s}

    probe = None if traced else Probe()
    if probe is not None:
        probe.sample(EDGE_SLICES)
        result["setup_scaled"] = setup_s * factor(probe.slices, probe.slices[0][0])
    if options.get("setup_only"):
        return result

    reference = load_reference(workload)
    record = Pass(probe)
    # the CLI subprocess runs its own probe while the worker waits
    in_process = probe is not None and workload != "check_all_len4"
    if in_process:
        probe.start()
    try:
        if workload == "sweep_ell6":
            run_sweep(inputs, reference, record)
        elif workload == "canonical_d7":
            run_d7(inputs, reference, record)
        else:
            run_check_all(inputs, traced, options["t0"], reference, record)
    finally:
        if in_process:
            probe.stop()
    if probe is not None:
        probe.sample(EDGE_SLICES)
        result["scaled"] = [scaled(start, end, probe.slices) for start, end in record.spans]

    who = resource.RUSAGE_CHILDREN if workload == "check_all_len4" and not traced else resource.RUSAGE_SELF
    result.update(
        latencies=record.latencies,
        wall_s=sum(record.latencies),
        failed=record.failed,
        errors=record.errors,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
