"""Host-speed probe: a fixed calibration slice run amid the program's work.

The benchmark runs on a shared VM whose throughput drifts by 15-40% within
minutes and even within one 15 s pass, in CPU time as well as in wall
time, because neighbours contend for the same cores and caches.  A drift
of that size hides any change of the program smaller than itself.  So
every untraced pass runs this module's calibration slice every INTERVAL_S
seconds, from a SIGALRM handler that interrupts the program's own work,
and the benchmark reports each time in seconds of a host of fixed speed:
the time outside the slices, each stretch between two slices multiplied
by

    REFERENCE_SLICE_S / (median time of the NEAREST slices around it)

The slice is pure Python of the same kind as the engine (tuple words,
dicts, Fraction coefficients, memoised rewriting) and never touches
ncgl2, so a change of the program cannot change its code.

The factor is local because the host's speed changes within a pass.  On
the same six runs each of canonical_d7 and sweep_ell6, the run medians of
wall_s spread (first to third quartile, over the median) by 15% and 11%
unscaled, by 3.5% and 8.6% with one factor per pass from the median of
all its slices, and by 1.1% and 3.1% with the local factor.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.5
# median slice time during the workloads on the 2-vCPU Xeon VM the
# benchmark was written on; it only sets the scale of the reported seconds
REFERENCE_SLICE_S = 0.044
# slices whose median gives the host's speed at one moment: about 2.5 s
NEAREST = 5
# the slice line a probed CLI subprocess writes to stderr at exit
STDERR_TAG = "perfbench-hostspeed "


def _normal_form(w: tuple, memo: dict) -> dict:
    """Normal form under ba -> ab + (1/2) a, memoised as ncalg's cache is."""
    hit = memo.get(w)
    if hit is not None:
        return hit
    for i in range(len(w) - 1):
        if w[i] > w[i + 1]:
            acc: dict[tuple, Fraction] = {}
            swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            dropped = w[:i] + (w[i + 1],) + w[i + 2 :]
            for t, c in ((swapped, Fraction(1)), (dropped, Fraction(1, 2))):
                for u, e in _normal_form(t, memo).items():
                    acc[u] = acc.get(u, 0) + c * e
            memo[w] = acc
            return acc
    memo[w] = {w: Fraction(1)}
    return memo[w]


def _rewrite(words: int) -> int:
    memo: dict = {}
    return sum(len(_normal_form(tuple((k * 7 + j * 3) % 4 for j in range(9)), memo)) for k in range(words))


def _tally(n: int) -> Fraction:
    counts: dict[tuple, int] = {}
    total = Fraction(0)
    for i in range(n):
        key = (i % 977, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7, 3 + i % 5)
    return total


def calibration_slice() -> None:
    """A fixed amount of engine-like work, about REFERENCE_SLICE_S long."""
    _tally(3500)
    _rewrite(17)


class Probe:
    """Runs calibration slices every INTERVAL_S seconds while started.

    ``slices`` holds ``(start, duration)`` of each slice, in
    ``time.perf_counter()`` seconds, which on Linux are the same clock in
    every process.
    """

    def __init__(self):
        self.slices: list[tuple[float, float]] = []
        self.spent = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        # the slice makes no cycles; a collection here would walk the
        # program's heap and charge it to the slice
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_slice()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.slices.append((start, took))
        self.spent += took
        self._busy = False

    def sample(self, n: int) -> None:
        """Run n slices now (before or after the timed work)."""
        for _ in range(n):
            self._on_alarm(None, None)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def add(self, record: dict) -> None:
        """Take in the slices another process ran, such as a probed CLI."""
        self.slices = sorted(self.slices + [tuple(s) for s in record["slices"]])

    def record(self) -> dict:
        return {"slices": self.slices, "spent": self.spent}


def factor(slices, t: float) -> float:
    """Reference seconds per measured second at time t: from the NEAREST slices."""
    nearest = sorted(slices, key=lambda s: abs(s[0] + s[1] / 2 - t))[:NEAREST]
    return REFERENCE_SLICE_S / statistics.median(d for _, d in nearest)


def scaled(start: float, end: float, slices) -> float:
    """Reference-host seconds of [start, end], net of the slices run inside it.

    ``slices`` must be sorted.  Each stretch between two slices is scaled by
    the factor at its middle.
    """
    total, cur = 0.0, start
    for s, d in slices:
        if start <= s < end:
            total += (s - cur) * factor(slices, (cur + s) / 2)
            cur = s + d
    if end > cur:
        total += (end - cur) * factor(slices, (cur + end) / 2)
    return total


def probed_main() -> int:
    """Entry of a probed CLI subprocess: ``python3 hostspeed.py <ncgl2 args>``.

    Runs ``ncgl2.cli.main`` as the console script does, with the probe
    started, and writes the slice record to stderr as its last line.
    """
    probe = Probe()
    probe.start()
    try:
        from ncgl2.cli import main

        return main(sys.argv[1:])
    finally:
        probe.stop()
        print(STDERR_TAG + json.dumps(probe.record()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(probed_main())
