"""Tests of the benchmark's own rules.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import unittest

import hostspeed
import run
import worker
from tracer import self_times, total_times


class TailPercentile(unittest.TestCase):
    def test_p97_for_407_samples(self):
        self.assertEqual(run.tail_percentile(407), 97)
        self.assertEqual(run.tail_percentile(400), 97)
        self.assertEqual(run.tail_percentile(1000), 99)
        samples = list(range(1, 408))
        p97 = run.harrell_davis(samples, 0.97)
        self.assertAlmostEqual(p97, 0.97 * 408, delta=0.5)
        self.assertGreaterEqual(sum(s > p97 for s in samples), 10)
        self.assertAlmostEqual(run.harrell_davis(samples, 0.5), 204, delta=1e-6)

    def test_estimate_does_not_jump_across_a_gap(self):
        # 203 fast items and 204 slow ones: the sample median is a slow item,
        # and moving one item across the gap would flip it to a fast one
        samples = [1.0] * 203 + [3.0] * 204
        p50 = run.harrell_davis(samples, 0.5)
        self.assertGreater(p50, 1.5)
        self.assertLess(p50, 2.5)
        shifted = run.harrell_davis([1.0] * 204 + [3.0] * 203, 0.5)
        self.assertLess(p50 - shifted, 0.2)

    def test_too_few_samples_fall_back_to_max(self):
        self.assertIsNone(run.tail_percentile(1))
        self.assertIsNone(run.tail_percentile(10))
        self.assertEqual(run.latency_summary([3.0]), (3.0, 3.0))
        p50, tail = run.latency_summary([1.0, 2.0, 9.0])
        # Beta(2, 2) gives the three order statistics weights 7, 13, 7 (/27)
        self.assertAlmostEqual(p50, (7 * 1.0 + 13 * 2.0 + 7 * 9.0) / 27)
        self.assertEqual(tail, 9.0)


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        spans = [
            ("root", None, 0.0, 10.0),
            ("a", 0, 1.0, 4.0),
            ("b", 0, 5.0, 9.0),
            ("a", 2, 6.0, 7.0),
        ]
        self.assertEqual(self_times(spans), {"root": 3.0, "a": 4.0, "b": 3.0})
        # the inner "a" has no "a" ancestor, so both calls add to the total
        self.assertEqual(total_times(spans), {"root": 10.0, "a": 4.0, "b": 4.0})

    def test_recursion_counts_outermost_only(self):
        spans = [("f", None, 0.0, 10.0), ("f", 0, 2.0, 6.0), ("f", 1, 3.0, 4.0)]
        self.assertEqual(total_times(spans), {"f": 10.0})
        self.assertEqual(self_times(spans), {"f": 10.0})

    def test_overlapping_and_overhanging_children(self):
        spans = [("p", None, 0.0, 10.0), ("c", 0, 1.0, 5.0), ("c", 0, 3.0, 7.0), ("c", 0, 9.0, 12.0)]
        self.assertEqual(self_times(spans)["p"], 10.0 - 6.0 - 1.0)


class HostSpeed(unittest.TestCase):
    def test_factor_is_reference_over_the_nearest_slices(self):
        ref = hostspeed.REFERENCE_SLICE_S
        # a host at half speed from t = 10 on: slices take twice as long
        slices = [(t, ref) for t in range(10)] + [(t, 2 * ref) for t in range(10, 20)]
        self.assertAlmostEqual(hostspeed.factor(slices, 3.0), 1.0)
        self.assertAlmostEqual(hostspeed.factor(slices, 16.0), 0.5)

    def test_scaled_skips_slices_and_scales_each_stretch(self):
        ref = hostspeed.REFERENCE_SLICE_S
        slices = [(t, ref) for t in range(10)] + [(t, 2 * ref) for t in range(10, 20)]
        # 1.5 s at full speed, less the slice at t = 2
        self.assertAlmostEqual(hostspeed.scaled(1.5, 3.0, slices), 1.5 - ref)
        # 2 s at half speed, less the slices at t = 15 and 16
        self.assertAlmostEqual(hostspeed.scaled(14.5, 16.5, slices), (2 - 4 * ref) / 2)
        # no slice inside: the factor of the slices around it
        self.assertAlmostEqual(hostspeed.scaled(15.1, 15.6, slices), 0.25)

    def test_probe_record_is_read_from_the_last_stderr_line(self):
        record = {"slices": [0.04, 0.05], "spent": 0.09}
        stderr = "warning: x\n" + hostspeed.STDERR_TAG + json.dumps(record) + "\n"
        self.assertEqual(worker.probe_record(stderr), record)
        self.assertIsNone(worker.probe_record("plain\n"))

    def test_probe_slices_are_subtracted_from_latencies(self):
        ncgl2 = worker.import_engine()
        lam = ncgl2.weights.enumerate_lambda(1)[0]
        reference = worker.load_reference("sweep_ell6")
        probe = hostspeed.Probe()
        record = worker.Pass(probe)

        def classify_during_a_slice(label):
            probe.sample(1)
            return reference[str(label)]

        original = ncgl2.simples.classify_crosscheck
        ncgl2.simples.classify_crosscheck = classify_during_a_slice
        try:
            worker.run_sweep([lam], reference, record)
        finally:
            ncgl2.simples.classify_crosscheck = original
        self.assertEqual(record.failed, 0)
        self.assertEqual(len(probe.slices), 1)
        took = probe.slices[0][1]
        self.assertLess(record.latencies[0], took / 10)
        self.assertLess(hostspeed.scaled(*record.spans[0], probe.slices), took / 10)


class FailedFrac(unittest.TestCase):
    def test_one_altered_reference_row(self):
        ncgl2 = worker.import_engine()
        labels = ncgl2.weights.enumerate_lambda(2)
        reference = worker.load_reference("sweep_ell6")
        clean = worker.Pass()
        worker.run_sweep(labels, reference, clean)
        self.assertEqual(clean.failed, 0)

        altered = json.loads(json.dumps(reference))
        altered[str(labels[3])]["dim"] += 1
        record = worker.Pass()
        worker.run_sweep(labels, altered, record)
        self.assertEqual(len(record.latencies), len(labels))
        self.assertEqual(record.failed, 1)
        self.assertEqual(run.failed_frac(len(record.latencies), record.failed), 1 / len(labels))


if __name__ == "__main__":
    unittest.main()
