"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench/tests
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import stats  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_ranks_of_ten_samples(self):
        samples = [7, 3, 10, 1, 9, 2, 8, 4, 6, 5]  # unsorted on purpose
        self.assertEqual(stats.nearest_rank(samples, 0.5), 5)
        self.assertEqual(stats.nearest_rank(samples, 0.9), 9)
        self.assertEqual(stats.nearest_rank(samples, 0.91), 10)
        self.assertEqual(stats.nearest_rank(samples, 1.0), 10)
        self.assertEqual(stats.nearest_rank(samples, 0.0), 1)

    def test_float_products_do_not_skip_a_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(samples, 0.29), 29)
        self.assertEqual(stats.nearest_rank(samples, 0.99), 99)

    def test_single_sample_is_every_percentile(self):
        for p in (0.0, 0.5, 0.99, 1.0):
            self.assertEqual(stats.nearest_rank([42.0], p), 42.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1, 2], 1.5)


class SampleCountRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertEqual(stats.samples_beyond(99, 0.9), 9)
        self.assertEqual(stats.samples_beyond(20, 0.5), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.highest_supported_percentile(10000), 0.999)
        self.assertEqual(stats.highest_supported_percentile(9999), 0.99)
        self.assertEqual(stats.highest_supported_percentile(1000), 0.99)
        self.assertEqual(stats.highest_supported_percentile(999), 0.9)
        self.assertEqual(stats.highest_supported_percentile(100), 0.9)
        self.assertEqual(stats.highest_supported_percentile(20), 0.5)
        self.assertIsNone(stats.highest_supported_percentile(19))

    def test_timing_summary_states_the_sample_count(self):
        summary = stats.timing_summary([float(i) for i in range(1, 201)])
        self.assertEqual(summary["n"], 200)
        self.assertEqual(summary["p50"], 100.0)
        self.assertEqual(summary["p90"], 180.0)
        self.assertEqual(summary["max"], 200.0)
        self.assertEqual(summary["highest"], {"p": 0.9, "value": 180.0})
        self.assertIsNone(stats.timing_summary([1.0, 2.0])["highest"])


class BreakdownArithmetic(unittest.TestCase):
    def test_coverage_pct(self):
        self.assertAlmostEqual(stats.coverage_pct(95.0, 100.0), 95.0)
        self.assertAlmostEqual(stats.coverage_pct(30.0, 40.0), 75.0)
        with self.assertRaises(ValueError):
            stats.coverage_pct(1.0, 0.0)

    def test_trace_overhead_pct(self):
        self.assertAlmostEqual(stats.trace_overhead_pct(110.0, 100.0), 10.0)
        self.assertAlmostEqual(stats.trace_overhead_pct(90.0, 100.0), -10.0)
        self.assertAlmostEqual(stats.trace_overhead_pct(50.0, 50.0), 0.0)
        with self.assertRaises(ValueError):
            stats.trace_overhead_pct(1.0, 0.0)


class FailureCounting(unittest.TestCase):
    def test_counts_failed_checks_against_attempted(self):
        checks = [{"name": "a", "ok": True}, {"name": "b", "ok": False},
                  {"name": "c", "ok": True}]
        attempted, failed = stats.count_checks(checks)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertAlmostEqual(stats.fail_frac(failed, attempted), 1 / 3)

    def test_all_passed_is_zero(self):
        attempted, failed = stats.count_checks([{"name": "a", "ok": True}])
        self.assertEqual(stats.fail_frac(failed, attempted), 0.0)

    def test_rejects_nothing_attempted_or_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_frac(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_frac(3, 2)


class RelativeSpread(unittest.TestCase):
    def test_iqr_over_median(self):
        values = [9.0, 10.0, 10.0, 11.0, 10.0, 10.0, 9.0, 11.0, 10.0, 10.0]
        # statistics.quantiles (exclusive method): q1 = 9.75, q3 = 10.25.
        self.assertAlmostEqual(stats.relative_spread(values), 0.05)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(stats.relative_spread([3.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
