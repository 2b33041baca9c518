"""Tests of the benchmark's statistics: python3 perfbench/test_stats.py"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p75_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(40, 0.75), 10)
        self.assertTrue(stats.reportable(40, 0.75))
        self.assertEqual(stats.samples_beyond(37, 0.75), 9)
        self.assertFalse(stats.reportable(37, 0.75))

    def test_median_needs_twenty_samples(self):
        self.assertTrue(stats.reportable(20, 0.5))
        self.assertFalse(stats.reportable(19, 0.5))

    def test_percentile_refuses_thin_tail(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(30)), 0.75)
        self.assertEqual(stats.percentile(list(range(41)), 0.75), 30.0)

    def test_percentile_interpolates(self):
        xs = [float(x) for x in range(40, 0, -1)]
        self.assertEqual(stats.percentile(xs, 0.5), 20.5)
        self.assertEqual(stats.percentile(xs, 0.75), 30.25)


class FastestHalf(unittest.TestCase):
    def test_keeps_the_faster_half(self):
        self.assertEqual(stats.fastest_half([3.0, 1.0, 4.0, 2.0]), [1.0, 2.0])
        self.assertEqual(stats.fastest_half([5.0, 1.0, 3.0]), [1.0, 3.0])
        self.assertEqual(stats.fastest_half([7.0]), [7.0])


class Geomean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(stats.geomean([2.0, 2.0, 2.0]), 2.0)
        self.assertAlmostEqual(stats.geomean([1.0, 10.0, 100.0]), 10.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])


class SlopeFit(unittest.TestCase):
    def test_exact_power_laws(self):
        for b in (1.0, 1.3, 2.0):
            pts = [(n, 3e-7 * n ** b) for n in (1024, 2048, 4096)]
            self.assertAlmostEqual(stats.slope(pts), b, places=9)

    def test_repeated_sizes_average(self):
        pts = [(1000, 1.0), (1000, 4.0), (2000, 8.0), (2000, 8.0)]
        # log-mean at 1000 is log 2, at 2000 log 8: a factor 4 per doubling.
        self.assertAlmostEqual(stats.slope(pts), 2.0, places=9)

    def test_needs_two_sizes(self):
        with self.assertRaises(ValueError):
            stats.slope([(64, 1.0), (64, 2.0)])


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        vals = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
        import statistics
        q1, med, q3 = statistics.quantiles(vals, n=4)
        self.assertTrue(math.isclose(stats.spread(vals), (q3 - q1) / med))


if __name__ == "__main__":
    unittest.main()
