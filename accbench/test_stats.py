"""Self-tests of the benchmark's statistics.

    python3 accbench/test_stats.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_count_takes_the_middle(self):
        self.assertEqual(stats.median([5, 1, 3]), 3)

    def test_even_count_averages_the_middle_pair(self):
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_outliers_do_not_move_it(self):
        self.assertEqual(stats.median([1, 2, 3, 4, 1e9]), 3)


class TailTest(unittest.TestCase):
    def test_thousand_samples_reach_p99_with_ten_beyond(self):
        xs = list(range(1, 1001))
        p, v = stats.tail(xs)
        self.assertEqual(p, 99.0)
        self.assertEqual(v, 990)
        self.assertEqual(sum(1 for x in xs if x > v), 10)

    def test_one_short_of_a_thousand_falls_back_to_p90(self):
        p, v = stats.tail(list(range(1, 1000)))
        self.assertEqual(p, 90.0)
        self.assertEqual(v, 900)

    def test_ten_thousand_samples_reach_p99_9(self):
        p, v = stats.tail(list(range(1, 10001)))
        self.assertEqual(p, 99.9)
        self.assertEqual(v, 9990)

    def test_too_few_samples_report_the_median(self):
        p, v = stats.tail([3.0, 1.0, 2.0])
        self.assertEqual(p, 50.0)
        self.assertEqual(v, 2.0)

    def test_every_choice_leaves_at_least_ten_beyond(self):
        for n in (11, 20, 99, 100, 101, 999, 1000, 5000, 10000):
            xs = list(range(n))
            p, v = stats.tail(xs)
            if p != 50.0:
                self.assertGreaterEqual(sum(1 for x in xs if x > v), 10, n)

    def test_order_does_not_matter(self):
        xs = [float((k * 7919) % 1000) for k in range(1000)]
        self.assertEqual(stats.tail(xs), stats.tail(sorted(xs)))


class GeomeanTest(unittest.TestCase):
    def test_known_value(self):
        self.assertAlmostEqual(stats.geomean([1, 4, 16]), 4.0)

    def test_scale_equivariant(self):
        xs = [3.0, 7.0, 11.0]
        self.assertAlmostEqual(stats.geomean([2 * x for x in xs]),
                               2 * stats.geomean(xs))

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])


class ReduceTest(unittest.TestCase):
    def test_geomean_of_group_medians(self):
        raw = {"reduce": "geomean",
               "groups": {"a": [1.0, 2.0, 100.0], "b": [8.0]}}
        value, _ = stats.reduce(raw)
        self.assertAlmostEqual(value, math.sqrt(2.0 * 8.0))

    def test_geomean_of_group_bests(self):
        raw = {"reduce": "geomean_max",
               "groups": {"a": [1.0, 2.0, 4.0], "b": [9.0, 1.0]}}
        self.assertAlmostEqual(stats.reduce(raw)[0], 6.0)
        raw["reduce"] = "geomean_min"
        self.assertAlmostEqual(stats.reduce(raw)[0], 1.0)

    def test_median_and_value(self):
        self.assertEqual(stats.reduce({"reduce": "median",
                                       "samples": [3, 1, 2]})[0], 2)
        self.assertEqual(stats.reduce({"reduce": "value",
                                       "samples": [0.5]})[0], 0.5)


if __name__ == "__main__":
    unittest.main()
