#!/usr/bin/env python3
"""The verdict rules of scripts/perf_ab.py on synthetic pairs.

    python3 tests/scripts/perf_ab_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "scripts"))
import perf_ab  # noqa: E402

BOUND = 0.24
# Ten parent runs 1.00..1.09 s: median 1.045, q3 - q1 = 0.045 (4 %).
PARENT = [1.00 + 0.01 * i for i in range(10)]


def verdict(parent, change, better="lower", bound=BOUND):
    return perf_ab.compare(parent, change, better, bound)["verdict"]


class Verdicts(unittest.TestCase):
    def test_clear_gain(self):
        change = [0.7 * v for v in PARENT]
        out = perf_ab.compare(PARENT, change, "lower", BOUND)
        self.assertEqual(out["verdict"], "gain")
        self.assertEqual(out["wins"], 10)
        self.assertAlmostEqual(out["shift"], -0.3)
        self.assertAlmostEqual(out["parent"]["median"], 1.045)
        self.assertAlmostEqual(out["parent"]["q1"], 1.0225)
        self.assertAlmostEqual(out["parent"]["q3"], 1.0675)

    def test_gain_on_a_higher_is_better_metric(self):
        change = [1.3 * v for v in PARENT]
        self.assertEqual(verdict(PARENT, change, "higher"), "gain")
        self.assertEqual(verdict(change, PARENT, "higher"), "within bound")

    def test_shift_inside_the_bound(self):
        change = [1.05 * v for v in PARENT]
        self.assertEqual(verdict(PARENT, change), "within bound")
        # Faster in every pair, but by less than the parent's q3 - q1.
        change = [v - 0.01 for v in PARENT]
        out = perf_ab.compare(PARENT, change, "lower", BOUND)
        self.assertEqual(out["wins"], 10)
        self.assertEqual(out["verdict"], "within bound")

    def test_regression_past_the_bound(self):
        self.assertEqual(verdict(PARENT, [1.3 * v for v in PARENT]),
                         "regression")
        self.assertEqual(verdict(PARENT, [0.7 * v for v in PARENT], "higher"),
                         "regression")
        # Checked before the spread: a wide parent does not hide it.
        wide = [1.0] * 5 + [1.6] * 5
        self.assertEqual(verdict(wide, [2.0] * 10), "regression")

    def test_wide_spread_is_unresolved(self):
        # q1 1.0, median 1.0, q3 1.6: the parent's spread is 60 % > 24 %.
        wide = [1.0] * 6 + [1.6] * 4
        self.assertEqual(verdict(wide, list(reversed(wide))), "unresolved")
        self.assertEqual(verdict(wide, [1.1] * 10), "unresolved")

    def test_every_change_run_better_resolves_a_wide_spread(self):
        wide = [1.0] * 6 + [1.6] * 4
        out = perf_ab.compare(wide, [0.99] * 10, "lower", BOUND)
        self.assertEqual(out["wins"], 10)  # but 0.01 < q3 - q1
        self.assertEqual(out["verdict"], "within bound")

    def test_ties_count_for_neither_side(self):
        out = perf_ab.compare([292.0] * 10, [292.0] * 10, "lower", BOUND)
        self.assertEqual((out["wins"], out["ties"]), (0, 10))
        self.assertEqual(out["shift"], 0.0)
        self.assertEqual(out["verdict"], "within bound")
        # 9 wins and a tie in 10 pairs is a gain; 8 and two ties is not.
        change = [0.7 * v for v in PARENT]
        change[0] = PARENT[0]
        self.assertEqual(verdict(PARENT, change), "gain")
        change[1] = PARENT[1]
        out = perf_ab.compare(PARENT, change, "lower", BOUND)
        self.assertEqual((out["wins"], out["ties"]), (8, 2))
        self.assertEqual(out["verdict"], "within bound")

    def test_extra_failed_runs_disqualify_a_gain(self):
        change = [0.7 * v for v in PARENT]
        change[3] = None
        out = perf_ab.compare(PARENT, change, "lower", BOUND)
        self.assertEqual((out["wins"], out["change_failed"]), (9, 1))
        self.assertEqual(out["verdict"], "within bound")
        # As many failed parent runs lift the disqualification.
        parent = list(PARENT)
        parent[7] = None
        out = perf_ab.compare(parent, change, "lower", BOUND)
        self.assertEqual((out["wins"], out["parent_failed"]), (8, 1))
        self.assertEqual(out["verdict"], "within bound")  # 8 of 10 pairs
        parent[7] = PARENT[7]
        parent[3] = None
        self.assertEqual(verdict(parent, change), "gain")

    def test_a_side_without_runs_is_unresolved(self):
        out = perf_ab.compare(PARENT, [None] * 10, "lower", BOUND)
        self.assertEqual(out["verdict"], "unresolved")
        self.assertIsNone(out["shift"])


if __name__ == "__main__":
    unittest.main()
