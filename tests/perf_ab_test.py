#!/usr/bin/env python3
"""Tests of tools/perf_ab.py's judge over synthetic pairs of runs.

    python3 tests/perf_ab_test.py
"""

import importlib.util
import os
import random
import unittest

spec = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "tools", "perf_ab.py"))
perf_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_ab)

T1 = {"name": "t1_s", "unit": "s", "better": "lower", "bound": 0.25}
RPS = {"name": "max_rps", "unit": "1/s", "better": "higher", "bound": 0.25}


def noisy(median, pct, seed):
    """Ten values within +-pct% of median."""
    rng = random.Random(seed)
    return [median * (1 + rng.uniform(-pct, pct) / 100) for _ in range(10)]


def result(t1, failed=0, attempted=100, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"t1_s": {"value": t1, "unit": "s"}}}


class Judge(unittest.TestCase):
    def test_thirty_percent_slower_is_worse(self):
        base = noisy(1.0, 5, 1)
        self.assertEqual(perf_ab.judge(T1, base, [x * 1.3 for x in base]),
                         "worse")
        rps = noisy(100.0, 5, 2)
        self.assertEqual(perf_ab.judge(RPS, rps, [x * 0.7 for x in rps]),
                         "worse")

    def test_five_percent_noise_is_same(self):
        for seed in range(20):
            self.assertEqual(perf_ab.judge(T1, noisy(1.0, 5, seed),
                                           noisy(1.0, 5, seed + 100)), "same")

    def test_wide_parent_spread_is_unresolved(self):
        base = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.65, 1.35, 1.0, 1.0]
        self.assertEqual(perf_ab.judge(T1, base, list(reversed(base))),
                         "unresolved")
        # Unless every change run reads better than every parent run.
        self.assertNotEqual(perf_ab.judge(T1, base, [0.55] * 10),
                            "unresolved")
        self.assertEqual(perf_ab.judge(T1, base, [0.2] * 10), "better")
        # A change whose median is worse by more than the bound is worse,
        # however wide the spread.
        self.assertEqual(perf_ab.judge(T1, base, [x * 1.5 for x in base]),
                         "worse")

    def test_ten_wins_beyond_the_spread_is_better(self):
        base = noisy(1.0, 5, 3)
        self.assertEqual(perf_ab.judge(T1, base, [x * 0.8 for x in base]),
                         "better")
        rps = noisy(100.0, 5, 4)
        self.assertEqual(perf_ab.judge(RPS, rps, [x * 1.2 for x in rps]),
                         "better")
        # Eight wins of ten are not enough; ties count for neither side.
        change = [x * 0.8 for x in base[:8]] + base[8:]
        self.assertEqual(perf_ab.judge(T1, base, change), "same")


class Workload(unittest.TestCase):
    BENCH = {"end_to_end": [T1]}

    def test_clean_pairs_pass(self):
        lines, ok = perf_ab.judge_workload(
            self.BENCH, [result(1.0)] * 10, [result(1.01)] * 10)
        self.assertTrue(ok, lines)

    def test_larger_failed_share_fails(self):
        lines, ok = perf_ab.judge_workload(
            self.BENCH, [result(1.0, failed=1)] * 10,
            [result(1.0, failed=2)] * 10)
        self.assertFalse(ok)
        self.assertIn("FAIL: the change fails a larger share of operations",
                      lines)
        _, ok = perf_ab.judge_workload(
            self.BENCH, [result(1.0, failed=2)] * 10,
            [result(1.0, failed=1)] * 10)
        self.assertTrue(ok)

    def test_incorrect_or_missing_runs_fail(self):
        _, ok = perf_ab.judge_workload(
            self.BENCH, [result(1.0)] * 10,
            [result(1.0)] * 9 + [result(1.0, correct=False)])
        self.assertFalse(ok)
        lines, ok = perf_ab.judge_workload(
            self.BENCH, [result(1.0)] * 10, [result(1.0)] * 9 + [None])
        self.assertFalse(ok)
        self.assertIn("t1_s         missing", lines)


if __name__ == "__main__":
    unittest.main()
