"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests

The open-loop test runs kbt_perfbench --selftest, and is skipped until
run.py has built kbt_perfbench.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(HERE))
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


class TailTest(unittest.TestCase):
    def test_highest_ladder_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        value, p, beyond = stats.tail(values)
        self.assertEqual((value, p, beyond), (990, 99.0, 10))

    def test_steps_down_when_p99_has_too_few_beyond(self):
        values = list(range(1, 201))  # p99 leaves 2 beyond, p95 leaves 10
        self.assertEqual(stats.tail(values), (190, 95.0, 10))
        values = list(range(1, 100))  # p95 leaves 4, p90 leaves 9, p75: 24
        self.assertEqual(stats.tail(values), (75, 75.0, 24))

    def test_exactly_ten_beyond_is_enough(self):
        values = list(range(1, 21))  # p50 is the 10th of 20: 10 beyond
        self.assertEqual(stats.tail(values), (10, 50.0, 10))

    def test_falls_back_to_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))

    def test_order_does_not_matter(self):
        values = [float((i * 37) % 1000) for i in range(1000)]
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))


class CompareTest(unittest.TestCase):
    def test_identical_sides_are_unchanged(self):
        runs = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        row = stats.compare(runs, list(runs), "lower", 0.1)
        self.assertEqual(row["verdict"], "unchanged")
        self.assertEqual(row["pairs_won"], 0)

    def test_worse_beyond_the_bound_regresses(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
        change = [v * 1.2 for v in parent]
        self.assertEqual(stats.compare(parent, change, "lower", 0.1)["verdict"],
                         "regressed")
        # The same numbers read as a gain when higher is better.
        self.assertEqual(stats.compare(parent, change, "higher",
                                       0.1)["verdict"], "improved")

    def test_worse_within_the_bound_is_not_a_regression(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
        change = [v * 1.05 for v in parent]
        self.assertEqual(stats.compare(parent, change, "lower",
                                       0.1)["verdict"], "unchanged")

    def test_wide_spread_is_unresolved(self):
        parent = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
        change = [v * 0.95 for v in parent]
        row = stats.compare(parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "unresolved")

    def test_wide_spread_resolves_when_every_run_is_better(self):
        parent = [20.0, 30.0, 22.0, 28.0, 24.0, 26.0, 21.0, 29.0, 23.0, 27.0]
        change = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
        self.assertEqual(stats.compare(parent, change, "lower",
                                       0.1)["verdict"], "improved")

    def test_a_gain_needs_nine_tenths_of_the_pairs(self):
        parent = [10.0] * 10
        change = [9.0] * 8 + [10.0, 11.0]  # wins 8 of 10
        row = stats.compare(parent, change, "lower", 0.1)
        self.assertEqual((row["pairs_won"], row["verdict"]), (8, "unchanged"))

    def test_a_gain_must_exceed_the_parent_spread(self):
        parent = [10.0, 10.4, 9.6, 10.2, 9.8, 10.3, 9.7, 10.1, 9.9, 10.0]
        change = [v - 0.05 for v in parent]  # wins every pair, by too little
        row = stats.compare(parent, change, "lower", 0.1)
        self.assertEqual((row["pairs_won"], row["verdict"]), (10, "unchanged"))


class OpenLoopTest(unittest.TestCase):
    def test_a_stall_charges_lateness_to_later_requests(self):
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        binary = os.path.join(ROOT, build, "cmake", "kbt_perfbench")
        if not os.path.exists(binary):
            self.skipTest("kbt_perfbench not built; run perfbench/run.py")
        done = subprocess.run([binary, "--selftest"], capture_output=True,
                              text=True)
        self.assertEqual(done.returncode, 0, done.stderr)


if __name__ == "__main__":
    unittest.main()
