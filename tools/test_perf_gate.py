#!/usr/bin/env python3
"""The perf gate's decision on made-up perfbench result lines.

    python3 tools/test_perf_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perf_gate import verdict  # noqa: E402

BENCH = {"end_to_end": [
    {"name": "wall_s", "better": "lower", "bound": 0.24},
    {"name": "sim_kips", "better": "higher", "bound": 0.24},
]}


def result(wall_s=1.0, sim_kips=500.0, correct=True):
    return {"correct": correct, "attempted": 16, "failed": 0 if correct else 1,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "sim_kips": {"value": sim_kips, "unit": "kinst/s"}}}


def decide(change, base=None):
    base = base or [result(), result(), result()]
    return verdict(BENCH, {"w": base}, {"w": change})[1]


class GateDecision(unittest.TestCase):
    def test_same_results_pass(self):
        self.assertEqual(decide([result(), result(), result()]), [])

    def test_lower_is_better_within_bound_passes(self):
        self.assertEqual(decide([result(wall_s=1.2)] * 3), [])

    def test_lower_is_better_past_bound_fails(self):
        fails = decide([result(wall_s=1.3)] * 3)
        self.assertEqual(len(fails), 1)
        self.assertIn("wall_s", fails[0])

    def test_higher_is_better_within_bound_passes(self):
        self.assertEqual(decide([result(sim_kips=400.0)] * 3), [])

    def test_higher_is_better_past_bound_fails(self):
        fails = decide([result(sim_kips=370.0)] * 3)
        self.assertEqual(len(fails), 1)
        self.assertIn("sim_kips", fails[0])

    def test_gain_passes(self):
        self.assertEqual(decide([result(wall_s=0.5, sim_kips=900)] * 3), [])

    def test_median_ignores_one_outlier(self):
        self.assertEqual(decide([result(), result(wall_s=9.0), result()]),
                         [])

    def test_host_drift_between_pairs_passes(self):
        # The host slows by half during pair 2 and stays slow: the
        # unpaired medians differ by 50%, every pair's ratio is 1 or 1.5.
        base = [result(), result(), result(wall_s=1.5)]
        change = [result(), result(wall_s=1.5), result(wall_s=1.5)]
        self.assertEqual(decide(change, base), [])

    def test_incorrect_run_fails(self):
        fails = decide([result(), result(correct=False), result()])
        self.assertEqual(fails, ["w: 1 change run(s) not correct"])

    def test_incorrect_base_run_fails(self):
        fails = decide([result()] * 3, base=[result(correct=False)] * 3)
        self.assertEqual(fails, ["w: 3 base run(s) not correct"])

    def test_missing_metric_fails(self):
        broken = result()
        del broken["metrics"]["sim_kips"]
        fails = decide([result(), broken, result()])
        self.assertEqual(fails, ["w: sim_kips missing from a result"])

    def test_failed_build_fails(self):
        fails = decide([{"correct": False, "metrics": {}}] * 3)
        self.assertIn("w: 3 change run(s) not correct", fails)
        self.assertIn("w: wall_s missing from a result", fails)


if __name__ == "__main__":
    unittest.main()
