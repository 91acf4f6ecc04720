"""Self-tests of the comparator: its gain, regression and unresolved rules,
and how it pairs run files.

    cd e2ebench && python3 -m unittest test_compare
"""
import json
import os
import tempfile
import unittest

from compare import load_runs, verdict


def runs(values):
    return {seed: v for seed, v in enumerate(values)}


class VerdictTest(unittest.TestCase):
    def test_gain_needs_nine_of_ten_pair_wins(self):
        parent = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        change = runs([90, 91, 89, 90, 92, 88, 90, 91, 89, 101])  # 9 wins
        self.assertEqual(verdict(parent, change, "lower", 0.1)[0], "gain")
        change[8] = 100  # a tie counts for neither side: 8 wins of 10
        self.assertNotEqual(verdict(parent, change, "lower", 0.1)[0], "gain")

    def test_gain_needs_ten_pairs(self):
        parent = runs([100, 101, 99, 100, 102])
        change = runs([80, 81, 79, 80, 82])
        self.assertEqual(verdict(parent, change, "lower", 0.3)[0], "better")

    def test_gain_needs_difference_beyond_parent_spread(self):
        parent = runs([90, 110, 95, 105, 100, 92, 108, 97, 103, 100])
        change = runs([v - 1 for v in parent.values()])
        self.assertNotEqual(verdict(parent, change, "lower", 0.5)[0], "gain")

    def test_higher_is_better(self):
        parent = runs([100] * 10)
        change = runs([120] * 10)
        self.assertEqual(verdict(parent, change, "higher", 0.1)[0], "gain")
        self.assertEqual(verdict(change, parent, "higher", 0.1)[0], "regression")

    def test_regression_beyond_bound(self):
        parent = runs([100, 101, 99, 100, 100, 100, 101, 99, 100, 100])
        change = runs([v * 1.2 for v in parent.values()])
        self.assertEqual(verdict(parent, change, "lower", 0.1)[0], "regression")
        self.assertEqual(verdict(parent, change, "lower", 0.25)[0], "same")

    def test_unresolved_when_spread_exceeds_bound(self):
        parent = runs([80, 120, 90, 110, 100, 85, 115, 95, 105, 100])
        change = runs([v + 1 for v in parent.values()])
        self.assertEqual(verdict(parent, change, "lower", 0.1)[0], "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        parent = runs([80, 120, 90, 110, 100])
        change = runs([50, 60, 55, 65, 58])
        self.assertEqual(verdict(parent, change, "lower", 0.1)[0], "better")


def write_run(directory, name, seed, metrics):
    """One run's stdout as run.py prints it: machine record, result line."""
    record = {"workload": {"name": "w", "seed": seed}}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}
    with open(os.path.join(directory, name), "w") as f:
        f.write(json.dumps(record) + "\n" + json.dumps(result) + "\n")


class LoadRunsTest(unittest.TestCase):
    def test_traced_and_untraced_runs_of_one_seed_merge(self):
        with tempfile.TemporaryDirectory() as d:
            write_run(d, "a", 1, {"latency_p50_ms": 5.0})
            write_run(d, "b", 1, {"serve.total_ms": 4.0})
            write_run(d, "c", 2, {"latency_p50_ms": 6.0})
            self.assertEqual(load_runs(d), {"w": {
                1: {"latency_p50_ms": 5.0, "serve.total_ms": 4.0},
                2: {"latency_p50_ms": 6.0}}})

    def test_duplicate_metric_for_one_seed_is_an_error(self):
        with tempfile.TemporaryDirectory() as d:
            write_run(d, "a", 1, {"latency_p50_ms": 5.0})
            write_run(d, "b", 1, {"latency_p50_ms": 7.0})
            with self.assertRaises(ValueError):
                load_runs(d)


if __name__ == "__main__":
    unittest.main()
