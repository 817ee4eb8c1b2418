#!/usr/bin/env python3
"""Unit tests of compare.py on the fixture records under testdata/.

testdata/parent and testdata/change hold ten runs each of one workload:
the change's docs_per_s is 20% higher on every seed, its latency_ms is
the parent's values shuffled across seeds, and the exact counters and
fingerprints agree run for run.
"""

import contextlib
import copy
import io
import json
import os
import unittest

import compare

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def run_compare(parent, change, **kwargs):
    """(failure count, printed report)"""
    bench = compare.load_benchmark(os.path.join(DATA, "benchmark.json"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        failures = compare.compare(parent, change, bench, **kwargs)
    return failures, out.getvalue()


def verdict_of(report, metric):
    for line in report.splitlines():
        if line.split()[:1] == [metric]:
            return line.split(None, 3)[3]
    raise AssertionError(f"{metric} missing from report:\n{report}")


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.parent = compare.load_runs(os.path.join(DATA, "parent"))
        self.change = compare.load_runs(os.path.join(DATA, "change"))

    def scaled(self, metric, factor, runs=None):
        runs = copy.deepcopy(self.change if runs is None else runs)
        for run in runs:
            run["metrics"][metric]["value"] *= factor
        return runs

    def test_fixtures_load(self):
        self.assertEqual(len(self.parent), 10)
        self.assertEqual(len(self.change), 10)

    def test_consistent_gain_is_improved_and_unchanged_metric_is_within_bound(self):
        failures, report = run_compare(self.parent, self.change)
        self.assertEqual(failures, 0, report)
        self.assertEqual(verdict_of(report, "docs_per_s"), "improved")
        self.assertEqual(verdict_of(report, "latency_ms"), "within bound")

    def test_regression_beyond_bound_fails(self):
        change = self.scaled("latency_ms", 1.3)
        failures, report = run_compare(self.parent, change)
        self.assertEqual(failures, 1, report)
        self.assertEqual(verdict_of(report, "latency_ms"), "REGRESSED")

    def test_worse_within_bound_passes(self):
        change = self.scaled("latency_ms", 1.05)
        failures, report = run_compare(self.parent, change)
        self.assertEqual(failures, 0, report)
        self.assertEqual(verdict_of(report, "latency_ms"), "within bound")

    def test_spread_wider_than_bound_is_unresolved(self):
        change = copy.deepcopy(self.change)
        for i, run in enumerate(change):
            run["metrics"]["latency_ms"]["value"] *= 0.6 if i % 2 else 1.6
        failures, report = run_compare(self.parent, change)
        self.assertEqual(failures, 0, report)
        self.assertEqual(verdict_of(report, "latency_ms"), "unresolved")

    def test_gain_needs_ten_pairs(self):
        failures, report = run_compare(self.parent[:9], self.change[:9])
        self.assertEqual(failures, 0, report)
        self.assertEqual(verdict_of(report, "docs_per_s"), "within bound")

    def test_gain_needs_nine_wins_in_ten(self):
        change = copy.deepcopy(self.change)
        by_seed = {r["seed"]: r for r in self.parent}
        for run in change[:2]:
            run["metrics"]["docs_per_s"]["value"] = by_seed[run["seed"]]["metrics"][
                "docs_per_s"]["value"] * 0.99
        _, report = run_compare(self.parent, change)
        self.assertNotEqual(verdict_of(report, "docs_per_s"), "improved")

    def test_counter_drift_fails_unless_declared(self):
        change = copy.deepcopy(self.change)
        change[3]["counters"]["scores_computed"] += 1
        failures, report = run_compare(self.parent, change)
        self.assertEqual(failures, 1, report)
        self.assertIn("counter scores_computed", report)
        failures, report = run_compare(self.parent, change, allow_counter_change=True)
        self.assertEqual(failures, 0, report)

    def test_counter_drift_within_one_side_fails_even_when_declared(self):
        change = copy.deepcopy(self.change)
        twin = copy.deepcopy(change[0])
        twin["counters"]["closed_docs"] += 1
        twin["file"] = "twin.json"
        change.append(twin)
        failures, _ = run_compare(self.parent, change, allow_counter_change=True)
        self.assertEqual(failures, 1)

    def test_fingerprint_drift_fails(self):
        change = copy.deepcopy(self.change)
        change[0]["fingerprint"] = "ffff"
        failures, report = run_compare(self.parent, change)
        self.assertEqual(failures, 1, report)
        self.assertIn("fingerprint", report)

    def test_smoke_and_incorrect_runs_fail(self):
        change = copy.deepcopy(self.change)
        change[0]["valid"] = False
        change[1]["correct"] = False
        failures, _ = run_compare(self.parent, change)
        self.assertEqual(failures, 2)

    def test_summary_line_validation(self):
        bench = compare.load_benchmark(os.path.join(DATA, "benchmark.json"))
        good = {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                            "docs_per_s": {"value": 1000.5, "unit": "docs/s"},
                            "latency_ms": {"value": 5.25, "unit": "ms"}}}
        self.assertEqual(compare.check_summary_line(json.dumps(good), bench[0]), [])
        bad = copy.deepcopy(good)
        del bad["metrics"]["latency_ms"]
        bad["metrics"]["setup_s"]["unit"] = "ms"
        bad["extra"] = 1
        self.assertEqual(len(compare.check_summary_line(json.dumps(bad), bench[0])), 3)


if __name__ == "__main__":
    unittest.main()
