"""Tests for the benchmark's own statistics and for BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def step(kops, offered, delivered, p999, refused=0, dropped=0):
    return {"offered_kops": kops, "offered": offered, "delivered": delivered,
            "refused": refused, "dropped": dropped, "read_p999_us": p999}


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        # Exclusive method: q1 = 2.75, q3 = 8.25 for 1..10.
        self.assertAlmostEqual(stats.quartiles(values)[0], 2.75)
        self.assertAlmostEqual(stats.quartiles(values)[2], 8.25)


class SupportedPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # p999 needs 10,000 samples, p99 1,000, p90 100, p50 20.
        self.assertEqual(stats.highest_supported_percentile(10_000), 0.999)
        self.assertEqual(stats.highest_supported_percentile(9_999), 0.99)
        self.assertEqual(stats.highest_supported_percentile(1_000), 0.99)
        self.assertEqual(stats.highest_supported_percentile(999), 0.9)
        self.assertEqual(stats.highest_supported_percentile(100_000), 0.9999)
        self.assertEqual(stats.highest_supported_percentile(20), 0.5)

    def test_too_few_samples(self):
        self.assertIsNone(stats.highest_supported_percentile(19))
        self.assertIsNone(stats.highest_supported_percentile(0))


class MaxKopsAtSlo(unittest.TestCase):
    SLO = 500.0

    def test_highest_passing_step(self):
        steps = [step(40, 40_000, 39_990, 150), step(70, 70_000, 69_950, 300),
                 step(130, 130_000, 129_900, 1_000)]
        self.assertEqual(stats.max_kops_at_slo(steps, self.SLO), 70)

    def test_p999_at_target_passes(self):
        self.assertTrue(stats.step_passes(step(1, 1_000, 1_000, 500),
                                          self.SLO))

    def test_under_delivery_fails(self):
        # 98.9 % delivered is below the 99 % floor even with a fast tail.
        self.assertFalse(stats.step_passes(step(100, 100_000, 98_900, 100),
                                           self.SLO))
        self.assertTrue(stats.step_passes(step(100, 100_000, 99_000, 100),
                                          self.SLO))

    def test_any_source_drop_fails(self):
        self.assertFalse(stats.step_passes(
            step(100, 100_000, 99_999, 100, dropped=1), self.SLO))

    def test_refused_requests_count_as_misses(self):
        # 150 refusals of 100,000 is 0.15 % of requests slower than any
        # completion: the p999 is a miss although completions look fast and
        # delivery is above 99 %.
        s = step(100, 100_000, 99_850, 100, refused=150)
        self.assertFalse(stats.step_passes(s, self.SLO))
        # 50 refusals stay inside the 0.1 % tail share.
        s = step(100, 100_000, 99_950, 100, refused=50)
        self.assertTrue(stats.step_passes(s, self.SLO))

    def test_missing_tail_fails(self):
        self.assertFalse(stats.step_passes(step(100, 100_000, 99_990, None),
                                           self.SLO))

    def test_no_passing_step(self):
        self.assertIsNone(stats.max_kops_at_slo(
            [step(10, 10_000, 10_000, 900)], self.SLO))

    def test_pass_above_a_failure_still_counts(self):
        # The rule is the highest passing step, not the last one before the
        # first failure.
        steps = [step(40, 40_000, 40_000, 600), step(70, 70_000, 70_000, 400)]
        self.assertEqual(stats.max_kops_at_slo(steps, self.SLO), 70)


class MetricNames(unittest.TestCase):
    def test_name_grammar(self):
        for good in ("setup_s", "sim.ns_per_event", "model_read_p99_us",
                     "9lives", "a" * 64, "energy.cpu_j_per_kop", "x-y"):
            self.assertTrue(stats.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "a" * 65, "sp ace", "sl/ash",
                    "pct%"):
            self.assertFalse(stats.valid_name(bad), bad)

    def test_unit_grammar(self):
        for good in ("ms", "s", "1/s", "count", "Kop/s", "J/kop", "%", "MB"):
            self.assertTrue(stats.valid_unit(good), good)
        for bad in ("", "a" * 17, "m s", "us;"):
            self.assertFalse(stats.valid_unit(bad), bad)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_exact_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})

    def test_names_units_and_bounds(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(stats.valid_name(n), n)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(stats.valid_unit(m["unit"]), m["unit"])
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_matches_what_run_py_reports(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["per_layer"]], run.PER_LAYER)
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], run.IN_PROCESS)


if __name__ == "__main__":
    unittest.main()
