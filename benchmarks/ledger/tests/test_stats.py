"""Percentile and sample-count selection, the noise filter, compare verdicts."""

import json
import os
import statistics
import tempfile
import unittest

from compare import compare, run_shift, verdict
from metrics import Metric, beyond, percentile, quartiles, spread
from rep import REFERENCE_PROBE_MS, slowdown
from run import CALIB_TOLERANCE, MIN_REPS, SCHEMA, quiet, write_ledger


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 0.50), 50)
        self.assertEqual(percentile(values, 0.95), 95)
        self.assertEqual(percentile(values, 1.0), 100)
        self.assertEqual(percentile([7.0], 0.95), 7.0)
        self.assertEqual(percentile([3, 1, 2], 0.5), 2)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            percentile([], 0.5)

    def test_samples_beyond_the_percentile(self):
        # The issue's sizing rule: 800 samples leave 40 beyond p95, and a
        # 200-action repetition leaves the ten the metrics guide asks for.
        self.assertEqual(beyond(800, 0.95), 40)
        self.assertEqual(beyond(200, 0.95), 10)
        self.assertEqual(beyond(100, 0.50), 50)
        self.assertEqual(beyond(0, 0.95), 0)

    def test_quartiles_match_the_drivers_formula(self):
        values = [4.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 5.0, 6.0, 10.0]
        self.assertEqual(quartiles(values), statistics.quantiles(values, n=4))
        q1, _mid, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / statistics.median(values))
        self.assertEqual(quartiles([5.0]), [5.0, 5.0, 5.0])
        self.assertEqual(spread([2.0, 2.0, 2.0]), 0.0)


class NoiseFilter(unittest.TestCase):
    def test_slowdown_is_the_mean_probe_over_the_reference(self):
        probes = [REFERENCE_PROBE_MS, 2 * REFERENCE_PROBE_MS, 3 * REFERENCE_PROBE_MS]
        self.assertAlmostEqual(slowdown(probes), 2.0)

    def test_repetitions_beyond_the_tolerance_are_set_aside(self):
        limit = CALIB_TOLERANCE * 1.1
        reps = [{"slowdown": x} for x in (1.1, limit + 0.01, 1.2, 1.15, limit - 0.01)]
        kept = [rep["slowdown"] for rep in quiet(reps)]
        self.assertEqual(kept, [1.1, 1.15, 1.2, limit - 0.01])

    def test_the_quietest_fill_up_to_the_minimum(self):
        reps = [{"slowdown": x} for x in (2.0, 1.0, 1.9, 1.8, 1.7)]
        kept = [rep["slowdown"] for rep in quiet(reps)]
        self.assertEqual(kept, [1.0, 1.7, 1.8][:MIN_REPS])
        self.assertEqual(quiet(reps[:1]), reps[:1])
        self.assertEqual(quiet([]), [])


class Verdicts(unittest.TestCase):
    """Both sides are lists of run medians."""

    LOWER = Metric("latency", "ms", "lower", 0.10)
    HIGHER = Metric("rate", "1/s", "higher", 0.10)
    EXACT = Metric("msgs", "count", "lower", 0.0, exact=True)

    def test_within_the_bound_is_same(self):
        self.assertEqual(verdict(self.LOWER, [1.0, 1.01, 0.99], [1.05, 1.06]), "same")
        self.assertEqual(verdict(self.LOWER, [1.0], [1.05]), "same")

    def test_beyond_the_bound_with_steady_runs_is_worse(self):
        new = [1.3, 1.31, 1.29]
        self.assertEqual(verdict(self.LOWER, [1.0, 1.01, 0.99], new), "worse")
        self.assertEqual(verdict(self.HIGHER, [100, 101, 99], [80, 81, 79]), "worse")

    def test_direction_is_respected(self):
        new = [0.7, 0.71, 0.69]
        self.assertEqual(verdict(self.LOWER, [1.0, 1.01, 0.99], new), "better")
        new = [130, 131, 129]
        self.assertEqual(verdict(self.HIGHER, [100, 101, 99], new), "better")

    def test_a_single_run_cannot_resolve_a_difference(self):
        # How far a median moves between runs of one commit was not measured.
        self.assertEqual(verdict(self.LOWER, [1.0], [1.3]), "unresolved")
        self.assertEqual(verdict(self.LOWER, [1.0, 1.01], [1.3]), "unresolved")

    def test_a_shift_the_host_alone_produces_is_unresolved(self):
        # The base's own runs lie 33 % apart; the new side is 30 % off.
        base = [1.0, 1.33, 1.05]
        self.assertAlmostEqual(run_shift(base), 0.33 / 1.05)
        self.assertEqual(verdict(self.LOWER, base, [1.36, 1.37, 1.30]), "unresolved")
        self.assertEqual(verdict(self.LOWER, [1.36, 1.37, 1.3], base), "unresolved")

    def test_every_run_better_beats_a_wide_shift(self):
        base = [2.0, 2.6, 1.8, 2.3]
        new = [1.0, 1.6, 0.9, 1.3]
        self.assertEqual(verdict(self.LOWER, base, new), "better")

    def test_exact_metrics_have_no_allowance(self):
        self.assertEqual(verdict(self.EXACT, [2.0, 2.0], [2.0, 2.0]), "same")
        self.assertEqual(verdict(self.EXACT, [2.0], [2.001]), "worse")
        self.assertEqual(verdict(self.EXACT, [2.0, 2.0], [1.5, 1.5]), "better")


class LedgerFiles(unittest.TestCase):
    @staticmethod
    def run_of(workload, p50_values):
        stats = {"median": statistics.median(p50_values), "values": p50_values}
        report = {"end_to_end": {"action_p50_ms": stats}}
        return {"seed": 1, "workloads": {workload: report}}

    def test_append_keeps_earlier_runs_and_compare_reads_them_all(self):
        with tempfile.TemporaryDirectory() as folder:
            base, new = os.path.join(folder, "a.json"), os.path.join(folder, "b.json")
            write_ledger(base, self.run_of("w", [1.0, 1.1, 0.9]), append=True)
            write_ledger(base, self.run_of("w", [1.02, 1.0, 1.04]), append=True)
            write_ledger(base, self.run_of("other", [5.0, 5.0, 5.0]), append=True)
            write_ledger(new, self.run_of("w", [9.0]), append=False)
            write_ledger(new, self.run_of("w", [2.0, 2.1, 1.9]), append=False)
            with open(base, encoding="utf-8") as a, open(new, encoding="utf-8") as b:
                documents = json.load(a), json.load(b)
        self.assertEqual([d["schema"] for d in documents], [SCHEMA, SCHEMA])
        self.assertEqual([len(d["runs"]) for d in documents], [3, 1])
        (row,) = compare(*documents)  # "other" has no counterpart
        self.assertEqual(row["base"]["runs"], [1.0, 1.02])
        self.assertEqual(row["new"]["runs"], [2.0])
        self.assertAlmostEqual(row["ratio"], 2.0 / 1.01)
        # One run on the new side: its repetitions are shown, no verdict yet.
        self.assertEqual(row["new"]["n"], 3)
        self.assertEqual(row["verdict"], "unresolved")


if __name__ == "__main__":
    unittest.main()
