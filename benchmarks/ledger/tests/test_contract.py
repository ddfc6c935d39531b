"""BENCHMARK.json repeats the ledger's own tables; keep the two in step."""

import json
import os
import unittest

from metrics import DRIVER_END_TO_END, PER_LAYER
from run import LEDGER_DIR, ROOT, child_env
from specs import SPECS


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            cls.contract = json.load(handle)

    def test_workloads(self):
        listed = [(w["name"], w["why"]) for w in self.contract["workloads"]]
        self.assertEqual(listed, [(s.name, s.why) for s in SPECS if s.gated])
        for _name, why in listed:
            self.assertLessEqual(len(why), 200)
            self.assertNotIn("\n", why)

    def test_end_to_end_metrics_and_bounds(self):
        listed = [
            (m["name"], m["unit"], m["better"], m["bound"])
            for m in self.contract["end_to_end"]
        ]
        expected = [(m.name, m.unit, m.better, m.bound) for m in DRIVER_END_TO_END]
        self.assertEqual(listed, expected)
        self.assertIn("setup_s", [name for name, *_rest in listed])
        self.assertTrue(all(0 < bound <= 0.25 for *_rest, bound in listed))

    def test_per_layer_metrics(self):
        listed = [
            (m["name"], m["unit"], m["better"]) for m in self.contract["per_layer"]
        ]
        self.assertEqual(listed, [(m.name, m.unit, m.better) for m in PER_LAYER])

    def test_command_and_paths(self):
        self.assertEqual(self.contract["paths"], [os.path.relpath(LEDGER_DIR, ROOT)])
        self.assertEqual(
            self.contract["command"], ["python3", "benchmarks/ledger/run.py"]
        )


class ChildEnvironment(unittest.TestCase):
    def test_every_repro_knob_is_scrubbed(self):
        env = child_env({"REPRO_CODEC": "binary", "REPRO_X": "1", "HOME": "/h"})
        self.assertEqual(sorted(k for k in env if k.startswith("REPRO_")), [])
        self.assertEqual(env["HOME"], "/h")
        self.assertTrue(env["PYTHONPATH"].endswith("src"))


if __name__ == "__main__":
    unittest.main()
