"""End-to-end checks that need the program: short real repetitions."""

import os
import unittest

from run import extra_modes, run_repetition
from shim import ENTRY_POINTS
from specs import SPECS

#: Timed actions per repetition here: enough to reach every code path.
SHORT = 20


class EveryEntryPointIsHit(unittest.TestCase):
    """A silent patch miss (a new alias, a renamed method) must fail loudly."""

    #: Metrics that report time blocked on other threads or processes; it
    #: overlaps their busy time and is reported beside the sum, not in it.
    WAITS = ("core.lock_wait_us_per_action", "cluster.forward_wait_us_per_action")

    def test_each_wrapped_entry_point_is_hit_on_some_workload(self):
        hits = {}
        for spec in SPECS:
            twin = [mode for mode in extra_modes(spec.name) if mode == "twin"]
            for mode in ["traced"] + twin:
                report = run_repetition(spec.name, 1, mode, actions=SHORT)
                self.assertEqual(report["problems"], [], spec.name)
                self.assertEqual(report["failed"], 0, spec.name)
                for name, count in report["hits"].items():
                    hits[name] = hits.get(name, 0) + count
                self.check_accounting(spec.name, mode, report)
        missed = [
            entry.name
            for entry in ENTRY_POINTS
            if not entry.dormant and not hits.get(entry.name)
        ]
        self.assertEqual(missed, [])

    def check_accounting(self, workload, mode, report):
        wall = report["traced_wall_us_per_action"]
        # No thread is busy for longer than the timed actions last: more
        # would mean spans counted twice.  (All threads together may be: a
        # span includes the time its thread waits for the interpreter lock.)
        self.assertLessEqual(
            report["busiest_thread_us_per_action"], 1.05 * wall, workload
        )
        if mode == "twin":
            return  # its persist buckets are reported per call, not per action
        # Every busy bucket is reported under some per-action metric: those
        # plus the residual give the traced action time back.
        named = sum(
            value
            for name, value in report["layers"].items()
            if name.endswith("_us_per_action") and name not in self.WAITS
        )
        self.assertAlmostEqual(named / wall, 1.0, delta=0.05, msg=workload)


class ParentEnvironmentDoesNotLeak(unittest.TestCase):
    def test_repro_knobs_in_the_parent_change_no_byte(self):
        clean = run_repetition("pair_aio", 1, actions=SHORT, env=dict(os.environ))
        knobs = dict(os.environ, REPRO_CODEC="binary", REPRO_WIRE_BATCHING="1")
        dirty = run_repetition("pair_aio", 1, actions=SHORT, env=knobs)
        for key in ("wire_bytes_per_action", "msgs_per_action"):
            self.assertEqual(clean[key], dirty[key], key)
        self.assertEqual(clean["failed"] + dirty["failed"], 0)


if __name__ == "__main__":
    unittest.main()
