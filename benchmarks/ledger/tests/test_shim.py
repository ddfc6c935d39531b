"""Shim self-time arithmetic, per-thread stacks and alias patching."""

import sys
import threading
import types
import unittest

from shim import EntryPoint, Tracer, busy_per_thread, by_bucket, self_times


class SelfTimeArithmetic(unittest.TestCase):
    # [entry, start, end, parent, weight]
    THREADS = {
        1: [
            [0, 0.0, 10.0, -1, 1],  # outer: children cover 3 + 1
            [1, 1.0, 4.0, 0, 1],  # child with its own child
            [2, 2.0, 3.0, 1, 1],  # grandchild
            [1, 5.0, 6.0, 0, 1],  # second child
        ],
        2: [[1, 0.0, 2.0, -1, 5]],  # another thread, same entry
    }

    def test_self_time_is_duration_minus_direct_children(self):
        costs = self_times(self.THREADS, [(0.0, 100.0)])
        self.assertAlmostEqual(costs[0].self_s, 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(costs[1].self_s, (3.0 - 1.0) + 1.0 + 2.0)
        self.assertAlmostEqual(costs[2].self_s, 1.0)
        self.assertEqual((costs[0].calls, costs[1].calls, costs[2].calls), (1, 3, 1))
        self.assertEqual(costs[1].weight, 1 + 1 + 5)

    def test_self_times_sum_to_the_top_level_durations(self):
        costs = self_times(self.THREADS, [(0.0, 100.0)])
        self.assertAlmostEqual(sum(c.self_s for c in costs.values()), 10.0 + 2.0)

    def test_windows_select_spans_by_their_start(self):
        costs = self_times(self.THREADS, [(4.5, 100.0)])
        self.assertEqual(list(costs), [1])
        self.assertAlmostEqual(costs[1].self_s, 1.0)
        # Between two windows nothing counts: the spans starting at 1.0
        # and 2.0 fall in the gap, the second thread's at 0.0 does not.
        costs = self_times(self.THREADS, [(0.0, 0.5), (4.5, 5.5)])
        self.assertEqual(sorted(costs), [0, 1])
        self.assertEqual(costs[1].calls, 2)
        self.assertAlmostEqual(costs[1].self_s, 1.0 + 2.0)

    def test_busy_time_is_per_thread_and_leaves_waits_out(self):
        busy = busy_per_thread(self.THREADS, [(0.0, 100.0)])
        self.assertEqual(sorted(busy), [1, 2])
        self.assertAlmostEqual(busy[1], 10.0)  # nested spans are not counted twice
        self.assertAlmostEqual(busy[2], 2.0)
        busy = busy_per_thread(self.THREADS, [(0.0, 100.0)], idle=[1])
        self.assertAlmostEqual(busy[1], 6.0 + 1.0)
        self.assertAlmostEqual(busy[2], 0.0)

    def test_open_spans_are_skipped(self):
        costs = self_times({1: [[0, 1.0, 0.0, -1, 1]]}, [(0.0, 100.0)])
        self.assertEqual(costs, {})

    def test_buckets_fold_entries_and_list_idle_ones(self):
        entries = (
            EntryPoint("a", "m", "f"),
            EntryPoint("a", "m", "g"),
            EntryPoint("idle", "m", "h"),
        )
        spans = {1: [[0, 0, 1, -1, 1], [1, 2, 4, -1, 1]]}
        buckets = by_bucket(entries, self_times(spans, [(0, 9)]))
        self.assertAlmostEqual(buckets["a"].self_s, 3.0)
        self.assertEqual(buckets["a"].calls, 2)
        self.assertEqual(buckets["idle"].calls, 0)


class PerThreadStacks(unittest.TestCase):
    def test_parents_never_cross_threads(self):
        tracer = Tracer(entries=())
        gate = threading.Barrier(2)

        def leaf():
            return threading.get_ident()

        inner = tracer.wrap(1, leaf)

        def outer_body():
            gate.wait(timeout=5)  # both threads are inside `outer` at once
            return inner()

        outer = tracer.wrap(0, outer_body)
        workers = [threading.Thread(target=outer) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=5)
            self.assertFalse(worker.is_alive())
        self.assertEqual(len(tracer.threads), 2)
        for spans in tracer.threads.values():
            self.assertEqual([s[0] for s in spans], [0, 1])
            self.assertEqual([s[3] for s in spans], [-1, 0])
            self.assertTrue(spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2])

    def test_an_exception_still_closes_the_span(self):
        tracer = Tracer(entries=())

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap(0, boom)()
        (spans,) = tracer.threads.values()
        self.assertGreater(spans[0][2], 0.0)
        self.assertEqual(tracer.wrap(0, lambda: 7)(), 7)
        self.assertEqual(spans[1][3], -1)  # the stack was unwound


class AliasPatching(unittest.TestCase):
    """``from x import f`` must not escape the shim."""

    def setUp(self):
        self.origin = types.ModuleType("repro_ledger_fake_origin")
        exec("def f():\n    return 'real'\n", self.origin.__dict__)
        self.importer = types.ModuleType("repro_ledger_fake_importer")
        self.importer.f = self.origin.f
        sys.modules[self.origin.__name__] = self.origin
        sys.modules[self.importer.__name__] = self.importer

    def tearDown(self):
        del sys.modules[self.origin.__name__]
        del sys.modules[self.importer.__name__]

    def test_module_functions_are_replaced_in_every_holder(self):
        real = self.origin.f
        tracer = Tracer(entries=(EntryPoint("b", self.origin.__name__, "f"),))
        tracer.install()
        try:
            self.assertIsNot(self.importer.f, real)
            self.assertEqual(self.importer.f(), "real")
            self.assertEqual(self.origin.f(), "real")
        finally:
            tracer.uninstall()
        self.assertIs(self.importer.f, real)
        self.assertIs(self.origin.f, real)
        costs = self_times(tracer.threads, [(0.0, float("inf"))])
        self.assertEqual(costs[0].calls, 2)

    def test_an_unresolvable_entry_point_fails_loudly(self):
        tracer = Tracer(entries=(EntryPoint("b", self.origin.__name__, "missing"),))
        with self.assertRaises(AttributeError):
            tracer.install()


if __name__ == "__main__":
    unittest.main()
