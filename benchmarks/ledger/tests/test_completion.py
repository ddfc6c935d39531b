"""Event-based completion helpers and the pump guard."""

import threading
import time
import unittest

from completion import Arrivals, PumpCalled, await_count, forbid_pump


class ArrivalsStampInsideTheLastCallback(unittest.TestCase):
    def test_the_last_of_n_callbacks_stamps_and_wakes(self):
        arrivals = Arrivals(3)
        arrivals.arm()
        before = time.perf_counter()
        for _ in range(2):
            arrivals(None, None)
        self.assertFalse(arrivals.wait(0.01))
        worker = threading.Thread(target=arrivals, args=(None, None))
        worker.start()
        self.assertTrue(arrivals.wait(5))
        worker.join(timeout=5)
        self.assertTrue(before <= arrivals.stamp <= time.perf_counter())
        arrivals.arm()
        self.assertEqual(arrivals.count, 0)
        self.assertFalse(arrivals.wait(0.01))

    def test_await_count_watches_a_growing_counter(self):
        counter = {"acks": 0}

        def bump():
            time.sleep(0.02)
            counter["acks"] = 2

        worker = threading.Thread(target=bump)
        worker.start()
        self.assertTrue(await_count(counter, "acks", 2, timeout=5))
        worker.join(timeout=5)
        self.assertFalse(await_count(counter, "acks", 3, timeout=0.02))


class FakeSession:
    def __init__(self, backend):
        self.backend = backend
        self.pumped = 0

    def pump(self):
        self.pumped += 1
        return 0


class PumpGuard(unittest.TestCase):
    def test_a_socket_backend_may_not_pump_in_a_timed_phase(self):
        session = FakeSession("aio")
        with forbid_pump(session) as violations:
            with self.assertRaises(PumpCalled):
                session.pump()
        self.assertEqual(len(violations), 1)
        self.assertEqual(session.pumped, 0)
        session.pump()  # restored afterwards
        self.assertEqual(session.pumped, 1)

    def test_memory_pumps_freely(self):
        session = FakeSession("memory")
        with forbid_pump(session) as violations:
            session.pump()
        self.assertEqual((violations, session.pumped), ([], 1))


if __name__ == "__main__":
    unittest.main()
