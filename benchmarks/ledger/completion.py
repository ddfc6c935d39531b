"""Event-based completion: when is one user action done?

``Session.pump()`` on the socket backends sleeps until the server's
counters have been idle for 20 ms, so timing it measures the harness.
Everything here waits on the event itself instead:

* :class:`Arrivals` is the callback registered on every coupled replica;
  it takes the ``perf_counter()`` stamp *inside* the callback and wakes
  the driver when the last replica has run it.
* :func:`await_replica` blocks on an instance's own transport condition
  (``Transport.drive``), which the receive path notifies after every
  inbound dispatch; on the memory backend the same call pumps the
  simulated network.
* :func:`await_count` watches a monotonically increasing counter of the
  central endpoint (``server.processed[kind]``) with sub-millisecond
  sleeps; it is only ever used *after* an action's end stamp, so its
  poll interval bounds throughput error, never latency error.
* :func:`forbid_pump` turns a stray ``Session.pump()`` in a timed phase
  on a socket backend into a failed run.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterator, List, Mapping

#: Seconds any single wait may take before the action counts as failed.
DEADLINE = 5.0

#: Poll interval of :func:`await_count` (well under the 1 ms the issue allows).
POLL = 0.0001


class Arrivals:
    """Counts the replica callbacks of one action and stamps the last.

    Register one instance as the ``value_changed`` callback of every
    coupled replica; :meth:`arm` before the action, :meth:`wait` after.
    Callbacks may run on any thread (event loop, per-connection reader).
    """

    def __init__(self, expected: int):
        self.expected = expected
        self.count = 0
        self.stamp = 0.0
        self._lock = threading.Lock()
        self._done = threading.Event()

    def __call__(self, widget: object, event: object) -> None:
        now = time.perf_counter()
        with self._lock:
            self.count += 1
            if self.count == self.expected:
                self.stamp = now
                self._done.set()

    def arm(self) -> None:
        with self._lock:
            self.count = 0
            self._done.clear()

    def wait(self, timeout: float = DEADLINE) -> bool:
        """True once every expected replica ran its callback."""
        return self._done.wait(timeout)


def await_replica(
    instance, predicate: Callable[[], bool], timeout: float = DEADLINE
) -> bool:
    """Block until *predicate* holds on *instance*'s side of the wire."""
    return bool(instance.transport.drive(predicate, timeout=timeout))


def await_count(
    counter: Mapping[str, int], key: str, target: int, timeout: float = DEADLINE
) -> bool:
    """Block until ``counter[key] >= target`` (False on timeout)."""
    end = time.perf_counter() + timeout
    while counter[key] < target:
        if time.perf_counter() > end:
            return False
        time.sleep(POLL)
    return True


class PumpCalled(AssertionError):
    """A timed phase on a socket backend called ``Session.pump()``."""


@contextlib.contextmanager
def forbid_pump(session) -> Iterator[List[str]]:
    """Fail the run if *session* is pumped inside the block.

    The memory backend is exempt: there ``pump()`` *is* the event loop
    and belongs to the action.  Yields the list of violations so the
    caller can also report calls swallowed by a broad ``except``.
    """
    violations: List[str] = []
    if session.backend == "memory":
        yield violations
        return
    cls = type(session)
    original = cls.pump

    def guarded(self, *args, **kwargs):
        violations.append(f"Session.pump() called on backend {self.backend!r}")
        raise PumpCalled(violations[-1])

    cls.pump = guarded
    try:
        yield violations
    finally:
        cls.pump = original
