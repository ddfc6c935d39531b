"""The receive side of §3.2: numbered streams, applied in order and once.

§3.2 has every member of ``CO(o)`` execute every event, and a client
replica apply every change to the server's registration records.  Both
arrive as numbered deliveries over transports that may lose, duplicate
or reorder them.  One rule says what a delivery numbered ``n`` does to
a stream that has reached ``known``:

* ``n == known + 1`` — the next one: apply it (:data:`APPLY`);
* ``n <= known`` — already applied: a duplicate (:data:`DUPLICATE`);
* anything later — some were missed (:data:`GAP`).

A full snapshot at ``n`` is adopted unless it is older than ``known``.
After a gap one snapshot is asked for, at most once per timeout (the
ask or its answer may be lost); a snapshot that reaches every number a
gap showed answers it.

The roster (docs/PROTOCOL.md, "Registration") is such a stream.  Each
origin's events are one too, but sparse: an origin numbers its events
from a process-wide counter and a receiver sees only those of its
groups, so there a gap is no loss and only a duplicate is refused.  An
origin's event stream ends with its registration; a later registration
under the same id starts a new one.

Sans-I/O: no transport, no message, no lock and no clock (``now`` is
passed in).  Its caller holds the transport guard.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

APPLY, DUPLICATE, GAP = "apply", "duplicate", "gap"


def classify(known: int, n: int) -> str:
    """What delivery *n* is to a stream that has reached *known*."""
    if n <= known:
        return DUPLICATE
    return APPLY if n == known + 1 else GAP


class Stream:
    """A dense stream: the number it has reached and its one deadline."""

    def __init__(self) -> None:
        self.known = 0
        #: The newest number a gap showed, and until when the snapshot
        #: asked for it counts as in flight.
        self._wanted = 0
        self._asked_until: Optional[float] = None

    def classify(self, n: int) -> str:
        return classify(self.known, n)

    def advance(self, n: int) -> None:
        """Delivery *n*, classified :data:`APPLY`, was applied."""
        self.known = n

    def adopt(self, n: int, *, always: bool = False) -> bool:
        """Whether a snapshot at *n* is adopted: unless it is older than
        what is held, or *always* (it opens a new session).  An adopted
        one answers the ask when it reaches every gap seen; an older one
        (a late answer to an earlier ask) leaves that ask in flight."""
        if n < self.known and not always:
            return False
        self.known = n
        if always or n >= self._wanted:
            self._wanted, self._asked_until = 0, None
        return True

    def ask(self, n: int, now: float, timeout: float) -> bool:
        """Whether delivery *n*, a gap, asks for a snapshot at *now*:
        unless one was asked for less than *timeout* ago and is still
        unanswered."""
        self._wanted = max(self._wanted, n)
        if self._asked_until is not None and now < self._asked_until:
            return False
        self._asked_until = now + timeout
        return True


class Receiver:
    """One instance's receive side: the roster and each origin's events."""

    def __init__(self) -> None:
        self.roster = Stream()
        #: The highest event number executed, per origin.
        self._events: Dict[str, int] = {}

    def fresh_event(self, origin: str, seq: int) -> bool:
        """Whether event *seq* from *origin* is executed: anything but a
        duplicate, which was executed here already."""
        if not origin:
            return True
        if classify(self._events.get(origin, -1), seq) == DUPLICATE:
            return False
        self._events[origin] = seq
        return True

    def left(self, origin: str) -> None:
        """*origin*'s registration ended: so did its event stream."""
        self._events.pop(origin, None)

    def registrations(
        self, held: Mapping[str, object], adopted: Mapping[str, object]
    ) -> None:
        """An adopted roster ends the event stream of each origin it has
        no record of, or a record other than the *held* one."""
        for origin in list(self._events):
            record = adopted.get(origin)
            if record is None or record != held.get(origin, record):
                del self._events[origin]
