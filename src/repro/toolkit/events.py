"""Event and callback machinery of the CENTER-like toolkit.

The paper's synchronization unit is the *high-level callback event*: "A
primitive UI object ... encapsulates low-level events and provides high-level
interactive techniques" (§3), and "most events are high-level callback events
of UI objects" (§3.2).

An :class:`Event` is a small serializable record:  event type (``activate``,
``value-changed``, …), the source object's pathname, a parameter dict, the
user who produced it, and a sequence number.  Events are exactly what the
central server broadcasts to coupled objects for multiple execution.

:class:`CallbackRegistry` maps event types to ordered lists of callables on
one widget.  Callbacks receive ``(widget, event)``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.toolkit.attributes import json_safe

# Well-known event types; widgets may define more.
ACTIVATE = "activate"                  # button press, menu entry chosen
VALUE_CHANGED = "value_changed"        # text committed, scale moved, ...
SELECTION_CHANGED = "selection_changed"
ATTRIBUTE_CHANGED = "attribute_changed"  # any attribute set (syntactic)
FOCUS_IN = "focus_in"
FOCUS_OUT = "focus_out"
KEY_PRESS = "key_press"                # fine-grained (used by experiments)
POINTER_MOTION = "pointer_motion"      # fine-grained (used by experiments)
DRAW = "draw"                          # canvas stroke committed
DESTROYED = "destroyed"
CHILD_ADDED = "child_added"
CHILD_REMOVED = "child_removed"

#: Event types the toolkit considers *fine-grained*: they fire at input-device
#: rate.  The paper notes floor-control locking "might become costly if the
#: events were fine-grained, such as cursor movements or the typing of single
#: characters" — experiment E5 quantifies this.
FINE_GRAINED_EVENTS = frozenset({KEY_PRESS, POINTER_MOTION})

_event_counter = itertools.count(1)


def _next_event_seq() -> int:
    return next(_event_counter)


@dataclass(frozen=True)
class Event:
    """One high-level (or, for experiments, fine-grained) UI event.

    Events are immutable and JSON-serializable so they can be packed,
    shipped to the server, broadcast, and re-executed remotely (§3.2).
    """

    type: str
    source_path: str
    params: Mapping[str, Any] = field(default_factory=dict)
    user: str = ""
    instance_id: str = ""
    seq: int = field(default_factory=_next_event_seq)

    def __post_init__(self) -> None:
        if not json_safe(dict(self.params)):
            raise ValueError(
                f"event params must be JSON-serializable, got {self.params!r}"
            )

    @property
    def is_fine_grained(self) -> bool:
        return self.type in FINE_GRAINED_EVENTS

    @property
    def global_source(self) -> Tuple[str, str]:
        """The paper's global object id: ``<instance-id, pathname>``."""
        return (self.instance_id, self.source_path)

    def to_wire(self) -> Dict[str, Any]:
        """Serialize for transmission ("this event packed with some
        parameters is sent to the server", §3.2).  An empty ``user`` is
        left out: :meth:`from_wire` reads its absence as ``""``."""
        wire = {
            "type": self.type,
            "source_path": self.source_path,
            "params": dict(self.params),
            "instance_id": self.instance_id,
            "seq": self.seq,
        }
        if self.user:
            wire["user"] = self.user
        return wire

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "Event":
        """Deserialize an event received from the server.

        Built in one pass, like :meth:`retargeted`: ``params`` is copied
        once (the wire payload is shared by every receiver of a fan-out)
        and ``__post_init__``'s check runs on that copy.  Fields are set
        one by one, not through ``__dict__``: receivers keep these events
        in their trace, and a materialized ``__dict__`` costs ~200 bytes
        per event.
        """
        params = dict(payload.get("params", {}))
        if not json_safe(params):
            raise ValueError(f"event params must be JSON-serializable, got {params!r}")
        event = object.__new__(cls)
        put = object.__setattr__
        put(event, "type", payload["type"])
        put(event, "source_path", payload["source_path"])
        put(event, "params", params)
        put(event, "user", payload.get("user", ""))
        put(event, "instance_id", payload.get("instance_id", ""))
        put(event, "seq", payload.get("seq", 0))
        return event

    def retargeted(self, source_path: str, instance_id: str) -> "Event":
        """A copy of this event as if it occurred on another object.

        Used during multiple execution: the server broadcasts the original
        event and each receiving instance re-executes it on its own coupled
        object, whose pathname generally differs.

        ``params`` is copied but not validated again: this event passed
        ``__post_init__`` already, and the clone differs from it only in
        two strings.
        """
        clone = object.__new__(Event)
        put = object.__setattr__
        put(clone, "type", self.type)
        put(clone, "source_path", source_path)
        put(clone, "params", dict(self.params))
        put(clone, "user", self.user)
        put(clone, "instance_id", instance_id)
        put(clone, "seq", self.seq)
        return clone


Callback = Callable[["object", Event], None]
"""A widget callback; receives (widget, event)."""


class CallbackRegistry:
    """Ordered callback lists per event type for one widget.

    Matches Motif's ``XtAddCallback`` model: multiple callbacks per reason,
    executed in registration order.
    """

    def __init__(self) -> None:
        self._callbacks: Dict[str, List[Callback]] = {}

    def add(self, event_type: str, callback: Callback) -> None:
        """Register *callback* for *event_type* (appended, may repeat)."""
        self._callbacks.setdefault(event_type, []).append(callback)

    def remove(self, event_type: str, callback: Callback) -> bool:
        """Remove one registration of *callback*; return whether found."""
        callbacks = self._callbacks.get(event_type)
        if not callbacks:
            return False
        try:
            callbacks.remove(callback)
        except ValueError:
            return False
        if not callbacks:
            del self._callbacks[event_type]
        return True

    def clear(self, event_type: Optional[str] = None) -> None:
        """Drop all callbacks, or all callbacks for one event type."""
        if event_type is None:
            self._callbacks.clear()
        else:
            self._callbacks.pop(event_type, None)

    def get(self, event_type: str) -> Tuple[Callback, ...]:
        return tuple(self._callbacks.get(event_type, ()))

    def event_types(self) -> Tuple[str, ...]:
        return tuple(self._callbacks)

    def invoke(self, widget: object, event: Event) -> int:
        """Execute all callbacks registered for the event's type.

        Returns the number of callbacks executed.  Callback exceptions
        propagate: the toolkit treats a raising callback as an application
        bug, consistent with Motif.
        """
        count = 0
        for callback in tuple(self._callbacks.get(event.type, ())):
            callback(widget, event)
            count += 1
        return count

    def __len__(self) -> int:
        return sum(len(cbs) for cbs in self._callbacks.values())


class EventTrace:
    """An application instance's input log: the events its own user fired.

    :meth:`ApplicationInstance.process_local_event` records every local
    event, granted or denied; a remote re-execution (§3.2) is a
    consequence of another member's input and is not recorded, so
    nothing a delivery allocates outlives it.  This is the log
    :class:`~repro.tools.replay.SessionRecorder` cuts and E6 replays.
    The ring buffer holds the most recent *capacity* events; older
    entries are evicted and counted in :attr:`dropped`, so a
    long-running instance never grows the trace without bound.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is None:
            capacity = 100_000
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._events: Deque[Event] = deque(maxlen=capacity)
        self._dropped = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def record(self, event: Event) -> None:
        if len(self._events) == self._capacity:
            self._dropped += 1
        self._events.append(event)

    def events(self, event_type: Optional[str] = None) -> List[Event]:
        if event_type is None:
            return list(self._events)
        return [e for e in self._events if e.type == event_type]

    @property
    def dropped(self) -> int:
        """Number of events discarded: evicted by the capacity bound or
        removed by :meth:`clear`."""
        return self._dropped

    @property
    def recorded(self) -> int:
        """Number of events ever recorded, held or discarded."""
        return len(self._events) + self._dropped

    def stats(self) -> Dict[str, int]:
        """Occupancy summary for ``Session.trace_stats()``."""
        return {
            "events": len(self._events),
            "capacity": self._capacity,
            "dropped": self._dropped,
        }

    def clear(self) -> None:
        self._dropped += len(self._events)
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterable[Event]:
        return iter(list(self._events))
