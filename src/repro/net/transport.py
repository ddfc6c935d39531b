"""Transport abstraction shared by the simulated, TCP and aio networks.

The server and the application instances are **sans-I/O state machines**:
they expose ``handle_message(Message)`` and emit messages through a
:class:`Transport` handle.  Three implementations exist:

* :class:`~repro.net.memory.MemoryNetwork` — deterministic discrete-event
  simulation with a latency model (the default for tests and benchmarks);
* :class:`~repro.net.tcp.TcpTransport` — real sockets, one thread per
  connection;
* :class:`~repro.net.aio.AioHostTransport` — real sockets on one event
  loop the module owns, with outbound batching and bounded per-client
  send queues (see docs/RUNTIME.md).

The :class:`Transport` ABC is the explicit contract all of them implement:

``send``
    queue one outbound message for delivery to ``message.to``;
``recv``
    deliver one inbound message into the endpoint's handler (transports
    call this from their reader thread / task / pump loop — it is the
    single choke point through which every inbound message passes);
``close``
    detach the endpoint;
``stats``
    the :class:`TrafficStats` the transport accounts its traffic in.

Blocking request/reply interactions (CopyFrom, lock acquisition, …) are
expressed through :meth:`Transport.drive`: "make progress until *predicate*
becomes true or *timeout* elapses".  On the memory network this pumps the
event queue (no real waiting); on TCP it waits on a condition variable fed
by the receive thread.  :meth:`Transport.now` reads the clock those
timeouts run on, for a request sent from inside a handler, which cannot
block (the roster resync of :class:`~repro.core.instance.ApplicationInstance`).
"""

from __future__ import annotations

import abc
import contextlib
import time
from collections import Counter
from typing import Callable, Dict, Optional

from repro.net.message import Message

MessageHandler = Callable[[Message], None]

#: Reserved endpoint id of the central server (or of a cluster front-end
#: posing as it).  An empty ``Message.to`` addresses this endpoint.
SERVER_ID = "server"

#: Reserved sender id of a cluster front-end router issuing internal
#: control traffic (shard migration).  Never a client instance id.
ROUTER_ID = "router"

# Canonical drop reasons, shared by every transport so single-server and
# cluster runs report the same attribution fields (``drops_by_reason``).
DROP_LOSS = "loss"                  # simulated wire loss
DROP_PARTITION = "partition"        # simulated network partition
DROP_DETACHED = "detached"          # receiver endpoint gone / closed socket
DROP_BACKPRESSURE = "backpressure"  # bounded send queue overflowed
DROP_UNDELIVERABLE = "undeliverable"  # no live connection to the destination


class TrafficStats:
    """Counters of protocol traffic, reported by every benchmark.

    Tracks message and byte counts globally, per message kind and per
    directed (sender, receiver) link; drops are attributed by kind *and*
    by reason (one of the ``DROP_*`` constants), and the batching runtime
    additionally accounts flushed batches.  Every
    transport — memory, TCP, aio, cluster shard — owns one of these,
    so a single-server run reports exactly the same fields a sharded or
    batched deployment does; :meth:`merge` folds several into one
    cluster-wide snapshot.
    """

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        self.dropped_bytes = 0
        self.by_kind: Counter = Counter()
        self.bytes_by_kind: Counter = Counter()
        self.by_link: Counter = Counter()
        self.dropped_by_kind: Counter = Counter()
        self.drops_by_reason: Counter = Counter()
        #: Outbound flushes (a batch of >= 1 coalesced messages).
        self.batches = 0
        #: Messages that left inside those batches.
        self.batched_messages = 0
        #: Always 0 (no transport retries); kept because the ledger's
        #: ``net.transport.retries`` (benchmarks/ledger/rep.py) reads it.
        self.retries = 0

    def record(self, message: Message, size: int, receiver: str) -> None:
        self.messages += 1
        self.bytes += size
        self.by_kind[message.kind] += 1
        self.bytes_by_kind[message.kind] += size
        self.by_link[(message.sender, receiver)] += 1

    def record_drop(
        self,
        message: Optional[Message] = None,
        size: int = 0,
        *,
        reason: str = DROP_LOSS,
    ) -> None:
        """Count a lost message, attributing kind, size and *reason*."""
        self.dropped += 1
        self.dropped_bytes += size
        self.drops_by_reason[reason] += 1
        if message is not None:
            self.dropped_by_kind[message.kind] += 1

    def record_batch(self, n_messages: int) -> None:
        """Count one outbound flush carrying *n_messages* messages."""
        self.batches += 1
        self.batched_messages += n_messages

    def merge(self, other: "TrafficStats") -> "TrafficStats":
        """Fold *other*'s counters into this one (returns self).

        Aggregates per-shard / per-transport stats into one system-wide
        snapshot (``cluster.shard_traffic()``) for benchmarks.
        """
        self.messages += other.messages
        self.bytes += other.bytes
        self.dropped += other.dropped
        self.dropped_bytes += other.dropped_bytes
        self.by_kind.update(other.by_kind)
        self.bytes_by_kind.update(other.bytes_by_kind)
        self.by_link.update(other.by_link)
        self.dropped_by_kind.update(other.dropped_by_kind)
        self.drops_by_reason.update(other.drops_by_reason)
        self.batches += other.batches
        self.batched_messages += other.batched_messages
        return self

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict summary (stable keys, benchmark-friendly)."""
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "dropped": self.dropped,
            "dropped_bytes": self.dropped_bytes,
            "by_kind": dict(self.by_kind),
            "bytes_by_kind": dict(self.bytes_by_kind),
            "by_link": {f"{a}->{b}": n for (a, b), n in self.by_link.items()},
            "dropped_by_kind": dict(self.dropped_by_kind),
            "drops_by_reason": dict(self.drops_by_reason),
            "batches": self.batches,
            "batched_messages": self.batched_messages,
            "retries": self.retries,
        }

    def register_into(self, registry, **labels: str) -> None:
        """Expose these counters through an obs metrics registry.

        Registers a pull-time collector (see
        :meth:`repro.obs.metrics.MetricsRegistry.register_collector`) so
        the live values appear in every ``collect()`` without adding any
        work to :meth:`record` on the hot path.  *labels* distinguish
        several transports in one deployment (e.g. ``shard="shard-0"``).
        """
        from repro.obs.metrics import Sample

        base = tuple(sorted(labels.items()))

        def collect():
            yield Sample(
                "repro_traffic_messages_total", "counter",
                "Messages delivered by this transport", base, self.messages,
            )
            yield Sample(
                "repro_traffic_bytes_total", "counter",
                "Encoded bytes delivered", base, self.bytes,
            )
            yield Sample(
                "repro_traffic_dropped_total", "counter",
                "Messages dropped", base, self.dropped,
            )
            yield Sample(
                "repro_traffic_batches_total", "counter",
                "Outbound batch flushes", base, self.batches,
            )
            for kind, n in sorted(self.by_kind.items()):
                yield Sample(
                    "repro_traffic_messages_by_kind_total", "counter",
                    "Messages delivered, by protocol kind",
                    base + (("kind", kind),), n,
                )
            for reason, n in sorted(self.drops_by_reason.items()):
                yield Sample(
                    "repro_traffic_drops_by_reason_total", "counter",
                    "Messages dropped, by reason",
                    base + (("reason", reason),), n,
                )

        registry.register_collector(collect)

    def reset(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        self.dropped_bytes = 0
        self.by_kind.clear()
        self.bytes_by_kind.clear()
        self.by_link.clear()
        self.dropped_by_kind.clear()
        self.drops_by_reason.clear()
        self.batches = 0
        self.batched_messages = 0

    def __repr__(self) -> str:
        return (
            f"TrafficStats(messages={self.messages}, bytes={self.bytes}, "
            f"dropped={self.dropped})"
        )


class Transport(abc.ABC):
    """One endpoint's handle onto a network.

    The contract is what its callers use — :meth:`send`, :meth:`drive`,
    :meth:`close`, :attr:`closed`, :attr:`stats` — and every transport
    implements it; :meth:`guard` and :meth:`now` have sensible defaults
    for single-threaded and real-time transports.  How an inbound
    message reaches the endpoint's handler is each transport's own.
    """

    def guard(self):
        """Context manager serializing application threads with handler
        invocations.  A no-op on single-threaded transports; the TCP
        transport overrides it with its condition lock."""
        return contextlib.nullcontext()

    @abc.abstractmethod
    def send(self, message: Message) -> None:
        """Queue *message* for delivery to ``message.to``.

        An empty ``to`` addresses the central server.  Raises
        :class:`~repro.errors.TransportClosedError` after :meth:`close`.
        """

    def drive(
        self, predicate: Callable[[], bool], timeout: float = 5.0
    ) -> bool:
        """Make network progress until *predicate* is true.

        Returns True if the predicate became true, False on timeout.  On a
        simulated network "timeout" is simulated time; no real waiting
        happens.  A passive endpoint (a server's, which never waits for a
        reply) only tests *predicate*.
        """
        return bool(predicate())

    def now(self) -> float:
        """The time :meth:`drive` measures its *timeout* on, in seconds.

        Monotonic wall time by default; simulated time on a simulated
        network.  For endpoints that must time out a request they cannot
        block on (one sent from inside a message handler).
        """
        return time.monotonic()

    @abc.abstractmethod
    def close(self) -> None:
        """Detach this endpoint; further sends raise."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool:
        ...

    @property
    @abc.abstractmethod
    def stats(self) -> TrafficStats:
        """The traffic accounting this transport records into."""


def resolve_destination(message: Message) -> str:
    """The endpoint id a message should be delivered to."""
    return message.to or SERVER_ID
