"""Deterministic in-memory network: a discrete-event message simulator.

This is the default substrate for tests and benchmarks.  It models the
paper's LAN of X workstations:

* each directed delivery takes ``base_latency`` seconds plus
  ``per_byte_latency * size`` (serialization) plus seeded jitter;
* messages between the same (sender, receiver) pair are FIFO — like a TCP
  connection — which the protocol relies on;
* optional seeded message loss for failure-injection tests;
* a single :class:`~repro.net.clock.SimClock` advances to each delivery
  time, so experiments measure latency without sleeping.

The network is *pumped*: :meth:`MemoryNetwork.pump` pops the earliest
scheduled delivery, advances the clock, and hands the message to the
receiving endpoint's handler, which may send further messages.  Pumping
until quiescence executes a whole distributed interaction deterministically
on one thread.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DeliveryError, TransportClosedError
from repro.net.clock import SimClock
from repro.net.codec import Codec, get_codec
from repro.net.message import Message
from repro.net.transport import (
    DROP_DETACHED,
    DROP_LOSS,
    DROP_PARTITION,
    MessageHandler,
    TrafficStats,
    Transport,
    resolve_destination,
)


class MemoryNetwork:
    """A simulated network connecting named endpoints.

    Parameters
    ----------
    clock:
        The simulation clock (a fresh one is created if omitted).
    base_latency:
        Fixed one-way delay per message, seconds.
    per_byte_latency:
        Additional delay per encoded byte (bandwidth model).
    jitter:
        Uniform random extra delay in ``[0, jitter]`` drawn from *seed*.
    loss_rate:
        Probability of silently dropping a message (0 disables loss; FIFO
        order among surviving messages is preserved).
    duplicate_rate:
        Probability of delivering a message twice (at-least-once delivery
        injection; the duplicate follows the original on the same link).
    seed:
        Seed for the jitter/loss/duplication random stream.
    codec:
        The wire codec (name or instance) the simulation accounts bytes
        with.  No frames cross a real wire here, but byte counts and the
        ``per_byte_latency`` model honour the codec's frame sizes, so a
        ``codec="binary"`` deployment simulates its real wire cost: every
        message is priced at its full per-message frame, which is what
        the socket transports write.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        *,
        base_latency: float = 0.001,
        per_byte_latency: float = 0.0,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        seed: int = 0,
        codec: str = "json",
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= duplicate_rate < 1.0:
            raise ValueError("duplicate_rate must be in [0, 1)")
        if base_latency < 0 or per_byte_latency < 0 or jitter < 0:
            raise ValueError("latencies must be non-negative")
        self.clock = clock if clock is not None else SimClock()
        self.codec: Codec = get_codec(codec)
        self.base_latency = base_latency
        self.per_byte_latency = per_byte_latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        self.stats = TrafficStats()
        self._rng = random.Random(seed)
        self._transports: Dict[str, "MemoryTransport"] = {}
        self._queue: List[Tuple[float, int, str, Message]] = []
        self._tiebreak = itertools.count()
        #: Per-link FIFO watermark: earliest time the next message on a link
        #: may be delivered, so jitter cannot reorder a link's messages.
        self._link_clock: Dict[Tuple[str, str], float] = {}
        #: Endpoints cut off by a simulated partition.
        self._partitioned: set = set()
        #: Per-endpoint serial-processing model: an endpoint that called
        #: :meth:`occupy` receives no further deliveries until the busy
        #: period elapses (messages are deferred, preserving order).
        self._busy_until: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def attach(self, endpoint_id: str, handler: MessageHandler) -> "MemoryTransport":
        """Register an endpoint and return its transport handle."""
        if endpoint_id in self._transports:
            raise ValueError(f"endpoint {endpoint_id!r} already attached")
        transport = MemoryTransport(self, endpoint_id, handler)
        self._transports[endpoint_id] = transport
        return transport

    def detach(self, endpoint_id: str) -> None:
        """Remove an endpoint; queued messages to it are dropped on pump."""
        self._transports.pop(endpoint_id, None)
        self._partitioned.discard(endpoint_id)

    def endpoints(self) -> Tuple[str, ...]:
        return tuple(self._transports)

    def partition(self, endpoint_id: str) -> None:
        """Simulate a network partition: drop traffic to/from the endpoint."""
        self._partitioned.add(endpoint_id)

    def heal(self, endpoint_id: str) -> None:
        """End a simulated partition."""
        self._partitioned.discard(endpoint_id)

    # ------------------------------------------------------------------
    # Sending and pumping
    # ------------------------------------------------------------------

    def submit(self, message: Message) -> None:
        """Schedule *message* for delivery (called by transport handles)."""
        receiver = resolve_destination(message)
        size = self.codec.wire_size(message)
        if message.sender in self._partitioned or receiver in self._partitioned:
            self.stats.record_drop(message, size, reason=DROP_PARTITION)
            return
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.stats.record_drop(message, size, reason=DROP_LOSS)
            return
        delay = self.base_latency + self.per_byte_latency * size
        if self.jitter:
            delay += self._rng.random() * self.jitter
        deliver_at = self.clock.now() + delay
        link = (message.sender, receiver)
        # FIFO per link: never deliver before the link's previous message.
        deliver_at = max(deliver_at, self._link_clock.get(link, 0.0))
        self._link_clock[link] = deliver_at
        self.stats.record(message, size, receiver)
        heapq.heappush(
            self._queue, (deliver_at, next(self._tiebreak), receiver, message)
        )
        if self.duplicate_rate and self._rng.random() < self.duplicate_rate:
            # At-least-once injection: a second copy right behind the
            # first on the same (FIFO-ordered) link.
            dup_at = max(deliver_at, self._link_clock.get(link, 0.0))
            self._link_clock[link] = dup_at
            heapq.heappush(
                self._queue, (dup_at, next(self._tiebreak), receiver, message)
            )

    def pending(self) -> int:
        """Number of scheduled, undelivered messages."""
        return len(self._queue)

    def occupy(self, endpoint_id: str, duration: float) -> float:
        """Model *endpoint_id* doing *duration* seconds of serial work.

        Called from a message handler (or before injecting load), it
        defers all subsequent deliveries to that endpoint until the work
        completes — this is how the architecture baselines model a
        time-consuming semantic operation blocking a centralized component
        (paper §2.1).  Returns the time the endpoint becomes free.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(self.clock.now(), self._busy_until.get(endpoint_id, 0.0))
        self._busy_until[endpoint_id] = start + duration
        return self._busy_until[endpoint_id]

    def busy_until(self, endpoint_id: str) -> float:
        """When *endpoint_id* finishes its modeled work (0.0 if idle)."""
        return self._busy_until.get(endpoint_id, 0.0)

    def step(self) -> bool:
        """Deliver the earliest scheduled message; False if queue is empty."""
        while self._queue:
            deliver_at, _, receiver, message = heapq.heappop(self._queue)
            busy = self._busy_until.get(receiver, 0.0)
            if busy > deliver_at:
                # Receiver is mid-work: defer the delivery, keeping FIFO
                # order via the monotonically increasing tiebreak counter.
                heapq.heappush(
                    self._queue, (busy, next(self._tiebreak), receiver, message)
                )
                continue
            self.clock.advance_to(max(self.clock.now(), deliver_at))
            if receiver in self._partitioned:
                self.stats.record_drop(
                    message, self.codec.wire_size(message), reason=DROP_PARTITION
                )
                continue
            transport = self._transports.get(receiver)
            if transport is None:
                # Receiver detached (instance terminated): drop silently,
                # like a closed socket.
                self.stats.record_drop(
                    message, self.codec.wire_size(message), reason=DROP_DETACHED
                )
                continue
            transport.recv(message)
            return True
        return False

    def pump(self, max_steps: int = 1_000_000) -> int:
        """Deliver messages until the network is quiescent.

        Returns the number of deliveries.  *max_steps* guards against a
        protocol bug producing an infinite message loop.
        """
        steps = 0
        while self._queue and steps < max_steps:
            if not self.step():
                break
            steps += 1
        if self._queue and steps >= max_steps:
            raise DeliveryError(
                f"network did not quiesce within {max_steps} deliveries"
            )
        return steps

    def pump_until_time(self, t: float, max_steps: int = 1_000_000) -> int:
        """Deliver everything scheduled up to simulated time *t*, then
        advance the clock to exactly *t*.  Used by workload drivers to
        inject user actions at their scripted times."""
        steps = 0
        while self._queue and steps < max_steps:
            deliver_at, _, receiver, message = self._queue[0]
            if deliver_at > t:
                break
            busy = self._busy_until.get(receiver, 0.0)
            if busy > deliver_at:
                # Defer past the busy period (possibly beyond *t*).
                heapq.heapreplace(
                    self._queue, (busy, next(self._tiebreak), receiver, message)
                )
                continue
            heapq.heappop(self._queue)
            self.clock.advance_to(max(self.clock.now(), deliver_at))
            transport = self._transports.get(receiver)
            if transport is None or receiver in self._partitioned:
                reason = (
                    DROP_PARTITION if receiver in self._partitioned else DROP_DETACHED
                )
                self.stats.record_drop(
                    message, self.codec.wire_size(message), reason=reason
                )
                continue
            transport.recv(message)
            steps += 1
        if steps >= max_steps:
            raise DeliveryError(
                f"network did not quiesce within {max_steps} deliveries"
            )
        if self.clock.now() < t:
            self.clock.advance_to(t)
        return steps

    def pump_until(
        self,
        predicate: Callable[[], bool],
        *,
        timeout: float = 5.0,
        max_steps: int = 1_000_000,
    ) -> bool:
        """Pump until *predicate* is true; False on quiescence or timeout.

        *timeout* is simulated seconds measured from the current clock.
        """
        deadline = self.clock.now() + timeout
        for _ in range(max_steps):
            if predicate():
                return True
            if not self._queue:
                return predicate()
            next_delivery = self._queue[0][0]
            if next_delivery > deadline:
                return predicate()
            self.step()
        raise DeliveryError(
            f"predicate not reached within {max_steps} deliveries"
        )


class MemoryTransport(Transport):
    """One endpoint's handle onto a :class:`MemoryNetwork`."""

    def __init__(
        self, network: MemoryNetwork, endpoint_id: str, handler: MessageHandler
    ):
        self._network = network
        self._endpoint_id = endpoint_id
        self._handler = handler
        self._closed = False

    @property
    def local_id(self) -> str:
        return self._endpoint_id

    @property
    def network(self) -> MemoryNetwork:
        return self._network

    @property
    def stats(self) -> TrafficStats:
        """The network-wide accounting (shared by all memory endpoints)."""
        return self._network.stats

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosedError(
                f"transport for {self._endpoint_id!r} is closed"
            )
        self._network.submit(message)

    def recv(self, message: Message) -> None:
        """Deliver one inbound message (called by the network's pump)."""
        if not self._closed:
            self._handler(message)

    def drive(self, predicate: Callable[[], bool], timeout: float = 5.0) -> bool:
        return self._network.pump_until(predicate, timeout=timeout)

    def now(self) -> float:
        return self._network.clock.now()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._network.detach(self._endpoint_id)

    @property
    def closed(self) -> bool:
        return self._closed
