"""Asyncio server transport: end-of-burst flush, bounded queues, per-hop retry.

This module replaces the blocking thread-per-connection TCP loop on the
*server* side with a single-threaded :mod:`asyncio` protocol speaking the
same length-prefixed codec (:mod:`repro.net.codec`).  A flush is
everything queued for one destination when the loop burst ends, written
as concatenated per-message frames in one ``write()`` — which any
client's :class:`~repro.net.codec.StreamDecoder` already handles, so the
runtime is wire-compatible and protocol-transparent:
:class:`CosoftServer` and :class:`ShardedCosoftCluster` run under it
unchanged, and the plain :class:`~repro.net.tcp.TcpClientTransport`
interoperates freely.
:class:`AioClientTransport` is the loop-serviced client counterpart: any
number of instances share one event loop instead of running a reader
thread each.

Both sides put every socket on the loop as one
:class:`_SocketConnection`, an :class:`asyncio.BufferedProtocol`: the
transport ``recv_into``s a receive buffer shared by the whole loop
thread, and the read callback decodes and dispatches inline — no
``bytes`` per read (a stream reader's transport allocates 256 KiB for
each), no reader task, no second trip through the ready queue.

Three disciplines are layered on the outbound path (docs/RUNTIME.md):

**One flush rule.**  Outbound messages queue *per destination* and leave
when the current event-loop burst ends: everything a handler burst
produced for one destination goes out in one ``write()`` (at most
:data:`_MAX_FRAMES_PER_WRITE` frames each), adding no latency.  Nothing
waits for a timer (docs/PERF.md §12).

**Bounded queues.**  Every destination has a bounded send queue
(``max_queue`` messages).  A slow consumer overflows it, and the
overflowing message is dropped, counted under
``TrafficStats.drops_by_reason["backpressure"]``: one more source of
loss, with the consequences docs/RUNTIME.md's fault table lists.

**Per-hop retry.**  A flush that finds no live connection for its
destination (or a failed write) is retried with exponential backoff
(``retry_initial`` · ``retry_backoff``ᵃᵗᵗᵉᵐᵖᵗ, capped at
``retry_max_delay``) up to ``retry_limit`` attempts, then dropped as
``undeliverable``.  Retries can duplicate delivery; that is safe because
every message carries an idempotent ``msg_id`` and event broadcasts carry
per-origin sequence numbers the instances deduplicate on
(:meth:`ApplicationInstance.accept_remote_event`).

The queue and retry cores (:class:`SendQueue`, :class:`RetryPolicy`)
are **sans-I/O** and read no clock, so unit tests drive them without
opening a socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import threading
import time as _time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.errors import CodecError, DeliveryError, TransportClosedError
from repro.net.codec import Codec, StreamDecoder, get_codec
from repro.net.message import Message
from repro.obs.log import get_logger, log_event
from repro.net.tcp import TcpTransportBase
from repro.net.transport import (
    DROP_BACKPRESSURE,
    DROP_UNDELIVERABLE,
    MessageHandler,
    TrafficStats,
    Transport,
)

_log = get_logger("net.aio")

#: Transport write-buffer size (``get_write_buffer_size()``: bytes the
#: kernel has not taken yet) past which the inline end-of-burst flush
#: defers to a writer task, which awaits
#: :meth:`_SocketConnection.drain` — the transport's ``pause_writing`` /
#: ``resume_writing`` — so a slow consumer backs pressure up into the
#: bounded send queue instead of an unbounded transport buffer.
_INLINE_BUFFER_LIMIT = 1 << 16

#: Most frames joined into one ``write()``: a longer queue leaves in
#: several consecutive writes of this many (``TrafficStats.batches``
#: counts each).
_MAX_FRAMES_PER_WRITE = 64


@dataclass(frozen=True)
class BatchConfig:
    """Tuning knobs of the asyncio runtime (see docs/RUNTIME.md).

    Attributes
    ----------
    max_queue:
        Bound of the per-destination send queue, in messages; a message
        past it is dropped.
    retry_initial:
        First per-hop retry delay, seconds.
    retry_backoff:
        Multiplier applied to the delay after every failed attempt.
    retry_limit:
        Delivery attempts before the batch is dropped as undeliverable.
    retry_max_delay:
        Upper bound on one backoff delay, seconds.
    """

    max_queue: int = 1024
    retry_initial: float = 0.05
    retry_backoff: float = 2.0
    retry_limit: int = 5
    retry_max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")


class RetryPolicy:
    """Exponential backoff schedule for per-hop delivery retries.

    Pure arithmetic over an attempt counter — no clocks, no sockets —
    so tests can table the whole schedule.
    """

    def __init__(self, config: BatchConfig):
        self._initial = config.retry_initial
        self._backoff = config.retry_backoff
        self._limit = config.retry_limit
        self._max_delay = config.retry_max_delay

    def delay(self, attempt: int) -> Optional[float]:
        """Backoff before retry number *attempt* (1-based).

        Returns ``None`` once the attempt budget is exhausted — the
        caller must drop the batch as undeliverable.
        """
        if attempt >= self._limit:
            return None
        return min(
            self._initial * self._backoff ** (attempt - 1), self._max_delay
        )

    def schedule(self) -> List[float]:
        """The full backoff schedule (for documentation and tests)."""
        out = []
        for attempt in range(1, self._limit):
            delay = self.delay(attempt)
            assert delay is not None
            out.append(delay)
        return out


class SendQueue:
    """One destination's bounded outbound queue (sans-I/O).

    Holds :class:`Message` objects — encoding happens at flush time, in
    the codec the peer spoke last.
    """

    #: push() outcomes.
    QUEUED = "queued"
    OVERFLOW = "overflow"  # queue is full: the message is dropped

    def __init__(self, destination: str, config: BatchConfig):
        self.destination = destination
        self.config = config
        self._items: List[Message] = []
        #: Failed delivery attempts for the batch currently at the head.
        self.attempts = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, message: Message) -> str:
        """Append one message unless the queue is at its bound."""
        if len(self._items) >= self.config.max_queue:
            return self.OVERFLOW
        self._items.append(message)
        return self.QUEUED

    def pop_batch(self, max_messages: int = _MAX_FRAMES_PER_WRITE) -> List[Message]:
        """Remove and return up to *max_messages* messages from the head;
        the caller encodes them (:meth:`requeue_front` restores them
        verbatim on a failed write)."""
        taken = self._items[:max_messages]
        del self._items[:max_messages]
        return taken

    def requeue_front(self, items: List[Message]) -> None:
        """Put a failed batch back at the head, preserving FIFO order."""
        self._items[:0] = items

    def drain_all(self) -> List[Message]:
        """Empty the queue, returning the abandoned messages."""
        out = list(self._items)
        self._items.clear()
        self.attempts = 0
        return out


class EventLoopThread:
    """A dedicated thread running one asyncio event loop forever.

    The loop is the single point of serialization of whatever is put on
    it: connection handling, message dispatch and batched writes are all
    callbacks on it.  Application threads reach it through
    ``loop.call_soon_threadsafe`` or ``asyncio.run_coroutine_threadsafe``.
    Whoever creates one owns it: :meth:`stop` ends the thread, which
    closes the loop and with it every socket closed on the way out.
    """

    def __init__(self, name: str = "repro-aio-runtime"):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._main, name=name, daemon=True)
        self._thread.start()

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()
        # Run what shutdown scheduled, then close: cancelled tasks unwind,
        # and every transport closed on the way out gets its
        # connection_lost callback, which is what releases its socket —
        # with no task pending there would otherwise be no pass to run it.
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()

    def stop(self, timeout: float = 5.0) -> None:
        if self.loop.is_running():
            self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=timeout)


#: Size of a loop thread's receive buffer: the most one ``recv_into``
#: can return (a larger frame simply takes several reads).
_RECV_BUFFER_SIZE = 1 << 16

_loop_local = threading.local()


def _receive_view() -> memoryview:
    """The calling loop thread's receive buffer (created on first use).

    One buffer serves every connection a loop thread services: asyncio
    calls ``get_buffer`` and ``buffer_updated`` back to back on that
    thread, and :meth:`StreamDecoder.feed` decodes each frame where it
    landed and copies only an unfinished tail, so nothing outlives the
    callback that could be overwritten by the next connection's read.
    (A buffer per connection costs 64 KiB of touched memory each — 8 MiB
    at 64 instances, docs/PERF.md §8.)
    """
    view = getattr(_loop_local, "view", None)
    if view is None:
        view = _loop_local.view = memoryview(bytearray(_RECV_BUFFER_SIZE))
    return view


class _SocketConnection(asyncio.BufferedProtocol):
    """One socket on the loop, host or client side.

    The selector transport ``recv_into``s the loop thread's shared
    buffer and calls :meth:`buffer_updated`, which decodes and hands
    every completed message to the owning transport's ``_dispatch``
    inline — no intermediate ``bytes``, no reader task.  An exception
    out of the decoder or the endpoint handler makes asyncio log it
    (``asyncio`` logger, with traceback), close this connection only
    and report it through :meth:`connection_lost`.
    """

    def __init__(self, owner: Union[AioHostTransport, AioClientTransport]):
        self._owner = owner
        self.transport: Optional[asyncio.Transport] = None
        #: Set by the host from the first message the peer sends.
        self.peer_id: Optional[str] = None
        #: Codec of the peer's last frame, as last seen by the host.
        self.codec_name: Optional[str] = None
        self.decoder = StreamDecoder()
        # asyncio calls its protocol factories on the loop thread.
        self._view = _receive_view()
        self._write_paused = False
        self._drain_waiter: Optional[asyncio.Future] = None

    # Protocol callbacks (loop thread) ------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self._owner._connection_made(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view

    def buffer_updated(self, nbytes: int) -> None:
        try:
            messages = self.decoder.feed(self._view[:nbytes])
        except CodecError as exc:
            # The frames the read held ahead of the bad one are delivered
            # whatever way the stream was split; then the error closes
            # this connection like any other.
            if exc.decoded:
                self._owner._dispatch(self, exc.decoded)
            raise
        if messages:
            self._owner._dispatch(self, messages)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake_drain(None)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._wake_drain(ConnectionResetError("connection lost"))
        self._owner._connection_lost(self, exc)

    # Write-side flow control ---------------------------------------------

    async def drain(self) -> None:
        """Wait until the transport's write buffer is back under its
        high-water mark (``pause_writing`` .. ``resume_writing``).

        At most one task waits per connection: the destination's writer
        task.  Raises :class:`ConnectionResetError` when the connection
        is closing or goes away while waiting.
        """
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        if not self._write_paused:
            return
        self._drain_waiter = asyncio.get_running_loop().create_future()
        try:
            await self._drain_waiter
        finally:
            self._drain_waiter = None

    def _wake_drain(self, exc: Optional[Exception]) -> None:
        waiter = self._drain_waiter
        if waiter is None or waiter.done():
            return
        if exc is None:
            waiter.set_result(None)
        else:
            waiter.set_exception(exc)


class AioHostTransport(Transport):
    """The server's asyncio transport: one event loop, zero per-connection
    threads, one write per destination per loop burst.

    Parameters
    ----------
    handler:
        The bound endpoint's ``handle_message`` (a sans-I/O state
        machine).  Invoked only from the event-loop thread, serialized
        with application threads through :meth:`guard`.
    host / port:
        Listen address; port 0 picks a free port (see :attr:`address`).
    config:
        The :class:`BatchConfig` governing queue bounds and retry.
    loop:
        A running event loop to join (the
        :class:`~repro.server.runtime.AsyncServerRuntime` passes its
        own); ``None`` starts a private :class:`EventLoopThread`, which
        :meth:`close` stops.
    """

    def __init__(
        self,
        handler: MessageHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        local_id: str = "server",
        config: Optional[BatchConfig] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        codec: str = "json",
    ):
        self._local_id = local_id
        self._handler = handler
        self._codec: Codec = get_codec(codec)
        #: Per-peer codec negotiation: each peer is answered in the codec
        #: of its own frames (detected by its connection's StreamDecoder).
        self._peer_codecs: Dict[str, Codec] = {}
        self.config = config if config is not None else BatchConfig()
        self._retry = RetryPolicy(self.config)
        self._stats = TrafficStats()
        self._cond = threading.Condition(threading.RLock())
        self._closed = False

        #: Every accepted socket, identified or not (loop-thread only):
        #: what ``close()`` closes.
        self._accepted: Set[_SocketConnection] = set()
        #: The accepted connections that have sent a first message, by
        #: its sender id — the ones the endpoint can address.
        self._conns: Dict[str, _SocketConnection] = {}
        #: Connections that ended with an error rather than EOF: socket
        #: errors, undecodable frames, a raising endpoint handler.
        self.connection_errors = 0
        self._queues: Dict[str, SendQueue] = {}
        self._writer_tasks: Dict[str, asyncio.Task] = {}
        #: Destinations touched since the last inline flush, drained by
        #: one scheduled ``_flush_dirty`` per loop burst (loop-thread
        #: only).  Writer tasks are the fallback for the slow paths:
        #: missing connection, retry backoff, or a kernel write buffer
        #: past :data:`_INLINE_BUFFER_LIMIT`.
        self._dirty: set = set()
        self._flush_scheduled = False
        #: Identity of the loop thread, for a cheap "am I on the loop?"
        #: check on the send hot path (set from the loop at bootstrap).
        self._loop_tid: Optional[int] = None

        #: The loop thread this transport started and therefore stops
        #: (None when it joined a caller's loop).
        self._own_loop = EventLoopThread("aio-host-loop") if loop is None else None
        self._loop = loop if loop is not None else self._own_loop.loop

        async def _bootstrap() -> asyncio.AbstractServer:
            self._loop_tid = threading.get_ident()
            return await self._loop.create_server(
                lambda: _SocketConnection(self), host, port
            )

        try:
            self._server = asyncio.run_coroutine_threadsafe(
                _bootstrap(), self._loop
            ).result(timeout=10.0)
        except BaseException:
            if self._own_loop is not None:
                self._own_loop.stop()
            raise
        self.address = self._server.sockets[0].getsockname()

    # ------------------------------------------------------------------
    # Transport contract
    # ------------------------------------------------------------------

    @property
    def local_id(self) -> str:
        return self._local_id

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    @contextlib.contextmanager
    def guard(self) -> Iterator[None]:
        """Serialize application threads with event-loop dispatch."""
        with self._cond:
            yield

    def recv(self, message: Message) -> None:
        """Dispatch one inbound message into the endpoint handler."""
        with self._cond:
            if self._closed:
                return
            self._handler(message)
            self._cond.notify_all()

    def send(self, message: Message) -> None:
        """Queue *message* for its destination's next flush.

        Never blocks and never raises for an unreachable destination —
        delivery is attempted with per-hop retry and accounted in
        :attr:`stats` either way.  Encoding happens at flush time, where
        the whole batch is in hand (and the peer's answer codec is
        freshest).
        """
        if self._closed:
            raise TransportClosedError("aio host transport is closed")
        if self._on_loop():
            self._enqueue(message)
        else:
            self._loop.call_soon_threadsafe(self._enqueue, message)

    def drive(self, predicate: Callable[[], bool], timeout: float = 5.0) -> bool:
        """Wait (wall clock) until *predicate* is true; the condition is
        notified after every inbound dispatch."""
        end = _time.monotonic() + timeout
        with self._cond:
            while not predicate():
                remaining = end - _time.monotonic()
                if remaining <= 0:
                    return bool(predicate())
                self._cond.wait(remaining)
            return True

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True

        def _shutdown() -> None:
            for task in list(self._writer_tasks.values()):
                task.cancel()
            for conn in list(self._accepted):
                conn.transport.close()
            self._server.close()

        if self._loop.is_running():
            self._loop.call_soon_threadsafe(_shutdown)
        if self._own_loop is not None:
            self._own_loop.stop()

    # ------------------------------------------------------------------
    # Event-loop internals
    # ------------------------------------------------------------------

    def _on_loop(self) -> bool:
        return threading.get_ident() == self._loop_tid

    def _connection_made(self, conn: _SocketConnection) -> None:
        self._accepted.add(conn)
        if self._closed:
            conn.transport.close()

    def _dispatch(self, conn: _SocketConnection, messages: List[Message]) -> None:
        """Hand one read's worth of decoded messages to the endpoint.

        The whole chunk is dispatched under one guard acquisition: same
        serialization as per-message recv(), without paying the lock
        round-trip per message.
        """
        with self._cond:
            if self._closed:
                return
            if conn.peer_id is None:
                conn.peer_id = messages[0].sender
                self._conns[conn.peer_id] = conn
                self._kick_writer(conn.peer_id)
            if conn.decoder.last_codec != conn.codec_name:
                # Negotiation: answer the peer in its own codec.
                conn.codec_name = conn.decoder.last_codec
                self._peer_codecs[conn.peer_id] = get_codec(conn.codec_name)
            for message in messages:
                self._handler(message)
            self._cond.notify_all()

    def _connection_lost(
        self, conn: _SocketConnection, exc: Optional[Exception]
    ) -> None:
        self._accepted.discard(conn)
        if exc is not None:
            self.connection_errors += 1
            log_event(
                _log,
                logging.WARNING,
                "connection_error",
                peer=conn.peer_id,
                error=type(exc).__name__,
            )
        if conn.peer_id is not None and self._conns.get(conn.peer_id) is conn:
            del self._conns[conn.peer_id]
            self._peer_codecs.pop(conn.peer_id, None)
            log_event(_log, logging.DEBUG, "connection_closed", peer=conn.peer_id)

    def _enqueue(self, message: Message) -> None:
        """Loop-thread only: queue one message and poke the writer."""
        if self._closed:
            return
        dest = message.to
        queue = self._queues.get(dest)
        if queue is None:
            queue = SendQueue(dest, self.config)
            self._queues[dest] = queue
        if queue.push(message) == SendQueue.OVERFLOW:
            self._stats.record_drop(
                message, self._drop_size(dest, message), reason=DROP_BACKPRESSURE
            )
            log_event(
                _log,
                logging.WARNING,
                "send_queue_overflow",
                destination=dest,
                kind=message.kind,
            )
            return
        self._dirty.add(dest)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush_dirty)

    def _codec_for(self, dest: str) -> Codec:
        codec = self._peer_codecs.get(dest)
        return codec if codec is not None else self._codec

    def _drop_size(self, dest: str, message: Message) -> int:
        """Byte accounting for a message dropped before any write (cold
        path; the per-codec frame memo makes repeats cheap)."""
        return self._codec_for(dest).wire_size(message)

    def _flush_dirty(self) -> None:
        """End-of-burst inline flush (loop-thread only).

        ``_enqueue`` collects touched destinations and schedules one run
        of this per loop burst: every send the current handler burst
        produced is already queued by the time the callback fires, so
        each destination's accumulation is written with a plain
        non-blocking ``write()`` — no per-destination task spawn, no
        extra scheduler hops.  Destinations that need to wait (no
        connection yet, retry backoff in progress, a failed write or a
        swollen kernel write buffer) are handed to a writer task
        instead, which is where all sleeping happens.
        """
        self._flush_scheduled = False
        dirty, self._dirty = self._dirty, set()
        for dest in dirty:
            queue = self._queues.get(dest)
            if queue is None or not len(queue):
                continue
            conn = self._conns.get(dest)
            if conn is not None and not queue.attempts:
                self._write_queued(queue, conn)
            if len(queue):
                self._kick_writer(dest)  # what is left has to wait

    def _write_queued(self, queue: SendQueue, conn: _SocketConnection) -> bool:
        """The one host write routine (loop-thread only): move *queue* to
        *conn*, at most :data:`_MAX_FRAMES_PER_WRITE` frames per
        ``write()``, until it is empty or the transport's write buffer is
        past :data:`_INLINE_BUFFER_LIMIT`.

        Never waits.  Returns False when a write failed — the batch is
        back at the head of the queue and the caller owes a backoff.
        """
        written = True
        dest = queue.destination
        codec = self._codec_for(dest)
        while (
            len(queue)
            and conn.transport.get_write_buffer_size() <= _INLINE_BUFFER_LIMIT
        ):
            items = queue.pop_batch()
            frames = [codec.encode(message) for message in items]
            try:
                conn.transport.write(b"".join(frames))
            except (ConnectionError, OSError) as exc:
                # The write may have partially left: retrying can
                # duplicate delivery, which idempotent msg ids make safe.
                queue.requeue_front(items)
                log_event(
                    _log,
                    logging.INFO,
                    "write_failed",
                    destination=dest,
                    batch=len(items),
                    error=type(exc).__name__,
                )
                written = False
                break
            queue.attempts = 0
            for message, frame in zip(items, frames):
                self._stats.record(message, len(frame), dest)
            self._stats.record_batch(len(items))
        return written

    def _kick_writer(self, dest: str) -> None:
        """Ensure a writer task is draining *dest*'s queue."""
        task = self._writer_tasks.get(dest)
        if task is not None and not task.done():
            return
        queue = self._queues.get(dest)
        if queue is None or not len(queue):
            return
        self._writer_tasks[dest] = self._loop.create_task(
            self._writer_loop(dest, queue)
        )

    async def _writer_loop(self, dest: str, queue: SendQueue) -> None:
        """Drain one destination's queue through everything that has to
        sleep: no connection yet, retry backoff, a swollen write buffer.

        The task exits when the queue empties; the next enqueue spawns a
        fresh one.  ``await conn.drain()`` propagates the kernel's TCP
        backpressure up into the queue bound.
        """
        try:
            while len(queue) and not self._closed:
                # Yield once so the handler burst that is currently
                # running can finish filling the queue.
                await asyncio.sleep(0)
                conn = self._conns.get(dest)
                written = False
                if conn is not None:
                    # drain() raises when the connection is going away.
                    with contextlib.suppress(ConnectionError, OSError):
                        await conn.drain()
                        written = self._write_queued(queue, conn)
                if not written:
                    await self._backoff_or_drop(queue)
        except asyncio.CancelledError:
            pass
        finally:
            self._writer_tasks.pop(dest, None)
            # A race window: messages enqueued after the final emptiness
            # check but before the pop above would strand; re-kick.
            if not self._closed and len(queue):
                self._kick_writer(dest)

    async def _backoff_or_drop(self, queue: SendQueue) -> None:
        """Handle one failed delivery attempt for *queue*'s head batch:
        sleep out the next backoff, or drop the whole queue once the
        attempt budget is exhausted."""
        queue.attempts += 1
        delay = self._retry.delay(queue.attempts)
        if delay is None:
            dropped = 0
            for message in queue.drain_all():
                self._stats.record_drop(
                    message,
                    self._drop_size(queue.destination, message),
                    reason=DROP_UNDELIVERABLE,
                )
                dropped += 1
            log_event(
                _log,
                logging.WARNING,
                "batch_undeliverable",
                destination=queue.destination,
                dropped=dropped,
                attempts=queue.attempts,
            )
            return
        self._stats.record_retry()
        log_event(
            _log,
            logging.DEBUG,
            "delivery_retry",
            destination=queue.destination,
            attempt=queue.attempts,
            delay=delay,
        )
        await asyncio.sleep(delay)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def connections(self) -> Tuple[str, ...]:
        """Peer ids with a live connection (loop-thread consistent view)."""
        return tuple(self._conns)

    def pending(self, destination: str) -> int:
        """Messages queued but not yet written for *destination*."""
        queue = self._queues.get(destination)
        return len(queue) if queue is not None else 0


class AioClientTransport(TcpTransportBase):
    """An application instance's server connection, serviced by a shared
    event loop.

    The thread-per-connection client (:class:`~repro.net.tcp.TcpClientTransport`)
    costs one reader thread per instance; a 64-instance in-process
    deployment therefore runs 64 reader threads beside the host's.  This
    client instead parks its connection on an event loop — normally the
    :class:`~repro.server.runtime.AsyncServerRuntime`'s own, so one
    thread services every connection of the whole deployment.

    The serialization contract is unchanged: the endpoint handler runs
    under the transport condition (:meth:`TcpTransportBase.recv` shape),
    application threads synchronize through ``guard``/``drive``, and the
    wire format is the shared length-prefixed codec.  :meth:`send` may be
    called from any thread, including the loop thread itself (a handler
    answering a broadcast): frames are always queued on the loop and
    written there in queueing order, never inline from the caller.

    Must be constructed from outside the loop thread (the constructor
    blocks on the connection being established).
    """

    def __init__(
        self,
        local_id: str,
        handler: MessageHandler,
        host: str,
        port: int,
        *,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        connect_timeout: float = 5.0,
        codec: str = "json",
    ):
        super().__init__(local_id, handler, codec=codec)
        #: The loop thread this transport started and therefore stops
        #: (None when it joined a caller's loop).
        self._own_loop = (
            EventLoopThread(f"aio-client-{local_id}") if loop is None else None
        )
        self._loop = loop if loop is not None else self._own_loop.loop

        # asyncio sets TCP_NODELAY on every socket transport it creates.
        async def _bootstrap() -> _SocketConnection:
            self._loop_tid = threading.get_ident()
            _, conn = await self._loop.create_connection(
                lambda: _SocketConnection(self), host, port
            )
            return conn

        try:
            self._conn = asyncio.run_coroutine_threadsafe(
                _bootstrap(), self._loop
            ).result(connect_timeout)
        except BaseException:
            if self._own_loop is not None:
                self._own_loop.stop()
            raise

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosedError(
                f"client transport {self._local_id!r} is closed"
            )
        frame = self._codec.encode(message)
        # A handler answering on the loop thread (EVENT_ACK, STATE_REPLY,
        # COMMAND_REPLY) needs no self-pipe wake-up: the loop is awake, it
        # is running us.  Both calls append to the same ready queue, so
        # the frame keeps its place behind whatever an application thread
        # queued earlier; writing inline would overtake those frames.
        schedule = (
            self._loop.call_soon
            if threading.get_ident() == self._loop_tid
            else self._loop.call_soon_threadsafe
        )
        try:
            schedule(self._write_frame, frame)
        except RuntimeError as exc:  # loop shut down underneath us
            raise DeliveryError(f"send to server failed: {exc}") from exc
        self.stats.record(message, len(frame), "server")

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()

        if self._loop.is_running():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._conn.transport.close)
        if self._own_loop is not None:
            self._own_loop.stop()

    # Loop internals ----------------------------------------------------

    def _write_frame(self, frame: bytes) -> None:
        if self._closed:
            return
        with contextlib.suppress(ConnectionError, OSError):
            self._conn.transport.write(frame)

    def _connection_made(self, conn: _SocketConnection) -> None:
        """Nothing to register: the constructor is handed the connection."""

    def _dispatch(self, conn: _SocketConnection, messages: List[Message]) -> None:
        # One guard acquisition per chunk (same dispatch shape as the
        # host side): the instance handler never sees concurrent calls,
        # and application threads waiting in ``drive`` wake once per
        # burst.
        with self._cond:
            if self._closed:
                return
            for message in messages:
                self._handler(message)
            self._cond.notify_all()

    def _connection_lost(
        self, conn: _SocketConnection, exc: Optional[Exception]
    ) -> None:
        if exc is not None and not self._closed:
            log_event(
                _log,
                logging.WARNING,
                "client_connection_lost",
                local_id=self._local_id,
                error=type(exc).__name__,
            )
        with self._cond:
            self._cond.notify_all()
