"""Socket transports on one owned event loop: end-of-pass flush, bounded
queues.

This module replaces the blocking thread-per-connection TCP loop on the
*server* side with one thread that services every socket of the
deployment: an :class:`EventLoop`, a :class:`selectors.DefaultSelector`
this module owns.  It speaks the same length-prefixed codec
(:mod:`repro.net.codec`) — a flush is several per-message frames
concatenated into one ``send``, which any client's
:class:`~repro.net.codec.StreamDecoder` already handles, so the host is
wire-compatible and protocol-transparent: any endpoint with the
``handle_message`` / ``bind`` contract (:class:`CosoftServer`,
:class:`ShardedCosoftCluster`, a shard worker's ``ShardEndpoint``) runs
behind it unchanged, and the plain
:class:`~repro.net.tcp.TcpClientTransport` interoperates freely.
:class:`AioHostTransport` is built like the thread-per-connection host —
handler, address, options — and starts and stops its own loop thread.
:class:`AioClientTransport` is the loop-serviced client counterpart: any
number of instances share one loop (in a session, the host's
:attr:`~AioHostTransport.loop`) instead of running a reader thread each.

Both sides put every socket on the loop as one :class:`_Connection`: a
raw non-blocking socket whose selector key carries its read handler.
The handler ``recv_into``s the receive buffer the whole loop shares,
decodes and dispatches inline — no ``bytes`` per read, no reader task,
no second trip through a ready queue.  Dispatch takes the transport's
lock once per read and wakes only threads that wait: the client
notifies its condition only while a thread is in ``drive``, and the
host, which has no ``drive``, never does.

One **pass** of the loop polls the selector, runs the handler of every
ready socket, runs the callbacks queued so far, and then writes: every
host destination queued in the pass and every client outbox, one
``send`` each, after every handler of the pass.  Two disciplines are
layered on the outbound path (docs/RUNTIME.md):

**One flush rule, on both sides.**  Outbound messages queue *per
destination* and leave when the pass ends: everything the handlers of a
pass produced for one destination goes out in one ``send``, adding no
latency.  On the host the queue is the destination's list of messages
(at most :data:`_MAX_FRAMES_PER_WRITE` frames per write); on a client
it is the outbox, which a loop-thread send (an ack) joins.  An
application thread writes its own frame to the socket, under the
client's write lock, when nothing is queued ahead of it; otherwise it
queues the frame behind the outbox and has the loop write it, so frames
leave in sending order.  :meth:`AioClientTransport.close` writes the
outbox before the socket closes.  Nothing waits for a timer
(docs/PERF.md §12).  What the kernel does not take waits in the
connection's own buffer until the socket is writable again; a host
destination writes no further frame until that buffer is empty.

**Bounded queues** (host).  Every destination has a bounded send queue
(``max_queue`` messages).  A slow consumer overflows it, and the
overflowing message is dropped, counted under
``TrafficStats.drops_by_reason["backpressure"]``: one more source of
loss, with the consequences docs/RUNTIME.md's fault table lists.

A host message can only travel on its destination's one connection, and
TCP already retransmits on a live one.  So a message for a destination
with no live connection is dropped when the pass ends, counted under
``drops_by_reason["undeliverable"]``; a write that fails closes that
connection like a failed read, and a connection lost while the host is
open drops what was queued for it the same way.
"""

from __future__ import annotations

import collections
import contextlib
import logging
import selectors
import socket
import threading
from typing import (
    Any,
    Callable,
    Deque,
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
from repro.obs.log import format_event, get_logger, log_event
from repro.net.tcp import TcpTransportBase, connect
from repro.net.transport import (
    DROP_BACKPRESSURE,
    DROP_UNDELIVERABLE,
    MessageHandler,
    TrafficStats,
    Transport,
)

_log = get_logger("net.aio")

#: Most frames joined into one ``send``: a longer queue leaves in
#: several consecutive writes of this many (``TrafficStats.batches``
#: counts each).
_MAX_FRAMES_PER_WRITE = 64

#: Size of a loop's receive buffer: the most one ``recv_into`` can
#: return (a larger frame simply takes several reads).
_RECV_BUFFER_SIZE = 1 << 16

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class EventLoop:
    """One thread and one selector: every socket of a deployment.

    The loop is the single point of serialization of whatever is put on
    it: accepting, reading, dispatching and writing are all handlers and
    callbacks run by its thread, one :meth:`_run_once` pass at a time.
    Other threads reach it only through :meth:`call_soon_threadsafe`,
    which queues the callback and wakes the loop with one byte on its
    self-pipe.  Whoever creates one owns it: :meth:`stop` runs what was
    queued before it, ends the thread and closes every socket still on
    the selector, the self-pipe and the selector itself.
    """

    def __init__(self, name: str):
        self.selector = selectors.DefaultSelector()
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_reader.setblocking(False)
        self._wake_writer.setblocking(False)
        self.selector.register(self._wake_reader, _READ, self._drain_wakeups)
        #: The receive buffer every socket of this loop reads into.  One
        #: serves them all: a read handler decodes what it received
        #: before it returns, and :meth:`StreamDecoder.feed` copies only
        #: an unfinished tail, so nothing outlives the handler that the
        #: next socket's read could overwrite.  (A buffer per connection
        #: costs 64 KiB of touched memory each — 8 MiB at 64 instances,
        #: docs/PERF.md §8.)
        self.view = memoryview(bytearray(_RECV_BUFFER_SIZE))
        #: ``(callback, args)`` queued by any thread, run in order.
        self._callbacks: Deque[Tuple[Callable[..., Any], tuple]] = (
            collections.deque()
        )
        #: Writers that run when the current pass ends (loop thread).
        self._writers: List[Callable[[], None]] = []
        self._stopping = False
        self._closed = False
        #: The loop thread's id: a transport compares it with the
        #: caller's to tell a handler's send from an application thread's.
        self.thread_id: Optional[int] = None
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.thread.start()
        self.thread_id = self.thread.ident

    # Any thread ----------------------------------------------------------

    def call_soon_threadsafe(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` on the loop thread, after what is
        queued already; raises :class:`RuntimeError` once the loop is
        closed."""
        if self._closed:
            raise RuntimeError("event loop is closed")
        self._callbacks.append((callback, args))
        if threading.get_ident() != self.thread_id:
            self._write_to_self()

    def stop(self, timeout: float = 5.0) -> None:
        """End the loop after every callback queued so far and wait for
        its thread (which closes what is left on the selector); on the
        loop thread itself, only queue the end."""
        with contextlib.suppress(RuntimeError):
            self.call_soon_threadsafe(self._stop)
        if threading.get_ident() != self.thread_id:
            self.thread.join(timeout=timeout)

    # Loop thread -----------------------------------------------------------

    def at_end_of_pass(self, writer: Callable[[], None]) -> None:
        """Run *writer* when the current pass ends, after every handler
        and callback of the pass."""
        self._writers.append(writer)

    def _write_to_self(self) -> None:
        with contextlib.suppress(OSError):  # full: a wake-up is pending
            self._wake_writer.send(b"\0")

    def _drain_wakeups(self, mask: int) -> None:
        with contextlib.suppress(OSError):
            while self._wake_reader.recv(4096):
                pass

    def _stop(self) -> None:
        self._stopping = True

    def _run(self) -> None:
        try:
            while not self._stopping:
                self._run_once()
        finally:
            self._closed = True
            for key in list(self.selector.get_map().values()):
                key.fileobj.close()
            self.selector.close()
            self._wake_writer.close()

    def _run_once(self) -> None:
        """One pass: poll (without waiting when callbacks are queued);
        run every ready socket's handler; run the callbacks queued so
        far; run the end-of-pass writers.  A failing handler or callback
        is logged (``callback_failed``, ERROR, with its traceback) and
        the loop goes on."""
        callbacks = self._callbacks
        for key, mask in self.selector.select(0 if callbacks else None):
            try:
                key.data(mask)
            except Exception:
                self._report(key.data)
        for _ in range(len(callbacks)):
            callback, args = callbacks.popleft()
            try:
                callback(*args)
            except Exception:
                self._report(callback)
        writers = self._writers
        if writers:
            for writer in writers:
                try:
                    writer()
                except Exception:
                    self._report(writer)
            writers.clear()

    @staticmethod
    def _report(callback: Callable[..., Any]) -> None:
        _log.error(
            "%s",
            format_event(
                "callback_failed",
                callback=getattr(callback, "__qualname__", callback),
            ),
            exc_info=True,
        )


class _Connection:
    """One socket on an :class:`EventLoop`, host or client side.

    :meth:`on_ready` is the socket's selector handler: it ``recv_into``s
    the loop's shared buffer, feeds the connection's own decoder and
    hands every completed message to the owning transport's
    ``_dispatch`` — no intermediate ``bytes``, no reader task.  An
    exception out of the decoder or the endpoint handler is logged
    (``read_failed``, ERROR, with its traceback on the ``repro.net.aio``
    logger) and closes this connection only; a socket error or EOF
    closes it without that record.  Either way the owner hears of it
    once, through ``_connection_lost``.
    """

    def __init__(
        self,
        owner: Union[AioHostTransport, AioClientTransport],
        sock: socket.socket,
        loop: EventLoop,
    ):
        self._owner = owner
        self._dispatch = owner._dispatch
        self.sock = sock
        self._selector = loop.selector
        self._view = loop.view
        #: Set by the host from the first message the peer sends.
        self.peer_id: Optional[str] = None
        #: Codec of the peer's last frame, as last seen by the host.
        self.codec_name: Optional[str] = None
        self.decoder = StreamDecoder()
        #: Bytes the kernel did not take yet, oldest first; sent when the
        #: socket is writable again (loop thread only: a client's
        #: application thread just tests it, under its write lock).
        self.unsent = bytearray()
        self.closed = False

    def start(self) -> None:
        """Put the socket on the loop (loop thread)."""
        self._selector.register(self.sock, _READ, self.on_ready)

    def on_ready(self, mask: int) -> None:
        """The selector handler: send what waits if the socket is
        writable, then read once, decode and dispatch."""
        if mask & _WRITE:
            self.write_unsent()
            if not mask & _READ or self.closed:
                return
        view = self._view
        try:
            nbytes = self.sock.recv_into(view)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self.close(exc)
            return
        if not nbytes:
            self.close()
            return
        try:
            try:
                messages = self.decoder.feed(view[:nbytes])
            except CodecError as exc:
                # The frames the read held ahead of the bad one are
                # delivered whatever way the stream was split; then the
                # error closes this connection like any other.
                if exc.decoded:
                    self._dispatch(self, exc.decoded)
                raise
            if messages:
                self._dispatch(self, messages)
        except Exception as exc:
            _log.error(
                "%s",
                format_event(
                    "read_failed", peer=self.peer_id, error=type(exc).__name__
                ),
                exc_info=True,
            )
            self.close(exc)

    def write(self, data: bytes) -> None:
        """Send *data* behind whatever waits (loop thread).  What the
        kernel does not take waits in :attr:`unsent`, and the selector
        watches the socket for writability until it is sent.  Raises
        :class:`OSError` when the socket has failed."""
        if not self.unsent:
            try:
                sent = self.sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
            self._selector.modify(self.sock, _READ | _WRITE, self.on_ready)
        self.unsent += data

    def write_unsent(self) -> None:
        """The socket is writable: send what waits; once it is all sent,
        stop watching and tell the owner (``_drained``)."""
        try:
            sent = self.sock.send(self.unsent)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self.close(exc)
            return
        del self.unsent[:sent]
        if not self.unsent:
            self._selector.modify(self.sock, _READ, self.on_ready)
            self._owner._drained(self)

    def close(self, exc: Optional[BaseException] = None) -> None:
        """Take the socket off the loop, tell the owner, then close it
        (loop thread; a second call does nothing)."""
        if self.closed:
            return
        self.closed = True
        with contextlib.suppress(KeyError, ValueError):
            self._selector.unregister(self.sock)
        self._owner._connection_lost(self, exc)
        self.sock.close()


class AioHostTransport(Transport):
    """The server's loop-serviced transport: one event loop, zero
    per-connection threads, one write per destination per loop pass.

    Parameters
    ----------
    handler:
        The bound endpoint's ``handle_message`` (a sans-I/O state
        machine).  Invoked only from the loop thread, serialized with
        application threads through :meth:`guard`.
    host / port:
        Listen address; port 0 picks a free port (see :attr:`address`).
    max_queue:
        Bound of each destination's send queue, in messages; a message
        past it is dropped (``backpressure``).
    loop:
        A running :class:`EventLoop` to join; ``None`` (what a session
        and a shard worker pass) starts a private one, which
        :meth:`close` stops.  Either way :attr:`loop` is the loop the
        connections run on, for clients to join.

    The host logs ``runtime_started`` (``host``, ``port`` and the
    ``endpoint`` type the handler belongs to) once it listens, and
    ``runtime_stopped`` (the ``connections`` it dropped) at close.
    """

    def __init__(
        self,
        handler: MessageHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_queue: int = 1024,
        loop: Optional[EventLoop] = None,
        codec: str = "json",
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = max_queue
        self._handler = handler
        self._codec: Codec = get_codec(codec)
        #: Per-peer codec negotiation: each peer is answered in the codec
        #: of its own frames (detected by its connection's StreamDecoder).
        self._peer_codecs: Dict[str, Codec] = {}
        self._stats = TrafficStats()
        #: Serializes application threads with dispatch.  A plain lock: no
        #: thread waits on the host (it has no ``drive``), so dispatch
        #: has nobody to notify.
        self._lock = threading.RLock()
        self._closed = False

        #: Every accepted socket, identified or not (loop-thread only):
        #: what ``close()`` closes.
        self._accepted: Set[_Connection] = set()
        #: The accepted connections that have sent a first message, by
        #: its sender id — the ones the endpoint can address.
        self._conns: Dict[str, _Connection] = {}
        #: Connections that ended with an error rather than EOF: socket
        #: errors, undecodable frames, a raising endpoint handler.
        self.connection_errors = 0
        #: Each destination's queued messages, oldest first (loop-thread
        #: only).
        self._queues: Dict[str, List[Message]] = {}
        #: Destinations queued to since the last flush (loop-thread
        #: only), written by ``_flush_dirty`` when the pass ends.
        self._dirty: Set[str] = set()
        #: ``_flush_dirty`` is on the loop's end-of-pass list.
        self._flush_scheduled = False

        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()
        #: The loop this transport started and therefore stops (None
        #: when it joined a caller's loop).
        self._own_loop = EventLoop("aio-host-loop") if loop is None else None
        self._loop = loop if loop is not None else self._own_loop
        self._loop_tid = self._loop.thread_id
        try:
            self._loop.call_soon_threadsafe(
                self._loop.selector.register, self._listener, _READ, self._accept
            )
        except RuntimeError:
            self._listener.close()
            raise
        log_event(
            _log,
            logging.INFO,
            "runtime_started",
            host=self.address[0],
            port=self.address[1],
            endpoint=type(getattr(handler, "__self__", handler)).__name__,
        )

    # ------------------------------------------------------------------
    # Transport contract
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    @property
    def loop(self) -> EventLoop:
        """The event loop this host runs on (clients may join it)."""
        return self._loop

    @contextlib.contextmanager
    def guard(self) -> Iterator[None]:
        """Serialize application threads with loop-thread dispatch."""
        with self._lock:
            yield

    def send(self, message: Message) -> None:
        """Queue *message* for its destination's next flush.

        Never blocks and never raises for an unreachable destination: a
        message that cannot be written is dropped and counted in
        :attr:`stats`.  Encoding happens at flush time, where
        the whole batch is in hand (and the peer's answer codec is
        freshest).
        """
        if self._closed:
            raise TransportClosedError("aio host transport is closed")
        if threading.get_ident() == self._loop_tid:
            self._enqueue(message)
        else:
            self._loop.call_soon_threadsafe(self._enqueue, message)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = len(self._conns)
        with contextlib.suppress(RuntimeError):  # the loop is gone already
            self._loop.call_soon_threadsafe(self._shutdown)
        if self._own_loop is not None:
            self._own_loop.stop()
        log_event(_log, logging.INFO, "runtime_stopped", connections=connections)

    # ------------------------------------------------------------------
    # Loop internals
    # ------------------------------------------------------------------

    def _shutdown(self) -> None:
        for conn in list(self._accepted):
            conn.close()
        with contextlib.suppress(KeyError, ValueError):
            self._loop.selector.unregister(self._listener)
        self._listener.close()

    def _accept(self, mask: int) -> None:
        """The listener's selector handler: take every pending connection."""
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                log_event(
                    _log, logging.WARNING, "accept_failed", error=type(exc).__name__
                )
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(self, sock, self._loop)
            conn.start()
            self._accepted.add(conn)
            if self._closed:
                conn.close()

    def _dispatch(self, conn: _Connection, messages: List[Message]) -> None:
        """Hand one read's worth of decoded messages to the endpoint.

        The whole chunk is dispatched under one guard acquisition: same
        serialization as per-message recv(), without paying the lock
        round-trip per message.  What the handlers send is written when
        the pass ends, together with what the pass's other reads send.
        """
        with self._lock:
            if self._closed:
                return
            if conn.peer_id is None:
                conn.peer_id = messages[0].sender
                self._conns[conn.peer_id] = conn
            if conn.decoder.last_codec != conn.codec_name:
                # Negotiation: answer the peer in its own codec.
                conn.codec_name = conn.decoder.last_codec
                self._peer_codecs[conn.peer_id] = get_codec(conn.codec_name)
            for message in messages:
                self._handler(message)

    def _connection_lost(
        self, conn: _Connection, exc: Optional[BaseException]
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
            self._drop_queue(conn.peer_id)
            self._peer_codecs.pop(conn.peer_id, None)
            log_event(_log, logging.DEBUG, "connection_closed", peer=conn.peer_id)

    def _enqueue(self, message: Message) -> None:
        """Loop-thread only: queue one message for the end of the pass."""
        if self._closed:
            return
        dest = message.to
        queue = self._queues.get(dest)
        if queue is None:
            queue = self._queues[dest] = []
        if len(queue) >= self.max_queue:
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
        queue.append(message)
        self._dirty.add(dest)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.at_end_of_pass(self._flush_dirty)

    def _drop_size(self, dest: str, message: Message) -> int:
        """Byte accounting for a message dropped before any write (cold
        path; the per-codec frame memo makes repeats cheap)."""
        return self._peer_codecs.get(dest, self._codec).wire_size(message)

    def _flush_dirty(self) -> None:
        """End of pass: write every destination queued to in it
        (loop-thread only).

        Every send of the pass is queued by now, so each destination's
        accumulation leaves in one write.  A destination with no live
        connection has its queue dropped; one whose connection still
        holds unsent bytes waits for ``_drained``.
        """
        self._flush_scheduled = False
        dirty, self._dirty = self._dirty, set()
        for dest in dirty:
            conn = self._conns.get(dest)
            if conn is None:
                self._drop_queue(dest)
            else:
                self._write_queued(dest, conn)

    def _write_queued(self, dest: str, conn: _Connection) -> None:
        """The one host write routine (loop-thread only): move *dest*'s
        queue to *conn*, at most :data:`_MAX_FRAMES_PER_WRITE` frames per
        ``send``, until it is empty or the kernel leaves bytes unsent
        (the rest waits for ``_drained``).  Never waits.  A write that
        fails closes *conn*, which drops what is still queued."""
        queue = self._queues.get(dest)
        codec = self._peer_codecs.get(dest, self._codec)
        while queue and not conn.unsent:
            items = queue[:_MAX_FRAMES_PER_WRITE]
            if len(items) == 1:
                frames = (codec.encode(items[0]),)
                data = frames[0]
            else:
                frames = [codec.encode(message) for message in items]
                data = b"".join(frames)
            try:
                conn.write(data)
            except OSError as exc:
                conn.close(exc)
                return
            del queue[: len(items)]
            for message, frame in zip(items, frames):
                self._stats.record(message, len(frame), dest)
            self._stats.record_batch(len(items))

    def _drained(self, conn: _Connection) -> None:
        """*conn* sent everything the kernel had refused: write on."""
        self._write_queued(conn.peer_id, conn)

    def _drop_queue(self, dest: str) -> None:
        """Drop everything queued for *dest*, which has no live
        connection, as ``undeliverable``: one ``batch_undeliverable``
        record.  A closed host's queues go with it, uncounted."""
        queue = self._queues.pop(dest, None)
        if not queue or self._closed:
            return
        for message in queue:
            self._stats.record_drop(
                message, self._drop_size(dest, message), reason=DROP_UNDELIVERABLE
            )
        log_event(
            _log,
            logging.WARNING,
            "batch_undeliverable",
            destination=dest,
            dropped=len(queue),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def connections(self) -> Tuple[str, ...]:
        """Peer ids with a live connection (loop-thread consistent view)."""
        return tuple(self._conns)

    def pending(self, destination: str) -> int:
        """Messages queued but not yet written for *destination*."""
        return len(self._queues.get(destination, ()))


class AioClientTransport(TcpTransportBase):
    """An application instance's server connection, serviced by a shared
    event loop.

    The thread-per-connection client (:class:`~repro.net.tcp.TcpClientTransport`)
    costs one reader thread per instance; a 64-instance in-process
    deployment therefore runs 64 reader threads beside the host's.  This
    client instead parks its connection on an :class:`EventLoop` — in a
    session, the :class:`AioHostTransport`'s own
    (:attr:`AioHostTransport.loop`), so one thread services every
    connection of the whole deployment.

    The serialization contract is unchanged: the endpoint handler runs
    under the transport lock (:meth:`TcpTransportBase.recv` shape),
    application threads synchronize through ``guard``/``drive``, and the
    wire format is the shared length-prefixed codec.  :meth:`send` may be
    called from any thread, including the loop thread itself (a handler
    answering a broadcast).  A loop-thread send appends to the outbox,
    written in one ``send`` when the pass ends.  An application thread's
    send writes the socket itself when the outbox is empty and the
    connection holds no unsent bytes, and otherwise queues behind them;
    either way frames leave in sending order, and the loop is not woken
    to write a frame the sender could write.

    Must be constructed from outside the loop thread.
    """

    def __init__(
        self,
        local_id: str,
        handler: MessageHandler,
        host: str,
        port: int,
        *,
        loop: Optional[EventLoop] = None,
        connect_timeout: float = 5.0,
        codec: str = "json",
    ):
        super().__init__(local_id, handler, codec=codec)
        #: Encoded frames not yet written, oldest first.  The loop thread
        #: appends and empties it; an application thread appends, or puts
        #: a partly sent frame's rest at its head, under ``_write_lock``.
        self._outbox: List[bytes] = []
        #: ``_write_outbox`` is on the loop's end-of-pass list.
        self._in_burst = False
        #: Serializes an application thread's own ``send`` with
        #: :meth:`_write_outbox` and ``_connection_lost``'s release of
        #: ``_sock``.  ``_Connection.write_unsent`` runs without it: it
        #: only sends while bytes are unsent, and then no application
        #: thread writes.
        self._write_lock = threading.Lock()
        #: How long :meth:`close` waits for a private loop's last bytes.
        self._close_timeout = connect_timeout
        #: Set once the connection is closed (``_connection_lost``).
        self._conn_lost = threading.Event()
        sock = connect(host, port, connect_timeout)
        sock.setblocking(False)
        #: The socket an application thread writes to itself (None once
        #: the connection is closing; written under ``_write_lock``).
        self._sock: Optional[socket.socket] = sock
        #: The loop this transport started and therefore stops (None
        #: when it joined a caller's loop).
        self._own_loop = (
            EventLoop(f"aio-client-{local_id}") if loop is None else None
        )
        self._loop = loop if loop is not None else self._own_loop
        self._loop_tid = self._loop.thread_id
        self._conn = _Connection(self, sock, self._loop)
        try:
            self._loop.call_soon_threadsafe(self._conn.start)
        except RuntimeError:
            sock.close()
            raise

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosedError(
                f"client transport {self._local_id!r} is closed"
            )
        frame = self._codec.encode(message)
        if threading.get_ident() == self._loop_tid:
            # A handler answering on the loop thread (EVENT_ACK,
            # STATE_REPLY, COMMAND_REPLY): the frame leaves when the pass
            # ends, after every apply of the pass, in this client's one
            # write.
            self._outbox.append(frame)
            if not self._in_burst:
                self._in_burst = True
                self._loop.at_end_of_pass(self._write_outbox)
        else:
            self._send_now(frame)
        self._stats.record(message, len(frame), "server")

    def _send_now(self, frame: bytes) -> None:
        """Application thread: write *frame* to the socket from this
        thread when nothing is queued ahead of it, else queue it behind
        what is and have the loop write the outbox."""
        with self._write_lock:
            sock = self._sock
            if self._outbox or sock is None or self._conn.unsent:
                self._outbox.append(frame)
            else:
                try:
                    sent = sock.send(frame)
                except (BlockingIOError, InterruptedError):
                    sent = 0
                except OSError:
                    # A dead connection drops the frame; the read side
                    # reports it.
                    return
                if sent == len(frame):
                    return
                # The rest leaves ahead of any loop-thread reply queued
                # meanwhile.
                self._outbox.insert(0, frame[sent:])
        try:
            self._loop.call_soon_threadsafe(self._write_outbox)
        except RuntimeError as exc:  # loop shut down underneath us
            raise DeliveryError(f"send to server failed: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        try:
            self._loop.call_soon_threadsafe(self._close_on_loop)
        except RuntimeError:  # the loop is gone already
            pass
        else:
            if self._own_loop is not None and threading.get_ident() != self._loop_tid:
                # A private loop closes every socket when it stops: let
                # what the kernel had not taken leave first (bounded).
                self._conn_lost.wait(self._close_timeout)
        if self._own_loop is not None:
            self._own_loop.stop()

    # Loop internals ----------------------------------------------------

    def _write_outbox(self) -> None:
        """Write every frame queued so far in one ``send``."""
        self._in_burst = False
        with self._write_lock:
            frames, self._outbox = self._outbox, []
            if frames and self._sock is not None:
                try:
                    self._conn.write(
                        frames[0] if len(frames) == 1 else b"".join(frames)
                    )
                except OSError:
                    pass  # a dead connection drops them; the read side reports it

    def _close_on_loop(self) -> None:
        """Close the socket after writing what was sent before
        :meth:`close` (an ``UNREGISTER``, say); what the kernel has not
        taken yet is sent first (``_drained``)."""
        self._write_outbox()
        with self._write_lock:
            self._sock = None
        if not self._conn.unsent:
            self._conn.close()

    def _drained(self, conn: _Connection) -> None:
        if self._sock is None:
            conn.close()  # closing: the last bytes are out

    def _dispatch(self, conn: _Connection, messages: List[Message]) -> None:
        # One lock acquisition per chunk (same dispatch shape as the host
        # side): the instance handler never sees concurrent calls, and an
        # application thread waiting in ``drive`` wakes once per read —
        # the condition is notified only while one waits.
        with self._lock:
            if self._closed:
                return
            for message in messages:
                self._handler(message)
            if self._waiters:
                self._cond.notify_all()

    def _connection_lost(
        self, conn: _Connection, exc: Optional[BaseException]
    ) -> None:
        # The socket closes right after this returns: from here on a
        # send goes through the outbox, which is dropped.
        with self._write_lock:
            self._sock = None
        self._conn_lost.set()
        if exc is not None and not self._closed:
            log_event(
                _log,
                logging.WARNING,
                "client_connection_lost",
                local_id=self._local_id,
                error=type(exc).__name__,
            )
        with self._lock:
            self._cond.notify_all()
