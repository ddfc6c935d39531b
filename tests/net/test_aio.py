"""Tests for the asyncio host transport: flush, backpressure, retry.

The sans-I/O cores (:class:`SendQueue`, :class:`RetryPolicy`) are driven
directly; the socket-level tests run a real
:class:`AioHostTransport` against the plain :class:`TcpClientTransport`,
and :class:`AioClientTransport` against that host.
"""

import ast
import asyncio
import concurrent.futures
import dataclasses
import gc
import logging
import os
import queue
import socket
import struct
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from repro.errors import CodecError, TransportClosedError
from repro.net import binary, kinds
from repro.net.aio import (
    _MAX_FRAMES_PER_WRITE,
    _RECV_BUFFER_SIZE,
    AioClientTransport,
    AioHostTransport,
    BatchConfig,
    RetryPolicy,
    SendQueue,
    _SocketConnection,
)
from repro.net.codec import (
    HEADER_SIZE,
    JSON_CODEC,
    MAX_FRAME_SIZE,
    decode_body,
    encode,
)
from repro.net.message import Message
from repro.net.tcp import TcpClientTransport
from repro.net.transport import (
    DROP_BACKPRESSURE,
    DROP_UNDELIVERABLE,
)
from repro.server.runtime import AsyncServerRuntime, EventLoopThread
from repro.session import Session
from repro.toolkit import Shell, TextField

from conftest import settle


def msg(sender="server", to="c1", **payload):
    return Message(kind=kinds.COMMAND, sender=sender, to=to, payload=payload)


def wait_until(predicate, timeout=5.0, interval=0.005):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class Collector:
    def __init__(self):
        self.received = []
        self.event = threading.Event()

    def __call__(self, message):
        self.received.append(message)
        self.event.set()

    def payloads(self, sender):
        return [m.payload for m in self.received if m.sender == sender]


def read_exactly(sock, size):
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        assert chunk, "peer closed mid-frame"
        data += chunk
    return data


def read_frame(sock, timeout=5.0):
    """Block for one whole frame on a raw socket and decode it."""
    sock.settimeout(timeout)
    (length,) = struct.unpack(">I", read_exactly(sock, HEADER_SIZE))
    return decode_body(read_exactly(sock, length))


def reads_eof(sock, timeout=5.0):
    """The peer closed: the next read on *sock* returns no bytes."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


# ---------------------------------------------------------------------------
# BatchConfig validation
# ---------------------------------------------------------------------------


class TestBatchConfig:
    def test_defaults_are_valid(self):
        config = BatchConfig()
        assert config.max_queue >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": 0},
            {"retry_limit": 0},
            {"retry_backoff": 0.5},
        ],
        ids=["max_queue", "retry_limit", "retry_backoff"],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            BatchConfig(**kwargs)

    def test_runtime_doc_table_lists_every_field_with_its_default(self):
        """docs/RUNTIME.md's Configuration table is the fields of
        ``BatchConfig``, in order, with their defaults."""
        doc = Path(__file__).parents[2] / "docs" / "RUNTIME.md"
        section = doc.read_text().split("\n## Configuration\n")[1]
        table = section[section.index("\n|") :].split("\n\n")[0]
        rows = [
            [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in table.strip().splitlines()[2:]  # header, rule
        ]
        assert [(name, ast.literal_eval(default)) for name, default, _ in rows] == [
            (field.name, field.default) for field in dataclasses.fields(BatchConfig)
        ]


# ---------------------------------------------------------------------------
# RetryPolicy (pure arithmetic, fake attempts)
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(
            BatchConfig(
                retry_initial=0.1,
                retry_backoff=2.0,
                retry_limit=5,
                retry_max_delay=10.0,
            )
        )
        assert policy.schedule() == [0.1, 0.2, 0.4, 0.8]

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(
            BatchConfig(
                retry_initial=0.1,
                retry_backoff=10.0,
                retry_limit=6,
                retry_max_delay=0.5,
            )
        )
        assert policy.delay(1) == 0.1
        assert policy.delay(2) == 0.5  # 1.0 capped
        assert policy.delay(5) == 0.5

    def test_budget_exhaustion_returns_none(self):
        policy = RetryPolicy(BatchConfig(retry_limit=3))
        assert policy.delay(2) is not None
        assert policy.delay(3) is None
        assert policy.delay(7) is None


# ---------------------------------------------------------------------------
# SendQueue (sans-I/O)
# ---------------------------------------------------------------------------


def seqs(messages):
    return [m.payload["seq"] for m in messages]


class TestSendQueue:
    def make(self, **kwargs):
        return SendQueue("c1", BatchConfig(**kwargs))

    def test_push_outcomes(self):
        queue = self.make(max_queue=4)
        for _ in range(4):
            assert queue.push(msg()) == SendQueue.QUEUED
        assert queue.push(msg()) == SendQueue.OVERFLOW
        assert len(queue) == 4  # the overflowing message was not kept

    def test_pop_batch_respects_max_batch(self):
        """A pop takes the requested number from the head — by default
        one write's worth of frames — and leaves the rest queued."""
        queue = self.make()
        for i in range(_MAX_FRAMES_PER_WRITE + 6):
            queue.push(msg(seq=i))
        assert seqs(queue.pop_batch()) == list(range(_MAX_FRAMES_PER_WRITE))
        assert len(queue.pop_batch(max_messages=2)) == 2
        assert len(queue.pop_batch()) == 4
        assert queue.pop_batch() == []

    def test_requeue_front_preserves_fifo(self):
        queue = self.make(max_queue=10)
        for i in range(4):
            queue.push(msg(seq=i))
        items = queue.pop_batch(max_messages=2)
        assert all(isinstance(m, Message) for m in items)
        queue.requeue_front(items)
        assert seqs(queue.pop_batch(max_messages=2)) == [0, 1]
        assert seqs(queue.pop_batch(max_messages=2)) == [2, 3]

    def test_drain_all_resets(self):
        queue = self.make(max_queue=10)
        for _ in range(3):
            queue.push(msg())
        queue.attempts = 2
        drained = queue.drain_all()
        assert len(drained) == 3
        assert all(isinstance(m, Message) for m in drained)
        assert len(queue) == 0
        assert queue.attempts == 0



# ---------------------------------------------------------------------------
# AioHostTransport over real sockets
# ---------------------------------------------------------------------------


@pytest.fixture
def aio_host(request):
    config = getattr(request, "param", None) or BatchConfig()
    inbox = Collector()
    transport = AioHostTransport(inbox, port=0, config=config)
    yield transport, inbox
    transport.close()


class TestAioHostTransport:
    def test_client_roundtrip(self, aio_host):
        transport, inbox = aio_host
        _, port = transport.address
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg(sender="c1", to="", ping=True))
            assert inbox.event.wait(5.0)
            assert inbox.received[0].payload == {"ping": True}
            transport.send(msg(to="c1", pong=True))
            assert client_inbox.event.wait(5.0)
            assert client_inbox.received[0].payload == {"pong": True}
        finally:
            client.close()

    def test_send_after_close_raises(self):
        transport = AioHostTransport(lambda m: None, port=0)
        transport.close()
        with pytest.raises(TransportClosedError):
            transport.send(msg())

    @pytest.mark.parametrize("count, writes", [(5, 1), (150, 3)])
    def test_handler_burst_leaves_in_writes_of_64_frames(self, count, writes):
        """Everything one loop callback queues for a destination is
        flushed together when the burst ends: one ``write()``, or
        consecutive ones of 64 frames (150 = 64 + 64 + 22)."""

        def handler(message):
            for i in range(message.payload.get("burst", 0)):
                transport.send(msg(to="c1", seq=i))

        transport = AioHostTransport(handler, port=0)
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, *transport.address)
        try:
            client.send(msg(sender="c1", to="", burst=count))
            assert wait_until(lambda: len(client_inbox.received) == count)
            # FIFO order survives the chunking.
            assert seqs(client_inbox.received) == list(range(count))
            # A write is accounted right after it is made, a beat after
            # the client can observe delivery — wait for the last one.
            stats = transport.stats
            assert wait_until(lambda: stats.batched_messages == count)
            assert stats.batches == writes
        finally:
            client.close()
            transport.close()

    @pytest.mark.parametrize(
        "aio_host",
        [
            BatchConfig(
                max_queue=3,
                retry_initial=30.0,  # park the writer in backoff
                retry_limit=5,
            )
        ],
        indirect=True,
    )
    def test_backpressure_drop_policy(self, aio_host):
        """Overflowing a ghost destination's queue drops with attribution."""
        transport, _ = aio_host
        for i in range(8):
            transport.send(msg(to="ghost", seq=i))
        assert wait_until(
            lambda: transport.stats.drops_by_reason[DROP_BACKPRESSURE] >= 4
        )
        assert transport.pending("ghost") <= 3

    def test_a_peer_that_stops_reading_pauses_the_writer_and_loses_nothing(
        self, monkeypatch
    ):
        """A connected peer that stops reading fills the kernel buffers,
        then the transport's: ``pause_writing`` fires, the inline flush
        stops at the write-buffer limit and the writer task waits in
        ``drain()`` with the rest queued.  Nothing is dropped, and once
        the peer reads, every frame arrives once, in send order."""
        paused = []
        original = _SocketConnection.pause_writing

        def spy(conn):
            paused.append(conn.peer_id)
            original(conn)

        monkeypatch.setattr(_SocketConnection, "pause_writing", spy)
        count = 3000  # 12 MB: past a 4 MB send buffer and the peer's window
        transport = AioHostTransport(
            Collector(), port=0, config=BatchConfig(max_queue=2 * count)
        )
        peer = socket.socket()
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            peer.connect(transport.address)
            peer.sendall(encode(msg(sender="slow", to="", hello=True)))
            assert wait_until(lambda: "slow" in transport.connections())
            for i in range(count):
                transport.send(msg(to="slow", seq=i, pad="x" * 4000))
            assert wait_until(lambda: paused == ["slow"])
            assert wait_until(lambda: transport.pending("slow") > 0)
            assert transport.stats.dropped == 0

            received = [read_frame(peer) for _ in range(count)]
            assert seqs(received) == list(range(count))
            assert wait_until(lambda: transport.pending("slow") == 0)
            assert transport.stats.dropped == 0
            assert transport.stats.messages == count
        finally:
            peer.close()
            transport.close()

    @pytest.mark.parametrize("sent", [0, 10], ids=["silent", "mid-frame"])
    def test_close_reaches_connections_that_never_identified(self, sent):
        """An accepted socket that has not completed a first message is in
        nobody's routing table; ``close()`` closes it all the same."""
        transport = AioHostTransport(Collector(), port=0)
        sock = socket.create_connection(transport.address)
        try:
            sock.sendall(encode(msg(sender="c1", to="", hello=True))[:sent])
            assert wait_until(lambda: len(transport._accepted) == 1)
            assert transport.connections() == ()
            transport.close()
            assert reads_eof(sock)
        finally:
            sock.close()
            transport.close()

    @pytest.mark.parametrize(
        "aio_host",
        [
            BatchConfig(
                retry_initial=0.01,
                retry_backoff=2.0,
                retry_limit=3,
                retry_max_delay=0.05,
            )
        ],
        indirect=True,
    )
    def test_retry_budget_then_undeliverable(self, aio_host):
        """No connection: per-hop retry backs off, then drops the batch."""
        transport, _ = aio_host
        transport.send(msg(to="ghost", data="x"))
        assert wait_until(
            lambda: transport.stats.drops_by_reason[DROP_UNDELIVERABLE] >= 1
        )
        assert transport.stats.retries >= 2  # retry_limit - 1 backoffs
        assert transport.pending("ghost") == 0

    @pytest.mark.parametrize(
        "aio_host",
        [BatchConfig(retry_initial=0.05, retry_limit=4)],
        indirect=True,
    )
    def test_retry_delivers_to_late_connection(self, aio_host):
        """A message queued before its client connects arrives after."""
        transport, inbox = aio_host
        _, port = transport.address
        transport.send(msg(to="late", data="early-bird"))
        time.sleep(0.08)  # let at least one delivery attempt fail
        client_inbox = Collector()
        client = TcpClientTransport("late", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg(sender="late", to="", hello=True))
            assert inbox.event.wait(5.0)
            assert client_inbox.event.wait(5.0)
            assert client_inbox.received[0].payload == {"data": "early-bird"}
            assert transport.stats.retries >= 1
        finally:
            client.close()

    @pytest.mark.parametrize(
        "aio_host",
        [
            BatchConfig(
                retry_initial=30.0,
                retry_backoff=3.0,
                retry_limit=5,
                retry_max_delay=200.0,
            )
        ],
        indirect=True,
    )
    def test_retry_schedule_runs_to_its_expiry(self, aio_host, monkeypatch):
        """A destination that never connects: the writer sleeps exactly
        the policy's schedule, counts ``retry_limit - 1`` retries, then
        drops the queue as undeliverable.  The sleeps are recorded, not
        waited out (the schedule adds up to 520 s)."""
        transport, _ = aio_host
        slept = []
        real_sleep = asyncio.sleep

        async def recorded_sleep(delay, result=None):
            if delay:
                slept.append(delay)
            return await real_sleep(0, result)

        monkeypatch.setattr(asyncio, "sleep", recorded_sleep)
        transport.send(msg(to="ghost", data="x"))
        assert wait_until(
            lambda: transport.stats.drops_by_reason[DROP_UNDELIVERABLE] == 1
        )
        assert slept == RetryPolicy(transport.config).schedule()
        assert slept == [30.0, 90.0, 200.0, 200.0]
        assert transport.stats.retries == transport.config.retry_limit - 1
        assert dict(transport.stats.drops_by_reason) == {DROP_UNDELIVERABLE: 1}
        assert transport.pending("ghost") == 0


# ---------------------------------------------------------------------------
# AioClientTransport: sends from the loop thread vs. application threads
# ---------------------------------------------------------------------------


class TestAioClientTransport:
    ROUNDS = 3

    @pytest.fixture
    def wired(self, aio_host):
        """A client on its own loop whose handler can be swapped per test."""
        host, inbox = aio_host
        _, port = host.address
        handlers = [lambda message: None]
        client = AioClientTransport(
            "c1", lambda message: handlers[0](message), "127.0.0.1", port
        )
        try:
            client.send(msg(sender="c1", to="", tag="hello"))
            assert wait_until(lambda: len(inbox.received) == 1)
            yield host, inbox, client, handlers
        finally:
            client.close()

    def test_handler_sends_keep_fifo_with_application_sends(self, wired):
        """A frame the handler sends queues behind what an application
        thread queued before it — it never overtakes (a STATE_REPLY ahead
        of the EVENT queued earlier would make the requester apply the
        event twice)."""
        host, inbox, client, handlers = wired
        to_app, from_app = queue.Queue(), queue.Queue()

        def handler(message):
            # Runs on the loop thread, which therefore cannot drain its
            # ready queue: every frame below is still queued when the
            # handler returns, in the order the sends happened.
            for i in range(self.ROUNDS):
                to_app.put(i)
                assert from_app.get(timeout=5.0) == i
                client.send(msg(sender="c1", to="", tag=f"h{i}"))

        handlers[0] = handler
        host.send(msg(to="c1", go=True))
        for i in range(self.ROUNDS):
            assert to_app.get(timeout=5.0) == i
            client.send(msg(sender="c1", to="", tag=f"a{i}"))
            from_app.put(i)
        expected = ["hello"] + [f"{who}{i}" for i in range(self.ROUNDS) for who in "ah"]
        assert wait_until(lambda: len(inbox.received) == len(expected))
        assert [m.payload["tag"] for m in inbox.received] == expected

    def test_handler_sends_skip_the_self_pipe(self, wired, monkeypatch):
        """Only a send from another thread has a sleeping loop to wake."""
        host, inbox, client, handlers = wired
        wakeups = []
        write_to_self = client._loop._write_to_self

        def spy():
            wakeups.append(threading.get_ident())
            write_to_self()

        monkeypatch.setattr(client._loop, "_write_to_self", spy)
        handlers[0] = lambda message: client.send(msg(sender="c1", to="", tag="ack"))
        for _ in range(self.ROUNDS):
            host.send(msg(to="c1", go=True))
        assert wait_until(lambda: len(inbox.received) == 1 + self.ROUNDS)
        assert wakeups == []
        client.send(msg(sender="c1", to="", tag="app"))
        assert wakeups == [threading.get_ident()]


# ---------------------------------------------------------------------------
# The read path: what a connection does with the bytes it is handed, on
# the host side (accepted connections) and the client side alike
# ---------------------------------------------------------------------------


class ReadSide:
    """Two raw sockets writing into two aio connections serviced by one
    loop thread: two accepted connections of one :class:`AioHostTransport`
    (``side == "host"``), or two :class:`AioClientTransport` sharing a
    loop (``side == "client"``).  Writer *i* speaks as ``w<i>``; every
    message lands in one :class:`Collector`, except that the handler
    raises on a payload carrying ``boom``."""

    def __init__(self, side):
        self.side = side
        self.inbox = Collector()
        self.writers = []
        self._closers = []
        if side == "host":
            host = AioHostTransport(self._handle, port=0)
            self._closers.append(host.close)
            #: The transport that dispatches what writer *i* sends.
            self.transports = [host, host]
            self.loop_thread = host._own_loop._thread
            for _ in range(2):
                self.writers.append(socket.create_connection(host.address))
        else:
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(5.0)
            self._closers.append(listener.close)
            runner = EventLoopThread("read-side-clients")
            self._closers.append(runner.stop)
            self.loop_thread = runner._thread
            self.transports = []
            for i in range(2):
                client = AioClientTransport(
                    f"c{i}", self._handle, *listener.getsockname(), loop=runner.loop
                )
                self._closers.append(client.close)
                self.transports.append(client)
                self.writers.append(listener.accept()[0])
        for writer in self.writers:
            writer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _handle(self, message):
        if message.payload.get("boom"):
            raise RuntimeError("handler blew up")
        self.inbox(message)

    def frame(self, i, **payload):
        return encode(msg(sender=f"w{i}", to="", **payload))

    def bad_frame_stream(self):
        """Writer 0's frames {"n": 0} and {"n": 1}, an undecodable frame,
        then {"n": 2}: one byte stream."""
        bad = struct.pack(">I", 7) + b"\x00garbage"[:7]
        good = [self.frame(0, n=n) for n in range(3)]
        return good[0] + good[1] + bad + good[2]

    def on_loop(self, function):
        """Call *function* on the loop thread that services the
        connections (the one whose receive buffer they share)."""

        async def call():
            return function()

        loop = self.transports[0]._loop
        return asyncio.run_coroutine_threadsafe(call(), loop).result(30.0)

    def reads(self, chunks):
        """Loop thread only: hand *chunks* to a fresh connection of the
        transport under test as the selector transport does, one
        ``recv_into`` of the shared buffer per chunk.  Returns the
        connection and the error the reads ended with (or None)."""
        conn = _SocketConnection(self.transports[0])
        try:
            for chunk in chunks:
                view = conn.get_buffer(len(chunk))
                view[: len(chunk)] = chunk
                conn.buffer_updated(len(chunk))
        except CodecError as exc:
            return conn, exc
        return conn, None

    def identify(self):
        """Each writer sends one whole message (the host binds its id)."""
        for i, writer in enumerate(self.writers):
            writer.sendall(self.frame(i, hello=True))
        assert wait_until(lambda: len(self.inbox.received) == len(self.writers))

    def answer(self, i, **payload):
        """Send from the transport under test back to writer *i*."""
        if self.side == "host":
            self.transports[i].send(msg(to=f"w{i}", **payload))
        else:
            self.transports[i].send(msg(sender=f"c{i}", to="", **payload))

    def close(self):
        for writer in self.writers:
            writer.close()
        for closer in reversed(self._closers):
            closer()


@pytest.fixture(params=["host", "client"])
def read_side(request):
    side = ReadSide(request.param)
    yield side
    side.close()


class TestReadPath:
    def test_frame_larger_than_the_receive_buffer(self, read_side):
        blob = "x" * (3 * _RECV_BUFFER_SIZE + 17)
        read_side.writers[0].sendall(read_side.frame(0, blob=blob))
        assert wait_until(lambda: len(read_side.inbox.received) == 1)
        assert read_side.inbox.received[0].payload == {"blob": blob}

    def test_frame_split_across_two_writes_decodes_once(self, read_side):
        writer = read_side.writers[0]
        frame = read_side.frame(0, text="split me")
        cuts = [1, 2, 3, HEADER_SIZE, HEADER_SIZE + (len(frame) - HEADER_SIZE) // 2]
        for count, cut in enumerate(cuts, start=1):
            writer.sendall(frame[:cut])
            time.sleep(0.02)  # let the first part be read by itself
            assert len(read_side.inbox.received) == count - 1
            writer.sendall(frame[cut:])
            assert wait_until(lambda: len(read_side.inbox.received) == count)
        time.sleep(0.05)
        assert read_side.inbox.payloads("w0") == [{"text": "split me"}] * len(cuts)

    def test_small_frames_in_one_write_dispatch_as_one_burst(
        self, read_side, monkeypatch
    ):
        """20 frames, one write, well under one buffer: one read, so one
        guard acquisition and one wake-up of the threads in ``drive``."""
        read_side.identify()
        cond = read_side.transports[0]._cond
        wakeups = []
        notify_all = cond.notify_all
        monkeypatch.setattr(
            cond, "notify_all", lambda: (wakeups.append(1), notify_all())
        )
        burst = b"".join(read_side.frame(0, seq=i) for i in range(20))
        assert len(burst) < _RECV_BUFFER_SIZE // 8
        read_side.writers[0].sendall(burst)
        assert wait_until(lambda: len(read_side.inbox.payloads("w0")) == 21)
        assert read_side.inbox.payloads("w0")[1:] == [{"seq": i} for i in range(20)]
        assert len(wakeups) == 1

    def test_interleaved_partial_frames_decode_independently(self, read_side):
        """Both connections read through the loop thread's one receive
        buffer; whatever a connection has of an unfinished frame must
        be its own copy, or the other connection's read overwrites it."""
        first, second = read_side.writers
        frames = [
            read_side.frame(0, text="a" * 300, n=1),
            read_side.frame(1, text="b" * 300, n=2),
        ]
        pieces = 7
        step = -(-max(map(len, frames)) // pieces)
        for offset in range(0, step * pieces, step):
            first.sendall(frames[0][offset : offset + step])
            second.sendall(frames[1][offset : offset + step])
            time.sleep(0.01)
        assert wait_until(lambda: len(read_side.inbox.received) == 2)
        assert read_side.inbox.payloads("w0") == [{"text": "a" * 300, "n": 1}]
        assert read_side.inbox.payloads("w1") == [{"text": "b" * 300, "n": 2}]

    def test_whole_frames_keep_nothing_of_the_receive_buffer(self, read_side):
        """The same guard for whole frames, which are decoded straight out
        of the shared buffer: JSON, binary and batch-envelope frames stay
        intact when the next read overwrites it, and the binary decoder's
        caches are keyed by ``bytes``, never by a view of it."""

        def sent(n):
            return Message(
                kind=kinds.COMMAND,
                sender="w0",
                payload={"n": n, "text": f"t{n}", "nested": {"k": [n, "v"]}},
                reply_to=n,
                trace=(f"trace{n}", f"span{n}"),
            )

        messages = [sent(n) for n in range(6)]
        frames = (
            JSON_CODEC.encode(messages[0])
            + binary.BINARY_CODEC.encode(messages[1])
            + JSON_CODEC.encode_batch(messages[2:4])
            + binary.BINARY_CODEC.encode_batch(messages[4:6])
        )
        before = len(read_side.inbox.received)

        def read_then_overwrite():
            conn, error = read_side.reads([frames])
            view = conn.get_buffer(-1)
            view[:] = b"\xff" * len(view)
            conn.connection_lost(None)
            return error

        assert read_side.on_loop(read_then_overwrite) is None
        # Message equality covers kind, ids, payload and trace.
        assert read_side.inbox.received[before:] == messages
        assert {type(key) for key in binary._DEC_MEMO} <= {bytes}
        assert {type(key) for key in binary._DEC_STR_CACHE} <= {bytes}

    @pytest.mark.expects_loop_error
    def test_frames_ahead_of_a_bad_frame_arrive_then_it_closes(
        self, read_side, caplog, loop_errors
    ):
        """Two good frames, a bad one and a good one in one write: the
        two reach the endpoint, then the connection closes."""
        caplog.set_level(logging.DEBUG, logger="repro.net.aio")
        writer = read_side.writers[0]
        writer.sendall(read_side.bad_frame_stream())
        assert reads_eof(writer)
        assert wait_until(lambda: len(read_side.inbox.received) == 2)
        assert read_side.inbox.payloads("w0") == [{"n": 0}, {"n": 1}]
        if read_side.side == "host":
            host = read_side.transports[0]
            assert wait_until(lambda: "event=connection_closed peer=w0" in caplog.text)
            assert host.connection_errors == 1
        assert len(loop_errors) == 1
        assert loop_errors[0].exc_info[0] is CodecError

    def test_frames_ahead_of_a_bad_frame_arrive_however_the_stream_splits(
        self, read_side
    ):
        """The same stream read whole and cut at every offset into two
        reads, each on a fresh connection: every time, exactly the two
        good frames ahead of the bad one are dispatched, then the read
        fails (which closes the connection); the host counts one
        connection error each time."""
        stream = read_side.bad_frame_stream()
        transport = read_side.transports[0]

        def every_split():
            outcomes = []
            for cut in range(1, len(stream) + 1):
                before = len(read_side.inbox.received)
                chunks = [stream[:cut], stream[cut:]] if cut < len(stream) else [stream]
                conn, error = read_side.reads(chunks)
                conn.connection_lost(error)  # what asyncio does next
                outcomes.append(
                    (
                        [m.payload for m in read_side.inbox.received[before:]],
                        type(error),
                    )
                )
            return outcomes

        errors_before = getattr(transport, "connection_errors", 0)
        outcomes = read_side.on_loop(every_split)
        assert outcomes == [([{"n": 0}, {"n": 1}], CodecError)] * len(stream)
        if read_side.side == "host":
            assert transport.connection_errors - errors_before == len(stream)

    @pytest.mark.expects_loop_error
    @pytest.mark.parametrize(
        "fault, error",
        [
            ("oversize header", "CodecError"),
            ("garbage body", "CodecError"),
            ("wrong-typed envelope", "CodecError"),
            ("handler raises", "RuntimeError"),
        ],
    )
    def test_fault_closes_that_connection_only_and_says_why(
        self, read_side, fault, error, caplog, loop_errors
    ):
        caplog.set_level(logging.DEBUG, logger="repro.net.aio")
        bad, good = read_side.writers
        read_side.identify()
        if fault == "oversize header":
            bad.sendall(struct.pack(">I", MAX_FRAME_SIZE + 1))
        elif fault == "garbage body":
            bad.sendall(struct.pack(">I", 7) + b"\x00garbage"[:7])
        elif fault == "wrong-typed envelope":
            # Stops at the decoder: a handler never sees ``reply_to == [1]``.
            frame = read_side.frame(0, ok=1)
            body = frame[HEADER_SIZE:].replace(b'"reply_to":null', b'"reply_to":[1]')
            bad.sendall(struct.pack(">I", len(body)) + body)
        else:
            bad.sendall(read_side.frame(0, boom=True))

        assert reads_eof(bad)  # that connection is gone ...
        if read_side.side == "host":
            host = read_side.transports[0]
            assert wait_until(lambda: "event=connection_closed peer=w0" in caplog.text)
            assert f"event=connection_error peer=w0 error={error}" in caplog.text
            assert host.connections() == ("w1",)
            assert list(host._peer_codecs) == ["w1"]
            assert host.connection_errors == 1
        else:
            assert wait_until(
                lambda: f"event=client_connection_lost local_id=c0 error={error}"
                in caplog.text
            )
        assert "buffer_updated() call failed" in loop_errors[0].getMessage()
        assert loop_errors[0].exc_info[0].__name__ == error

        # ... and the other one keeps round-tripping on a living loop.
        good.sendall(read_side.frame(1, ping=1))
        assert wait_until(lambda: {"ping": 1} in read_side.inbox.payloads("w1"))
        read_side.answer(1, pong=1)
        assert read_frame(good).payload == {"pong": 1}
        assert read_side.loop_thread.is_alive()
        assert len(loop_errors) == 1


def test_runtime_stats_show_connection_errors():
    class Endpoint:
        def bind(self, transport):
            pass

        def handle_message(self, message):
            pass

    with AsyncServerRuntime(Endpoint()) as runtime:
        assert runtime.stats()["connection_errors"] == 0
        with socket.create_connection(runtime.address) as sock:
            sock.sendall(encode(msg(sender="c1", to="")))
            assert wait_until(lambda: runtime.stats()["connections"] == 1)
            # Reset by the peer with unread bytes pending: a socket
            # error, not a protocol one — counted, and nothing for the
            # asyncio logger to report.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        assert wait_until(lambda: runtime.stats()["connection_errors"] == 1)
        assert runtime.stats()["connections"] == 0


# ---------------------------------------------------------------------------
# A whole aio session: allocation per read, sockets after close
# ---------------------------------------------------------------------------


def coupled_fields(session):
    fields = []
    for name in ("a", "b"):
        instance = session.create_instance(name, user=name)
        tree = instance.add_root(Shell("app"))
        fields.append(TextField("name", parent=tree))
    session.instances["a"].couple(fields[0], ("b", "/app/name"))
    session.pump()
    return fields


def test_reads_allocate_no_large_buffer():
    """Every read lands in the loop thread's reused buffer: 50 coupled
    commits never hold more than a few KiB beyond what they keep (a
    stream reader's transport allocated 256 KiB per read)."""
    with Session(backend="aio") as session:
        source, replica = coupled_fields(session)
        tracemalloc.start()
        try:
            source.commit("warm")
            assert settle(session, lambda: replica.value == "warm")
            tracemalloc.reset_peak()
            for i in range(50):
                source.commit(f"v{i}")
                assert settle(session, lambda: replica.value == f"v{i}")
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - current < 128 * 1024


def test_session_close_releases_every_socket():
    """No reader task is pending when the loop stops, so the runtime runs
    the closing transports' ``connection_lost`` itself; none is left for
    the garbage collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with Session(backend="aio") as session:
            source, replica = coupled_fields(session)
            source.commit("x")
            assert settle(session, lambda: replica.value == "x")
        gc.collect()
    messages = [str(warning.message) for warning in caught]
    assert [text for text in messages if "unclosed transport" in text] == []


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_private_loop_transports_close_what_they_opened():
    """A ``loop=None`` host or client owns its loop thread (every
    ``ProcCluster`` shard link is one): ``close()`` runs the closing
    sockets' ``connection_lost``, ends the thread and closes the loop —
    nothing is left open for the garbage collector to find and warn
    about."""

    def open_fds():
        return set(os.listdir("/proc/self/fd"))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        before = open_fds()
        inbox = Collector()
        host = AioHostTransport(inbox, port=0)
        client = AioClientTransport(
            "c1", lambda message: None, "127.0.0.1", host.address[1]
        )
        client.send(msg(sender="c1", to="", hello=True))
        assert wait_until(lambda: len(inbox.received) == 1)
        # Two loops (selector + self-pipe pair each), the listener and
        # both ends of the connection: the check below is not vacuous.
        assert len(open_fds() - before) >= 7
        client.close()
        host.close()
        # Right after close(), before any collection:
        assert host._loop.is_closed() and client._loop.is_closed()
        assert open_fds() - before == set()
        del host, client
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_failed_connect_stops_the_private_loop():
    """A ``loop=None`` client that cannot connect has no owner to close
    it later, so the constructor stops the loop thread it started."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    listener.close()  # nobody listens here any more
    with pytest.raises(OSError):
        AioClientTransport("refused", lambda message: None, "127.0.0.1", port)
    names = [thread.name for thread in threading.enumerate()]
    assert "aio-client-refused" not in names


@pytest.mark.parametrize("side", ["host", "client"])
def test_a_burst_read_as_the_transport_closes_is_not_dispatched(side):
    """close() lands while the loop thread holds a burst it has read but
    not dispatched yet (it waits for the guard the closing thread
    holds): the burst is dropped, no handler runs after close."""
    runner = EventLoopThread("late-burst")
    delivered, closers = [], [runner.stop]

    def loop_answers():
        future = asyncio.run_coroutine_threadsafe(asyncio.sleep(0), runner.loop)
        try:
            future.result(0.05)
        except concurrent.futures.TimeoutError:
            return False
        return True

    try:
        if side == "host":
            transport = AioHostTransport(delivered.append, port=0, loop=runner.loop)
            writer = socket.create_connection(transport.address)
        else:
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            closers.append(listener.close)
            transport = AioClientTransport(
                "c1", delivered.append, *listener.getsockname(), loop=runner.loop
            )
            writer, _ = listener.accept()
        closers.append(writer.close)
        with transport.guard():
            writer.sendall(encode(msg(sender="w", to="c1", late=True)))
            assert wait_until(lambda: not loop_answers())
            transport.close()
        assert wait_until(loop_answers)
        assert delivered == []
    finally:
        for close in reversed(closers):
            close()
