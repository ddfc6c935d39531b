"""Tests for the aio transports: the owned loop, flush, backpressure, and
what the host drops when a destination has no live connection.

The socket-level tests run a real :class:`AioHostTransport` against the
plain :class:`TcpClientTransport`, and :class:`AioClientTransport`
against that host.
"""

import ast
import concurrent.futures
import gc
import inspect
import logging
import os
import queue
import selectors
import socket
import struct
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from repro.errors import CodecError, TransportClosedError
from repro.net import binary, kinds
from repro.net.aio import (
    _RECV_BUFFER_SIZE,
    AioClientTransport,
    AioHostTransport,
    EventLoop,
    _Connection,
)
from repro.net.codec import (
    HEADER_SIZE,
    JSON_CODEC,
    MAX_FRAME_SIZE,
    StreamDecoder,
    decode_body,
    encode,
)
from repro.net.message import Message
from repro.net.tcp import TcpClientTransport
from repro.net.transport import (
    DROP_BACKPRESSURE,
    DROP_UNDELIVERABLE,
)
from repro.session import Session, SessionConfig
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


def count_passes(loop, monkeypatch, pause=0.0):
    """Number *loop*'s passes from the next one on: the returned list's
    one item is the number of the pass running now.  *pause* sleeps
    before each poll, so what the previous pass wrote to loopback
    sockets is readable by then."""
    passes = [0]
    run_once = loop._run_once

    def numbered():
        passes[0] += 1
        time.sleep(pause)
        run_once()

    monkeypatch.setattr(loop, "_run_once", numbered)
    return passes


def record_writes(conn, log, label, passes):
    """Log every write of *conn* as ``("write", label, pass, data)``."""
    write = conn.write

    def recording(data):
        log.append(("write", label, passes[0], bytes(data)))
        write(data)

    conn.write = recording


def hold_loop(loop):
    """Block *loop*'s thread in a callback until the returned event is
    set: whatever arrives meanwhile waits in the kernel, and the next
    poll finds it all."""
    entered, release = threading.Event(), threading.Event()

    def hold():
        entered.set()
        release.wait(5.0)

    loop.call_soon_threadsafe(hold)
    assert entered.wait(5.0)
    return release


def after_this_pass(loop):
    """Wait until *loop* has ended the pass that runs the callbacks
    queued so far, its end-of-pass writers included."""
    done = threading.Event()
    loop.call_soon_threadsafe(loop.at_end_of_pass, done.set)
    assert done.wait(5.0)


def seqs(messages):
    return [m.payload["seq"] for m in messages]


def test_runtime_doc_table_lists_max_queue_with_its_default():
    """docs/RUNTIME.md's Configuration table is the aio backend's one
    setting, with the default the host and ``SessionConfig`` share."""
    doc = Path(__file__).parents[2] / "docs" / "RUNTIME.md"
    section = doc.read_text().split("\n## Configuration\n")[1]
    table = section[section.index("\n|") :].split("\n\n")[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in table.strip().splitlines()[2:]  # header, rule
    ]
    default = inspect.signature(AioHostTransport).parameters["max_queue"].default
    assert [(name, ast.literal_eval(value)) for name, value, _ in rows] == [
        ("max_queue", default)
    ]
    assert SessionConfig().max_queue == default


# ---------------------------------------------------------------------------
# AioHostTransport over real sockets
# ---------------------------------------------------------------------------


@pytest.fixture
def aio_host(request):
    """A host built with the keyword arguments the parameter holds, if
    one is given.  Its handler collects every message and answers one
    carrying ``burst=n`` with *n* sends to its sender, all queued in the
    pass that read it."""

    def handler(message):
        inbox(message)
        for i in range(message.payload.get("burst", 0)):
            transport.send(msg(to=message.sender, seq=i))

    inbox = Collector()
    transport = AioHostTransport(handler, port=0, **getattr(request, "param", {}))
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

    def test_rejects_a_max_queue_below_one(self):
        with pytest.raises(ValueError, match="max_queue"):
            AioHostTransport(lambda m: None, port=0, max_queue=0)

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

    def test_a_read_writes_its_replies_in_its_own_pass(self, monkeypatch):
        """A read whose handler sends to N peers: every reply is written,
        one write per peer, when the pass that read it ends — after the
        read, before the next poll."""
        peers = 4

        def handler(message):
            if "fanout" in message.payload:
                log.append(("read", message.sender, passes[0]))
            for i in range(message.payload.get("fanout", 0)):
                transport.send(msg(to=f"p{i}", seq=i))

        log = []
        transport = AioHostTransport(handler, port=0)
        sockets = []
        try:
            for i in range(peers + 1):
                sock = socket.create_connection(transport.address)
                sockets.append(sock)
                sock.sendall(encode(msg(sender=f"p{i}", to="", hello=True)))
            assert wait_until(lambda: len(transport.connections()) == peers + 1)
            passes = count_passes(transport.loop, monkeypatch)
            for peer, conn in transport._conns.items():
                record_writes(conn, log, peer, passes)
            sockets[peers].sendall(encode(msg(sender=f"p{peers}", to="", fanout=peers)))
            received = [read_frame(sockets[i]) for i in range(peers)]
            assert [m.payload["seq"] for m in received] == list(range(peers))
            (_, _, read_pass), *writes = log
            assert sorted(entry[:3] for entry in writes) == [
                ("write", f"p{i}", read_pass) for i in range(peers)
            ]
            assert wait_until(lambda: transport.stats.batches == peers)
        finally:
            for sock in sockets:
                sock.close()
            transport.close()

    def test_reads_of_one_loop_pass_share_a_flush(self, monkeypatch):
        """Two reads in one loop pass (two peers' requests landing
        together) answer the same peer: both replies leave in one write,
        after the second read."""

        def handler(message):
            if "n" in message.payload:
                log.append(("read", message.sender, passes[0]))
                transport.send(msg(to="p0", seq=message.payload["n"]))

        log = []
        transport = AioHostTransport(handler, port=0)
        sockets = []
        try:
            for i in range(3):
                sock = socket.create_connection(transport.address)
                sockets.append(sock)
                sock.sendall(encode(msg(sender=f"p{i}", to="", hello=True)))
            assert wait_until(lambda: len(transport.connections()) == 3)
            passes = count_passes(transport.loop, monkeypatch)
            record_writes(transport._conns["p0"], log, "p0", passes)
            # Both requests wait in the kernel while the loop is held, so
            # the next poll finds both sockets readable.
            release = hold_loop(transport.loop)
            for i in (1, 2):
                sockets[i].sendall(encode(msg(sender=f"p{i}", to="", n=i)))
            release.set()
            assert seqs([read_frame(sockets[0]) for _ in range(2)]) == [1, 2]
            read_pass = log[0][2]
            assert sorted(entry[:3] for entry in log[:2]) == [
                ("read", "p1", read_pass),
                ("read", "p2", read_pass),
            ]
            assert [entry[:3] for entry in log[2:]] == [("write", "p0", read_pass)]
            stats = transport.stats
            assert wait_until(lambda: stats.batched_messages == 2)
            assert stats.batches == 1
        finally:
            for sock in sockets:
                sock.close()
            transport.close()

    @pytest.mark.parametrize("aio_host", [{"max_queue": 3}], indirect=True)
    def test_backpressure_drop_policy(self, aio_host):
        """A handler burst of 8 sends to a connected peer, with a bound
        of 3: the first 3 are queued and written, the other 5 dropped
        with attribution."""
        transport, _ = aio_host
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, *transport.address)
        try:
            client.send(msg(sender="c1", to="", burst=8))
            assert wait_until(lambda: len(client_inbox.received) == 3)
            stats = transport.stats
            assert wait_until(lambda: stats.batched_messages == 3)
            assert seqs(client_inbox.received) == [0, 1, 2]
            assert dict(stats.drops_by_reason) == {DROP_BACKPRESSURE: 5}
            assert transport.pending("c1") == 0
        finally:
            client.close()

    def test_a_peer_that_stops_reading_pauses_the_writer_and_loses_nothing(
        self, monkeypatch
    ):
        """A connected peer that stops reading fills the kernel buffers:
        the connection keeps what the kernel refused, the flush stops
        writing and the rest stays queued until the socket is writable
        again.  Nothing is dropped, and once the peer reads, every frame
        arrives once, in send order."""
        paused = []
        original = _Connection.write_unsent

        def spy(conn):
            paused.append(conn.peer_id)
            original(conn)

        monkeypatch.setattr(_Connection, "write_unsent", spy)
        count = 3000  # 12 MB: past a 4 MB send buffer and the peer's window
        transport = AioHostTransport(Collector(), port=0, max_queue=2 * count)
        peer = socket.socket()
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            peer.connect(transport.address)
            peer.sendall(encode(msg(sender="slow", to="", hello=True)))
            assert wait_until(lambda: "slow" in transport.connections())
            for i in range(count):
                transport.send(msg(to="slow", seq=i, pad="x" * 4000))
            conn, stats = transport._conns["slow"], transport.stats
            # Every message is written or queued, the kernel is full.
            assert wait_until(
                lambda: conn.unsent
                and stats.messages + transport.pending("slow") == count
            )
            assert transport.pending("slow") > 0
            assert stats.dropped == 0

            received = [read_frame(peer) for _ in range(count)]
            assert seqs(received) == list(range(count))
            assert set(paused) == {"slow"}
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

    def test_a_message_for_a_ghost_destination_is_dropped_at_once(
        self, aio_host, caplog
    ):
        """No live connection: the message is dropped in the pass that
        queued it, counted as undeliverable and logged once, and nothing
        is retried."""
        caplog.set_level(logging.WARNING, logger="repro.net.aio")
        transport, _ = aio_host
        transport.send(msg(to="ghost", data="x"))
        after_this_pass(transport.loop)
        stats = transport.stats
        assert dict(stats.drops_by_reason) == {DROP_UNDELIVERABLE: 1}
        assert (stats.dropped, stats.messages, stats.retries) == (1, 0, 0)
        assert transport.pending("ghost") == 0
        assert [r.getMessage() for r in caplog.records] == [
            "event=batch_undeliverable destination=ghost dropped=1"
        ]

    def test_a_late_client_gets_only_what_was_sent_after_it_connected(self, aio_host):
        """A message sent before its destination connects is dropped; it
        does not wait for the connection.  What is sent once the client
        has identified arrives."""
        transport, inbox = aio_host
        transport.send(msg(to="late", data="early"))
        after_this_pass(transport.loop)
        client_inbox = Collector()
        client = TcpClientTransport("late", client_inbox, *transport.address)
        try:
            client.send(msg(sender="late", to="", hello=True))
            assert inbox.event.wait(5.0)
            transport.send(msg(to="late", data="after"))
            assert client_inbox.event.wait(5.0)
            time.sleep(0.05)  # nothing more arrives
            assert [m.payload for m in client_inbox.received] == [{"data": "after"}]
            assert dict(transport.stats.drops_by_reason) == {DROP_UNDELIVERABLE: 1}
            assert transport.stats.retries == 0
        finally:
            client.close()

    def test_a_write_that_raises_closes_that_connection_only(
        self, aio_host, monkeypatch, caplog
    ):
        """A write that raises closes its connection like a failed read:
        counted in ``connection_errors``, its queue dropped and counted.
        The other peer's connection is unaffected."""
        caplog.set_level(logging.WARNING, logger="repro.net.aio")
        transport, _ = aio_host
        write = _Connection.write

        def failing_write(conn, data):
            if conn.peer_id == "p0":
                raise ConnectionResetError("write failed")
            write(conn, data)

        monkeypatch.setattr(_Connection, "write", failing_write)
        peers = [socket.create_connection(transport.address) for _ in range(2)]
        try:
            for i, peer in enumerate(peers):
                peer.sendall(encode(msg(sender=f"p{i}", to="", hello=True)))
            assert wait_until(lambda: len(transport.connections()) == 2)
            peers[0].sendall(encode(msg(sender="p0", to="", burst=3)))
            assert reads_eof(peers[0])
            assert wait_until(lambda: transport.connections() == ("p1",))
            stats = transport.stats
            assert transport.connection_errors == 1
            assert dict(stats.drops_by_reason) == {DROP_UNDELIVERABLE: 3}
            assert (stats.messages, stats.retries) == (0, 0)
            assert transport.pending("p0") == 0
            assert [r.getMessage() for r in caplog.records] == [
                "event=connection_error peer=p0 error=ConnectionResetError",
                "event=batch_undeliverable destination=p0 dropped=3",
            ]
            transport.send(msg(to="p1", seq=0))
            assert seqs([read_frame(peers[1])]) == [0]
        finally:
            for peer in peers:
                peer.close()

    def test_a_slow_consumer_that_disconnects_has_its_queue_dropped(self):
        """A peer that stops reading leaves bytes unsent and frames
        queued behind them; when it disconnects, the queued frames are
        dropped and counted, and none is left pending."""
        count = 200  # 800 KB through 4 KB socket buffers
        transport = AioHostTransport(Collector(), port=0, max_queue=count)
        peer = socket.socket()
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            peer.connect(transport.address)
            peer.sendall(encode(msg(sender="slow", to="", hello=True)))
            assert wait_until(lambda: "slow" in transport.connections())
            conn, stats = transport._conns["slow"], transport.stats
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            for i in range(count):
                transport.send(msg(to="slow", seq=i, pad="x" * 4000))
            assert wait_until(
                lambda: conn.unsent
                and stats.messages + transport.pending("slow") == count
            )
            queued = transport.pending("slow")
            assert queued > 0 and stats.dropped == 0
            peer.close()
            assert wait_until(lambda: transport.connections() == ())
            assert dict(stats.drops_by_reason) == {DROP_UNDELIVERABLE: queued}
            assert stats.messages + queued == count
            assert transport.pending("slow") == 0
        finally:
            peer.close()
            transport.close()


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
        """A handler's send has the loop awake already, and an application
        thread's send into an empty outbox writes the socket itself: the
        loop is woken by neither."""
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
        assert wait_until(lambda: len(inbox.received) == 2 + self.ROUNDS)
        assert wakeups == []

    @pytest.mark.parametrize(
        "outcome, expected",
        [
            (5, ["a1", "a2", "h"]),  # a partial write: the rest follows
            (BlockingIOError(), ["a1", "a2", "h"]),
            (ConnectionResetError(), ["a2", "h"]),  # dropped, not raised
        ],
        ids=["partial", "would-block", "reset"],
    )
    def test_a_direct_send_that_falls_short_keeps_fifo(
        self, wired, monkeypatch, outcome, expected
    ):
        """An application thread's send writes the socket itself.  When
        that write falls short, the rest leaves from the loop ahead of a
        later application send and a handler reply; a failed write drops
        the frame and the later ones still arrive, in order."""
        host, inbox, client, handlers = wired
        real = client._sock
        calls = []

        class FirstSendFalls:
            def send(self, data):
                calls.append(len(data))
                if len(calls) > 1:
                    return real.send(data)
                if isinstance(outcome, int):
                    return real.send(data[:outcome])
                raise outcome

        monkeypatch.setattr(client, "_sock", FirstSendFalls())
        handlers[0] = lambda message: client.send(msg(sender="c1", to="", tag="h"))
        # Hold the loop so the queued rest, the later send and the
        # broadcast that triggers the reply are all pending at once.
        entered, release = threading.Event(), threading.Event()

        def hold():
            entered.set()
            release.wait(5.0)

        client._loop.call_soon_threadsafe(hold)
        assert entered.wait(5.0)
        try:
            client.send(msg(sender="c1", to="", tag="a1"))
            client.send(msg(sender="c1", to="", tag="a2"))
            host.send(msg(to="c1", go=True))
            # The broadcast is in the client's socket before the loop reads.
            time.sleep(0.05)
        finally:
            release.set()
        tags = ["hello"] + expected
        assert wait_until(lambda: len(inbox.received) == len(tags))
        time.sleep(0.05)  # nothing more arrives
        assert [m.payload["tag"] for m in inbox.received] == tags
        assert calls[0] > 5

    def test_concurrent_senders_lose_and_reorder_nothing(self, wired):
        """Four application threads (more than the cores) write 2 KB
        frames through a 4 KB socket send buffer, so writes fall short
        and frames queue, while the loop thread answers broadcasts and
        threads switch every 10 µs: every frame arrives once, each
        thread's in its order."""
        host, inbox, client, handlers = wired
        senders, count = 4, 200
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        pad = "x" * 2000

        def reply(message):
            client.send(msg(sender="c1", to="", tag="h", n=message.payload["n"]))

        def run(t):
            for n in range(count):
                client.send(msg(sender="c1", to="", tag=f"t{t}", n=n, pad=pad))

        handlers[0] = reply
        workers = [threading.Thread(target=run, args=(t,)) for t in range(senders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for n in range(count):
                host.send(msg(to="c1", n=n))
            for worker in workers:
                worker.join(timeout=30.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = 1 + (senders + 1) * count
        assert wait_until(lambda: len(inbox.received) == total, timeout=30.0)
        by_tag = {}
        for message in inbox.received[1:]:
            by_tag.setdefault(message.payload["tag"], []).append(message.payload["n"])
        assert by_tag == {
            tag: list(range(count)) for tag in ["h"] + [f"t{t}" for t in range(senders)]
        }

    @pytest.mark.parametrize("name", ["127.0.0.1", "localhost"])
    @pytest.mark.parametrize(
        "client", [AioClientTransport, TcpClientTransport], ids=["aio", "tcp"]
    )
    def test_client_sockets_disable_nagle(self, aio_host, client, name):
        """Both clients set TCP_NODELAY themselves, whether they connect
        to an address or resolve a host name: a small frame written
        behind an unacknowledged one leaves at once."""
        host, _ = aio_host
        transport = client("c1", lambda message: None, name, host.address[1])
        try:
            sock = transport._sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            transport.close()


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
            self.loop_thread = host.loop.thread
            for _ in range(2):
                self.writers.append(socket.create_connection(host.address))
        else:
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(5.0)
            self._closers.append(listener.close)
            runner = EventLoop("read-side-clients")
            self._closers.append(runner.stop)
            self.loop_thread = runner.thread
            self.transports = []
            for i in range(2):
                client = AioClientTransport(
                    f"c{i}", self._handle, *listener.getsockname(), loop=runner
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

        future = concurrent.futures.Future()

        def call():
            try:
                future.set_result(function())
            except BaseException as exc:
                future.set_exception(exc)

        self.transports[0]._loop.call_soon_threadsafe(call)
        return future.result(30.0)

    def reads(self, chunks):
        """Loop thread only: hand *chunks* to a fresh connection of the
        transport under test, one read of the loop's shared buffer per
        chunk, written by the other end of a socket pair.  Returns the
        connection, which a failed read has closed."""
        transport = self.transports[0]
        sock, peer = socket.socketpair()
        sock.setblocking(False)
        conn = _Connection(transport, sock, transport._loop)
        try:
            for chunk in chunks:
                peer.sendall(chunk)
                conn.on_ready(selectors.EVENT_READ)
                if conn.closed:
                    break
        finally:
            peer.close()
        return conn

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


class TestClientWriteRule:
    """A loop-thread send leaves through the client's outbox when the
    pass ends, in one write per client, after every apply of the pass;
    an application thread writes its own frame when nothing is queued
    ahead of it (``TestAioClientTransport`` interleaves the two).  Two
    clients on one loop, each read by a raw socket (:class:`ReadSide`)."""

    @pytest.fixture
    def clients(self):
        side = ReadSide("client")
        yield side
        side.close()

    def test_a_burst_of_broadcasts_acks_once_per_client_after_every_apply(
        self, clients, monkeypatch
    ):
        """Broadcasts read in one loop pass: every apply runs first, then
        each client writes its two replies in one write, in that pass."""
        log = []

        def replier(i, client):
            def apply(message):
                log.append(("apply", i, passes[0]))
                client.send(msg(sender=f"c{i}", to="", ack=1))
                client.send(msg(sender=f"c{i}", to="", ack=2))

            return apply

        loop = clients.transports[0]._loop
        passes = count_passes(loop, monkeypatch)
        for i, client in enumerate(clients.transports):
            client._handler = replier(i, client)
            record_writes(client._conn, log, i, passes)
        # Both broadcasts wait in the kernel while the loop is held, so
        # the next poll finds both sockets readable.
        release = hold_loop(loop)
        for writer in clients.writers:
            writer.sendall(encode(msg(to="", event=1)))
        release.set()
        for writer in clients.writers:
            assert [read_frame(writer).payload for _ in range(2)] == [
                {"ack": 1},
                {"ack": 2},
            ]
        applied = log[0][2]
        assert sorted(log[:2]) == [("apply", 0, applied), ("apply", 1, applied)]
        assert sorted(entry[1:3] for entry in log[2:]) == [(0, applied), (1, applied)]
        for _, _, _, data in log[2:]:
            frames = StreamDecoder().feed(data)
            assert [m.payload for m in frames] == [{"ack": 1}, {"ack": 2}]

    def test_drive_wakes_on_a_reply_and_returns_at_its_timeout(self, clients):
        """Two threads parked in ``drive`` are both counted and both woken
        by one reply; a predicate that never holds still returns False
        at its timeout, and the count is back to zero after each."""
        client = clients.transports[0]
        results = []

        def wait_for_reply():
            results.append(client.drive(lambda: bool(clients.inbox.received)))

        waiters = [threading.Thread(target=wait_for_reply) for _ in range(2)]
        for waiter in waiters:
            waiter.start()
        assert wait_until(lambda: client._waiters == 2)
        clients.writers[0].sendall(clients.frame(0, reply=1))
        for waiter in waiters:
            waiter.join(timeout=10.0)
        assert results == [True, True]
        assert client._waiters == 0
        assert client.drive(lambda: False, timeout=0.05) is False
        assert client._waiters == 0


class TestPassRule:
    """One host and its clients on one :class:`EventLoop`: what a pass
    reads is written when that pass ends, one write per destination."""

    CLIENTS = 4

    def test_a_broadcast_burst_is_one_write_per_destination_per_pass(
        self, monkeypatch
    ):
        """c0's request makes the host send two frames to every client:
        each gets them in one host write, in the pass that read the
        request.  Every client applies both and writes its two acks in one
        write, in the pass that applied them, after every apply of that
        pass.  The host answers c0 once per ack; what the pass that reads
        the acks produces for c0 leaves in one write, after the last read."""
        loop = EventLoop("pass-rule")
        log, seen, clients = [], [], []

        def serve(message):
            if "go" in message.payload or "ack" in message.payload:
                log.append(("read", message.sender, passes[0]))
            if "go" in message.payload:
                for i in range(self.CLIENTS):
                    for n in (1, 2):
                        host.send(msg(to=f"c{i}", event=n))
            elif "ack" in message.payload:
                host.send(msg(to="c0", seen=message.sender))

        def replier(i):
            def apply(message):
                if "event" in message.payload:
                    log.append(("apply", i, passes[0]))
                    ack = msg(sender=f"c{i}", to="", ack=message.payload["event"])
                    clients[i].send(ack)
                elif "seen" in message.payload:
                    seen.append(message.payload["seen"])

            return apply

        host = AioHostTransport(serve, port=0, loop=loop)
        try:
            for i in range(self.CLIENTS):
                client = AioClientTransport(
                    f"c{i}", replier(i), *host.address, loop=loop
                )
                clients.append(client)
                client.send(msg(sender=f"c{i}", to="", hello=True))
            assert wait_until(lambda: len(host.connections()) == self.CLIENTS)
            # A pause before each poll lets what the last pass wrote
            # reach its loopback peer first.
            passes = count_passes(loop, monkeypatch, pause=0.005)
            for peer, conn in host._conns.items():
                record_writes(conn, log, f"to {peer}", passes)
            for i, client in enumerate(clients):
                record_writes(client._conn, log, f"from c{i}", passes)
            clients[0].send(msg(sender="c0", to="", go=True))
            assert wait_until(lambda: len(seen) == 2 * self.CLIENTS)
        finally:
            for client in clients:
                client.close()
            host.close()
            loop.stop()

        def payloads(data):
            return [m.payload for m in StreamDecoder().feed(data)]

        (_, sender, request_pass), *log = log
        assert sender == "c0"
        events = [{"event": 1}, {"event": 2}]
        host_writes, log = log[: self.CLIENTS], log[self.CLIENTS :]
        assert sorted(
            (label, when, payloads(data)) for _, label, when, data in host_writes
        ) == [(f"to c{i}", request_pass, events) for i in range(self.CLIENTS)]

        applies, log = log[: 2 * self.CLIENTS], log[2 * self.CLIENTS :]
        apply_pass = applies[0][2]
        assert apply_pass > request_pass
        assert sorted(applies) == sorted(
            ("apply", i, apply_pass) for i in range(self.CLIENTS) for _ in events
        )
        acks, log = log[: self.CLIENTS], log[self.CLIENTS :]
        assert sorted(
            (label, when, payloads(data)) for _, label, when, data in acks
        ) == [
            (f"from c{i}", apply_pass, [{"ack": 1}, {"ack": 2}])
            for i in range(self.CLIENTS)
        ]

        reads, (write,) = log[:-1], log[-1:]
        ack_pass = reads[0][2]
        assert sorted(reads) == sorted(
            ("read", f"c{i}", ack_pass) for i in range(self.CLIENTS) for _ in events
        )
        _, label, when, data = write
        assert (label, when) == ("to c0", ack_pass)
        assert sorted(m["seen"] for m in payloads(data)) == sorted(seen)


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
        lock acquisition and — on the client, with a thread parked in
        ``drive`` — one wake-up of that thread.  The host has no
        ``drive``, so no thread can wait on it and it notifies nobody."""
        read_side.identify()
        transport = read_side.transports[0]
        acquisitions = []

        class CountingLock:
            def __init__(self, lock):
                self._inner = lock

            def __enter__(self):
                acquisitions.append(1)
                return self._inner.__enter__()

            def __exit__(self, *exc):
                return self._inner.__exit__(*exc)

        def arrived():
            return len(read_side.inbox.payloads("w0")) == 21

        wakeups = []
        driven = []
        if read_side.side == "host":
            assert not hasattr(transport, "_cond")
        else:
            cond = transport._cond
            notify_all = cond.notify_all
            monkeypatch.setattr(
                cond, "notify_all", lambda: (wakeups.append(1), notify_all())
            )
            waiter = threading.Thread(
                target=lambda: driven.append(transport.drive(arrived, timeout=10.0))
            )
            waiter.start()
            assert wait_until(lambda: transport._waiters == 1)
        monkeypatch.setattr(transport, "_lock", CountingLock(transport._lock))
        burst = b"".join(read_side.frame(0, seq=i) for i in range(20))
        assert len(burst) < _RECV_BUFFER_SIZE // 8
        read_side.writers[0].sendall(burst)
        assert wait_until(arrived)
        assert read_side.inbox.payloads("w0")[1:] == [{"seq": i} for i in range(20)]
        assert len(acquisitions) == 1
        if read_side.side == "client":
            waiter.join(timeout=10.0)
            assert driven == [True]
            assert len(wakeups) == 1
            assert transport._waiters == 0

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
            conn = read_side.reads([frames])
            view = read_side.transports[0]._loop.view
            view[:] = b"\xff" * len(view)
            closed = conn.closed
            conn.close()
            return closed

        assert read_side.on_loop(read_then_overwrite) is False
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

    @pytest.mark.expects_loop_error
    def test_frames_ahead_of_a_bad_frame_arrive_however_the_stream_splits(
        self, read_side, loop_errors
    ):
        """The same stream read whole and cut at every offset into two
        reads, each on a fresh connection: every time, exactly the two
        good frames ahead of the bad one are dispatched, then the read
        fails, is logged and closes the connection; the host counts one
        connection error each time."""
        stream = read_side.bad_frame_stream()
        transport = read_side.transports[0]

        def every_split():
            outcomes = []
            for cut in range(1, len(stream) + 1):
                before = len(read_side.inbox.received)
                errors = len(loop_errors)
                chunks = [stream[:cut], stream[cut:]] if cut < len(stream) else [stream]
                conn = read_side.reads(chunks)
                outcomes.append(
                    (
                        [m.payload for m in read_side.inbox.received[before:]],
                        conn.closed,
                        [record.exc_info[0] for record in loop_errors[errors:]],
                    )
                )
            return outcomes

        errors_before = getattr(transport, "connection_errors", 0)
        outcomes = read_side.on_loop(every_split)
        assert outcomes == [([{"n": 0}, {"n": 1}], True, [CodecError])] * len(stream)
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
            assert frame[HEADER_SIZE : HEADER_SIZE + 1] == b"{"
            body = b'{"reply_to":[1],' + frame[HEADER_SIZE + 1 :]
            assert b'"reply_to":[1]' in body and b'"reply_to"' not in frame
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
        assert "event=read_failed peer=" in loop_errors[0].getMessage()
        assert loop_errors[0].exc_info[0].__name__ == error

        # ... and the other one keeps round-tripping on a living loop.
        good.sendall(read_side.frame(1, ping=1))
        assert wait_until(lambda: {"ping": 1} in read_side.inbox.payloads("w1"))
        read_side.answer(1, pong=1)
        assert read_frame(good).payload == {"pong": 1}
        assert read_side.loop_thread.is_alive()
        assert len(loop_errors) == 1


def test_runtime_stats_show_connection_errors():
    host = AioHostTransport(lambda message: None, port=0)
    try:
        assert host.connection_errors == 0
        with socket.create_connection(host.address) as sock:
            sock.sendall(encode(msg(sender="c1", to="")))
            assert wait_until(lambda: len(host.connections()) == 1)
            # Reset by the peer with unread bytes pending: a socket
            # error, not a protocol one — counted, and no ``read_failed``
            # record.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        assert wait_until(lambda: host.connection_errors == 1)
        assert len(host.connections()) == 0
    finally:
        host.close()


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
    """Closing a session closes every socket on its loop, the loop's own
    selector and self-pipe included: none is left for the garbage
    collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with Session(backend="aio") as session:
            source, replica = coupled_fields(session)
            source.commit("x")
            assert settle(session, lambda: replica.value == "x")
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_private_loop_transports_close_what_they_opened():
    """A ``loop=None`` host or client owns its loop thread (every
    ``ProcCluster`` shard link is one): ``close()`` closes its sockets,
    ends the thread and closes the loop's selector and self-pipe —
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
        assert not host.loop.thread.is_alive()
        assert not client._loop.thread.is_alive()
        assert open_fds() - before == set()
        del host, client
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


@pytest.mark.expects_loop_error
def test_a_raising_callback_is_logged_and_the_loop_goes_on(loop_errors):
    """A callback that raises is reported (``callback_failed``, with its
    traceback) and the loop runs the next one."""
    loop = EventLoop("raising-callback")
    ran = threading.Event()

    def boom():
        raise RuntimeError("callback blew up")

    try:
        loop.call_soon_threadsafe(boom)
        loop.call_soon_threadsafe(ran.set)
        assert ran.wait(5.0)
    finally:
        loop.stop()
    assert [record.exc_info[0] for record in loop_errors] == [RuntimeError]
    assert "event=callback_failed callback=" in loop_errors[0].getMessage()
    assert not loop.thread.is_alive()


@pytest.mark.parametrize("shared", [True, False], ids=["shared-loop", "private-loop"])
def test_close_sends_what_the_kernel_had_not_taken_then_closes(shared):
    """A client closed while its peer is not reading: what it sent
    before ``close()`` waits in the connection until the kernel takes
    it, and only then is the socket closed — the peer reads every frame,
    in order, then EOF.  A client on a private loop (a ``ProcCluster``
    shard link, the ``tools/cluster.py`` admin client) waits for that in
    ``close()`` before it stops the loop, whose exit closes the socket."""
    loop = EventLoop("closing-client") if shared else None
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(5.0)
    client = AioClientTransport(
        "c1", lambda message: None, *listener.getsockname(), loop=loop
    )
    peer, _ = listener.accept()
    try:
        # A small send buffer leaves most of 400 KB unsent; the peer's
        # default receive window then takes it at once when it reads.
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        count, pad = 100, "x" * 4000
        for n in range(count):
            client.send(msg(sender="c1", to="", n=n, pad=pad))
        assert wait_until(lambda: client._conn.unsent)
        closer = threading.Thread(target=client.close)
        closer.start()
        assert [read_frame(peer).payload["n"] for _ in range(count)] == list(
            range(count)
        )
        assert reads_eof(peer)
        closer.join(5.0)
        assert not closer.is_alive()
        assert not client._loop.thread.is_alive() or shared
    finally:
        client.close()
        peer.close()
        listener.close()
        if loop is not None:
            loop.stop()


def test_failed_connect_stops_the_private_loop():
    """A ``loop=None`` client that cannot connect has no owner to close
    it later, so it connects before it starts a loop thread."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    listener.close()  # nobody listens here any more
    with pytest.raises(OSError):
        AioClientTransport("refused", lambda message: None, "127.0.0.1", port)
    names = [thread.name for thread in threading.enumerate()]
    assert "aio-client-refused" not in names


def test_a_private_loop_client_closes_from_its_own_handler():
    """``close()`` called on a private-loop client's own loop thread (its
    handler) queues the loop's end: it neither waits for its own
    connection nor joins the thread it runs on, and the loop ends."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(5.0)
    closed = threading.Event()

    def close_on_first_message(message):
        client.close()
        closed.set()

    client = AioClientTransport("c1", close_on_first_message, *listener.getsockname())
    peer, _ = listener.accept()
    try:
        peer.sendall(encode(msg(to="c1", bye=True)))
        assert closed.wait(5.0)
        client._loop.thread.join(5.0)
        assert not client._loop.thread.is_alive()
        assert reads_eof(peer)
    finally:
        client.close()
        peer.close()
        listener.close()


@pytest.mark.parametrize("side", ["host", "client"])
def test_a_burst_read_as_the_transport_closes_is_not_dispatched(side):
    """close() lands while the loop thread holds a burst it has read but
    not dispatched yet (it waits for the guard the closing thread
    holds): the burst is dropped, no handler runs after close."""
    runner = EventLoop("late-burst")
    delivered, closers = [], [runner.stop]

    def loop_answers():
        answered = threading.Event()
        runner.call_soon_threadsafe(answered.set)
        return answered.wait(0.05)

    try:
        if side == "host":
            transport = AioHostTransport(delivered.append, port=0, loop=runner)
            writer = socket.create_connection(transport.address)
        else:
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            closers.append(listener.close)
            transport = AioClientTransport(
                "c1", delivered.append, *listener.getsockname(), loop=runner
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
