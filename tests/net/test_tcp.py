"""Tests for the TCP transport (real localhost sockets)."""

import logging
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import DeliveryError, TransportClosedError
from repro.net import kinds
from repro.net.codec import JSON_CODEC
from repro.net.message import Message
from repro.net.tcp import TcpClientTransport, TcpHostTransport


def msg(sender, to="", **payload):
    return Message(kind=kinds.COMMAND, sender=sender, to=to, payload=payload)


class Collector:
    def __init__(self):
        self.received = []
        self.event = threading.Event()

    def __call__(self, message):
        self.received.append(message)
        self.event.set()


@pytest.fixture
def host():
    inbox = Collector()
    transport = TcpHostTransport(inbox, port=0)
    yield transport, inbox
    transport.close()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def bad_frame_stream():
    """Frames {"n": 0} and {"n": 1} from c1, an undecodable frame, then
    {"n": 2}: one byte stream."""
    bad = struct.pack(">I", 7) + b"\x00garbage"[:7]
    good = [JSON_CODEC.encode(msg("c1", n=n)) for n in range(3)]
    return good[0] + good[1] + bad + good[2]


class ScriptedSocket:
    """What the host's reader needs of a socket: *chunks*, one per
    ``recv``, then end of stream."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.closed = False

    def recv(self, size):
        return self.chunks.pop(0) if self.chunks else b""

    def close(self):
        self.closed = True


class TestBadFrame:
    """A read that holds good frames and then an undecodable one delivers
    the good ones, then the reader ends and closes the connection."""

    def test_host_reader_at_every_split(self, host, caplog):
        transport, inbox = host
        caplog.set_level(logging.WARNING, logger="repro.net.tcp")
        stream = bad_frame_stream()
        for cut in range(1, len(stream) + 1):
            before = len(inbox.received)
            sock = ScriptedSocket(
                [stream[:cut], stream[cut:]] if cut < len(stream) else [stream]
            )
            transport._reader_loop(sock)
            assert [m.payload for m in inbox.received[before:]] == [
                {"n": 0},
                {"n": 1},
            ], cut
            assert sock.closed
            assert transport.connections() == ()
        assert caplog.text.count("error=CodecError") == len(stream)

    def test_host_over_a_socket(self, host, caplog):
        transport, inbox = host
        caplog.set_level(logging.WARNING, logger="repro.net.tcp")
        peer = socket.create_connection(transport.address)
        try:
            peer.sendall(bad_frame_stream())
            peer.settimeout(5.0)
            assert peer.recv(1) == b""  # the host closed it
            assert [m.payload for m in inbox.received] == [{"n": 0}, {"n": 1}]
            assert "event=connection_error peer=c1 error=CodecError" in caplog.text
            assert wait_until(lambda: transport.connections() == ())
        finally:
            peer.close()

    def test_client_over_a_socket(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.net.tcp")
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        inbox = Collector()
        client = TcpClientTransport("c1", inbox, *listener.getsockname())
        server_side, _ = listener.accept()
        try:
            server_side.sendall(bad_frame_stream())
            assert wait_until(lambda: "error=CodecError" in caplog.text)
            assert [m.payload for m in inbox.received] == [{"n": 0}, {"n": 1}]
            assert "event=client_connection_lost local_id=c1" in caplog.text
        finally:
            client.close()
            server_side.close()
            listener.close()


class TestTcpTransport:
    def test_a_reset_connection_is_logged_and_forgotten(self, host, caplog):
        transport, inbox = host
        caplog.set_level(logging.WARNING, logger="repro.net.tcp")
        peer = socket.create_connection(transport.address)
        peer.sendall(JSON_CODEC.encode(msg("c1")))
        assert inbox.event.wait(5.0)
        assert transport.connections() == ("c1",)
        # Linger 0: the close is an RST, which fails the host's recv.
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        peer.close()
        deadline = time.monotonic() + 5.0
        while transport.connections() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert transport.connections() == ()
        assert "event=connection_error" in caplog.text
        assert "ConnectionResetError" in caplog.text

    def test_client_to_host(self, host):
        transport, inbox = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        try:
            client.send(msg("c1", data="hello"))
            assert inbox.event.wait(5.0)
            assert inbox.received[0].payload == {"data": "hello"}
        finally:
            client.close()

    def test_host_to_client_after_first_message(self, host):
        transport, inbox = host
        _, port = transport.address
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg("c1"))  # associates the connection with "c1"
            assert inbox.event.wait(5.0)
            transport.send(msg("server", to="c1", pong=True))
            assert client_inbox.event.wait(5.0)
            assert client_inbox.received[0].payload == {"pong": True}
        finally:
            client.close()

    def test_send_to_unknown_client_raises(self, host):
        transport, _ = host
        with pytest.raises(DeliveryError):
            transport.send(msg("server", to="ghost"))

    def test_many_messages_preserve_order(self, host):
        transport, inbox = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        try:
            for i in range(200):
                client.send(msg("c1", i=i))
            deadline = time.monotonic() + 5.0
            while len(inbox.received) < 200 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [m.payload["i"] for m in inbox.received] == list(range(200))
        finally:
            client.close()

    def test_drive_waits_for_predicate(self, host):
        transport, inbox = host
        _, port = transport.address
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg("c1"))
            assert inbox.event.wait(5.0)

            def reply_later():
                time.sleep(0.05)
                transport.send(msg("server", to="c1", late=True))

            threading.Thread(target=reply_later, daemon=True).start()
            assert client.drive(lambda: bool(client_inbox.received), timeout=5.0)
        finally:
            client.close()

    def test_drive_timeout_returns_false(self, host):
        transport, _ = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        try:
            assert not client.drive(lambda: False, timeout=0.1)
        finally:
            client.close()

    def test_send_after_close_raises(self, host):
        transport, _ = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        client.close()
        with pytest.raises(TransportClosedError):
            client.send(msg("c1"))

    def test_two_clients_roundtrip_via_host(self, host):
        transport, inbox = host
        _, port = transport.address
        inbox_a, inbox_b = Collector(), Collector()
        a = TcpClientTransport("a", inbox_a, "127.0.0.1", port)
        b = TcpClientTransport("b", inbox_b, "127.0.0.1", port)
        try:
            a.send(msg("a"))
            b.send(msg("b"))
            deadline = time.monotonic() + 5.0
            while len(inbox.received) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            # Host relays a message from a to b.
            transport.send(msg("server", to="b", relayed=True))
            assert inbox_b.event.wait(5.0)
            assert inbox_b.received[0].payload == {"relayed": True}
        finally:
            a.close()
            b.close()

    def test_stats_recorded(self, host):
        transport, inbox = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        try:
            client.send(msg("c1"))
            assert inbox.event.wait(5.0)
            assert client.stats.messages == 1
            assert client.stats.bytes > 0
        finally:
            client.close()


#: Run in a fresh interpreter: connects a tcp client to a numeric
#: address and prints whether the idna codec was imported on the way.
_CONNECT_SCRIPT = """
import sys
from repro.net.tcp import TcpClientTransport, TcpHostTransport

host = TcpHostTransport(lambda message: None, port=0)
client = TcpClientTransport("c1", lambda message: None, "127.0.0.1", host.address[1])
client.close()
host.close()
print("encodings.idna" in sys.modules)
"""


def test_a_numeric_address_connects_without_the_resolver():
    """``TcpClientTransport`` connects to 127.0.0.1 without
    ``getaddrinfo``, so the idna codec (``encodings.idna``,
    ``stringprep``, ``unicodedata``: 0.5 MB of RSS) is never imported."""
    src = Path(__file__).parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", _CONNECT_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
