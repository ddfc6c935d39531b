"""Tests for the TCP transport (real localhost sockets)."""

import logging
import socket
import struct
import threading
import time

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
