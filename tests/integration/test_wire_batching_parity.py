"""Mixed fleet: batch envelopes are input every host accepts.

This implementation never emits a batch envelope (docs/PROTOCOL.md),
but a peer may: one that wraps every frame in an envelope and a peer
that speaks per-message frames interoperate on the same port, on both
socket hosts, with JSON and binary members, with no handshake.

(The file keeps its historical name so these tests keep their ids; the
on/off parity runs it once held went with the ``wire_batching`` knob.)
"""

import struct

import pytest

from repro.core.instance import ApplicationInstance
from repro.net.codec import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    HEADER_SIZE,
    _write_uvarint,
)
from repro.net.tcp import TcpClientTransport
from repro.session import Session

from conftest import make_demo_tree
from test_codec_interop import wait_until

FIELD = "/app/form/name"


class EnvelopeSpeakingClient(TcpClientTransport):
    """A client that wraps *every* outbound frame in a batch envelope.

    ``encode_batch`` deliberately degenerates single-message batches to
    plain frames, so this builds the count=1 envelope by hand — proving
    the server splits envelopes from any peer with no handshake and no
    mode bit, even interleaved with per-message peers on the same port.
    """

    def _send_on(self, sock, message, codec=None):
        frame = (codec if codec is not None else self._codec).encode(message)
        inner = bytearray((ENVELOPE_MAGIC, ENVELOPE_VERSION))
        _write_uvarint(inner, 1)
        _write_uvarint(inner, len(frame) - HEADER_SIZE)
        inner += frame[HEADER_SIZE:]
        payload = struct.pack(">I", len(inner)) + bytes(inner)
        sock.sendall(payload)
        return len(payload)


@pytest.mark.parametrize("backend", ["tcp", "aio"])
@pytest.mark.parametrize("peer_codec", ["json", "binary"])
def test_envelope_and_legacy_peers_share_a_port(backend, peer_codec):
    with Session(backend=backend) as session:
        # Peer "a": a stock session-managed client, per-message frames.
        a = session.create_instance("a", user="u1")
        tree_a = a.add_root(make_demo_tree())

        # Peer "b": every frame arrives inside a batch envelope.
        b = ApplicationInstance("b", "u2")
        b.bind(
            EnvelopeSpeakingClient(
                "b", b.handle_message, session.host, session.port,
                codec=peer_codec,
            )
        )
        b.register()
        tree_b = b.add_root(make_demo_tree())
        try:
            assert wait_until(lambda: "b" in a.roster and "a" in b.roster)

            a.couple(tree_a.find(FIELD), ("b", FIELD))
            assert wait_until(lambda: b.is_coupled(FIELD))

            tree_a.find(FIELD).commit("from-legacy")
            assert wait_until(lambda: tree_b.find(FIELD).value == "from-legacy")

            tree_b.find(FIELD).commit("from-envelope")
            assert wait_until(lambda: tree_a.find(FIELD).value == "from-envelope")
        finally:
            b.close()


def test_envelope_peer_negotiates_codec():
    """The decoder reports the envelope's member codec, so a binary
    envelope speaker is answered in binary like any binary peer."""
    with Session(backend="tcp", codec="json") as session:
        b = ApplicationInstance("b", "u2")
        b.bind(
            EnvelopeSpeakingClient(
                "b", b.handle_message, session.host, session.port,
                codec="binary",
            )
        )
        b.register()
        try:
            host = session._host_transport
            assert wait_until(
                lambda: host._peer_codecs.get("b") is not None
            )
            assert host._peer_codecs["b"].name == "binary"
        finally:
            b.close()
