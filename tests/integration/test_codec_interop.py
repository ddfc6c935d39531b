"""Codec interop: mixed fleets of JSON and binary clients on one server.

Negotiation is per connection (docs/PROTOCOL.md): the server detects
each peer's codec from the first body byte of its frames and answers in
kind, so a binary deployment accepts legacy JSON clients (and vice
versa) with no handshake and no configuration on the server side.
"""

import time

import pytest

from repro.core.instance import ApplicationInstance
from repro.net.aio import AioClientTransport
from repro.net.tcp import TcpClientTransport
from repro.session import Session

from conftest import make_demo_tree

FIELD = "/app/form/name"


def wait_until(predicate, timeout=5.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def drive_mixed_fleet(session, connect):
    """One session-managed instance plus one foreign-codec manual client."""
    a = session.create_instance("a", user="u1")
    tree_a = a.add_root(make_demo_tree())

    foreign_codec = "json" if session.config.codec == "binary" else "binary"
    b = ApplicationInstance("b", "u2")
    connect(b, foreign_codec)
    b.register()
    tree_b = b.add_root(make_demo_tree())
    try:
        assert wait_until(lambda: "b" in a.roster and "a" in b.roster)

        # Couple across the codec boundary and edit from both sides.
        a.couple(tree_a.find(FIELD), ("b", FIELD))
        assert wait_until(lambda: b.is_coupled(FIELD))

        tree_a.find(FIELD).commit("from-a")
        assert wait_until(lambda: tree_b.find(FIELD).value == "from-a")

        tree_b.find(FIELD).commit("from-b")
        assert wait_until(lambda: tree_a.find(FIELD).value == "from-b")
    finally:
        b.close()


@pytest.mark.parametrize("server_codec", ["json", "binary"])
def test_tcp_mixed_fleet(server_codec):
    with Session(backend="tcp", codec=server_codec) as session:
        drive_mixed_fleet(
            session,
            lambda inst, codec: inst.bind(
                TcpClientTransport(
                    inst.instance_id,
                    inst.handle_message,
                    session.host,
                    session.port,
                    codec=codec,
                )
            ),
        )


@pytest.mark.parametrize("server_codec", ["json", "binary"])
def test_aio_mixed_fleet(server_codec):
    with Session(backend="aio", codec=server_codec) as session:
        drive_mixed_fleet(
            session,
            # A private loop thread: a plain out-of-process-style client.
            lambda inst, codec: inst.bind(
                AioClientTransport(
                    inst.instance_id,
                    inst.handle_message,
                    session.host,
                    session.port,
                    codec=codec,
                )
            ),
        )


@pytest.mark.parametrize("shards", [1, 2])
def test_tcp_binary_sharded_cluster(shards):
    with Session(backend="tcp", codec="binary", shards=shards) as session:
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        tree_a = a.add_root(make_demo_tree())
        tree_b = b.add_root(make_demo_tree())
        assert wait_until(lambda: "b" in a.roster and "a" in b.roster)
        a.couple(tree_a.find(FIELD), ("b", FIELD))
        assert wait_until(lambda: b.is_coupled(FIELD))
        tree_a.find(FIELD).commit("hello")
        assert wait_until(lambda: tree_b.find(FIELD).value == "hello")


def test_aio_binary_process_cluster_links_speak_binary():
    """A session's codec is its shard links' codec: with ``"binary"``
    the router and every worker process speak binary to each other."""
    with Session(backend="aio", shards=2, processes=True, codec="binary") as session:
        for handle in session.cluster.shards.values():
            args = handle.process.args
            assert args[args.index("--codec") + 1] == "binary"
            assert handle.codec.name == "binary"
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        tree_a = a.add_root(make_demo_tree())
        tree_b = b.add_root(make_demo_tree())
        assert wait_until(lambda: "b" in a.roster and "a" in b.roster, 30.0)
        a.couple(tree_a.find(FIELD), ("b", FIELD))
        assert wait_until(lambda: b.is_coupled(FIELD), 30.0)
        tree_a.find(FIELD).commit("hello")
        assert wait_until(lambda: tree_b.find(FIELD).value == "hello", 30.0)


def test_server_answers_each_peer_in_its_own_codec():
    """Inspect the host transport: after a mixed fleet registers, the
    negotiated per-peer codec map holds one entry per foreign peer."""
    with Session(backend="tcp", codec="binary") as session:
        session.create_instance("bin-client", user="u1")
        json_client = ApplicationInstance("json-client", "u2")
        json_client.bind(
            TcpClientTransport(
                "json-client",
                json_client.handle_message,
                session.host,
                session.port,
                codec="json",
            )
        )
        json_client.register()
        try:
            assert wait_until(
                lambda: "json-client" in session._host_transport.connections()
            )
            host = session._host_transport
            assert wait_until(
                lambda: host._peer_codecs.get("json-client") is not None
            )
            assert host._peer_codecs["json-client"].name == "json"
            assert host._peer_codecs["bin-client"].name == "binary"
        finally:
            json_client.close()


def test_memory_binary_accounts_fewer_bytes():
    """The simulator prices frames with the session codec: the same
    workload costs fewer bytes under binary than under JSON."""
    def run(codec):
        with Session(codec=codec) as session:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            tree_a = a.add_root(make_demo_tree())
            b.add_root(make_demo_tree())
            session.pump()
            a.couple(tree_a.find(FIELD), ("b", FIELD))
            session.pump()
            tree_a.find(FIELD).commit("payload-bytes")
            session.pump()
            return session.traffic()["bytes"]

    assert run("binary") < run("json")
