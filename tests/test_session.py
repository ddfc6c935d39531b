"""Tests for the session on the memory and tcp backends."""

import logging
import os

import pytest

from repro.errors import ServerError
from repro.server.server import SERVER_ID
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField


class TestLocalSession:
    def test_server_attached_and_bound(self):
        session = Session()
        assert SERVER_ID in session.network.endpoints()
        session.close()

    def test_create_instance_registers_by_default(self):
        session = Session()
        inst = session.create_instance("x", user="u")
        assert inst.registered
        assert "x" in session.server.registry
        session.close()

    def test_create_instance_without_register(self):
        session = Session()
        inst = session.create_instance("x", user="u", register=False)
        assert not inst.registered
        assert "x" not in session.server.registry
        session.close()

    def test_drop_instance(self):
        session = Session()
        session.create_instance("x", user="u")
        session.drop_instance("x")
        assert "x" not in session.instances
        assert "x" not in session.server.registry
        session.drop_instance("ghost")  # no-op, no raise
        session.close()

    def test_traffic_snapshot(self):
        session = Session()
        session.create_instance("x", user="u")
        traffic = session.traffic()
        assert traffic["messages"] >= 2  # register + ack
        session.close()

    def test_now_tracks_clock(self):
        session = Session(base_latency=0.5)
        session.create_instance("x", user="u")
        assert session.now >= 1.0  # register round trip
        session.close()

    def test_close_unregisters_everyone(self):
        session = Session()
        session.create_instance("x", user="u")
        session.create_instance("y", user="v")
        session.close()
        assert len(session.server.registry) == 0

    def test_ack_release_flag_plumbs_through(self):
        session = Session(ack_release=False)
        assert session.server.ack_release is False
        session.close()

    def test_default_deny_policy(self):
        session = Session(default_allow=False)
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        tree_a = a.add_root(Shell("ui"))
        TextField("f", parent=tree_a)
        tree_b = b.add_root(Shell("ui"))
        TextField("f", parent=tree_b)
        with pytest.raises(ServerError):
            a.couple(tree_a.find("/ui/f"), ("b", "/ui/f"))
        session.close()

    def test_seed_controls_determinism(self):
        def run(seed):
            session = Session(jitter=0.01, seed=seed)
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            ta = a.add_root(Shell("ui"))
            TextField("f", parent=ta)
            tb = b.add_root(Shell("ui"))
            TextField("f", parent=tb)
            a.couple(ta.find("/ui/f"), ("b", "/ui/f"))
            session.pump()
            for i in range(5):
                ta.find("/ui/f").commit(str(i))
            session.pump()
            result = session.now
            session.close()
            return result

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_close_finishes_when_a_journal_close_fails(self, caplog, monkeypatch):
        session = Session(persistence=True)
        session.create_instance("a", user="u")
        journal = session.persistence
        directory = journal.config.directory

        def fail():
            raise OSError("disk gone")

        monkeypatch.setattr(journal, "close", fail)
        with caplog.at_level(logging.WARNING, logger="repro.session"):
            session.close()
        assert "closing a journal failed" in caplog.text
        assert not os.path.exists(directory)  # the ephemeral dir still goes
        assert len(session.server.registry) == 0


class TestTcpSession:
    def test_context_manager_and_roundtrip(self):
        with Session(backend="tcp") as session:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            b.on_command("echo", lambda data, sender: data)
            assert a.send_command("echo", "ping", targets=["b"],
                                  want_reply=True) == "ping"

    def test_port_assigned(self):
        with Session(backend="tcp") as session:
            assert session.port > 0

    def test_close_tolerates_dead_instances(self):
        session = Session(backend="tcp")
        inst = session.create_instance("a", user="u")
        inst.transport.close()  # simulate a crash
        session.close()  # must not raise
