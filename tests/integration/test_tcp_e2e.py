"""End-to-end coupling over real TCP sockets (the star topology of §2.2)."""

import time

import pytest

from repro.session import Session

from conftest import make_demo_tree

FIELD = "/app/form/name"


@pytest.fixture
def tcp():
    with Session(backend="tcp") as session:
        yield session


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestTcpEndToEnd:
    def test_register_roster(self, tcp):
        a = tcp.create_instance("a", user="u1")
        b = tcp.create_instance("b", user="u2")
        assert wait_until(lambda: "b" in a.roster)
        assert set(b.roster) == {"a", "b"}

    def test_coupled_event_over_sockets(self, tcp):
        a = tcp.create_instance("a", user="u1")
        b = tcp.create_instance("b", user="u2")
        ta = a.add_root(make_demo_tree())
        tb = b.add_root(make_demo_tree())
        a.couple(ta.find(FIELD), ("b", FIELD))
        assert wait_until(lambda: b.is_coupled(FIELD))
        ta.find(FIELD).commit("over tcp")
        assert wait_until(lambda: tb.find(FIELD).value == "over tcp")

    def test_copy_from_over_sockets(self, tcp):
        a = tcp.create_instance("a", user="u1")
        b = tcp.create_instance("b", user="u2")
        ta = a.add_root(make_demo_tree())
        tb = b.add_root(make_demo_tree())
        tb.find(FIELD).commit("remote content")
        a.copy_from(ta.find("/app/form"), ("b", "/app/form"))
        assert ta.find(FIELD).value == "remote content"

    def test_command_roundtrip_over_sockets(self, tcp):
        a = tcp.create_instance("a", user="u1")
        b = tcp.create_instance("b", user="u2")
        b.on_command("double", lambda data, sender: data * 2)
        assert a.send_command("double", 21, targets=["b"], want_reply=True) == 42

    def test_unregister_decouples_over_sockets(self, tcp):
        a = tcp.create_instance("a", user="u1")
        b = tcp.create_instance("b", user="u2")
        ta = a.add_root(make_demo_tree())
        b.add_root(make_demo_tree())
        a.couple(ta.find(FIELD), ("b", FIELD))
        assert wait_until(lambda: b.is_coupled(FIELD))
        a.close()
        assert wait_until(lambda: not b.is_coupled(FIELD))

    def test_many_events_converge(self, tcp):
        a = tcp.create_instance("a", user="u1")
        b = tcp.create_instance("b", user="u2")
        ta = a.add_root(make_demo_tree())
        tb = b.add_root(make_demo_tree())
        a.couple(ta.find(FIELD), ("b", FIELD))
        assert wait_until(lambda: b.is_coupled(FIELD))
        for i in range(30):
            ta.find(FIELD).commit(f"v{i}")
        assert wait_until(lambda: tb.find(FIELD).value == "v29")
