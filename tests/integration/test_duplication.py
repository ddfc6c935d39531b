"""At-least-once delivery tolerance: duplicated broadcasts must be benign.

A duplicated EVENT_BROADCAST re-executing a *non-idempotent* feedback
(toggle flip, stroke append) would corrupt replicas; the per-origin event
sequence dedup prevents it, while the duplicate's ack keeps floors from
wedging.
"""

import pytest

from repro.net import kinds
from repro.net.message import Message
from repro.session import Session
from repro.toolkit.events import Event
from repro.toolkit.widgets import Canvas, Shell, TextField, ToggleButton

FLAG = "/ui/flag"
CANVAS = "/ui/canvas"
FIELD = "/ui/field"


def build_tree():
    root = Shell("ui")
    ToggleButton("flag", parent=root)
    Canvas("canvas", parent=root, width=20, height=5)
    TextField("field", parent=root)
    return root


@pytest.fixture
def duo():
    session = Session(duplicate_rate=0.0)
    a = session.create_instance("a", user="u1")
    b = session.create_instance("b", user="u2")
    ta = a.add_root(build_tree())
    tb = b.add_root(build_tree())
    for path in (FLAG, CANVAS, FIELD):
        a.couple(ta.find(path), ("b", path))
    session.pump()
    yield session, a, b, ta, tb
    session.close()


class TestExplicitDuplicates:
    def _duplicate_broadcast(self, b, event, targets):
        payload = {
            "event": event.to_wire(),
            "targets": targets,
            "owner": ["a", 1],
        }
        message = Message(
            kind=kinds.EVENT_BROADCAST, sender="server", to="b",
            payload=payload,
        )
        b.handle_message(message)
        b.handle_message(message)  # the duplicate

    def test_duplicate_toggle_applies_once(self, duo):
        session, a, b, ta, tb = duo
        event = Event(
            type="activate", source_path=FLAG, instance_id="a", user="u1"
        )
        self._duplicate_broadcast(b, event, [FLAG])
        assert tb.find(FLAG).value is True  # flipped once, not twice
        assert b.stats["duplicate_events"] == 1

    def test_duplicate_stroke_applies_once(self, duo):
        session, a, b, ta, tb = duo
        event = Event(
            type="draw",
            source_path=CANVAS,
            params={"stroke": {"points": [[1, 1]], "color": "black",
                               "width": 1}},
            instance_id="a",
        )
        self._duplicate_broadcast(b, event, [CANVAS])
        assert tb.find(CANVAS).stroke_count == 1

    def test_duplicate_still_acked(self, duo):
        session, a, b, ta, tb = duo
        event = Event(type="activate", source_path=FLAG, instance_id="a")
        before = session.network.stats.by_kind.get(kinds.EVENT_ACK, 0)
        self._duplicate_broadcast(b, event, [FLAG])
        acks = session.network.stats.by_kind.get(kinds.EVENT_ACK, 0) - before
        assert acks == 2  # one per delivery: floors cannot wedge


class TestDuplicatingNetwork:
    def test_convergence_under_random_duplication(self):
        session = Session(duplicate_rate=0.3, seed=11)
        try:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            ta = a.add_root(build_tree())
            tb = b.add_root(build_tree())
            a.couple(ta.find(FLAG), ("b", FLAG))
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            for i in range(15):
                ta.find(FLAG).toggle()
                ta.find(FIELD).commit(f"v{i}")
                session.pump()
            # 15 flips -> True; duplicates must not add extra flips.
            assert ta.find(FLAG).value is True
            assert tb.find(FLAG).value is True
            assert tb.find(FIELD).value == "v14"
            assert b.stats.get("duplicate_events", 0) > 0
            assert len(session.server.locks) == 0
        finally:
            session.close()

    def test_duplicate_rate_validated(self):
        from repro.net.memory import MemoryNetwork

        with pytest.raises(ValueError):
            MemoryNetwork(duplicate_rate=1.0)


def test_a_duplicate_state_reply_is_dropped(monkeypatch):
    """The owner's STATE_REPLY reaches the server twice: the first settles
    the CopyFrom, the second finds no pending route and is dropped."""
    with Session() as session:
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        ta = a.add_root(build_tree())
        tb = b.add_root(build_tree())
        tb.find(FIELD).commit("copied")
        session.pump()
        submit = session.network.submit

        def twice(message):
            submit(message)
            if message.kind == kinds.STATE_REPLY and message.sender == "b":
                submit(message)

        monkeypatch.setattr(session.network, "submit", twice)
        a.copy_from(FIELD, ("b", FIELD))
        session.pump()
        assert ta.find(FIELD).value == "copied"
        assert session.server.processed[kinds.STATE_REPLY] == 2
        assert a.stats[f"rx_{kinds.STATE_REPLY}"] == 1
