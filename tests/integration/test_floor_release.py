"""Regression tests for the ack-based floor release protocol.

The paper (§3.2): locked objects are "unlocked when the processing of this
event is completed".  The server therefore holds the floor until every
receiving instance acknowledges the broadcast; a same-instance burst may
transfer its own floor (its events are FIFO end to end), while other
instances are refused until the acks drain.
"""

import pytest

from repro.net import kinds
from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED
from repro.toolkit.widgets import Shell, TextField, ToggleButton

from conftest import make_demo_tree

FIELD = "/app/form/name"
FLAG = "/app/form/flag"


@pytest.fixture
def duo():
    session = Session()
    a = session.create_instance("a", user="u1")
    b = session.create_instance("b", user="u2")
    ta = a.add_root(make_demo_tree())
    tb = b.add_root(make_demo_tree())
    a.couple(ta.find(FIELD), ("b", FIELD))
    session.pump()
    yield session, a, b, ta, tb
    session.close()


class TestAckBasedRelease:
    def test_floor_held_until_receiver_acks(self, duo):
        session, a, b, ta, tb = duo
        ta.find(FIELD).commit("first")
        # The floor request carried the event, so the server granted and
        # broadcast before commit() returned; step the network no further
        # than that: the broadcast is in flight but unprocessed.
        session.network.pump_until(
            lambda: session.server.processed[kinds.LOCK_REQUEST] == 1
        )
        assert session.server.processed[kinds.EVENT] == 0
        assert len(session.server.locks) > 0  # floor still held
        session.pump()  # broadcast delivered, ack returned
        assert len(session.server.locks) == 0

    def test_rapid_same_user_burst_not_denied(self, duo):
        session, a, b, ta, tb = duo
        for i in range(10):
            ta.find(FIELD).commit(f"v{i}")
            assert not a.last_execution.lock_denied
        session.pump()
        assert tb.find(FIELD).value == "v9"

    def test_other_instance_denied_while_ack_pending(self, duo):
        session, a, b, ta, tb = duo
        ta.find(FIELD).commit("holder")
        # b fires before pumping: a's broadcast has not been processed by
        # b, so the floor is still held and b must be refused.
        tb.find(FIELD).commit("contender")
        assert b.last_execution.lock_denied
        session.pump()
        assert ta.find(FIELD).value == "holder"
        assert tb.find(FIELD).value == "holder"

    def test_denied_rollback_preserves_newer_remote_value(self, duo):
        """The conditional-rollback fix: if the remote event lands between
        b's optimistic feedback and its denial, the rollback must keep the
        remote value instead of restoring b's stale snapshot."""
        session, a, b, ta, tb = duo
        ta.find(FIELD).commit("remote-wins")
        tb.find(FIELD).commit("loser")
        session.pump()
        assert tb.find(FIELD).value == "remote-wins"
        assert ta.find(FIELD).value == "remote-wins"

    def test_departed_receiver_cannot_wedge_floor(self, duo):
        session, a, b, ta, tb = duo
        ta.find(FIELD).commit("x")
        # b leaves before processing the broadcast: its pending ack must be
        # dropped so the floor drains.
        b.close()
        session.pump()
        assert len(session.server.locks) == 0

    def test_lease_expiry_reclaims_stuck_floor(self):
        session = Session()
        try:
            session.server.floor_lease = 1.0
            a = session.create_instance("a", user="u1", lock_timeout=0.05)
            b = session.create_instance("b", user="u2")
            ta = a.add_root(make_demo_tree())
            tb = b.add_root(make_demo_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            # Partition b: a's event broadcast is dropped, the ack never
            # arrives, the floor is stuck.
            session.network.partition("b")
            ta.find(FIELD).commit("stranded")
            session.pump()
            assert len(session.server.locks) > 0
            # Long after the lease, with the partition healed, the next
            # action reclaims the stale floor and completes normally.
            session.clock.advance(2.0)
            session.network.heal("b")
            ta.find(FIELD).commit("recovered")
            assert not a.last_execution.lock_denied
            session.pump()
            assert len(session.server.locks) == 0
            assert tb.find(FIELD).value == "recovered"
        finally:
            session.close()

    def test_lost_ack_floor_expires_exactly_at_its_lease(self, duo, monkeypatch):
        """One EVENT_ACK is lost: the floor is held for ``floor_lease`` and
        not a tick longer, measured on the session's simulated clock."""
        session, a, b, ta, tb = duo
        submit = session.network.submit
        lost = []

        def lose_first_ack(message):
            if message.kind == kinds.EVENT_ACK and not lost:
                lost.append(message)
                return
            submit(message)

        monkeypatch.setattr(session.network, "submit", lose_first_ack)
        ta.find(FIELD).commit("stranded")
        session.pump()
        assert len(lost) == 1
        assert len(session.server.locks) > 0
        (floor,) = session.server.floors.values()
        granted_at = floor.granted_at
        lease = session.server.floor_lease
        # b's LOCK_REQUEST reaches the server one link latency after it
        # leaves: send it so the server sees the floor at lease -/+ eps.
        latency = session.network.base_latency
        eps = 0.01
        session.clock.advance_to(granted_at + lease - eps - latency)
        tb.find(FIELD).commit("too early")
        assert b.last_execution.lock_denied
        assert tb.find(FIELD).value == "stranded"
        session.clock.advance_to(granted_at + lease + eps - latency)
        tb.find(FIELD).commit("after the lease")
        assert not b.last_execution.lock_denied
        session.pump()
        assert len(session.server.locks) == 0
        assert session.server.floors == {}
        assert ta.find(FIELD).value == "after the lease"

    def test_raising_receiver_callback_releases_the_floor(self, duo):
        """A receiver whose callback raises still acknowledges: the floor
        goes as soon as processing ended, not after ``floor_lease``."""
        session, a, b, ta, tb = duo

        def broken(widget, event):
            raise ValueError("application bug in a callback")

        tb.find(FIELD).add_callback(VALUE_CHANGED, broken)
        ta.find(FIELD).commit("x")
        session.pump()
        assert b.stats["malformed_messages"] == 1
        assert tb.find(FIELD).value == "x"  # feedback ran before the raise
        assert not tb.find(FIELD).floor_locked
        assert len(session.server.locks) == 0
        assert session.server.floors == {}
        # b takes the floor at once: no clock advance, no lease to wait out.
        tb.find(FIELD).remove_callback(VALUE_CHANGED, broken)
        tb.find(FIELD).commit("y")
        assert not b.last_execution.lock_denied
        session.pump()
        assert ta.find(FIELD).value == "y"
        assert len(session.server.locks) == 0


class TestSameInstanceExecution:
    def test_same_instance_couple_executes_once(self, session):
        """Two objects coupled within one instance: the event must apply to
        the partner exactly once (client-side re-execution only; the server
        must not also broadcast back to the sender)."""
        a = session.create_instance("a", user="u1")
        tree = a.add_root(make_demo_tree())
        mirror = Shell("mirror")
        flag = ToggleButton("flag", parent=mirror)
        a.add_root(mirror)
        a.couple(tree.find(FLAG), ("a", "/mirror/flag"))
        session.pump()
        tree.find(FLAG).toggle()
        session.pump()
        # A double execution would flip the mirror toggle twice (back to
        # False); exactly-once leaves both True.
        assert tree.find(FLAG).value is True
        assert flag.value is True

    def test_conditional_rollback_unit(self):
        """UndoRecord leaves attributes alone once a newer write landed."""
        field = TextField("t")
        event = field.commit("optimistic")
        undo = field.apply_feedback(event)
        # A remote event overwrites the value before the rollback.
        field.set("value", "remote", quiet=True)
        undo.rollback()
        assert field.value == "remote"

    def test_unconditional_rollback_when_untouched(self):
        field = TextField("t")
        field.commit("before")
        event = field.commit("optimistic")
        undo = field.apply_feedback(event)
        undo.rollback()
        assert field.value == "optimistic"  # back to pre-feedback state
