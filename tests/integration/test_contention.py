"""Floor-control contention: concurrent events on one couple group (§3.2).

The paper's serialization guarantee: "the lock table guarantees that
actions occur serially within each group of coupled objects" and "actions
on locked objects are disabled".
"""

import pytest

from repro.net import kinds
from repro.net.message import Message
from repro.server.couples import gid_to_wire
from repro.session import Session

from conftest import make_demo_tree

FIELD = "/app/form/name"
SCALE = "/app/board/zoom"


@pytest.fixture
def arena():
    session = Session()
    instances, trees = [], []
    for name in ("a", "b", "c"):
        inst = session.create_instance(name, user=f"user-{name}")
        trees.append(inst.add_root(make_demo_tree()))
        instances.append(inst)
    instances[0].couple(trees[0].find(FIELD), ("b", FIELD))
    instances[0].couple(trees[0].find(FIELD), ("c", FIELD))
    session.pump()
    yield session, instances, trees
    session.close()


class TestSerialization:
    def test_racing_lock_requests_one_winner(self, arena):
        """Two lock requests in flight simultaneously: exactly one grant."""
        session, (a, b, c), (ta, tb, tc) = arena
        # Bypass the blocking fire() API: inject raw lock requests so both
        # are queued before either is processed.
        req_a = Message(
            kind=kinds.LOCK_REQUEST,
            sender="a",
            payload={"source": gid_to_wire(("a", FIELD)), "token": 1},
        )
        req_b = Message(
            kind=kinds.LOCK_REQUEST,
            sender="b",
            payload={"source": gid_to_wire(("b", FIELD)), "token": 1},
        )
        a.send(req_a)
        b.send(req_b)
        session.pump()
        reply_a = a._replies.pop(req_a.msg_id)
        reply_b = b._replies.pop(req_b.msg_id)
        grants = [reply_a.payload["granted"], reply_b.payload["granted"]]
        assert grants.count(True) == 1
        assert grants.count(False) == 1

    def test_denied_user_rolls_back_feedback(self, arena):
        session, (a, b, c), (ta, tb, tc) = arena
        grant = a.acquire_floor(ta.find(FIELD))
        assert grant is not None
        tb.find(FIELD).commit("loser")
        assert b.last_execution.lock_denied
        assert tb.find(FIELD).value == ""
        a.release_floor(grant)

    def test_whole_group_locked_not_just_source(self, arena):
        session, (a, b, c), (ta, tb, tc) = arena
        grant = a.acquire_floor(ta.find(FIELD))
        assert len(grant.group) == 3
        # Even c (not the instance a raced with) is locked out.
        tc.find(FIELD).commit("also denied")
        assert c.last_execution.lock_denied
        a.release_floor(grant)

    def test_other_groups_unaffected_by_held_floor(self, arena):
        session, (a, b, c), (ta, tb, tc) = arena
        a.couple(ta.find(SCALE), ("b", SCALE))
        session.pump()
        grant = a.acquire_floor(ta.find(FIELD))
        tb.find(SCALE).set_value(5)
        assert not b.last_execution.lock_denied
        session.pump()
        assert ta.find(SCALE).value == 5
        a.release_floor(grant)

    def test_floor_released_after_event_automatically(self, arena):
        session, (a, b, c), (ta, tb, tc) = arena
        ta.find(FIELD).commit("first")
        session.pump()
        assert len(session.server.locks) == 0
        tb.find(FIELD).commit("second")
        session.pump()
        assert not b.last_execution.lock_denied
        assert ta.find(FIELD).value == "second"

    def test_sequential_contenders_all_succeed_eventually(self, arena):
        session, (a, b, c), (ta, tb, tc) = arena
        for i, tree in enumerate([ta, tb, tc] * 3):
            tree.find(FIELD).commit(f"round-{i}")
            session.pump()
        for tree in (ta, tb, tc):
            assert tree.find(FIELD).value == "round-8"

    def test_lock_denial_stats_recorded(self, arena):
        session, (a, b, c), (ta, tb, tc) = arena
        grant = a.acquire_floor(ta.find(FIELD))
        tb.find(FIELD).commit("x")
        tc.find(FIELD).commit("y")
        a.release_floor(grant)
        assert b.stats["lock_denials"] == 1
        assert c.stats["lock_denials"] == 1
        assert session.server.locks.stats.denials == 2


class TestRemoteExecutionLocking:
    def test_widgets_floor_locked_during_remote_execution(self, arena):
        """During re-execution the coupled object is disabled (§3.2)."""
        session, (a, b, c), (ta, tb, tc) = arena
        observed = []

        def probe(widget, event):
            observed.append(widget.floor_locked)

        from repro.toolkit.events import VALUE_CHANGED

        tb.find(FIELD).add_callback(VALUE_CHANGED, probe)
        ta.find(FIELD).commit("watch locking")
        session.pump()
        assert observed == [True]
        # And unlocked again afterwards.
        assert not tb.find(FIELD).floor_locked
