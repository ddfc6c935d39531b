"""Stateful (rule-based) property tests for floor control and history.

Hypothesis drives random operation sequences against the components and
checks the global invariants after every step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import HistoryError
from repro.server.couples import global_id
from repro.server.history import HistoricalState, HistoryStore
from repro.server.locks import LockOwner, LockTable

INSTANCES = ("a", "b", "c")
OBJECTS = [global_id(i, p) for i in INSTANCES for p in ("/x", "/y")]
LEASE = 30.0


class LockTableMachine(RuleBasedStateMachine):
    """The lock table as §3.2's floor controller, against a reference
    model of its locks and floors.

    Checked after every step: each lock belongs to a floor of its owner
    that lists the object; a floor goes exactly at its last ack, its
    unlock, its lease or its owner's unregister (or when an unregister
    took its last object), and leaves no lock behind; a denial changes
    no lock and no floor; no object has two owners.
    """

    def __init__(self):
        super().__init__()
        self.table = LockTable()
        self.now = 0.0
        self.locks = {}  # obj -> LockOwner
        self.floors = {}  # (instance, token) -> [objects, pending acks, granted_at]

    # -- the reference model ---------------------------------------------

    def _drop(self, key):
        objects, _, _ = self.floors.pop(key)
        for obj in objects:
            if self.locks.get(obj) == LockOwner(*key):
                del self.locks[obj]

    def _released(self, expected, floors):
        """The table released exactly the floors in *expected*."""
        assert sorted(f.key for f in floors) == sorted(expected)
        for key in expected:
            self._drop(key)
        for floor in floors:
            # A released floor leaves no lock behind.
            assert all(self.table.holder(o) != floor.owner for o in OBJECTS)

    def _state(self):
        return self.table.to_wire()

    # -- rules -----------------------------------------------------------

    @rule(
        instance=st.sampled_from(INSTANCES),
        token=st.integers(1, 2),
        objs=st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=4, unique=True),
        receivers=st.none() | st.lists(st.sampled_from(INSTANCES), unique=True),
    )
    def request(self, instance, token, objs, receivers):
        """A LOCK_REQUEST: bare (``receivers`` is None) or carrying its
        event, broadcast at once to *receivers* on a grant."""
        owner = LockOwner(instance, token)
        group = sorted(objs)
        blocked = any(
            o in self.locks and self.locks[o].instance_id != instance for o in group
        )
        before = self._state()
        floor, conflicts = self.table.acquire_all(group, owner, self.now)
        if blocked:
            assert floor is None and conflicts
            assert self._state() == before
            return
        assert floor is not None and conflicts == []
        key = (instance, token)
        if key in self.floors:
            old, pending, _ = self.floors[key]
            for obj in old:
                if obj not in group and self.locks.get(obj) == owner:
                    del self.locks[obj]
        else:
            pending = set()
        self.floors[key] = [tuple(group), pending, self.now]
        for obj in group:
            self.locks[obj] = owner
        if receivers is not None:
            self._broadcast(floor, receivers)

    def _broadcast(self, floor, receivers):
        receivers = [r for r in receivers if r != floor.owner.instance_id]
        released = self.table.broadcast(floor, receivers)
        if receivers:
            assert released is None
            self.floors[floor.key][1] = set(receivers)
        else:
            self._released([floor.key], [released])

    @precondition(lambda self: self.floors)
    @rule(data=st.data())
    def broadcast(self, data):
        """The two-message form: an EVENT under a floor granted earlier."""
        key = data.draw(st.sampled_from(sorted(self.floors)))
        receivers = data.draw(st.lists(st.sampled_from(INSTANCES), unique=True))
        self._broadcast(self.table.floors[key], receivers)

    @precondition(lambda self: self.floors)
    @rule(data=st.data())
    def renew_shrunk(self, data):
        """The same request again after its group lost members."""
        key = data.draw(st.sampled_from(sorted(self.floors)))
        objects = self.floors[key][0]
        kept = data.draw(st.lists(st.sampled_from(objects), min_size=1, unique=True))
        self.request(key[0], key[1], kept, None)

    @rule(
        key=st.tuples(st.sampled_from(INSTANCES), st.integers(1, 2)),
        receiver=st.sampled_from(INSTANCES),
    )
    def ack(self, key, receiver):
        released = self.table.ack(key, receiver)
        entry = self.floors.get(key)
        if entry is None or not entry[1]:
            assert released is None  # late, or for a bare floor
            return
        entry[1].discard(receiver)
        if entry[1]:
            assert released is None
        else:
            self._released([key], [released])

    @rule(key=st.tuples(st.sampled_from(INSTANCES), st.integers(1, 2)))
    def unlock(self, key):
        released = self.table.unlock(key)
        if key in self.floors:
            self._released([key], [released])
        else:
            assert released is None

    @rule(elapsed=st.sampled_from([1.0, 15.0, 30.0, 31.0]))
    def lease_expiry(self, elapsed):
        self.now += elapsed
        expired = [
            key for key, (_, _, at) in self.floors.items() if self.now - at > LEASE
        ]
        self._released(expired, self.table.expire(self.now, LEASE))

    @rule(instance=st.sampled_from(INSTANCES))
    def unregister(self, instance):
        expected = [key for key in self.floors if key[0] == instance]
        for key, entry in self.floors.items():
            if key[0] == instance:
                continue
            objects, pending, _ = entry
            # The departed instance's objects leave the floor, and so
            # their locks.
            for obj in objects:
                if obj[0] == instance and self.locks.get(obj) == LockOwner(*key):
                    del self.locks[obj]
            entry[0] = tuple(o for o in objects if o[0] != instance)
            if pending == {instance} or not entry[0]:
                expected.append(key)
            pending.discard(instance)
        self._released(expected, self.table.release_instance(instance))

    # -- invariants --------------------------------------------------------

    @invariant()
    def every_lock_belongs_to_a_floor_of_its_owner(self):
        for obj in self.table.locked_objects():
            owner = self.table.holder(obj)
            floor = self.table.floors.get((owner.instance_id, owner.token))
            assert floor is not None and obj in floor.objects

    @invariant()
    def floors_match_the_model(self):
        assert {
            key: [floor.objects, floor.pending_acks, floor.granted_at]
            for key, floor in self.table.floors.items()
        } == self.floors

    @invariant()
    def no_object_has_two_owners(self):
        assert len(self.table) == len(self.locks)
        for obj, owner in self.locks.items():
            assert self.table.holder(obj) == owner


class HistoryMachine(RuleBasedStateMachine):
    """The history store against reference undo/redo stacks."""

    OBJ = global_id("a", "/doc")

    def __init__(self):
        super().__init__()
        self.store = HistoryStore(max_depth=8)
        self.undo_model = []
        self.redo_model = []
        self.counter = 0

    @rule()
    def push(self):
        self.counter += 1
        state = {"v": self.counter}
        self.store.push(HistoricalState(obj=self.OBJ, state=state))
        self.undo_model.append(state)
        if len(self.undo_model) > 8:
            self.undo_model.pop(0)
        self.redo_model.clear()

    @rule()
    def undo(self):
        self.counter += 1
        current = {"v": self.counter}
        if self.undo_model:
            entry = self.store.undo(self.OBJ, current_state=current)
            assert dict(entry.state) == self.undo_model.pop()
            self.redo_model.append(current)
            if len(self.redo_model) > 8:
                self.redo_model.pop(0)
        else:
            try:
                self.store.undo(self.OBJ, current_state=current)
                raise AssertionError("undo should have failed")
            except HistoryError:
                pass

    @rule()
    def redo(self):
        self.counter += 1
        current = {"v": self.counter}
        if self.redo_model:
            entry = self.store.redo(self.OBJ, current_state=current)
            assert dict(entry.state) == self.redo_model.pop()
            self.undo_model.append(current)
            if len(self.undo_model) > 8:
                self.undo_model.pop(0)
        else:
            try:
                self.store.redo(self.OBJ, current_state=current)
                raise AssertionError("redo should have failed")
            except HistoryError:
                pass

    @invariant()
    def depths_match(self):
        assert self.store.depth(self.OBJ) == (
            len(self.undo_model),
            len(self.redo_model),
        )


TestLockTableStateful = LockTableMachine.TestCase
TestLockTableStateful.settings = settings(max_examples=60)
TestHistoryStateful = HistoryMachine.TestCase
TestHistoryStateful.settings = settings(max_examples=60)
