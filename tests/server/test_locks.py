"""Unit tests for the floor-control lock table (§3.2)."""

import dataclasses

import pytest

from repro.server.couples import global_id
from repro.server.locks import LockOwner, LockTable

X = global_id("a", "/x")
Y = global_id("b", "/y")
Z = global_id("c", "/z")

ALICE = LockOwner("inst-a", 1)
ALICE2 = LockOwner("inst-a", 2)
BOB = LockOwner("inst-b", 1)


def key(owner):
    return (owner.instance_id, owner.token)


class TestSingleLocks:
    def test_acquire_and_holder(self):
        table = LockTable()
        floor, conflicts = table.acquire_all([X], ALICE, 0.0)
        assert floor is table.floors[key(ALICE)] and conflicts == []
        assert floor.objects == (X,) and floor.pending_acks == set()
        assert table.holder(X) == ALICE
        assert table.locked_objects() == [X]

    def test_reacquire_same_owner_ok(self):
        table = LockTable()
        table.acquire_all([X], ALICE, 0.0)
        floor, _ = table.acquire_all([X], ALICE, 1.0)
        assert floor is not None and floor.granted_at == 1.0
        assert list(table.floors) == [key(ALICE)]

    def test_conflicting_owner_denied(self):
        table = LockTable()
        table.acquire_all([X], ALICE, 0.0)
        assert table.acquire_all([X], BOB, 0.0) == (None, [X])
        assert list(table.floors) == [key(ALICE)]

    def test_same_instance_token_transfer(self):
        # A newer token of the same instance takes the lock over (its own
        # events are FIFO-ordered end to end), and the old floor's release
        # leaves it with the new one.
        table = LockTable()
        table.acquire_all([X], ALICE, 0.0)
        assert table.acquire_all([X], ALICE2, 0.0)[0] is not None
        assert table.holder(X) == ALICE2
        table.unlock(key(ALICE))
        assert table.holder(X) == ALICE2
        table.unlock(key(ALICE2))
        assert table.holder(X) is None

    def test_group_transfer_rollback_restores_previous_owner(self):
        table = LockTable()
        table.acquire_all([X], ALICE, 0.0)  # older token of the same instance
        table.acquire_all([Z], BOB, 0.0)  # blocks the group attempt
        floor, conflicts = table.acquire_all([X, Y, Z], ALICE2, 0.0)
        assert floor is None and conflicts == [Z]
        # X went back to the old token, Y was fully released.
        assert table.holder(X) == ALICE
        assert table.holder(Y) is None
        assert sorted(table.floors) == [key(ALICE), key(BOB)]

    def test_release_only_by_holder(self):
        table = LockTable()
        table.acquire_all([X], ALICE, 0.0)
        assert table.unlock(key(BOB)) is None
        assert table.holder(X) == ALICE
        assert table.unlock(key(ALICE)).owner == ALICE
        assert table.holder(X) is None

    def test_release_unlocked_returns_false(self):
        assert LockTable().unlock(key(ALICE)) is None


class TestGroupAcquisition:
    def test_all_or_nothing_success(self):
        table = LockTable()
        floor, conflicts = table.acquire_all([X, Y, Z], ALICE, 0.0)
        assert floor and conflicts == []
        assert len(table) == 3

    def test_partial_failure_rolls_back(self):
        table = LockTable()
        table.acquire_all([Y], BOB, 0.0)
        floor, conflicts = table.acquire_all([X, Y, Z], ALICE, 0.0)
        assert floor is None
        assert conflicts == [Y]
        # The paper's "undo locking": X must have been released again.
        assert table.holder(X) is None
        assert table.holder(Z) is None
        assert table.holder(Y) == BOB

    def test_rollback_does_not_release_preheld_own_locks(self):
        table = LockTable()
        table.acquire_all([X], ALICE, 0.0)  # Alice already holds X from before
        table.acquire_all([Z], BOB, 0.0)
        floor, _ = table.acquire_all([X, Y, Z], ALICE, 0.0)
        assert floor is None
        # X stays with Alice (it was not newly taken by this attempt).
        assert table.holder(X) == ALICE
        assert table.holder(Y) is None
        assert table.floors[key(ALICE)].objects == (X,)

    def test_release_all(self):
        table = LockTable()
        table.acquire_all([X, Y], ALICE, 0.0)
        assert table.unlock(key(ALICE)).objects == (X, Y)
        assert len(table) == 0 and table.floors == {}

    def test_stats_counters(self):
        table = LockTable()
        table.acquire_all([X], ALICE, 0.0)
        table.acquire_all([X], BOB, 0.0)  # denied
        table.unlock(key(ALICE))
        assert table.stats.acquisitions == 1
        assert table.stats.denials == 1
        assert table.stats.releases == 1
        assert table.stats.denial_rate == 0.5


class TestCleanup:
    def test_release_owner(self):
        table = LockTable()
        table.acquire_all([X, Y], ALICE, 0.0)
        table.acquire_all([Z], BOB, 0.0)
        assert table.unlock(key(ALICE)).objects == (X, Y)
        assert table.locked_objects() == [Z]

    def test_release_instance_spans_tokens(self):
        table = LockTable()
        table.acquire_all([X], ALICE, 0.0)
        table.acquire_all([Y], ALICE2, 0.0)  # same instance, another token
        table.acquire_all([Z], BOB, 0.0)
        released = table.release_instance("inst-a")
        assert sorted(f.key for f in released) == [key(ALICE), key(ALICE2)]
        assert table.locked_objects() == [Z]
        # Freed through the one floor path, so counted like any release.
        assert table.stats.releases == 2

    def test_release_instance_drains_the_acks_it_owed(self):
        table = LockTable()
        floor, _ = table.acquire_all([X, Y], ALICE, 0.0)
        assert table.broadcast(floor, ["inst-b"]) is None
        assert table.release_instance("inst-b") == [floor]
        assert table.floors == {} and len(table) == 0

    def test_owner_wire_roundtrip(self):
        assert LockOwner.from_wire(ALICE.to_wire()) == ALICE


class TestOwnerEquality:
    """``LockTable`` compares owners by ``(instance_id, token)`` without
    calling ``LockOwner.__eq__``; these pin that it means what ``==``
    means."""

    def test_owners_compare_and_hash_by_instance_and_token(self):
        twin = LockOwner("inst-a", 1)
        assert twin == ALICE and twin is not ALICE
        assert hash(twin) == hash(ALICE)
        assert ALICE != ALICE2 and ALICE != BOB
        assert ALICE != ("inst-a", 1)
        assert LockOwner("inst-a") == LockOwner("inst-a", 0)
        assert {ALICE: 1}[twin] == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.token = 2

    def test_an_equal_owner_holds_what_the_first_one_took(self):
        twin = LockOwner("inst-a", 1)
        table = LockTable()
        table.acquire_all([X, Y, Z], ALICE, 0.0)
        # An equal owner renews the floor: nothing is taken over, and the
        # objects the smaller group lacks are released.
        floor, conflicts = table.acquire_all([X, Y], twin, 1.0)
        assert conflicts == [] and floor is table.floors[key(ALICE)]
        assert table.holder(X) is ALICE and table.holder(Z) is None
        assert table.release_all([X, Y], ALICE2) == 0
        assert table.release_all([X, Y], twin) == 2
        assert len(table) == 0


class TestFloorLifetime:
    def test_broadcast_awaits_every_ack(self):
        table = LockTable()
        floor, _ = table.acquire_all([X, Y, Z], ALICE, 0.0)
        assert table.broadcast(floor, ["inst-b", "inst-c"]) is None
        assert table.ack(key(ALICE), "inst-b") is None
        assert table.ack(key(ALICE), "inst-b") is None  # a duplicate
        assert table.ack(key(ALICE), "inst-c") is floor
        assert table.floors == {} and len(table) == 0
        assert table.ack(key(ALICE), "inst-c") is None  # late

    def test_broadcast_to_nobody_releases_at_once(self):
        table = LockTable()
        floor, _ = table.acquire_all([X], ALICE, 0.0)
        assert table.broadcast(floor, ()) is floor
        assert table.floors == {} and len(table) == 0

    def test_an_ack_for_a_bare_floor_is_ignored(self):
        table = LockTable()
        table.acquire_all([X], ALICE, 0.0)
        assert table.ack(key(ALICE), "inst-b") is None
        assert table.holder(X) == ALICE

    def test_expire_releases_only_floors_past_their_lease(self):
        table = LockTable()
        old, _ = table.acquire_all([X], ALICE, 0.0)
        table.acquire_all([Y], BOB, 20.0)
        assert table.expire(30.0, 30.0) == []
        assert table.expire(30.5, 30.0) == [old]
        assert table.locked_objects() == [Y]

    def test_renewal_releases_what_the_shrunk_group_lost(self):
        table = LockTable()
        table.acquire_all([X, Y, Z], ALICE, 0.0)
        floor, _ = table.acquire_all([X, Y], ALICE, 1.0)
        assert floor.objects == (X, Y) and floor.granted_at == 1.0
        assert table.holder(Z) is None
        table.unlock(key(ALICE))
        assert len(table) == 0

    def test_renewal_keeps_the_acks_it_awaits(self):
        table = LockTable()
        floor, _ = table.acquire_all([X, Y], ALICE, 0.0)
        table.broadcast(floor, ["inst-b"])
        table.acquire_all([X, Y], ALICE, 1.0)
        assert table.floors[key(ALICE)].pending_acks == {"inst-b"}


class TestMigration:
    def test_transfer_out_splits_a_floor_by_object(self):
        table = LockTable()
        floor, _ = table.acquire_all([X, Y], ALICE, 2.0)
        table.broadcast(floor, ["inst-b"])
        tables, gone = table.transfer_out([Y])
        assert gone == []
        assert tables == {
            "locks": [[["b", "/y"], ["inst-a", 1]]],
            "floors": [
                {
                    "owner": ["inst-a", 1],
                    "objects": [["b", "/y"]],
                    "granted_at": 2.0,
                    "pending_acks": ["inst-b"],
                }
            ],
        }
        # This side keeps the object staying here, and its lock.
        assert table.floors[key(ALICE)].objects == (X,)
        assert table.locked_objects() == [X]

    def test_a_whole_floor_leaves_and_is_returned(self):
        table = LockTable()
        floor, _ = table.acquire_all([X, Y], ALICE, 0.0)
        tables, gone = table.transfer_out([X, Y, Z])
        assert gone == [floor] and table.floors == {} and len(table) == 0
        other = LockTable()
        other.install(tables)
        assert other.to_wire() == {
            "locks": [
                [["a", "/x"], ["inst-a", 1]],
                [["b", "/y"], ["inst-a", 1]],
            ],
            "floors": [floor.to_wire()],
        }
        assert other.stats.releases == table.stats.releases == 0

    def test_install_merges_the_parts_of_a_split_floor(self):
        table = LockTable()
        floor, _ = table.acquire_all([X, Y], ALICE, 0.0)
        table.broadcast(floor, ["inst-b", "inst-c"])
        tables, _ = table.transfer_out([Y])
        table.ack(key(ALICE), "inst-b")  # heard by the part left here
        table.install(tables)
        merged = table.floors[key(ALICE)]
        assert merged.objects == (X, Y)
        assert merged.pending_acks == {"inst-c"}
        assert table.ack(key(ALICE), "inst-c") is merged
        assert len(table) == 0
