"""Property: a sharded cluster holds the database one server would.

The same raw client messages go to a :class:`CosoftServer` and to a
:class:`ShardedCosoftCluster`, both sans-I/O on sink transports with
equal :class:`SimClock` times.  After every step the cluster's database
— every shard's capture installed into one fresh server
(:func:`cluster_fingerprint`) — equals the single server's, and no group
migration or reshard changes it: a migration moves the database between
shards and writes nothing into it.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.router import ShardedCosoftCluster
from repro.net import kinds
from repro.net.clock import SimClock
from repro.net.message import Message
from repro.persist.snapshot import cluster_fingerprint, server_fingerprint
from repro.server.server import CosoftServer

INSTANCES = ["a", "b", "c", "d"]
PATHS = ["/x", "/y"]

instances = st.sampled_from(INSTANCES)
paths = st.sampled_from(PATHS)


def activate(instance, path):
    return {"type": "activate", "source_path": path, "instance_id": instance}


class _Sink:
    """Keeps what the server or the router sends."""

    local_id = "server"

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def drive(self, predicate, timeout=5.0):
        return predicate()

    def close(self):
        pass


class ClusterHoldsOneDatabase(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.single = CosoftServer(clock=SimClock())
        self.outbox = _Sink()
        self.single.bind(self.outbox)
        self.cluster = ShardedCosoftCluster(2, clock=SimClock())
        self.cluster.bind(_Sink())
        # The client side of floor control: a fresh token per request;
        # the (owner, token) of every event floor, which any instance may
        # ack, duplicates and strays included; and (owner, token) -> the
        # group a bare floor's LOCK_REPLY granted, which its UNLOCK names
        # back.
        self.tokens = 0
        self.event_floors = set()
        self.bare_floors = {}
        migrate = self.cluster._migrate

        def checked_migrate(objects, from_shard, to_shard):
            before = cluster_fingerprint(self.cluster)
            migrate(objects, from_shard, to_shard)
            assert cluster_fingerprint(self.cluster) == before, (
                f"migrating {sorted(objects)} from {from_shard} to {to_shard} "
                "changed the cluster's database"
            )

        self.cluster._migrate = checked_migrate

    def _send(self, kind, sender, **payload):
        """One client message, delivered to both at the same clock time;
        returns what the single server sent."""
        for node in (self.single, self.cluster):
            node.clock.advance(0.01)
        message = Message(kind=kind, sender=sender, payload=payload)
        del self.outbox.sent[:]
        self.single.handle_message(message)
        self.cluster.handle_message(message)
        return list(self.outbox.sent)

    def _lock(self, instance, path, **event):
        self.tokens += 1
        token = self.tokens
        for out in self._send(
            kinds.LOCK_REQUEST, instance, source=[instance, path], token=token, **event
        ):
            if out.kind != kinds.LOCK_REPLY or not out.payload["granted"]:
                continue
            if event:
                self.event_floors.add((instance, token))
            else:
                self.bare_floors[(instance, token)] = out.payload["group"]
        return token

    @initialize()
    def register_everyone(self):
        for instance in INSTANCES:
            self.register(instance)

    @rule(instance=instances)
    def register(self, instance):
        self._send(kinds.REGISTER, instance, user=f"user-{instance}", app_type="")

    @rule(instance=instances)
    def unregister(self, instance):
        self._send(kinds.UNREGISTER, instance)
        # A client that left no longer unlocks.
        self.bare_floors = {
            o: g for o, g in self.bare_floors.items() if o[0] != instance
        }

    @rule(one=instances, one_path=paths, other=instances, other_path=paths)
    def couple(self, one, one_path, other, other_path):
        self._send(
            kinds.COUPLE, one, source=[one, one_path], target=[other, other_path]
        )

    @rule(one=instances, one_path=paths, other=instances, other_path=paths)
    def decouple(self, one, one_path, other, other_path):
        self._send(
            kinds.DECOUPLE, one, source=[one, one_path], target=[other, other_path]
        )

    @rule(instance=instances, path=paths)
    def lock_with_event(self, instance, path):
        self._lock(instance, path, event=activate(instance, path))

    @rule(instance=instances, path=paths)
    def lock(self, instance, path):
        self._lock(instance, path)

    @precondition(lambda self: self.event_floors)
    @rule(sender=instances, data=st.data())
    def ack(self, sender, data):
        owner, token = data.draw(st.sampled_from(sorted(self.event_floors)))
        self._send(kinds.EVENT_ACK, sender, owner=[owner, token])

    @precondition(lambda self: self.bare_floors)
    @rule(data=st.data())
    def unlock(self, data):
        owner = data.draw(st.sampled_from(sorted(self.bare_floors)))
        group = self.bare_floors.pop(owner)
        self._send(kinds.UNLOCK, owner[0], token=owner[1], objects=group)

    @rule(instance=instances, path=paths, value=st.sampled_from("pqr"))
    def history_push(self, instance, path, value):
        self._send(
            kinds.HISTORY_PUSH,
            instance,
            object=[instance, path],
            state={"value": value},
            reason="copy_to",
        )

    @rule(instance=instances, path=paths, redo=st.booleans())
    def undo(self, instance, path, redo):
        self._send(
            kinds.UNDO_REQUEST,
            instance,
            object=[instance, path],
            current_state={"value": "now"},
            redo=redo,
        )

    @rule(instance=instances, allow=st.booleans())
    def permission(self, instance, allow):
        rule = {"instance_id": instance, "path_prefix": "/x", "allow": allow}
        self._send(kinds.PERMISSION_SET, instance, rule=rule)

    @precondition(lambda self: len(self.cluster.shards) < 4)
    @rule()
    def add_shard(self):
        before = cluster_fingerprint(self.cluster)
        self.cluster.add_shard()
        assert cluster_fingerprint(self.cluster) == before

    @precondition(lambda self: len(self.cluster.shards) > 1)
    @rule(pick=st.integers(min_value=0, max_value=3))
    def remove_shard(self, pick):
        shard_ids = sorted(self.cluster.shards)
        before = cluster_fingerprint(self.cluster)
        self.cluster.remove_shard(shard_ids[pick % len(shard_ids)])
        assert cluster_fingerprint(self.cluster) == before

    @invariant()
    def the_cluster_holds_the_single_servers_database(self):
        assert cluster_fingerprint(self.cluster) == server_fingerprint(self.single)


ClusterHoldsOneDatabase.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestClusterHoldsOneDatabase = ClusterHoldsOneDatabase.TestCase


class TestSequences:
    """Fixed sequences through the same two deployments.  The strict
    xfails are divergences still open: a fix makes them pass, and the
    suite fails until the mark goes."""

    def _machine(self):
        machine = ClusterHoldsOneDatabase()
        machine.register_everyone()
        return machine

    def test_a_duplicated_ack_leaves_the_other_receivers_route(self):
        machine = self._machine()
        machine.couple("a", "/x", "b", "/x")
        machine.couple("a", "/x", "c", "/x")
        token = machine._lock("a", "/x", event=activate("a", "/x"))
        for receiver in ("b", "b", "c"):
            machine._send(kinds.EVENT_ACK, receiver, owner=["a", token])
        assert all(not s.floors for s in machine.cluster.shards.values())
        machine.the_cluster_holds_the_single_servers_database()

    def test_a_migration_that_splits_a_floor_moves_the_leaving_part(self):
        """A decouple leaves a/x and b/x under one floor; the couple that
        moves b/x to c/x's shard splits it, and the database stays put."""
        machine = self._machine()
        machine.couple("a", "/x", "b", "/x")
        machine._lock("a", "/x", event=activate("a", "/x"))
        machine.decouple("a", "/x", "b", "/x")
        machine.couple("c", "/x", "d", "/x")
        machine.couple("c", "/x", "b", "/x")
        parts = [s for s in machine.cluster.shards.values() if s.floors]
        assert len(parts) == 2
        machine.the_cluster_holds_the_single_servers_database()

    def test_a_departed_instances_objects_leave_every_floor(self):
        """Its objects are gone: a returning instance of that id locks
        them afresh, wherever the cluster now routes them."""
        machine = self._machine()
        machine.couple("b", "/x", "a", "/x")
        machine._lock("b", "/x")
        machine.unregister("a")
        assert machine.single.locks.locked_objects() == [("b", "/x")]
        machine.register("a")
        machine._lock("a", "/x")
        assert ("a", "/x") in machine.single.locks.locked_objects()
        machine.the_cluster_holds_the_single_servers_database()

    @pytest.mark.xfail(
        strict=True, reason="a renewal reaches only the source's part of a split floor"
    )
    def test_a_repeated_lock_request_renews_every_part_of_a_split_floor(self):
        machine = self._machine()
        cluster = machine.cluster
        machine.couple("a", "/x", "b", "/x")
        token = machine._lock("a", "/x")
        machine.decouple("a", "/x", "b", "/x")
        machine.couple("c", "/x", "d", "/x")
        machine.couple("c", "/x", "b", "/x")  # b/x moves, splitting the floor
        parts = {s for s in cluster.shards.values() if ("a", token) in s.floors}
        assert len(parts) == 2
        machine.the_cluster_holds_the_single_servers_database()
        machine._send(kinds.LOCK_REQUEST, "a", source=["a", "/x"], token=token)
        machine.the_cluster_holds_the_single_servers_database()

    @pytest.mark.xfail(
        strict=True, reason="an unlock naming no objects reaches no shard"
    )
    def test_an_unlock_without_objects_releases_the_floor(self):
        machine = self._machine()
        token = machine._lock("b", "/y")
        machine._send(kinds.UNLOCK, "b", token=token)
        machine.the_cluster_holds_the_single_servers_database()
