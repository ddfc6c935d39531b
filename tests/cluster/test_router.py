"""Behavioral tests for the ShardedCosoftCluster front-end router."""

import time

import pytest

from repro.cluster import ShardedCosoftCluster
from repro.net import kinds
from repro.net.message import Message
from repro.net.transport import TrafficStats, Transport
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField



class Outbox(Transport):
    """Captures everything the cluster emits toward clients."""

    def __init__(self):
        self.sent = []
        self._closed = False
        self._stats = TrafficStats()

    @property
    def local_id(self):
        return "server"

    @property
    def stats(self):
        return self._stats

    def send(self, message):
        self.sent.append(message)

    def recv(self, message):
        pass  # the cluster is driven directly via handle_message

    def drive(self, predicate, timeout=5.0):
        return bool(predicate())

    def close(self):
        self._closed = True

    @property
    def closed(self):
        return self._closed

    def of_kind(self, kind):
        return [m for m in self.sent if m.kind == kind]


def make_cluster(shards=2, **kwargs):
    cluster = ShardedCosoftCluster(shards, **kwargs)
    outbox = Outbox()
    cluster.bind(outbox)
    return cluster, outbox


def register(cluster, instance_id, user="u"):
    cluster.handle_message(
        Message(kind=kinds.REGISTER, sender=instance_id, payload={"user": user})
    )


class TestRegistration:
    def test_register_fans_out_to_every_shard(self):
        cluster, outbox = make_cluster(shards=3)
        register(cluster, "x")
        for shard in cluster.shards.values():
            assert "x" in shard.registry
        assert "x" in cluster.registry

    def test_exactly_one_ack_reaches_the_client(self):
        cluster, outbox = make_cluster(shards=4)
        register(cluster, "x")
        acks = outbox.of_kind(kinds.REGISTER_ACK)
        assert len(acks) == 1  # the shards' duplicate acks are suppressed
        assert acks[0].to == "x"
        assert acks[0].payload["couples"] == []
        assert [r["instance_id"] for r in acks[0].payload["roster"]] == ["x"]
        assert acks[0].payload["version"] == 1

    def test_roster_broadcast_excludes_the_joiner(self):
        cluster, outbox = make_cluster(shards=2)
        register(cluster, "x")
        register(cluster, "y")
        updates = outbox.of_kind(kinds.INSTANCE_LIST)
        assert [m.to for m in updates] == ["x"]
        assert updates[0].payload["joined"] == "y"
        # One record and the version it made, not the roster; the shards
        # count the same version for the router to be rebuilt from.
        assert sorted(updates[0].payload) == ["joined", "record", "version"]
        assert updates[0].payload["version"] == cluster.registry.version == 2
        assert all(s.registry.version == 2 for s in cluster.shards.values())

    def test_duplicate_register_rejected(self):
        cluster, outbox = make_cluster()
        register(cluster, "x")
        register(cluster, "x")
        errors = outbox.of_kind(kinds.ERROR)
        assert len(errors) == 1
        assert "already registered" in errors[0].payload["reason"]
        # No shard saw the duplicate as a fresh registration.
        assert all(len(s.registry) == 1 for s in cluster.shards.values())


class TestUnregister:
    def test_unregister_cleans_every_shard(self):
        cluster, outbox = make_cluster(shards=3)
        register(cluster, "x")
        register(cluster, "y")
        cluster.handle_message(Message(kind=kinds.UNREGISTER, sender="x"))
        assert "x" not in cluster.registry
        for shard in cluster.shards.values():
            assert "x" not in shard.registry
            assert "y" in shard.registry
        leaves = [
            m for m in outbox.of_kind(kinds.INSTANCE_LIST)
            if m.payload.get("left") == "x"
        ]
        assert [m.to for m in leaves] == ["y"]
        assert leaves[0].payload == {"left": "x", "version": 3}

    def test_unknown_unregister_rejected(self):
        cluster, outbox = make_cluster()
        cluster.handle_message(Message(kind=kinds.UNREGISTER, sender="ghost"))
        assert len(outbox.of_kind(kinds.ERROR)) == 1


class TestUnsupportedKind:
    def test_server_only_kind_is_rejected(self):
        cluster, outbox = make_cluster()
        register(cluster, "x")
        cluster.handle_message(
            Message(kind=kinds.LOCK_REPLY, sender="x", payload={})
        )
        errors = outbox.of_kind(kinds.ERROR)
        assert len(errors) == 1
        assert errors[0].payload["reason"] == "unsupported message kind"

    def test_migration_kinds_require_the_router_sender(self):
        cluster, outbox = make_cluster()
        register(cluster, "x")
        # A client must not be able to trigger migration internals even
        # when addressing a shard through the router's routed kinds; the
        # router itself never routes MIGRATE_* from clients.
        cluster.handle_message(
            Message(
                kind=kinds.MIGRATE_EXPORT, sender="x", payload={"objects": []}
            )
        )
        assert len(outbox.of_kind(kinds.ERROR)) == 1

    @pytest.mark.parametrize(
        "kind, payload, missing",
        [
            (kinds.LOCK_REQUEST, {"token": 1}, "source"),
            (kinds.PUSH_STATE, {"source": ["x", "/f"], "state": {}}, "target"),
            (kinds.REMOTE_COPY, {"target": ["x", "/f"]}, "source"),
        ],
        ids=["lock_request", "push_state", "remote_copy"],
    )
    def test_routed_message_without_its_object_is_rejected(
        self, kind, payload, missing
    ):
        cluster, outbox = make_cluster()
        register(cluster, "x")
        cluster.handle_message(Message(kind=kind, sender="x", payload=payload))
        (error,) = outbox.of_kind(kinds.ERROR)
        assert error.to == "x"
        assert error.payload["reason"] == f"KeyError: '{missing}'"
        assert cluster.processed["__rejected__"] == 1
        # No shard saw it.
        for shard in cluster.shards.values():
            assert shard.processed[kind] == 0


class TestPermissions:
    def test_rule_lands_on_every_shard_with_one_reply(self):
        session = Session(shards=3)
        a = session.create_instance("a", user="u1")
        from repro.server.permissions import PermissionRule

        a.set_permission(
            PermissionRule(
                user="*", instance_id="a", path_prefix="/", right="couple",
                allow=False,
            )
        )
        session.pump()
        for shard in session.cluster.shards.values():
            assert len(shard.access.rules()) == 1
        session.close()


class TestRoutingAndMigration:
    def test_cross_shard_couple_migrates_the_smaller_group(self):
        session = Session(shards=2)
        cluster = session.cluster
        # Pick two instance ids whose objects hash to different shards so
        # the couple below is guaranteed to cross them.
        gid = lambda iid: (iid, "/ui/f")
        candidates = [chr(ord("a") + i) for i in range(10)]
        first = candidates[0]
        second = next(
            c for c in candidates[1:]
            if cluster.shard_of(gid(c)) != cluster.shard_of(gid(first))
        )
        x = session.create_instance(first, user="u1")
        y = session.create_instance(second, user="u2")
        tx = x.add_root(Shell("ui"))
        TextField("f", parent=tx)
        ty = y.add_root(Shell("ui"))
        TextField("f", parent=ty)
        winner = cluster.shard_of(gid(first))  # equal sizes: source side wins
        x.couple(tx.find("/ui/f"), (second, "/ui/f"))
        session.pump()
        assert cluster.migrations == 1
        assert cluster.shard_of(gid(first)) == winner
        assert cluster.shard_of(gid(second)) == winner
        assert len(cluster.shards[winner].couples) == 1
        loser = next(s for s in cluster.shard_ids if s != winner)
        assert len(cluster.shards[loser].couples) == 0
        session.close()

    def test_mirror_equals_union_of_shard_tables_after_group_merge(self):
        """Two multi-member groups homed on different shards merge: one
        migrates, the winner shard tells each side only the other side's
        links, and the router's mirror — fed by every addressee's copy —
        still equals the union of the shard tables, as does the replica
        of every member."""
        session = Session(shards=2)
        cluster = session.cluster
        gid = lambda iid: (iid, "/ui/f")
        names = [chr(ord("a") + i) for i in range(16)]
        home = {n: cluster.shard_of(gid(n)) for n in names}
        left = [n for n in names if home[n] == cluster.shard_ids[0]][:3]
        right = [n for n in names if home[n] == cluster.shard_ids[1]][:2]
        instances, trees = {}, {}
        for name in left + right + ["bystander"]:
            instances[name] = session.create_instance(name, user=name)
            trees[name] = instances[name].add_root(Shell("ui"))
            TextField("f", parent=trees[name])

        def couple(a, b):
            instances[a].couple(trees[a].find("/ui/f"), gid(b))
            session.pump()

        def shard_union():
            return {
                link
                for shard in cluster.shards.values()
                for link in shard.couples.links()
            }

        couple(left[0], left[1])
        couple(left[1], left[2])
        couple(right[0], right[1])
        assert cluster.migrations == 0
        couple(left[2], right[0])
        assert cluster.migrations == 1
        assert len({cluster.shard_of(gid(n)) for n in left + right}) == 1
        assert len(shard_union()) == 4
        assert set(cluster.mirror.links()) == shard_union()
        for name in left + right:
            assert set(instances[name].replica.links()) == shard_union(), name
        assert len(instances["bystander"].replica) == 0

        # Splitting again keeps mirror, shards and replicas in step.
        instances[left[2]].decouple(trees[left[2]].find("/ui/f"), gid(right[0]))
        session.pump()
        assert set(cluster.mirror.links()) == shard_union()
        for name in right:
            assert len(instances[name].replica) == 1, name
        for name in left:
            assert len(instances[name].replica) == 2, name
        session.close()

    def test_same_shard_couple_does_not_migrate(self):
        session = Session(shards=2)
        cluster = session.cluster
        gid = lambda iid: (iid, "/ui/f")
        candidates = [chr(ord("a") + i) for i in range(10)]
        first = candidates[0]
        second = next(
            c for c in candidates[1:]
            if cluster.shard_of(gid(c)) == cluster.shard_of(gid(first))
        )
        x = session.create_instance(first, user="u1")
        y = session.create_instance(second, user="u2")
        tx = x.add_root(Shell("ui"))
        TextField("f", parent=tx)
        ty = y.add_root(Shell("ui"))
        TextField("f", parent=ty)
        x.couple(tx.find("/ui/f"), (second, "/ui/f"))
        session.pump()
        assert cluster.migrations == 0
        session.close()

    def test_events_flow_through_the_owning_shard_only(self):
        session = Session(shards=4)
        cluster = session.cluster
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        ta = a.add_root(Shell("ui"))
        TextField("f", parent=ta)
        tb = b.add_root(Shell("ui"))
        TextField("f", parent=tb)
        a.couple(ta.find("/ui/f"), ("b", "/ui/f"))
        session.pump()
        cluster.reset_shard_traffic()
        for i in range(3):
            ta.find("/ui/f").commit(str(i))
        session.pump()
        assert tb.find("/ui/f").value == "2"
        home = cluster.shard_of(("a", "/ui/f"))
        # An action is one LOCK_REQUEST (it carries the event) plus the
        # receiver's ack; both reach the owning shard and no other.
        for kind in (kinds.LOCK_REQUEST, kinds.EVENT_ACK):
            counts = {
                shard_id: cluster.shards[shard_id].processed[kind]
                for shard_id in cluster.shard_ids
                if cluster.shards[shard_id].processed[kind]
            }
            assert counts == {home: 3}, kind
        assert not any(
            shard.processed[kinds.EVENT] for shard in cluster.shards.values()
        )
        session.close()

    def test_decouple_returns_group_to_ring_placement(self):
        session = Session(shards=2)
        cluster = session.cluster
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        ta = a.add_root(Shell("ui"))
        TextField("f", parent=ta)
        tb = b.add_root(Shell("ui"))
        TextField("f", parent=tb)
        a.couple(ta.find("/ui/f"), ("b", "/ui/f"))
        session.pump()
        a.decouple(ta.find("/ui/f"), ("b", "/ui/f"))
        session.pump()
        assert len(cluster.mirror) == 0
        assert all(len(s.couples) == 0 for s in cluster.shards.values())
        session.close()


class TestRouteTables:
    """The router's per-floor routing entries live exactly as long as the
    floor: an action's acks are routed while they are due, and an UNLOCK
    needs no entry — it goes to the homes of the objects it names."""

    @pytest.mark.parametrize("processes", [False, True], ids=["memory", "proc"])
    def test_no_route_entry_outlives_its_action(self, processes, tmp_path):
        knobs = (
            dict(backend="aio", processes=True, persistence=str(tmp_path))
            if processes
            else dict(backend="memory")
        )
        with Session(shards=2, **knobs) as session:
            cluster = session.cluster
            fields = {}
            for name in ("a", "b"):
                tree = session.create_instance(name, user=name).add_root(Shell("ui"))
                fields[name] = TextField("f", parent=tree)

            def settled(predicate):
                # The router drops a floor's ack route as it forwards the
                # last ack, ahead of whatever it handles next.
                if not processes:
                    session.pump()
                end = time.monotonic() + 30.0
                while not predicate() or cluster._floor_routes:
                    if time.monotonic() > end:
                        return False
                    time.sleep(0.005)
                return True

            session.instances["a"].couple(fields["a"], ("b", "/ui/f"))
            assert settled(lambda: session.instances["b"].is_coupled("/ui/f"))
            for i in range(50):
                writer, reader = ("a", "b") if i % 2 == 0 else ("b", "a")
                fields[writer].commit(f"v{i}")
                assert not session.instances[writer].last_execution.lock_denied
                assert settled(lambda: fields[reader].value == f"v{i}"), i
            assert cluster._floor_routes == {}
            assert cluster._floor_expected == {}

    def test_bare_floor_keeps_its_unlock_route(self):
        """``acquire_floor()`` sends no event; its UNLOCK must still find
        the shard that granted it."""
        with Session(shards=2) as session:
            a = session.create_instance("a", user="u1")
            tree = a.add_root(Shell("ui"))
            TextField("f", parent=tree)
            grant = a.acquire_floor("/ui/f")
            assert grant is not None
            home = session.cluster.shards[session.cluster.shard_of(("a", "/ui/f"))]
            assert list(home.locks.floors) == [("a", grant.token)]
            a.release_floor(grant)
            session.pump()
            assert all(len(s.locks) == 0 for s in session.cluster.shards.values())
            assert all(not s.locks.floors for s in session.cluster.shards.values())


class TestFreezeBuffer:
    def test_messages_for_frozen_objects_are_buffered_then_replayed(self):
        cluster, outbox = make_cluster(shards=2)
        register(cluster, "a")
        register(cluster, "b")
        frozen_gid = ("a", "/ui/x")
        cluster._frozen.add(frozen_gid)
        fetch = Message(
            kind=kinds.FETCH_STATE,
            sender="b",
            payload={"object": ["a", "/ui/x"]},
        )
        cluster.handle_message(fetch)
        assert cluster.processed["__buffered__"] == 1
        assert fetch in cluster._migration_buffer
        home = cluster.shard_of(frozen_gid)
        assert cluster.shards[home].processed[kinds.FETCH_STATE] == 0
        # Thaw: the buffer replays into the (new) home shard.
        cluster._frozen.clear()
        cluster._drain_buffer()
        assert cluster._migration_buffer == []
        assert cluster.shards[home].processed[kinds.FETCH_STATE] == 1

    def test_unrelated_messages_pass_while_a_group_is_frozen(self):
        cluster, outbox = make_cluster(shards=2)
        register(cluster, "a")
        register(cluster, "b")
        cluster._frozen.add(("a", "/ui/x"))
        other = Message(
            kind=kinds.FETCH_STATE,
            sender="a",
            payload={"object": ["b", "/ui/y"]},
        )
        cluster.handle_message(other)
        assert cluster.processed["__buffered__"] == 0
        cluster._frozen.clear()


class TestStats:
    def test_shard_traffic_merges_per_shard_transports(self):
        session = Session(shards=2)
        cluster = session.cluster
        session.create_instance("a", user="u1")
        session.create_instance("b", user="u2")
        session.pump()
        total = cluster.shard_traffic()
        assert total.messages == sum(
            stats.messages for stats in cluster._shard_stats.values()
        )
        assert total.messages > 0
        session.close()

    def test_stats_shape(self):
        cluster, outbox = make_cluster(shards=2)
        register(cluster, "x")
        stats = cluster.stats()
        assert stats["shards"] == 2
        assert stats["registered"] == 1
        assert stats["migrations"] == 0
        assert set(stats["per_shard"]) == set(cluster.shard_ids)
        for shard_stats in stats["per_shard"].values():
            assert shard_stats["processed"][kinds.REGISTER] == 1

    def test_modeled_makespan_shrinks_with_more_shards(self):
        def makespan(shards):
            cluster, outbox = make_cluster(shards=shards, service_time=1.0)
            for i in range(16):
                register(cluster, f"inst-{i}")
            return cluster.modeled_makespan()

        single = makespan(1)
        spread = makespan(4)
        assert single > 0
        # Registration fans out everywhere, so every shard pays for all 16
        # registers; broadcast work cannot parallelize away.
        assert spread == single

    def test_modeled_makespan_shrinks_for_group_scoped_work(self):
        def makespan(shards):
            # Service must dwarf the simulated network latency so queueing
            # (not message timing) dominates the modeled busy periods.
            session = Session(shards=shards, service_time=1.0)
            cluster = session.cluster
            instances = {}
            for i in range(8):
                iid = f"inst-{i}"
                instances[iid] = session.create_instance(iid, user=f"u{i}")
            trees = {}
            for iid, inst in instances.items():
                tree = inst.add_root(Shell("ui"))
                TextField("f", parent=tree)
                trees[iid] = tree
            # Four disjoint couple pairs: four independent groups.
            ids = list(instances)
            for left, right in zip(ids[0::2], ids[1::2]):
                instances[left].couple(
                    trees[left].find("/ui/f"), (right, "/ui/f")
                )
            session.pump()
            cluster._busy_until.clear()
            for left in ids[0::2]:
                for i in range(5):
                    trees[left].find("/ui/f").commit(f"{left}-{i}")
            session.pump()
            result = cluster.modeled_makespan()
            session.close()
            return result

        assert makespan(4) < makespan(1)
