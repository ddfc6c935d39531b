"""Migration state transfer: export/import round-trips and live moves."""

from repro.cluster.router import ShardedCosoftCluster
from repro.net import kinds
from repro.net.clock import SimClock
from repro.net.message import Message
from repro.net.transport import ROUTER_ID
from repro.persist import PersistenceConfig, recover_cluster
from repro.persist.snapshot import capture_state, restore_state
from repro.server.couples import CoupleLink
from repro.server.history import HistoricalState
from repro.server.locks import LockOwner
from repro.server.server import CosoftServer
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField


def seeded_server():
    """A server holding one two-object group with a lock and history."""
    server = CosoftServer()
    left = ("a", "/ui/f")
    right = ("b", "/ui/f")
    server.couples.add_link(CoupleLink(source=left, target=right, creator="a"))
    owner = LockOwner(instance_id="a", token=7)
    server.locks.acquire_all([left, right], owner, 0.0)
    server.history.push(
        HistoricalState(obj=right, state={"value": "old"}, by_user="bob",
                        timestamp=1.0)
    )
    return server, left, right, owner


class TestExportImportRoundTrip:
    def test_export_strips_the_source_server(self):
        server, left, right, owner = seeded_server()
        data = server.export_group([left, right])
        assert len(server.couples) == 0
        assert len(server.locks) == 0
        assert len(server.history) == 0
        assert len(data["couples"]) == 1
        assert len(data["locks"]) == 2
        assert len(data["history"]["objects"]) == 1

    def test_import_restores_everything_on_the_target(self):
        server, left, right, owner = seeded_server()
        data = server.export_group([left, right])
        target = CosoftServer()
        restore_state(target, data)
        assert target.couples.has_link(left, right)
        assert target.locks.holder(left) == owner
        assert target.locks.holder(right) == owner
        assert target.history.depth(right) == (1, 0)

    def test_export_is_scoped_to_the_requested_objects(self):
        server, left, right, owner = seeded_server()
        other = ("c", "/ui/z")
        server.history.push(
            HistoricalState(obj=other, state={"value": "keep"}, by_user="c",
                            timestamp=2.0)
        )
        server.export_group([left, right])
        assert server.history.depth(other) == (1, 0)


class TestMigrateMessages:
    def test_shard_answers_the_router_with_its_state(self):
        server, left, right, owner = seeded_server()
        replies = []

        class Capture:
            local_id = "server"
            closed = False

            def send(self, message):
                replies.append(message)

            def drive(self, predicate, timeout=5.0):
                return bool(predicate())

            def close(self):
                pass

        server.bind(Capture())
        server.handle_message(
            Message(
                kind=kinds.MIGRATE_EXPORT,
                sender=ROUTER_ID,
                payload={"objects": [["a", "/ui/f"], ["b", "/ui/f"]]},
            )
        )
        assert replies[-1].kind == kinds.MIGRATE_STATE
        assert len(replies[-1].payload["couples"]) == 1

        importer = CosoftServer()
        importer.bind(Capture())
        importer.handle_message(
            Message(
                kind=kinds.MIGRATE_IMPORT,
                sender=ROUTER_ID,
                payload=dict(replies[-1].payload),
            )
        )
        assert replies[-1].kind == kinds.MIGRATE_ACK
        assert importer.couples.has_link(("a", "/ui/f"), ("b", "/ui/f"))

    def test_client_sender_is_refused(self):
        server, *_ = seeded_server()
        replies = []

        class Capture:
            local_id = "server"
            closed = False

            def send(self, message):
                replies.append(message)

            def drive(self, predicate, timeout=5.0):
                return bool(predicate())

            def close(self):
                pass

        server.bind(Capture())
        server.handle_message(
            Message(
                kind=kinds.MIGRATE_EXPORT,
                sender="mallory",
                payload={"objects": [["a", "/ui/f"]]},
            )
        )
        assert replies[-1].kind == kinds.ERROR
        assert len(server.couples) == 1  # nothing was extracted


class TestLiveHistoryMigration:
    def test_undo_history_survives_a_group_move(self):
        """Merging a 2-group into a 3-group moves its history with it."""
        session = Session(shards=2)
        cluster = session.cluster
        instances = {}
        trees = {}
        for i in range(5):
            iid = f"inst-{i}"
            instances[iid] = session.create_instance(iid, user=f"u{i}")
            tree = instances[iid].add_root(Shell("ui"))
            TextField("f", parent=tree)
            trees[iid] = tree

        def field(iid):
            return trees[iid].find("/ui/f")

        # History for inst-1's field: a copy_from backs up the overwritten
        # state ("one") on inst-1's home shard.
        field("inst-1").commit("one")
        session.pump()
        instances["inst-1"].copy_from(field("inst-1"), ("inst-0", "/ui/f"))
        session.pump()
        start_home = cluster.shard_of(("inst-1", "/ui/f"))
        assert len(cluster.shards[start_home].history) == 1

        # Small group {0,1}; the couple may already move inst-1's object.
        instances["inst-0"].couple(field("inst-0"), ("inst-1", "/ui/f"))
        session.pump()
        small_home = cluster.shard_of(("inst-0", "/ui/f"))
        assert cluster.shard_of(("inst-1", "/ui/f")) == small_home
        assert len(cluster.shards[small_home].history) == 1

        # Big group {2,3,4}.
        instances["inst-2"].couple(field("inst-2"), ("inst-3", "/ui/f"))
        instances["inst-2"].couple(field("inst-2"), ("inst-4", "/ui/f"))
        session.pump()
        big_home = cluster.shard_of(("inst-2", "/ui/f"))

        # Merge: the smaller group {0,1} moves to the bigger group's home,
        # carrying its couple rows and history.
        migrations_before = cluster.migrations
        instances["inst-1"].couple(field("inst-1"), ("inst-2", "/ui/f"))
        session.pump()
        if small_home != big_home:
            assert cluster.migrations == migrations_before + 1
            assert len(cluster.shards[small_home].history) == 0
        for iid in instances:
            assert cluster.shard_of((iid, "/ui/f")) == big_home
        assert len(cluster.shards[big_home].history) == 1
        assert len(cluster.shards[big_home].couples) == 4

        # The moved history still drives undo after two potential moves.
        assert instances["inst-1"].undo(field("inst-1"))
        assert field("inst-1").value == "one"
        session.close()


class TestSplitFloor:
    """A floor whose group a migration splits keeps every lock under a
    floor on the shard that holds it."""

    def _send(self, cluster, kind, sender, **payload):
        cluster.clock.advance(0.01)
        cluster.handle_message(Message(kind=kind, sender=sender, payload=payload))

    def _lock(self, cluster, sender, obj, token=1):
        self._send(cluster, kinds.LOCK_REQUEST, sender, source=list(obj), token=token)

    def test_unlock_after_a_split_frees_every_shard(self):
        replies = []
        cluster = ShardedCosoftCluster(2, clock=SimClock())
        cluster.bind(type("Outbox", (), {"send": lambda _, m: replies.append(m)})())
        for name in ("a", "b", "c", "d", "e"):
            self._send(cluster, kinds.REGISTER, name, user=name)
        a, b, c, d, e = ((name, "/x") for name in "abcde")
        self._send(cluster, kinds.COUPLE, "a", source=list(a), target=list(b))
        self._send(cluster, kinds.COUPLE, "c", source=list(c), target=list(d))
        assert cluster.shard_of(a) != cluster.shard_of(c)
        self._lock(cluster, "a", a)  # a bare floor on {a/x, b/x}
        self._send(cluster, kinds.DECOUPLE, "a", source=list(a), target=list(b))
        migrations = cluster.migrations
        self._send(cluster, kinds.COUPLE, "b", source=list(b), target=list(c))
        assert cluster.migrations == migrations + 1
        assert cluster.shard_of(a) != cluster.shard_of(b)
        for shard in cluster.shards.values():
            for obj in shard.locks.locked_objects():
                owner = shard.locks.holder(obj)
                floor = shard.floors.get((owner.instance_id, owner.token))
                assert floor is not None and obj in floor.objects, obj
        self._send(cluster, kinds.UNLOCK, "a", token=1, objects=[list(a), list(b)])
        for shard in cluster.shards.values():
            assert len(shard.locks) == 0 and shard.floors == {}
        self._send(cluster, kinds.COUPLE, "e", source=list(e), target=list(a))
        del replies[:]
        self._lock(cluster, "e", e)
        (reply,) = [m for m in replies if m.kind == kinds.LOCK_REPLY]
        assert reply.payload["granted"]

    def test_ack_after_a_split_frees_every_shard(self):
        """An event floor split by a migration hears its ack on both
        shards: the one that kept the owner's part drains it too."""
        cluster = ShardedCosoftCluster(2, clock=SimClock())
        cluster.bind(type("Outbox", (), {"send": lambda _, m: None})())
        for name in ("a", "b", "c", "d"):
            self._send(cluster, kinds.REGISTER, name, user=name)
        a, b, c, d = ((name, "/x") for name in "abcd")
        self._send(cluster, kinds.COUPLE, "a", source=list(a), target=list(b))
        self._send(cluster, kinds.COUPLE, "c", source=list(c), target=list(d))
        assert cluster.shard_of(a) != cluster.shard_of(c)
        event = {"type": "activate", "source_path": "/x", "instance_id": "a"}
        self._send(
            cluster, kinds.LOCK_REQUEST, "a", source=list(a), token=1, event=event
        )
        (home,) = {s for s in cluster.shards.values() if s.locks.floors}
        assert home.locks.floors[("a", 1)].pending_acks == {"b"}
        self._send(cluster, kinds.DECOUPLE, "a", source=list(a), target=list(b))
        self._send(cluster, kinds.COUPLE, "b", source=list(b), target=list(c))
        assert cluster.shard_of(a) != cluster.shard_of(b)
        self._send(cluster, kinds.EVENT_ACK, "b", owner=["a", 1])
        for shard in cluster.shards.values():
            assert len(shard.locks) == 0 and shard.floors == {}
        assert cluster._floor_routes == {} and cluster._floor_expected == {}


class TestShardBootstrap:
    """A shard added to a live ring starts with the replicated part of
    the database every other shard holds: roster, ACL and history
    tombstones."""

    def _cluster(self, **kwargs):
        cluster = ShardedCosoftCluster(2, clock=SimClock(), **kwargs)
        cluster.bind(type("Outbox", (), {"send": lambda _, m: None})())
        return cluster

    def _send(self, cluster, kind, sender, **payload):
        cluster.clock.advance(0.01)
        cluster.handle_message(Message(kind=kind, sender=sender, payload=payload))

    def _replicated(self, shard):
        state = capture_state(shard)
        return [state[key] for key in ("registry", "registry_version", "access")] + [
            state["history"]["forgotten"]
        ]

    def _drive(self, cluster):
        for name in ("a", "b"):
            self._send(cluster, kinds.REGISTER, name, user=name)
        for name in ("a", "b"):
            rule = {"instance_id": name, "path_prefix": "/x", "allow": False}
            self._send(cluster, kinds.PERMISSION_SET, name, rule=rule)
        self._send(cluster, kinds.UNREGISTER, "b")

    def test_a_shard_added_after_an_unregister_holds_what_the_others_hold(self):
        cluster = self._cluster()
        self._drive(cluster)
        new = cluster.shards[cluster.add_shard()]
        old = cluster.shards["shard-0"]
        assert self._replicated(new) == self._replicated(old)
        assert new.history.forgotten_instances() == ["b"]
        assert [r.instance_id for r in new.access.rules()] == ["a"]

    def test_a_shard_added_after_recovery_holds_what_the_others_hold(self, tmp_path):
        config = PersistenceConfig(directory=str(tmp_path), snapshot_every=0)
        live = self._cluster(persistence=config)
        self._drive(live)
        for shard in live.shards.values():
            shard.persistence.close()
        cluster = recover_cluster(config, shards=2)
        cluster.bind(type("Outbox", (), {"send": lambda _, m: None})())
        new = cluster.shards[cluster.add_shard()]
        assert self._replicated(new) == self._replicated(cluster.shards["shard-0"])
        for shard in cluster.shards.values():
            shard.persistence.close()
