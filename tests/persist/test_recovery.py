"""Tests for crash recovery and time travel."""

from repro.net import kinds
from repro.net.message import Message
from repro.persist import (
    PersistenceConfig,
    recover_cluster,
    recover_server,
)
from repro.persist.snapshot import server_fingerprint

from persist_helpers import (
    FakeTransport,
    couple,
    drive_workload,
    lock,
    lock_with_event,
    make_server,
    register,
    unregister,
)
from repro.server.couples import global_id


def memory_config(**overrides):
    return PersistenceConfig(directory=None, snapshot_every=1000, **overrides)


class TestRecoverServer:
    def test_pure_log_replay_reproduces_fingerprint(self):
        persist = memory_config().build()
        live, _ = make_server(persistence=persist)
        drive_workload(live)
        expected = server_fingerprint(live)
        recovered = recover_server(persist)
        assert server_fingerprint(recovered) == expected
        assert persist.replayed_ops > 0

    def test_snapshot_plus_suffix(self):
        persist = memory_config().build()
        live, _ = make_server(persistence=persist)
        register(live, "a", user="alice")
        couple(live, global_id("a", "/app/x"), global_id("a", "/app/y"))
        persist.snapshot(live)
        snap_seq = persist.log.last_seq
        register(live, "b", user="bob")
        lock(live, "b", "/app/z", token=3)
        expected = server_fingerprint(live)
        persist.replayed_ops = 0
        recovered = recover_server(persist)
        assert server_fingerprint(recovered) == expected
        # Only the suffix replayed; the prefix came from the snapshot.
        assert persist.replayed_ops == persist.log.last_seq - snap_seq

    def test_registry_version_survives_snapshot_and_suffix(self):
        """The next join after recovery is the dead server's version + 1,
        whether the version came out of a snapshot or out of replay."""
        persist = memory_config().build()
        live, _ = make_server(persistence=persist)
        for name in ("a", "b", "c"):
            register(live, name)
        unregister(live, "b")
        persist.snapshot(live)  # two records, version 4
        register(live, "d")
        unregister(live, "a")
        assert live.registry.version == 6
        recovered = recover_server(persist)
        assert recovered.registry.version == 6
        transport = FakeTransport()
        recovered.bind(transport)
        register(recovered, "e")
        deltas = [
            m.payload for m in transport.take()
            if m.kind == kinds.INSTANCE_LIST
        ]
        assert sorted(m["version"] for m in deltas) == [7, 7]
        assert {m["joined"] for m in deltas} == {"e"}

    def test_clock_derived_state_reproduces(self):
        persist = memory_config().build()
        live, _ = make_server(persistence=persist)
        drive_workload(live)
        recovered = recover_server(persist)
        for record in live.registry.records():
            twin = recovered.registry.get(record.instance_id)
            assert twin.registered_at == record.registered_at
        assert recovered.clock.now() <= live.clock.now()

    def test_recovered_server_resumes_journaling(self):
        persist = memory_config().build()
        live, _ = make_server(persistence=persist)
        drive_workload(live)
        last = persist.log.last_seq
        recovered = recover_server(persist)
        assert recovered.persistence is persist
        register(recovered, "d", user="dave")
        assert persist.log.last_seq == last + 1

    def test_at_seq_time_travel(self):
        persist = memory_config().build()
        live, _ = make_server(persistence=persist)
        register(live, "a", user="alice")
        register(live, "b", user="bob")
        register(live, "c", user="carol")
        past = recover_server(persist, at_seq=2)
        assert sorted(r.instance_id for r in past.registry.records()) == [
            "a",
            "b",
        ]
        # Time travel is read-only: the journal stays detached.
        assert past.persistence is None

    def test_replay_does_not_grow_the_log(self):
        persist = memory_config().build()
        live, _ = make_server(persistence=persist)
        drive_workload(live)
        before = persist.log.last_seq
        recover_server(persist)
        assert persist.log.last_seq == before

    def test_file_backed_crash_recovery(self, tmp_path):
        config = PersistenceConfig(
            directory=str(tmp_path), snapshot_every=4
        )
        live, _ = make_server(persistence=config.build())
        drive_workload(live)
        expected = server_fingerprint(live)
        # "Crash": abandon the live server, reopen the directory cold.
        cold = config.build()
        recovered = recover_server(cold)
        assert server_fingerprint(recovered) == expected
        cold.close()


class TestRecoverCluster:
    def _drive(self, cluster):
        transport = FakeTransport()
        cluster.bind(transport)
        for name, user in (("a", "alice"), ("b", "bob"), ("c", "carol")):
            cluster.clock.advance(0.01)
            cluster.handle_message(
                Message(
                    kind=kinds.REGISTER,
                    sender=name,
                    payload={"user": user, "app_type": ""},
                )
            )
        cluster.clock.advance(0.01)
        cluster.handle_message(
            Message(
                kind=kinds.COUPLE,
                sender="a",
                payload={
                    "source": ["a", "/app/x"],
                    "target": ["b", "/app/x"],
                },
            )
        )
        return transport

    def test_shards_recover_to_matching_fingerprints(self, tmp_path):
        from repro.cluster.router import ShardedCosoftCluster

        config = PersistenceConfig(directory=str(tmp_path))
        cluster = ShardedCosoftCluster(shards=2, persistence=config)
        self._drive(cluster)
        expected = {
            sid: server_fingerprint(shard)
            for sid, shard in cluster.shards.items()
        }
        for persist in (s.persistence for s in cluster.shards.values()):
            persist.close()
        recovered = recover_cluster(config, shards=2)
        for sid, shard in recovered.shards.items():
            assert server_fingerprint(shard) == expected[sid]
        assert len(recovered.registry) == 3
        assert len(recovered.mirror) == 1

    def test_router_registry_version_is_restored_from_the_shards(self, tmp_path):
        from repro.cluster.router import ShardedCosoftCluster

        config = PersistenceConfig(directory=str(tmp_path), snapshot_every=3)
        cluster = ShardedCosoftCluster(shards=2, persistence=config)
        transport = self._drive(cluster)
        cluster.clock.advance(0.01)
        cluster.handle_message(Message(kind=kinds.UNREGISTER, sender="c"))
        assert (len(cluster.registry), cluster.registry.version) == (2, 4)
        for persist in (s.persistence for s in cluster.shards.values()):
            assert persist.snapshots_taken > 0
            persist.close()
        recovered = recover_cluster(config, shards=2)
        try:
            # Two records would re-count to 2; clients hold 4.
            assert recovered.registry.version == 4
            assert all(
                shard.registry.version == 4
                for shard in recovered.shards.values()
            )
            recovered.bind(transport)
            transport.take()
            recovered.clock.advance(0.01)
            recovered.handle_message(
                Message(kind=kinds.REGISTER, sender="d", payload={"user": "dora"})
            )
            deltas = [
                m.payload for m in transport.take()
                if m.kind == kinds.INSTANCE_LIST
            ]
            assert [(m["joined"], m["version"]) for m in deltas] == [("d", 5)] * 2
        finally:
            for shard in recovered.shards.values():
                shard.persistence.close()

    def test_router_floor_routes_match_the_live_router(self, tmp_path):
        """A floor awaiting acks is routed by its EVENT_ACKs and a bare
        floor by its UNLOCK, after recovery exactly as before it."""
        from repro.cluster.router import ShardedCosoftCluster

        config = PersistenceConfig(directory=str(tmp_path))
        cluster = ShardedCosoftCluster(shards=2, persistence=config)
        self._drive(cluster)
        lock_with_event(cluster, "a", "/app/x", token=1)  # b's ack is due
        lock(cluster, "c", "/app/z", token=2)  # awaits its EVENT or UNLOCK
        assert list(cluster._lock_routes) == [("c", 2)]
        assert list(cluster._floor_routes) == [("a", 1)]
        assert cluster._floor_expected == {("a", 1): 1}
        for persist in (s.persistence for s in cluster.shards.values()):
            persist.close()
        recovered = recover_cluster(config, shards=2)
        try:
            for table in ("_lock_routes", "_floor_routes", "_floor_expected"):
                assert getattr(recovered, table) == getattr(cluster, table)
        finally:
            for shard in recovered.shards.values():
                shard.persistence.close()

    def test_router_books_rebuilt(self, tmp_path):
        from repro.cluster.router import ShardedCosoftCluster

        config = PersistenceConfig(directory=str(tmp_path))
        cluster = ShardedCosoftCluster(shards=2, persistence=config)
        self._drive(cluster)
        for persist in (s.persistence for s in cluster.shards.values()):
            persist.close()
        recovered = recover_cluster(config, shards=2)
        gid = ("a", "/app/x")
        assert recovered._home.get(gid) == cluster._home.get(gid)
        assert set(recovered.mirror.group_of(gid)) == set(
            cluster.mirror.group_of(gid)
        )
        # The replay sink was unbound: the caller's bind comes first.
        assert recovered._transport is None
