"""Tests for state capture/restore and the snapshot stores."""

import json
import os
import shutil

import pytest

from repro.errors import PersistenceError
from repro.net import kinds
from repro.net.message import Message
from repro.net.transport import ROUTER_ID
from repro.persist import (
    MemorySnapshotStore,
    PersistenceConfig,
    SnapshotStore,
    recover_cluster,
)
from repro.persist.snapshot import (
    build_snapshot,
    capture_state,
    restore_state,
    server_fingerprint,
    state_fingerprint,
)

from persist_helpers import (
    drive_floor_workload,
    drive_workload,
    make_server,
    register,
)

#: Snapshot of :func:`drive_floor_workload`'s database, written by the
#: code before a floor became one record (seq 7, the workload's last op).
PARENT_SNAPSHOTS = os.path.join(os.path.dirname(__file__), "data")
PARENT_FINGERPRINT = "92a901b0a139ed1f48270247fb198ce0446aa4cc"

#: ``migrate_state`` for the a/b group of :func:`drive_floor_workload` as
#: that code sent it, with a ``fingerprints`` entry, a key since dropped.
PARENT_MIGRATE_STATE = {
    "fingerprints": [[["a", "/app/x"], "deadbeef"]],
    "floors": [
        {
            "granted_at": 0.060000000000000005,
            "objects": [["a", "/app/x"], ["b", "/app/x"]],
            "owner": ["a", 1],
            "pending_acks": ["b"],
        }
    ],
    "history": [
        [
            ["b", "/app/x"],
            {
                "redo": [],
                "undo": [
                    {
                        "by_user": "bob",
                        "obj": ["b", "/app/x"],
                        "reason": "copy_to",
                        "state": {"value": "old"},
                        "timestamp": 0.05,
                    }
                ],
            },
        ]
    ],
    "links": [{"creator": "a", "source": ["a", "/app/x"], "target": ["b", "/app/x"]}],
    "locks": [[["a", "/app/x"], ["a", 1]], [["b", "/app/x"], ["a", 1]]],
    "objects": [["a", "/app/x"], ["b", "/app/x"]],
}

GROUP = [("a", "/app/x"), ("b", "/app/x")]


def ack(srv, sender, owner):
    srv.handle_message(
        Message(kind=kinds.EVENT_ACK, sender=sender, payload={"owner": owner})
    )


class TestCaptureRestore:
    def test_round_trip_reproduces_fingerprint(self):
        src, _ = make_server()
        drive_workload(src)
        state = capture_state(src)
        dst, _ = make_server()
        restore_state(dst, state)
        assert server_fingerprint(dst) == server_fingerprint(src)

    def test_restore_covers_all_categories(self):
        src, _ = make_server()
        drive_workload(src)
        dst, _ = make_server()
        restore_state(dst, capture_state(src))
        assert sorted(r.instance_id for r in dst.registry.records()) == [
            "a",
            "b",
        ]
        assert len(dst.couples) == len(src.couples)
        assert dst.locks.locked_objects() == src.locks.locked_objects()
        assert dst.history.depth(("b", "/app/x")) == src.history.depth(
            ("b", "/app/x")
        )
        # Tombstones travel too: "c" unregistered, its history stays dead.
        assert dst.history.forgotten_instances() == ["c"]

    def test_registry_version_is_restored_not_recounted(self):
        src, _ = make_server()
        drive_workload(src)  # three joins and a leave
        assert (len(src.registry), src.registry.version) == (2, 4)
        dst, _ = make_server()
        restore_state(dst, capture_state(src))
        # Two restored records, yet the chain clients hold goes on at 4.
        assert dst.registry.version == 4

    def test_registry_version_is_part_of_the_fingerprint(self):
        src, _ = make_server()
        drive_workload(src)
        state = capture_state(src)
        assert state_fingerprint(state) != state_fingerprint(
            dict(state, registry_version=state["registry_version"] + 1)
        )

    def test_fingerprint_ignores_volatile_counters(self):
        src, _ = make_server()
        drive_workload(src)
        before = server_fingerprint(src)
        src.processed["event"] += 100  # traffic counters are not state
        assert server_fingerprint(src) == before

    def test_fingerprint_changes_with_state(self):
        src, _ = make_server()
        drive_workload(src)
        before = server_fingerprint(src)
        src.history.forget_instance("b")
        assert server_fingerprint(src) != before

    def test_state_is_json_safe(self):
        import json

        src, _ = make_server()
        drive_workload(src)
        state = capture_state(src)
        assert json.loads(json.dumps(state)) == state


class TestBuildSnapshot:
    def test_envelope(self):
        src, _ = make_server()
        drive_workload(src)
        snap = build_snapshot(src, seq=10, epoch=2)
        assert snap["seq"] == 10
        assert snap["epoch"] == 2
        assert snap["clock"] == src.clock.now()
        assert snap["fingerprint"] == state_fingerprint(snap["state"])


class TestSnapshotStore:
    def _snap(self, seq):
        src, _ = make_server()
        drive_workload(src)
        return build_snapshot(src, seq=seq, epoch=0)

    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        snap = self._snap(5)
        store.save(snap)
        assert store.seqs() == [5]
        assert store.load(5) == snap

    def test_corrupt_snapshot_fails_crc(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.save(self._snap(5))
        (name,) = os.listdir(tmp_path)
        path = os.path.join(tmp_path, name)
        text = open(path).read().replace('"alice"', '"mallory"', 1)
        open(path, "w").write(text)
        with pytest.raises(PersistenceError):
            store.load(5)

    def test_keep_prunes_old_snapshots(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=2)
        for seq in (5, 10, 15):
            store.save(self._snap(seq))
        assert store.seqs() == [10, 15]

    def test_load_latest_respects_max_seq(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=0)  # keep everything
        for seq in (5, 10, 15):
            store.save(self._snap(seq))
        assert store.load_latest()["seq"] == 15
        assert store.load_latest(max_seq=12)["seq"] == 10
        assert store.load_latest(max_seq=4) is None


class TestMemorySnapshotStore:
    def test_copies_on_save_and_load(self):
        store = MemorySnapshotStore()
        src, _ = make_server()
        drive_workload(src)
        snap = build_snapshot(src, seq=1, epoch=0)
        store.save(snap)
        loaded = store.load(1)
        loaded["state"]["registry"].clear()
        assert store.load(1)["state"]["registry"]  # untouched

    def test_missing_seq_raises(self):
        with pytest.raises(PersistenceError):
            MemorySnapshotStore().load(42)


class TestFloorWireForm:
    """A floor has one wire form, shared by snapshots and ``migrate_state``,
    and it is the form the code before the floor record wrote."""

    def test_capture_is_byte_identical_to_the_parent_commits(self):
        srv, _ = make_server()
        drive_floor_workload(srv)
        state = capture_state(srv)
        parent = SnapshotStore(PARENT_SNAPSHOTS).load(7)
        assert json.dumps(state, sort_keys=True) == json.dumps(
            parent["state"], sort_keys=True
        )
        assert state_fingerprint(state) == PARENT_FINGERPRINT

    def test_parent_snapshot_restores_to_its_fingerprint(self):
        snap = SnapshotStore(PARENT_SNAPSHOTS).load(7)
        srv, _ = make_server()
        restore_state(srv, snap["state"])
        assert server_fingerprint(srv) == PARENT_FINGERPRINT
        assert {k: f.pending_acks for k, f in srv.floors.items()} == {
            ("a", 1): {"b"},
            ("c", 2): set(),
        }
        ack(srv, "b", ["a", 1])
        assert list(srv.floors) == [("c", 2)]
        assert srv.locks.locked_objects() == [("c", "/app/z")]

    def test_mid_ack_floor_migrates_and_the_missing_ack_releases_it(self):
        src, transport = make_server()
        drive_floor_workload(src)
        transport.take()
        export = Message(
            kind=kinds.MIGRATE_EXPORT,
            sender=ROUTER_ID,
            payload={"objects": [list(g) for g in GROUP]},
        )
        src.handle_message(export)
        (reply,) = transport.take()
        assert reply.kind == kinds.MIGRATE_STATE
        assert "fingerprints" not in reply.payload
        assert [f["pending_acks"] for f in reply.payload["floors"]] == [["b"]]
        assert list(src.floors) == [("c", 2)]  # the bare floor stays
        dst, _ = make_server()
        for instance_id in ("a", "b"):
            register(dst, instance_id)
        restore_state(dst, reply.payload)
        assert sorted(dst.locks.locked_objects()) == GROUP
        ack(dst, "b", ["a", 1])
        assert dst.floors == {} and len(dst.locks) == 0

    def test_parent_form_migrate_state_still_imports(self):
        dst, _ = make_server()
        restore_state(dst, PARENT_MIGRATE_STATE)
        assert dst.floors[("a", 1)].pending_acks == {"b"}
        assert dst.history.depth(("b", "/app/x")) == (1, 0)
        ack(dst, "b", ["a", 1])
        assert dst.floors == {} and len(dst.locks) == 0


#: Per-shard journals written by the code before ``migrate_state`` and
#: ``shard_sync`` took the snapshot's keys: a 2-shard cluster whose
#: couple migrated a group with history and an ack-awaiting floor, an
#: unregister, six history pushes, two couples, then ``add_shard`` (three
#: groups moved to the new shard).  The fingerprints are that code's,
#: live and recovered.
PARENT_CLUSTER = os.path.join(PARENT_SNAPSHOTS, "parent-cluster")
PARENT_CLUSTER_FINGERPRINTS = {
    "shard-0": "b98b119abbee1c93b1dd05c448af7d21f8f9ed86",
    "shard-1": "9a9ddbbcf2ea9e64808694676e06d046ec6a8784",
    "shard-2": "ad1871f3c663f0483b929f65c7e0ba83a6dd1a83",
}

#: ``shard_sync`` as the code before the snapshot's keys sent it.
PARENT_SHARD_SYNC = {
    "access": {
        "default_allow": True,
        "rules": [
            {
                "allow": False,
                "instance_id": "a",
                "path_prefix": "/app",
                "right": "*",
                "user": "*",
            }
        ],
    },
    "records": [
        {
            "app_type": "",
            "host": "localhost",
            "instance_id": "a",
            "registered_at": 0.01,
            "user": "alice",
        },
        {
            "app_type": "",
            "host": "localhost",
            "instance_id": "b",
            "registered_at": 0.02,
            "user": "bob",
        },
    ],
    "version": 5,
}


class TestOneInstaller:
    """``restore_state`` installs a snapshot, a ``migrate_state`` and a
    ``shard_sync``, and only the categories each carries."""

    def test_a_group_install_leaves_the_registry_and_acl_untouched(self):
        src, _ = make_server()
        drive_floor_workload(src)
        group = src.export_group(GROUP)
        dst, _ = make_server()
        for instance_id in ("a", "b", "d"):
            register(dst, instance_id)
        dst.handle_message(
            Message(
                kind=kinds.PERMISSION_SET,
                sender="d",
                payload={"rule": {"instance_id": "d", "allow": False}},
            )
        )
        before = capture_state(dst)
        restore_state(dst, group)
        after = capture_state(dst)
        for key in ("registry", "registry_version", "access"):
            assert after[key] == before[key], key
        assert after["registry_version"] == 3
        assert len(after["access"]["rules"]) == 1
        assert sorted(dst.locks.locked_objects()) == GROUP
        assert dst.history.depth(("b", "/app/x")) == (1, 0)

    def test_parent_form_shard_sync_installs(self):
        dst, _ = make_server()
        dst.handle_message(
            Message(kind=kinds.SHARD_SYNC, sender=ROUTER_ID, payload=PARENT_SHARD_SYNC)
        )
        assert sorted(r.instance_id for r in dst.registry.records()) == ["a", "b"]
        assert dst.registry.get("a").registered_at == 0.01
        assert dst.registry.version == 5
        assert [r.to_wire() for r in dst.access.rules()] == (
            PARENT_SHARD_SYNC["access"]["rules"]
        )

    def test_parent_cluster_journals_recover_to_their_fingerprints(self, tmp_path):
        directory = str(tmp_path / "journal")
        shutil.copytree(PARENT_CLUSTER, directory)
        config = PersistenceConfig(directory=directory, snapshot_every=0)
        cluster = recover_cluster(config, shards=3)
        try:
            assert {
                shard_id: server_fingerprint(shard)
                for shard_id, shard in cluster.shards.items()
            } == PARENT_CLUSTER_FINGERPRINTS
            (home,) = [s for s in cluster.shards.values() if s.floors]
            assert home.floors[("a", 1)].pending_acks == {"b"}
        finally:
            for shard in cluster.shards.values():
                shard.persistence.close()
