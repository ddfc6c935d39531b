"""Tests for state capture/restore and the snapshot stores."""

import os

import pytest

from repro.errors import PersistenceError
from repro.persist import MemorySnapshotStore, SnapshotStore
from repro.persist.snapshot import (
    build_snapshot,
    capture_state,
    restore_state,
    server_fingerprint,
    state_fingerprint,
)

from persist_helpers import drive_workload, make_server


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
