"""Chaos gate for the multi-process cluster.

A ``Session(backend="aio", shards=4, processes=True)`` runs each shard
as a real OS process with its own fsync'd journal.  The gate: ``kill
-9`` one shard in the middle of the strokes workload
(tests/harness.py), let the supervisor restart it from the journal,
finish the workload, and the final UI state must equal the workload's
reference — the exactly-once delivery protocol (delivery ids +
journaled outputs) makes the crash invisible to clients.  A second gate
resizes the ring under load and asserts zero lost and zero reordered
events.

CI runs this file in the ``tests-cluster-proc`` job and uploads the
per-shard journals and ``worker.log`` files as artifacts on failure —
keep all cluster state under ``tmp_path``.
"""

import time

import pytest

from repro.session import Session

from harness import board_tree, conform

pytestmark = pytest.mark.proc_chaos


def wait_for_restart(cluster, shard_id, min_restarts=1, timeout=30.0):
    handle = cluster.shards[shard_id]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if handle.restarts >= min_restarts and handle.state == "ready":
            return handle
        time.sleep(0.05)
    raise AssertionError(
        f"{shard_id} never came back: state={handle.state!r} "
        f"restarts={handle.restarts}"
    )


class TestKillNineMidWorkload:
    def test_recovers_from_journal_and_matches_parity_baseline(
        self, tmp_path
    ):
        killed = {}

        def chaos(session):
            cluster = session.cluster
            # Kill the shard that homes the coupled board group so the
            # crash lands on live state, not an idle worker.
            victim = cluster.shard_of(("a", "/ui/board"))
            killed["pid"] = cluster.kill_shard(victim)
            killed["shard"] = victim
            wait_for_restart(cluster, victim)

        conform(
            "strokes",
            "aio-2-processes",
            mid_workload=chaos,
            shards=4,
            persistence=str(tmp_path),
        )
        assert killed["pid"] > 0

    def test_restarted_worker_reports_journal_high_water_mark(
        self, tmp_path
    ):
        with Session(
            backend="aio", shards=2, processes=True,
            persistence=str(tmp_path),
        ) as session:
            a = session.create_instance("a", user="amy")
            ta = a.add_root(board_tree())
            ta.find("/ui/title").commit("before-crash")
            session.pump()
            cluster = session.cluster
            victim = cluster.shard_of(("a", "/ui/title"))
            dids_before = cluster.shards[victim]._did
            cluster.kill_shard(victim)
            handle = wait_for_restart(cluster, victim)
            # The replacement recovered its oplog: its HELLO advertised
            # every delivery the dead worker had acknowledged.
            assert handle.remote_max_did == dids_before
            ta.find("/ui/title").commit("after-crash")
            session.pump()
            assert ta.find("/ui/title").value == "after-crash"


class TestLiveReshardUnderLoad:
    def test_grow_and_shrink_lose_and_reorder_nothing(self, tmp_path):
        reshard = {}

        def resize(session):
            cluster = session.cluster
            old_ids = list(cluster.shard_ids)
            new_id = cluster.add_shard()
            session.pump()
            moved = cluster.last_reshard["moved"]
            # Minimal remap: only groups the new node's ring positions
            # claim may move, and they now live there.
            for group in moved:
                for gid in group:
                    assert cluster.shard_of(tuple(gid)) == new_id
            reshard.update(new=new_id, moved=len(moved), old=old_ids)

        conform(
            "strokes",
            "aio-2-processes",
            mid_workload=resize,
            persistence=str(tmp_path),
        )
        assert reshard["new"] == "shard-2"

    def test_remove_shard_drains_live_workers(self, tmp_path):
        with Session(
            backend="aio", shards=3, processes=True,
            persistence=str(tmp_path),
        ) as session:
            a = session.create_instance("a", user="amy")
            b = session.create_instance("b", user="ben")
            ta = a.add_root(board_tree())
            tb = b.add_root(board_tree())
            a.couple(ta.find("/ui/title"), ("b", "/ui/title"))
            session.pump()
            cluster = session.cluster
            victim = cluster.shard_of(("a", "/ui/title"))
            cluster.remove_shard(victim)
            session.pump()
            assert victim not in cluster.shard_ids
            # The worker process is gone, its journal directory is kept
            # for post-mortems.
            ta.find("/ui/title").commit("after-drain")
            session.pump()
            assert tb.find("/ui/title").value == "after-drain"


class TestFlightRecorder:
    def test_kill_nine_dumps_the_shards_last_spans(self, tmp_path):
        """The acceptance gate: kill -9 a worker and the supervisor
        writes a flight-recorder dump to the journal dir containing the
        supervision event ring and that shard's last pulled spans."""
        import json
        import os

        with Session(
            backend="aio", shards=4, processes=True, observability=True,
            persistence=str(tmp_path),
        ) as session:
            a = session.create_instance("a", user="amy")
            b = session.create_instance("b", user="ben")
            ta = a.add_root(board_tree())
            b.add_root(board_tree())
            # Coupled traffic takes the traced multiple-execution path,
            # so the victim worker records worker.apply/server.* spans.
            a.couple(ta.find("/ui/title"), ("b", "/ui/title"))
            session.pump()
            victim = session.cluster.shard_of(("a", "/ui/title"))
            ta.find("/ui/title").type_text("abc")
            session.pump()
            # Give the monitor a few heartbeat ticks: each PING
            # piggybacks an OBS pull, so the supervisor's span view of
            # the victim is at most one tick stale when it dies.
            deadline = time.monotonic() + 10.0
            handle = session.cluster.shards[victim]
            while not handle.last_spans and time.monotonic() < deadline:
                time.sleep(0.1)
            assert handle.last_spans, "no spans pulled before the crash"

            session.cluster.kill_shard(victim)
            wait_for_restart(session.cluster, victim)

            dump_path = os.path.join(str(tmp_path), victim, "flight-1.json")
            assert os.path.exists(dump_path)
            with open(dump_path) as fh:
                dump = json.load(fh)
            assert dump["shard"] == victim
            assert dump["reason"] == "worker_exit"
            events = [e["event"] for e in dump["events"]]
            assert events[:2] == ["spawn", "ready"]
            assert "kill_shard" in events
            assert events[-1] == "dead"
            # The dump carries the victim's own spans (worker-minted ids
            # are prefixed with the shard id).
            assert dump["spans"]
            assert all(
                s["span_id"].startswith(f"{victim}.")
                for s in dump["spans"]
            )
            names = {s["name"] for s in dump["spans"]}
            assert "worker.apply" in names

            # The cluster is healthy again after the restart.
            ta.find("/ui/title").commit("post-crash")
            session.pump()
            assert ta.find("/ui/title").value == "post-crash"
