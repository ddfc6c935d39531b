"""Multi-process cluster: worker protocol units + supervisor integration.

The unit half exercises :class:`repro.cluster.worker.ShardEndpoint`
in-process (no subprocess): delivery-id dedup, journaled outputs,
suppress filtering, hello/ping. The integration half spawns real worker
processes through :class:`repro.cluster.proc.ProcCluster` and checks
spawn/attach, status, heartbeats, kill/restart and the operator client.
"""

import os
import time

import pytest

from repro.cluster.proc import ProcCluster
from repro.cluster.worker import build_worker
from repro.net import kinds
from repro.net.message import Message
from repro.net.transport import ROUTER_ID


def forward(endpoint, did, inner, suppress=()):
    endpoint.handle_message(
        Message(
            kind=kinds.SHARD_FORWARD,
            sender=ROUTER_ID,
            to=endpoint.shard_id,
            payload={
                "did": did,
                "msg": inner.to_wire(),
                "suppress": list(suppress),
            },
        )
    )


class _Sink:
    """Stands in for the worker's host transport."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def uplinks(self):
        return [m for m in self.sent if m.kind == kinds.SHARD_UPLINK]


@pytest.fixture
def endpoint(tmp_path):
    ep = build_worker(shard_id="shard-0", directory=str(tmp_path))
    sink = _Sink()
    ep.bind(sink)
    ep.sink = sink
    yield ep
    ep.server.persistence.close()


def register(endpoint, did, instance_id="a"):
    forward(
        endpoint,
        did,
        Message(
            kind=kinds.REGISTER,
            sender=instance_id,
            payload={"user": instance_id, "app_type": "editor"},
        ),
    )


class TestShardEndpointProtocol:
    def test_attach_answers_hello_with_max_did(self, endpoint):
        endpoint.handle_message(
            Message(kind=kinds.SHARD_ATTACH, sender=ROUTER_ID, payload={})
        )
        (hello,) = [
            m for m in endpoint.sink.sent if m.kind == kinds.SHARD_HELLO
        ]
        assert hello.payload["max_did"] == 0
        assert hello.payload["shard"] == "shard-0"
        assert hello.to == ROUTER_ID

    def test_forward_executes_and_uplinks_outputs(self, endpoint):
        register(endpoint, 1)
        (uplink,) = endpoint.sink.uplinks()
        assert uplink.payload["did"] == 1
        kinds_out = [o["kind"] for o in uplink.payload["outs"]]
        assert kinds.REGISTER_ACK in kinds_out
        assert "a" in endpoint.server.registry

    def test_duplicate_did_replays_outputs_without_reexecution(self, endpoint):
        register(endpoint, 1)
        first = endpoint.sink.uplinks()[0].payload["outs"]
        processed_before = dict(endpoint.server.processed)
        register(endpoint, 1)  # redelivery of the same did
        assert endpoint.sink.uplinks()[1].payload["outs"] == first
        # Not re-executed: the server never saw the duplicate.
        assert dict(endpoint.server.processed) == processed_before

    def test_journal_entry_carries_did_and_outs(self, endpoint):
        register(endpoint, 7)
        entries = [
            e
            for e in endpoint.server.persistence.entries_after(0)
            if e.get("did") is not None
        ]
        assert entries and entries[-1]["did"] == 7
        assert any(
            o["kind"] == kinds.REGISTER_ACK for o in entries[-1]["outs"]
        )

    def test_recovery_restores_max_did_and_replay_outs(self, endpoint, tmp_path):
        register(endpoint, 1)
        register(endpoint, 2, instance_id="b")
        stored = endpoint.sink.uplinks()[1].payload["outs"]
        endpoint.server.persistence.sync()
        # Cold restart from the same directory: same high-water mark,
        # same stored outputs for the newest delivery.
        reborn = build_worker(shard_id="shard-0", directory=str(tmp_path))
        sink = _Sink()
        reborn.bind(sink)
        try:
            assert reborn.max_did == 2
            assert "a" in reborn.server.registry
            assert "b" in reborn.server.registry
            forward(
                reborn,
                2,
                Message(kind=kinds.REGISTER, sender="b", payload={"user": "b"}),
            )
            assert sink.uplinks()[0].payload["outs"] == stored
        finally:
            reborn.server.persistence.close()

    def test_suppress_filters_everything_but_router_control(self, endpoint):
        register(endpoint, 1)
        endpoint.sink.sent.clear()
        register(endpoint, 2, instance_id="b")
        with_acks = endpoint.sink.uplinks()[0].payload["outs"]
        assert any(o["kind"] == kinds.REGISTER_ACK for o in with_acks)
        endpoint.sink.sent.clear()
        forward(
            endpoint,
            3,
            Message(kind=kinds.REGISTER, sender="c", payload={"user": "c"}),
            suppress=[kinds.REGISTER_ACK, kinds.INSTANCE_LIST],
        )
        outs = endpoint.sink.uplinks()[0].payload["outs"]
        assert not any(
            o["kind"] in (kinds.REGISTER_ACK, kinds.INSTANCE_LIST)
            for o in outs
        )

    def test_failed_handler_still_advances_did_with_error_out(self, endpoint):
        register(endpoint, 1)
        register(endpoint, 2)  # duplicate REGISTER -> rejected by server
        uplink = endpoint.sink.uplinks()[1]
        assert uplink.payload["did"] == 2
        assert any(
            o["kind"] == kinds.ERROR for o in uplink.payload["outs"]
        )
        assert endpoint.max_did == 2

    def test_ping_answers_pong_with_stats(self, endpoint):
        register(endpoint, 1)
        endpoint.handle_message(
            Message(kind=kinds.SHARD_PING, sender=ROUTER_ID, payload={})
        )
        (pong,) = [
            m for m in endpoint.sink.sent if m.kind == kinds.SHARD_PONG
        ]
        assert pong.payload["max_did"] == 1
        assert "registered" in pong.payload["stats"]

    def test_non_router_senders_are_ignored(self, endpoint):
        endpoint.handle_message(
            Message(kind=kinds.SHARD_ATTACH, sender="mallory", payload={})
        )
        assert endpoint.sink.sent == []


class TestProcCluster:
    def test_spawns_ready_workers_with_journals(self, tmp_path):
        cluster = ProcCluster(2, directory=str(tmp_path))
        try:
            assert set(cluster.shard_ids) == {"shard-0", "shard-1"}
            for shard_id, handle in cluster.shards.items():
                assert handle.state == "ready"
                assert handle.process.poll() is None
                assert os.path.isdir(os.path.join(str(tmp_path), shard_id))
                # Group-scoped COUPLE_UPDATE delivery is the worker's only
                # behaviour: nothing about it rides in the spawn line.
                args = handle.process.args
                assert args[1:3] == ["-m", "repro.cluster.worker"]
                assert not [a for a in args if "scope" in a]
            status = cluster.cluster_status()
            assert set(status["processes"]) == {"shard-0", "shard-1"}
            assert status["processes"]["shard-0"]["send_failures"] == 0
        finally:
            cluster.close()

    def test_close_terminates_workers(self, tmp_path):
        cluster = ProcCluster(1, directory=str(tmp_path))
        process = cluster.shards["shard-0"].process
        cluster.close()
        assert process.wait(timeout=10) is not None

    def test_closed_cluster_refuses_at_once(self, tmp_path):
        from repro.errors import ReproError

        cluster = ProcCluster(
            1, directory=str(tmp_path), call_timeout=1, start_timeout=8
        )
        cluster.close()
        for marshalled in (cluster.add_shard, lambda: cluster.remove_shard("x")):
            began = time.monotonic()
            with pytest.raises(ReproError, match="cluster is closed"):
                marshalled()
            assert time.monotonic() - began < 1.0
        # Nobody drains the queue any more: dropped and counted.
        cluster.handle_message(
            Message(kind=kinds.REGISTER, sender="a", payload={"user": "a"})
        )
        assert cluster.processed["__closed__"] == 1
        assert cluster._queue.empty()
        assert not cluster._router_thread.is_alive()
        cluster.close()  # idempotent

    def test_router_thread_counts_and_survives_a_dispatch_error(
        self, tmp_path, caplog
    ):
        class Outbox:
            broken = True

            def __init__(self):
                self.sent = []

            def send(self, message):
                if self.broken:
                    raise RuntimeError("host transport fell over")
                self.sent.append(message)

        cluster = ProcCluster(1, directory=str(tmp_path))
        outbox = Outbox()
        cluster.bind(outbox)
        try:
            with caplog.at_level("ERROR", logger="repro.cluster.proc"):
                cluster.handle_message(
                    Message(kind=kinds.REGISTER, sender="a", payload={"user": "a"})
                )
                deadline = time.monotonic() + 10
                while (
                    time.monotonic() < deadline
                    and not cluster.processed["__router_errors__"]
                ):
                    time.sleep(0.02)
            assert cluster.processed["__router_errors__"] == 1
            (record,) = caplog.records
            assert "event=router_dispatch_failed" in record.getMessage()
            assert "kind=register" in record.getMessage()
            # The thread is still there for the next message.
            outbox.broken = False
            cluster.handle_message(
                Message(kind=kinds.REGISTER, sender="b", payload={"user": "b"})
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not outbox.sent:
                time.sleep(0.02)
            assert outbox.sent[0].kind == kinds.REGISTER_ACK
        finally:
            cluster.close()

    def test_kill_is_detected_and_worker_restarts_with_state(self, tmp_path):
        cluster = ProcCluster(
            1, directory=str(tmp_path), heartbeat_interval=0.1
        )
        sent = []
        cluster.bind(type("T", (), {"send": lambda self, m: sent.append(m)})())
        try:
            cluster.handle_message(
                Message(kind=kinds.REGISTER, sender="a", payload={"user": "a"})
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not any(
                m.kind == kinds.REGISTER_ACK for m in sent
            ):
                time.sleep(0.02)
            assert any(m.kind == kinds.REGISTER_ACK for m in sent)

            old_pid = cluster.kill_shard("shard-0")
            handle = cluster.shards["shard-0"]
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and not (
                handle.restarts >= 1 and handle.state == "ready"
            ):
                time.sleep(0.05)
            assert handle.state == "ready"
            assert handle.restarts >= 1
            assert handle.process.pid != old_pid
            # The replacement recovered the journal: the roster survived,
            # so a duplicate REGISTER is rejected.
            before = len(sent)
            cluster.handle_message(
                Message(kind=kinds.REGISTER, sender="a", payload={"user": "a"})
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and len(sent) == before:
                time.sleep(0.02)
            assert any(
                m.kind == kinds.ERROR for m in sent[before:]
            )
        finally:
            cluster.close()

    def test_heartbeats_refresh_liveness_and_cache_stats(self, tmp_path):
        cluster = ProcCluster(
            1, directory=str(tmp_path), heartbeat_interval=0.1
        )
        try:
            handle = cluster.shards["shard-0"]
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not handle.remote_stats:
                time.sleep(0.02)
            assert handle.last_pong > 0
            assert "registered" in handle.remote_stats
            assert cluster.stats()["per_shard"]["shard-0"]["worker"]
        finally:
            cluster.close()

    def test_persistence_knob_conflict_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ProcCluster(
                1, directory=str(tmp_path), persistence=object()
            )


class TestOperatorCli:
    def test_status_and_reshard_against_a_live_session(self, tmp_path):
        import subprocess
        import sys

        from repro.session import Session
        from repro.tools.cluster import ClusterAdmin

        with Session(
            backend="aio", shards=2, processes=True,
            persistence=str(tmp_path),
        ) as session:
            port = session.port
            # Programmatic client: status + live reshard round-trip.
            with ClusterAdmin(port=port) as admin:
                status = admin.status()
                assert status["shards"] == ["shard-0", "shard-1"]
                assert set(status["processes"]) == {"shard-0", "shard-1"}
                added = admin.add_shard()
                assert added["shard"] == "shard-2"
                removed = admin.remove_shard("shard-2")
                assert removed["shard"] == "shard-2"
            # The installed CLI entry point, as an operator would run it.
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro.tools.cluster",
                    "--port", str(port), "status",
                ],
                capture_output=True, text=True, timeout=60,
                env={
                    **os.environ,
                    "PYTHONPATH": os.path.dirname(
                        os.path.dirname(
                            os.path.abspath(
                                __import__("repro").__file__
                            )
                        )
                    ),
                },
            )
            assert proc.returncode == 0, proc.stderr
            assert "shard-0" in proc.stdout
            assert "pid=" in proc.stdout


@pytest.fixture
def obs_endpoint(tmp_path):
    ep = build_worker(
        shard_id="shard-0", directory=str(tmp_path), observability=True
    )
    sink = _Sink()
    ep.bind(sink)
    ep.sink = sink
    yield ep
    ep.server.persistence.close()


def obs_pull(endpoint, since=None):
    endpoint.handle_message(
        Message(
            kind=kinds.SHARD_OBS_PULL,
            sender=ROUTER_ID,
            to=endpoint.shard_id,
            payload={"since": since},
        )
    )
    reply = endpoint.sink.sent[-1]
    assert reply.kind == kinds.SHARD_OBS_REPLY
    return reply.payload


def traced_register(endpoint, did, instance_id="a"):
    """A REGISTER forward carrying trace context, as the supervisor's
    cluster.forward span stamps it — makes the worker open spans."""
    inner = Message(
        kind=kinds.REGISTER,
        sender=instance_id,
        payload={"user": instance_id, "app_type": "editor"},
        trace=("t1", "s1"),
    )
    forward(endpoint, did, inner)


class TestShardObservabilityProtocol:
    def test_first_pull_is_a_full_snapshot_with_spans(self, obs_endpoint):
        traced_register(obs_endpoint, 1)
        payload = obs_pull(obs_endpoint)
        assert payload["full"] is True
        names = {sample[0] for sample in payload["samples"]}
        assert "repro_server_processed_total" in names
        # The worker's recorder prefixes its span ids with the shard id
        # so merged supervisor-side buffers stay collision-free.
        assert payload["spans"]
        assert all(
            s["span_id"].startswith("shard-0.") for s in payload["spans"]
        )
        assert payload["trace_stats"]["spans"] == len(payload["spans"])

    def test_second_pull_ships_only_the_delta(self, obs_endpoint):
        register(obs_endpoint, 1)
        first = obs_pull(obs_endpoint)
        # Nothing happened in between: the delta is empty.
        second = obs_pull(obs_endpoint, since=first["epoch"])
        assert second["full"] is False
        assert second["samples"] == []
        assert second["spans"] == []
        # New traffic reappears in the next delta, much smaller than a
        # full snapshot.
        register(obs_endpoint, 2, instance_id="b")
        third = obs_pull(obs_endpoint, since=second["epoch"])
        assert third["full"] is False
        assert 0 < len(third["samples"]) < len(first["samples"])

    def test_stale_epoch_forces_full_snapshot(self, obs_endpoint):
        register(obs_endpoint, 1)
        obs_pull(obs_endpoint)
        payload = obs_pull(obs_endpoint, since="some-dead-process")
        assert payload["full"] is True
        assert payload["samples"]

    def test_disabled_observability_answers_empty(self, endpoint):
        sink = _Sink()
        endpoint.bind(sink)
        endpoint.handle_message(
            Message(
                kind=kinds.SHARD_OBS_PULL,
                sender=ROUTER_ID,
                to=endpoint.shard_id,
                payload={"since": None},
            )
        )
        reply = sink.sent[-1]
        assert reply.kind == kinds.SHARD_OBS_REPLY
        assert reply.payload["samples"] == []
        assert reply.payload["spans"] == []


class TestHeartbeatAge:
    def make_handle(self, tmp_path):
        from repro.cluster.proc import ProcShardHandle

        return ProcShardHandle("shard-0", str(tmp_path))

    def test_never_heard_from_is_infinite(self, tmp_path):
        handle = self.make_handle(tmp_path)
        assert handle.heartbeat_age() == float("inf")

    def test_age_measures_since_last_seen(self, tmp_path):
        handle = self.make_handle(tmp_path)
        handle.spawned_at = 100.0
        handle.last_seen = 130.0
        assert handle.heartbeat_age(now=131.5) == pytest.approx(1.5)

    def test_respawn_resets_the_baseline(self, tmp_path):
        # Regression: after kill -> respawn the handle still carries the
        # pre-crash last_seen.  The age of a worker spawned 2s ago must
        # be ~2s, not the minutes since the dead incarnation's last
        # heartbeat.
        handle = self.make_handle(tmp_path)
        handle.last_seen = 100.0   # old incarnation, long dead
        handle.spawned_at = 400.0  # fresh process
        assert handle.heartbeat_age(now=402.0) == pytest.approx(2.0)
