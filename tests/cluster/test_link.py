"""The ``ShardLink`` seam: the contract, and what it makes testable.

``LocalShardLink`` is exercised directly (the suppress rule has one
implementation, so it gets one test), a scripted link that fails shows
how the router leaves its tables, and the two expiry paths of the
subprocess link — ``call_timeout`` and ``liveness_timeout`` — run
against stubs, without workers and without sleeping; ``start_timeout``
against a real child that never binds, on a fake clock.
"""

import itertools
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.cluster import ShardedCosoftCluster
from repro.cluster.link import LocalShardLink
from repro.cluster import supervisor as supervisor_module
from repro.cluster.supervisor import ProcShardHandle, ShardSupervisor
from repro.errors import ReproError
from repro.net import kinds
from repro.net.codec import get_codec
from repro.net.message import Message
from repro.net.transport import ROUTER_ID
from repro.server.server import CosoftServer


def register(instance_id):
    return Message(
        kind=kinds.REGISTER, sender=instance_id, payload={"user": instance_id}
    )


def lock_request(instance_id, token):
    return Message(
        kind=kinds.LOCK_REQUEST,
        sender=instance_id,
        payload={"source": [instance_id, "/ui/f"], "token": token},
    )


class TestLocalShardLink:
    def test_call_returns_the_outputs_in_emit_order(self):
        link = LocalShardLink(CosoftServer())
        link.call(register("a"))
        outs = link.call(register("b"))
        assert [(o.kind, o.to) for o in outs] == [
            (kinds.REGISTER_ACK, "b"),
            (kinds.INSTANCE_LIST, "a"),
        ]

    def test_suppress_filters_everything_but_router_control(self):
        link = LocalShardLink(CosoftServer())
        link.call(register("a"))
        suppress = frozenset(
            {
                kinds.REGISTER_ACK,
                kinds.INSTANCE_LIST,
                kinds.SHARD_INVENTORY_REPLY,
            }
        )
        assert link.call(register("b"), suppress) == []
        assert "b" in link.shard.registry  # filtered, not skipped
        # The suppress set lasts one call.
        assert kinds.REGISTER_ACK in [o.kind for o in link.call(register("c"))]
        # A reply addressed to the router passes whatever its kind.
        survey = Message(kind=kinds.SHARD_INVENTORY, sender=ROUTER_ID, payload={})
        (reply,) = link.call(survey, suppress)
        assert reply.kind == kinds.SHARD_INVENTORY_REPLY
        assert reply.to == ROUTER_ID

    def test_traffic_counts_sends_before_the_filter(self):
        link = LocalShardLink(CosoftServer(), get_codec("json"))
        link.call(register("a"))
        before = link.traffic.messages
        assert link.call(register("b"), frozenset({kinds.INSTANCE_LIST})) != []
        assert link.traffic.messages == before + 2  # ack + suppressed cast
        assert link.traffic.bytes > 0

    def test_without_a_codec_nothing_is_priced(self):
        link = LocalShardLink(CosoftServer())
        link.call(register("a"))
        assert link.traffic.messages == 0

    def test_sends_outside_a_call_go_nowhere(self):
        link = LocalShardLink(CosoftServer())
        link.shard.handle_message(register("a"))
        assert "a" in link.shard.registry
        assert link.collected == []
        assert link.call(register("b"))[0].kind == kinds.REGISTER_ACK


class ScriptedLink(LocalShardLink):
    """A local shard whose calls fail on the kinds in ``failing`` — the
    shape of a ``call_timeout`` expiry on a subprocess link."""

    def __init__(self):
        super().__init__(CosoftServer(), get_codec("json"))
        self.failing = set()

    def call(self, message, suppress=None):
        if message.kind in self.failing:
            raise ReproError("shard did not acknowledge delivery 1 within 0s")
        return super().call(message, suppress)


class TestFailingLink:
    def test_failed_call_answers_once_and_leaves_no_route(self):
        links = {}

        def factory(shard_id):
            links[shard_id] = ScriptedLink()
            return links[shard_id]

        cluster = ShardedCosoftCluster(1, link_factory=factory)
        sent = []
        cluster.bind(type("Outbox", (), {"send": lambda self, m: sent.append(m)})())
        cluster.handle_message(register("a"))
        del sent[:]

        links["shard-0"].failing = {kinds.LOCK_REQUEST}
        request = lock_request("a", token=7)
        cluster.handle_message(request)
        (error,) = sent
        assert error.kind == kinds.ERROR
        assert (error.to, error.reply_to) == ("a", request.msg_id)
        assert "did not acknowledge" in error.payload["reason"]
        assert cluster._floor_routes == {}
        assert cluster._pending_routes == {}
        assert cluster.processed["__rejected__"] == 1

        # The shard is served again as soon as its link answers.
        links["shard-0"].failing = set()
        del sent[:]
        cluster.handle_message(lock_request("a", token=8))
        (reply,) = sent
        assert reply.kind == kinds.LOCK_REPLY
        assert reply.payload["granted"] is True
        assert list(cluster.shards["shard-0"].locks.floors) == [("a", 8)]


class TestCallTimeout:
    def test_expiry_raises_and_leaves_nothing_pending(self, tmp_path):
        handle = ProcShardHandle("shard-0", str(tmp_path), call_timeout=0.05)
        with pytest.raises(ReproError, match="did not acknowledge delivery 1"):
            handle.call(register("a"))
        assert handle.pending == {}
        # The id is spent: a late ack for it is a stale duplicate.
        handle.deliver(1, [])
        assert handle._acked == {}
        with pytest.raises(ReproError, match="delivery 2"):
            handle.call(register("a"))

    def test_an_aborted_handle_fails_a_call_at_once(self, tmp_path):
        handle = ProcShardHandle("shard-0", str(tmp_path), call_timeout=60.0)
        handle.abort()
        with pytest.raises(ReproError, match="shutting down"):
            handle.call(register("a"))
        assert handle.pending == {}


class TestSendFailures:
    def test_refused_send_is_counted_not_raised(self, tmp_path):
        class DeadLink:
            def send(self, message):
                raise OSError("connection reset")

        handle = ProcShardHandle("shard-0", str(tmp_path))
        handle.link = DeadLink()
        handle.send_control(kinds.SHARD_PING)
        assert handle.send_failures == 1
        assert handle.status()["send_failures"] == 1


class TestRestartPlumbing:
    def test_unacknowledged_deliveries_are_resent_in_id_order(self, tmp_path):
        """What a replacement worker is sent: every delivery its
        predecessor never acknowledged, oldest first."""
        sent = []

        class Link:
            def send(self, message):
                sent.append(message)

        handle = ProcShardHandle("shard-0", str(tmp_path))
        first, second = register("a"), register("b")
        handle.pending = {2: second, 1: first}
        handle.link = Link()
        handle.resend_pending()
        assert sent == [first, second]

    def test_a_worker_deaf_to_sigterm_is_killed(self, tmp_path):
        class Stubborn(_SilentProcess):
            def terminate(self):
                pass  # ignores SIGTERM

            def wait(self, timeout=None):
                if self.returncode is None:
                    raise subprocess.TimeoutExpired("worker", timeout)
                return self.returncode

        handle = ProcShardHandle("shard-0", str(tmp_path))
        process = handle.process = Stubborn()
        handle.terminate()
        assert process.killed == 1 and process.returncode == -9


class _SilentProcess:
    """A worker that is alive and never answers."""

    pid = 4242
    stdin = None
    returncode = None
    killed = 0

    def poll(self):
        return self.returncode

    def kill(self):
        self.killed += 1
        self.returncode = -9

    terminate = kill

    def wait(self, timeout=None):
        return self.returncode


class TestLivenessTimeout:
    def test_silent_worker_is_declared_dead_and_restarted_once(self, tmp_path):
        now = [100.0]
        # Never ``watch()``ed: the test drives every tick itself.
        supervisor = ShardSupervisor(
            str(tmp_path), liveness_timeout=5.0, clock=lambda: now[0]
        )
        spawned = []

        def respawn(handle):
            spawned.append(handle.shard_id)
            handle.process = _SilentProcess()
            handle.hello_event.set()
            handle.last_seen = supervisor._clock()

        supervisor._spawn = respawn
        try:
            handle = ProcShardHandle(
                "shard-0", str(tmp_path / "shard-0"), lock=supervisor._lock
            )
            os.makedirs(handle.directory)
            stuck = handle.process = _SilentProcess()
            handle.hello_event.set()
            handle.last_seen = now[0]
            supervisor.handles["shard-0"] = handle

            now[0] += 5.0  # at the threshold: not past it yet
            supervisor.tick()
            assert (stuck.killed, handle.restarts, spawned) == (0, 0, [])

            now[0] += 0.001
            supervisor.tick()
            assert stuck.killed == 1
            assert handle.restarts == 1
            assert spawned == ["shard-0"]
            with open(os.path.join(handle.directory, "flight-1.json")) as fh:
                dump = json.load(fh)
            assert dump["reason"] == "liveness_timeout"
            assert dump["heartbeat_age_seconds"] == pytest.approx(5.001)
            assert dump["send_failures"] == 0

            # The replacement was heard from at its spawn: no second verdict.
            supervisor.tick()
            assert handle.restarts == 1
        finally:
            supervisor.close()

    def test_a_retired_worker_is_dropped_not_restarted(self, tmp_path):
        """A shard the router closed between two ticks is forgotten by
        the next one: no verdict, no restart."""
        supervisor = ShardSupervisor(str(tmp_path))  # never watch()ed
        supervisor._spawn = lambda handle: pytest.fail("restarted a retired shard")
        try:
            handle = ProcShardHandle("shard-0", str(tmp_path / "shard-0"))
            handle.process = _SilentProcess()
            handle.process.returncode = 0  # exited, as a closed worker does
            supervisor.handles["shard-0"] = handle
            handle.close()
            assert handle.state == "retired"
            supervisor.tick()
            assert supervisor.handles == {}
            assert handle.restarts == 0
        finally:
            supervisor.close()


class _HelloLink:
    """A link to a worker that says hello as soon as it is attached."""

    def __init__(self, local_id, on_message, host, port, **kwargs):
        self.on_message = on_message

    def send(self, message):
        if message.kind == kinds.SHARD_ATTACH:
            self.on_message(hello())

    def close(self):
        pass


def hello():
    return Message(kind=kinds.SHARD_HELLO, sender="shard-0", payload={"max_did": 0})


class TestRestartNeverReadsReadyOnADeadProcess:
    def test_a_killed_worker_reads_ready_only_once_its_replacement_said_hello(
        self, tmp_path, monkeypatch
    ):
        """The predicate a caller polls to see a restart finish,
        ``restarts >= 1 and state == "ready"``, holds only of a live,
        new process: not between the kill and the tick, not while the
        restart respawns, not before the new worker's hello."""
        first = _SilentProcess()

        def popen(cmd, **kwargs):
            with open(cmd[cmd.index("--portfile") + 1], "w") as fh:
                fh.write("1")
            return first

        monkeypatch.setattr(subprocess, "Popen", popen)
        monkeypatch.setattr(supervisor_module, "AioClientTransport", _HelloLink)
        supervisor = ShardSupervisor(str(tmp_path))  # never watch()ed
        try:
            handle = supervisor.start("shard-0")

            def check():
                if handle.restarts >= 1 and handle.state == "ready":
                    assert handle.process is not first
                    assert handle.process.poll() is None

            assert (handle.state, handle.restarts) == ("ready", 0)
            first.kill()
            assert handle.state == "down"
            check()

            def respawn(handle):
                check()  # the old process is dead and already counted
                handle.process = _SilentProcess()
                check()

            supervisor._spawn = respawn
            supervisor.tick()
            assert (handle.state, handle.restarts) == ("starting", 1)
            check()
            supervisor._on_link_message(handle, hello())
            assert handle.state == "ready"
            check()
        finally:
            supervisor.close()


class TestStartTimeout:
    def test_a_worker_that_never_binds_is_killed_and_reaped(
        self, tmp_path, monkeypatch
    ):
        """``start()`` gives the worker ``start_timeout`` to write its
        portfile.  Past it the start fails, and no process is left."""
        ticks = itertools.count()  # one second per reading
        supervisor = ShardSupervisor(
            str(tmp_path), start_timeout=3.0, clock=lambda: float(next(ticks))
        )
        spawned = []
        popen = subprocess.Popen

        def never_binds(cmd, **kwargs):
            spawned.append(
                popen([sys.executable, "-c", "import time; time.sleep(60)"], **kwargs)
            )
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", never_binds)
        try:
            with pytest.raises(ReproError, match="did not bind within 3s"):
                supervisor.start("shard-0")
            (process,) = spawned
            assert process.returncode == -signal.SIGKILL  # killed, and reaped
            assert not os.path.exists(tmp_path / "shard-0" / "port")
        finally:
            supervisor.close()
