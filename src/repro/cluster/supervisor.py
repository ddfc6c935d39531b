"""Shard worker processes: the subprocess link and its supervisor.

:class:`ProcShardHandle` is the :class:`~repro.cluster.link.ShardLink`
to a shard hosted by ``python -m repro.cluster.worker`` in its own
process; :class:`ShardSupervisor` spawns those workers, attaches to
them, watches their liveness and restarts the dead.  Neither knows what
a shard computes — the router hands the supervisor an opaque worker
argument list — so nothing here imports the server, the coupling core
or the router (``tests/cluster/test_layering.py``).  Threading model
and crash protocol: docs/CLUSTER.md ("Shard links", "Exactly-once
delivery").

A handle's ``state`` is derived, never written: ``retired`` once
closed, ``down`` while it has no process or the process has exited,
``starting`` until that spawn's SHARD_HELLO, else ``ready``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Optional, Sequence

import repro
from repro.cluster.link import ShardLink
from repro.errors import ReproError
from repro.net import kinds
from repro.net.aio import AioClientTransport
from repro.net.codec import get_codec
from repro.net.message import Message
from repro.net.transport import ROUTER_ID, TrafficStats, resolve_destination
from repro.obs import NULL_OBS
from repro.obs import tracing as obs_tracing
from repro.obs.remote import ShardSampleCache

__all__ = ["FlightRecorder", "ProcShardHandle", "ShardSupervisor"]

#: What tearing down a worker process or its link can raise.
_TEARDOWN_ERRORS = (OSError, subprocess.SubprocessError)


class FlightRecorder:
    """Bounded ring of recent supervision events for one shard.

    Cheap enough to run unconditionally (a deque append per lifecycle
    event — spawns, hellos, kills, liveness verdicts); when a worker
    dies the supervisor dumps this ring, the shard's last pulled spans
    and its last known stats to the journal directory, so a post-mortem
    has the seconds *before* the crash, not just the recovery after it.
    """

    def __init__(self, maxlen: int = 256):
        self._events: Deque[Dict[str, Any]] = deque(maxlen=maxlen)

    def note(self, event: str, **detail: Any) -> None:
        entry: Dict[str, Any] = {
            "ts": time.time(),
            "monotonic": time.monotonic(),
            "event": event,
        }
        if detail:
            entry.update(detail)
        self._events.append(entry)

    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)


class ProcShardHandle(ShardLink):
    """The router's link to one shard worker process.

    Holds the subprocess, the aio link to it, the per-shard delivery-id
    counter (monotonic across worker restarts — the router process
    outlives its workers), and the single-slot pending/ack rendezvous
    the blocking :meth:`call` waits on.  *lock* serializes lifecycle
    changes with the supervisor that spawned the handle.
    """

    #: Sessions enumerate ``shard.persistence``; a subprocess shard's
    #: journal lives in the worker.
    persistence = None

    def __init__(
        self,
        shard_id: str,
        directory: str,
        *,
        codec: str = "json",
        call_timeout: float = 60.0,
        lock: Optional[Any] = None,
    ):
        self.shard_id = shard_id
        self.directory = directory
        self.shard = self
        #: Prices the hop for :attr:`traffic` (the link's wire codec).
        self.codec = get_codec(codec)
        self.traffic = TrafficStats()
        self.call_timeout = call_timeout
        self.lock = lock if lock is not None else threading.RLock()
        self.process: Optional[subprocess.Popen] = None
        self.link: Optional[AioClientTransport] = None
        self.port: Optional[int] = None
        self._closed = False
        self.restarts = 0
        self.spawned_at = 0.0
        self.last_seen = 0.0
        self.last_pong = 0.0
        #: Sends the link refused (it died mid-send; the monitor
        #: restarts the worker and :meth:`resend_pending` re-sends).
        self.send_failures = 0
        #: The worker's ``server.stats()`` from its latest SHARD_PONG.
        self.remote_stats: Dict[str, Any] = {}
        #: The worker's journaled delivery high-water mark (from HELLO).
        self.remote_max_did = 0
        #: Set by the current link's SHARD_HELLO, cleared with the link.
        self.hello_event = threading.Event()
        self._did = 0
        self._cond = threading.Condition()
        #: did -> SHARD_FORWARD envelope awaiting its SHARD_UPLINK.
        self.pending: Dict[int, Message] = {}
        self._acked: Dict[int, List[Dict[str, Any]]] = {}
        self._aborted = False
        #: Supervision-event ring + last telemetry, dumped on crash.
        self.flight = FlightRecorder()
        self.flight_dumps = 0
        #: Merged view of the worker's metric samples (OBS pulls).
        self.obs_cache = ShardSampleCache(shard_id)
        #: The worker's span-recorder stats from its latest OBS reply.
        self.remote_trace_stats: Dict[str, Any] = {}
        #: Most recent span dicts pulled from the worker (flight dump).
        self.last_spans: Deque[Dict[str, Any]] = deque(maxlen=512)
        self.obs: Any = NULL_OBS
        self._obs_replies = 0
        self._obs_cond = threading.Condition()

    @property
    def state(self) -> str:
        """See the module docstring: a dead process never reads ready."""
        if self._closed:
            return "retired"
        process = self.process
        if process is None or process.poll() is not None:
            return "down"
        return "ready" if self.hello_event.is_set() else "starting"

    # -- the link contract (router thread) -------------------------------

    def call(
        self, message: Message, suppress: Optional[FrozenSet[str]] = None
    ) -> List[Message]:
        """Forward *message* to the worker and block for its outputs
        (already filtered: the worker applies *suppress* before it
        journals).  Serial dispatch means at most one delivery is
        outstanding per shard."""
        self._did += 1
        did = self._did
        # The supervisor half of the cross-process hop: covers the
        # envelope round trip.  The worker parents its worker.apply span
        # off this one, so the merged trace tree crosses the process
        # boundary intact.
        with obs_tracing.hop(
            self.obs, obs_tracing.CLUSTER_FORWARD, message,
            endpoint=ROUTER_ID, shard=self.shard_id, did=did,
        ) as message:
            envelope = Message(
                kind=kinds.SHARD_FORWARD,
                sender=ROUTER_ID,
                to=self.shard_id,
                payload={
                    "did": did,
                    "msg": message.to_wire(),
                    "suppress": sorted(suppress) if suppress else [],
                },
            )
            outs = [
                Message.from_wire(wire)
                for wire in self._await_ack(did, envelope)
            ]
        for out in outs:
            self.traffic.record(
                out, self.codec.wire_size(out), resolve_destination(out)
            )
        return outs

    def close(self) -> None:
        """Retire the worker; its journal directory stays — an operator
        can archive or inspect a retired shard's op log."""
        with self.lock:
            self._closed = True
            self.abort()
            self.terminate()

    def stats(self) -> Dict[str, Any]:
        return {**self.status(), "worker": dict(self.remote_stats)}

    def status(self) -> Dict[str, Any]:
        return {
            "pid": self.process.pid if self.process else None,
            "state": self.state,
            "restarts": self.restarts,
            "port": self.port,
            "send_failures": self.send_failures,
        }

    # -- delivery rendezvous (router thread <-> link thread) -----------

    def _await_ack(self, did: int, envelope: Message) -> List[Dict[str, Any]]:
        """Send one delivery and block until the worker acknowledges it.

        The envelope is registered *before* the send, so a worker crash
        between the two is covered: the supervisor's restart path
        re-sends everything still pending.
        """
        timeout = self.call_timeout
        with self._cond:
            self.pending[did] = envelope
        self.send(envelope)
        with self._cond:
            self._cond.wait_for(
                lambda: did in self._acked or self._aborted, timeout
            )
            self.pending.pop(did, None)
            if did in self._acked:
                return self._acked.pop(did)
        if self._aborted:
            raise ReproError(f"shard {self.shard_id!r} is shutting down")
        raise ReproError(
            f"shard {self.shard_id!r} did not acknowledge "
            f"delivery {did} within {timeout:.0f}s"
        )

    def deliver(self, did: int, outs: List[Dict[str, Any]]) -> None:
        """Record one SHARD_UPLINK ack (link thread side)."""
        with self._cond:
            if did not in self.pending:
                return  # stale duplicate (e.g. a pre-restart ack)
            self._acked[did] = outs
            self._cond.notify_all()

    def abort(self) -> None:
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    def resend_pending(self) -> None:
        """Re-deliver unacknowledged envelopes after a worker restart.

        The fresh worker dedups against its journaled high-water mark:
        already-applied deliveries answer from their stored outputs,
        anything newer executes for the first time.
        """
        with self._cond:
            backlog = sorted(self.pending.items())
        for _did, envelope in backlog:
            self.send(envelope)

    def send(self, message: Message) -> None:
        link = self.link
        if link is None:
            return  # between spawns; resend_pending covers it
        try:
            link.send(message)
        except (OSError, ReproError):
            # The link died mid-send; the monitor restarts and re-sends.
            self.send_failures += 1

    def terminate(self) -> None:
        """Tear the worker down (graceful EOF, then SIGTERM, then
        SIGKILL) and close the link; caller holds :attr:`lock`."""
        process = self.process
        if process is not None and process.poll() is None:
            try:
                if process.stdin is not None:
                    process.stdin.close()
            except _TEARDOWN_ERRORS:
                pass
            try:
                process.terminate()
                process.wait(timeout=2.0)
            except _TEARDOWN_ERRORS:
                try:
                    process.kill()
                    process.wait(timeout=2.0)
                except _TEARDOWN_ERRORS:
                    pass
        self.close_link()

    def close_link(self) -> None:
        self.hello_event.clear()  # a hello belongs to the link it came on
        if self.link is not None:
            try:
                self.link.close()
            except _TEARDOWN_ERRORS:
                pass
            self.link = None

    # -- observability ---------------------------------------------------

    def heartbeat_age(self, now: Optional[float] = None) -> float:
        """Seconds since this worker was last heard from.

        The baseline is the *later* of the last inbound link message and
        the current process's spawn time: right after a kill→respawn the
        stale pre-crash ``last_seen`` must not be reported as a huge age
        for a worker that is seconds old.
        """
        if now is None:
            now = time.monotonic()
        baseline = max(self.last_seen, self.spawned_at)
        if not baseline:
            return float("inf")
        return max(0.0, now - baseline)

    def configure_observability(self, obs, **labels: str) -> None:
        """Arm the forward span and wire the cross-process scrape.

        Registers liveness gauges and the merged sample cache (every
        cached worker sample re-labeled ``shard=<id>``) as registry
        collectors; pulled spans merge into *obs*'s recorder.
        """
        self.obs = obs
        if not obs.enabled:
            return
        from repro.obs.metrics import Sample

        base = tuple(sorted(labels.items()))

        def collect():
            yield Sample(
                "repro_cluster_shard_up", "gauge",
                "Whether the shard worker process is attached and ready",
                base, 1.0 if self.state == "ready" else 0.0,
            )
            yield Sample(
                "repro_cluster_shard_restarts_total", "counter",
                "Times the supervisor restarted this shard worker",
                base, float(self.restarts),
            )
            yield Sample(
                "repro_cluster_shard_heartbeat_age_seconds", "gauge",
                "Seconds since the shard worker was last heard from",
                base, self.heartbeat_age(),
            )

        obs.registry.register_collector(collect)
        obs.registry.register_collector(self.obs_cache.collect)

    def send_control(self, kind: str, **payload: Any) -> None:
        """Send one payload-only message of the shard plane."""
        self.send(
            Message(kind=kind, sender=ROUTER_ID, to=self.shard_id, payload=payload)
        )

    def request_obs(self) -> None:
        """Ask the worker for its telemetry delta since the last reply."""
        self.send_control(kinds.SHARD_OBS_PULL, since=self.obs_cache.epoch)

    def pull_obs(self, timeout: float) -> bool:
        """Scrape this worker and block until its reply merged (or timeout).

        Used by the export-time refresher; runs on the exporting caller's
        thread, never the router thread, so scrapes stay off the message
        hot path.
        """
        if self.state != "ready" or self.link is None:
            return False
        with self._obs_cond:
            seen = self._obs_replies
        self.request_obs()
        with self._obs_cond:
            return self._obs_cond.wait_for(
                lambda: self._obs_replies != seen, timeout
            )

    def on_obs_reply(self, payload: Dict[str, Any]) -> None:
        """Merge one SHARD_OBS_REPLY (link thread side)."""
        self.obs_cache.apply(
            str(payload.get("epoch", "")),
            bool(payload.get("full")),
            payload.get("samples") or (),
        )
        spans = payload.get("spans") or ()
        if spans:
            self.last_spans.extend(spans)
            if self.obs.tracing:
                self.obs.spans.ingest(list(spans))
        stats = payload.get("trace_stats")
        if isinstance(stats, dict):
            self.remote_trace_stats = stats
        with self._obs_cond:
            self._obs_replies += 1
            self._obs_cond.notify_all()


class ShardSupervisor:
    """Spawns shard workers, watches their liveness, restarts the dead.

    Parameters
    ----------
    directory:
        Root directory for per-shard journals, portfiles and worker logs.
    worker_args:
        ``repro.cluster.worker`` arguments every spawn gets: the shard
        server's configuration, opaque here.
    link_codec:
        Wire codec of the router<->worker links.
    heartbeat_interval / liveness_timeout:
        Monitor cadence and the silence threshold past which a worker is
        declared dead and restarted (``0`` disables the silence check).
    start_timeout / call_timeout:
        Bounds on worker startup and on one blocking shard call (the
        latter must cover a crash + restart + replay cycle).
    observability:
        Spawn workers with their own live registry + span recorder
        (SHARD_OBS_PULL answers).
    clock:
        Where liveness stamps and verdicts read the time.
    """

    def __init__(
        self,
        directory: str,
        *,
        worker_args: Sequence[str] = (),
        link_codec: str = "json",
        heartbeat_interval: float = 0.5,
        liveness_timeout: float = 5.0,
        start_timeout: float = 30.0,
        call_timeout: float = 60.0,
        observability: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.directory = directory
        self.worker_args = list(worker_args)
        self.link_codec = link_codec
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self.start_timeout = start_timeout
        self.call_timeout = call_timeout
        self.observability = observability
        self._clock = clock
        self.handles: Dict[str, ProcShardHandle] = {}
        self._lock = threading.RLock()
        self._spawn_count = 0
        os.makedirs(directory, exist_ok=True)
        self._stop_monitor = threading.Event()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="proc-cluster-monitor", daemon=True
        )

    def watch(self) -> None:
        """Start the monitor thread (a :meth:`tick` per heartbeat)."""
        self._monitor_thread.start()

    def start(self, shard_id: str) -> ProcShardHandle:
        """Spawn the worker for *shard_id* and return its ready link."""
        handle = ProcShardHandle(
            shard_id,
            os.path.join(self.directory, shard_id),
            codec=self.link_codec,
            call_timeout=self.call_timeout,
            lock=self._lock,
        )
        with self._lock:
            self.handles[shard_id] = handle
            self._spawn(handle)
        return handle

    def kill(self, shard_id: str) -> int:
        """SIGKILL one worker (chaos/testing); the monitor restarts it."""
        handle = self.handles[shard_id]
        process = handle.process
        if process is None:
            raise ReproError(f"shard {shard_id!r} has no process")
        handle.flight.note("kill_shard", pid=process.pid)
        process.kill()
        return process.pid

    def arm_observability(self, obs) -> None:
        """Scrape every ready worker before each export of *obs*, and
        bring any worker (re)spawned from now on up instrumented."""
        self.observability = True
        obs.add_refresher(self._refresh_remote_obs)

    def _refresh_remote_obs(self) -> None:
        """Delta-scrape every ready worker (export time, off hot path)."""
        timeout = min(self.call_timeout, 5.0)
        for handle in list(self.handles.values()):
            try:
                handle.pull_obs(timeout)  # False at once unless ready
            except OSError:
                # A link dying mid-scrape must not cost the other
                # shards their refresh; the monitor owns the restart.
                continue

    def close(self) -> None:
        if self._stop_monitor.is_set():
            return
        self._stop_monitor.set()
        for handle in list(self.handles.values()):
            handle.abort()
        if self._monitor_thread.is_alive():
            self._monitor_thread.join(timeout=5.0)
        with self._lock:
            for handle in list(self.handles.values()):
                handle.terminate()

    # ------------------------------------------------------------------
    # Worker spawning / supervision
    # ------------------------------------------------------------------

    def _spawn(self, handle: ProcShardHandle) -> None:
        """Start (or restart) one worker and attach to it.

        Caller holds the supervisor lock.  On return the worker is
        ready, pending deliveries have been re-sent, and the link is
        live.  Raises :class:`ReproError` if the worker fails to come
        up within ``start_timeout``.
        """
        os.makedirs(handle.directory, exist_ok=True)
        portfile = os.path.join(handle.directory, "port")
        if os.path.exists(portfile):
            os.remove(portfile)
        self._spawn_count += 1
        cmd = [
            sys.executable, "-m", "repro.cluster.worker",
            "--shard-id", handle.shard_id,
            "--dir", handle.directory,
            "--portfile", portfile,
            "--codec", self.link_codec,
            *self.worker_args,
            # Disjoint per-spawn msg_id space: ids minted inside this
            # worker can never collide with another worker's (or the
            # router's) correlation ids.
            "--msg-id-base", str(self._spawn_count * 10**12),
        ]
        if self.observability:
            cmd.append("--observability")
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root + ((os.pathsep + existing) if existing else "")
        )
        log = open(  # the worker inherits the fd; CI uploads the file
            os.path.join(handle.directory, "worker.log"), "ab"
        )
        try:
            process = subprocess.Popen(
                cmd,
                stdin=subprocess.PIPE,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
        finally:
            log.close()
        handle.process = process
        handle.spawned_at = self._clock()
        handle.flight.note(
            "spawn", pid=process.pid, spawn=self._spawn_count,
            observability=self.observability,
        )
        deadline = self._clock() + self.start_timeout
        while not os.path.exists(portfile):
            if process.poll() is not None:
                raise ReproError(
                    f"shard worker {handle.shard_id!r} exited with "
                    f"{process.returncode} before binding (see "
                    f"{handle.directory}/worker.log)"
                )
            if self._clock() > deadline:
                process.kill()
                process.wait()  # reaped: a failed start leaves no zombie
                raise ReproError(
                    f"shard worker {handle.shard_id!r} did not bind "
                    f"within {self.start_timeout:.0f}s"
                )
            time.sleep(0.01)
        with open(portfile, "r", encoding="utf-8") as fh:
            handle.port = int(fh.read().strip())
        handle.link = AioClientTransport(
            ROUTER_ID,
            lambda message, _h=handle: self._on_link_message(_h, message),
            "127.0.0.1",
            handle.port,
            loop=None,
            codec=self.link_codec,
        )
        handle.send_control(kinds.SHARD_ATTACH)
        if not handle.hello_event.wait(self.start_timeout):
            raise ReproError(
                f"shard worker {handle.shard_id!r} never said hello"
            )
        handle.last_seen = self._clock()
        handle.flight.note(
            "ready", pid=process.pid, port=handle.port,
            remote_max_did=handle.remote_max_did,
            pending=len(handle.pending),
        )
        handle.resend_pending()

    def _restart(self, handle: ProcShardHandle) -> None:
        """Replace a dead worker; caller holds the supervisor lock."""
        handle.close_link()
        handle.restarts += 1
        handle.flight.note("restart", restarts=handle.restarts)
        try:
            self._spawn(handle)
        except ReproError:
            handle.flight.note("respawn_failed", restarts=handle.restarts)

    def _dump_flight(self, handle: ProcShardHandle, reason: str) -> str:
        """Write the shard's flight-recorder ring to its journal dir.

        Called when the monitor declares a worker dead — *before* the
        restart, so the dump captures the pre-crash view: supervision
        events, the last spans pulled from the worker, its last stats,
        and the deliveries that were still in flight.  The chaos CI job
        uploads these files as artifacts.
        """
        handle.flight_dumps += 1
        process = handle.process
        dump = {
            "shard": handle.shard_id,
            "reason": reason,
            "wall_time": time.time(),
            **handle.status(),
            "returncode": process.returncode if process is not None else None,
            "heartbeat_age_seconds": handle.heartbeat_age(self._clock()),
            "pending_deliveries": sorted(handle.pending),
            "remote_max_did": handle.remote_max_did,
            "remote_stats": dict(handle.remote_stats),
            "remote_trace_stats": dict(handle.remote_trace_stats),
            "events": handle.flight.events(),
            "spans": list(handle.last_spans),
        }
        path = os.path.join(
            handle.directory, f"flight-{handle.flight_dumps}.json"
        )
        try:
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(dump, fh, indent=2, default=str)
            os.replace(tmp, path)
        except OSError:
            return ""  # a full disk must not take the supervisor down
        return path

    def _monitor_loop(self) -> None:
        while not self._stop_monitor.wait(self.heartbeat_interval):
            self.tick()

    def tick(self) -> None:
        """One supervision pass: verdict, restart, heartbeat per worker."""
        for handle in list(self.handles.values()):
            if self._stop_monitor.is_set():
                return
            with self._lock:
                if self._stop_monitor.is_set():
                    return
                if handle.state == "retired":
                    # Closed by the router; nothing left to watch.
                    if self.handles.get(handle.shard_id) is handle:
                        del self.handles[handle.shard_id]
                    continue
                process = handle.process
                dead = process is None or process.poll() is not None
                silent = (
                    not dead
                    and handle.state == "ready"
                    and self.liveness_timeout > 0
                    and self._clock() - handle.last_seen
                    > self.liveness_timeout
                )
                if silent:
                    # Alive but unresponsive: treat like a crash.
                    handle.flight.note(
                        "liveness_timeout",
                        age=self._clock() - handle.last_seen,
                    )
                    try:
                        process.kill()
                        process.wait(timeout=2.0)
                    except _TEARDOWN_ERRORS:
                        pass
                    dead = True
                if dead:
                    handle.flight.note(
                        "dead",
                        returncode=(
                            process.returncode
                            if process is not None else None
                        ),
                    )
                    self._dump_flight(
                        handle,
                        "liveness_timeout" if silent else "worker_exit",
                    )
                    self._restart(handle)
                    continue
            if handle.state == "ready":
                handle.send_control(kinds.SHARD_PING)
                if self.observability and handle.obs.enabled:
                    # Piggyback a delta scrape on the heartbeat so
                    # the supervisor's span/sample view (and thus a
                    # crash dump) is never staler than one tick.
                    handle.request_obs()

    def _on_link_message(self, handle: ProcShardHandle, message: Message) -> None:
        """Inbound from one worker (runs on that link's loop thread).

        Touches only the handle (ack delivery, liveness stamps, cached
        stats) — never router state.
        """
        handle.last_seen = self._clock()
        kind = message.kind
        payload = message.payload
        if kind == kinds.SHARD_UPLINK:
            handle.deliver(
                int(payload["did"]), list(payload.get("outs") or ())
            )
        elif kind == kinds.SHARD_HELLO:
            handle.remote_max_did = int(payload.get("max_did", 0))
            handle.hello_event.set()
        elif kind == kinds.SHARD_PONG:
            handle.last_pong = self._clock()
            handle.remote_max_did = int(
                payload.get("max_did", handle.remote_max_did)
            )
            stats = payload.get("stats")
            if isinstance(stats, dict):
                handle.remote_stats = stats
        elif kind == kinds.SHARD_OBS_REPLY:
            handle.on_obs_reply(payload)
