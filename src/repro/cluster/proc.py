"""Multi-process cluster: shards as supervised OS processes.

:class:`ProcCluster` is a :class:`~repro.cluster.router.ShardedCosoftCluster`
whose shards are not in-process ``CosoftServer`` objects but **subprocess
handles** — each shard runs ``python -m repro.cluster.worker`` in its own
process, hosting the server behind an
:class:`~repro.server.runtime.AsyncServerRuntime` with its own journal,
and the router talks to it over an ordinary aio link (codec negotiation
and the end-of-burst flush apply to the shard hop like any other
connection).

Threading model
---------------
The router core (``ShardedCosoftCluster``) is a sans-I/O state machine
that assumes serial dispatch, and its migration protocol
(:meth:`_shard_request`) expects a shard call to complete synchronously.
Both properties are preserved by funneling everything through one
**router thread**:

* ``handle_message`` (called from the host transport's event loop, or
  any client thread) only enqueues; the router thread dequeues and runs
  the normal dispatch, one message at a time.
* :meth:`_call_shard` — the single point where the base router invokes a
  shard — is overridden to wrap the message in a SHARD_FORWARD envelope
  stamped with a per-shard delivery id, send it down the link, and
  **block** until the worker's SHARD_UPLINK acknowledges that id.  The
  collected outputs then flow through the unmodified
  ``_on_shard_send`` bookkeeping.  Serial dispatch means at most one
  delivery is ever outstanding per shard, which is what lets the base
  class's migration/resharding logic run verbatim against processes.
* A **monitor thread** supervises liveness: it polls worker processes,
  sends SHARD_PING probes, and when a worker dies (or goes silent past
  ``liveness_timeout``) restarts it — the replacement recovers from the
  shard's journal, reports its delivery high-water mark in SHARD_HELLO,
  and the supervisor re-sends whatever was still pending, unblocking any
  waiting ``_call_shard`` (see :mod:`repro.cluster.worker` for the
  exactly-once argument).

Link handlers run on each link's private event-loop thread and only
touch the per-shard handle (ack delivery, liveness timestamps, cached
stats) — never the router state.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, FrozenSet, List, Optional

import repro
from repro.errors import ReproError
from repro.net import kinds
from repro.net.aio import AioClientTransport
from repro.net.message import Message
from repro.net.transport import ROUTER_ID, SERVER_ID, TrafficStats
from repro.cluster.router import ShardedCosoftCluster
from repro.obs import tracing as obs_tracing
from repro.obs.remote import ShardSampleCache
from repro.server.routing import RoutingStats

__all__ = ["ProcShardHandle", "ProcCluster", "FlightRecorder"]

#: Sentinel that stops the router thread.
_STOP = object()


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


class ProcShardHandle:
    """The router's in-process stand-in for one shard worker process.

    Holds the subprocess, the aio link to it, the per-shard delivery-id
    counter (monotonic across worker restarts — the router process
    outlives its workers), and the single-slot pending/ack rendezvous
    the blocking :meth:`ProcCluster._call_shard` waits on.
    """

    #: The base router probes ``shard.persistence`` (epoch stamping,
    #: retirement); a subprocess shard's journal lives in the worker.
    persistence = None

    def __init__(self, shard_id: str, directory: str):
        self.shard_id = shard_id
        self.directory = directory
        self.process: Optional[subprocess.Popen] = None
        self.link: Optional[AioClientTransport] = None
        self.port: Optional[int] = None
        #: ``starting`` -> ``ready`` -> (``down`` | ``retired``).
        self.state = "starting"
        self.restarts = 0
        self.spawned_at = 0.0
        self.last_seen = 0.0
        self.last_pong = 0.0
        #: The worker's ``server.stats()`` from its latest SHARD_PONG.
        self.remote_stats: Dict[str, Any] = {}
        #: The worker's journaled delivery high-water mark (from HELLO).
        self.remote_max_did = 0
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
        self._obs: Any = None
        self._obs_replies = 0
        self._obs_cond = threading.Condition()

    # -- delivery rendezvous (router thread <-> link thread) -----------

    def next_did(self) -> int:
        self._did += 1
        return self._did

    def call(self, did: int, envelope: Message, timeout: float) -> List[Dict[str, Any]]:
        """Send one delivery and block until the worker acknowledges it.

        The envelope is registered *before* the send, so a worker crash
        between the two is covered: the supervisor's restart path
        re-sends everything still pending.
        """
        with self._cond:
            self.pending[did] = envelope
        self.send(envelope)
        deadline = time.monotonic() + timeout
        with self._cond:
            while did not in self._acked:
                if self._aborted:
                    self.pending.pop(did, None)
                    raise ReproError(
                        f"shard {self.shard_id!r} is shutting down"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.pending.pop(did, None)
                    raise ReproError(
                        f"shard {self.shard_id!r} did not acknowledge "
                        f"delivery {did} within {timeout:.0f}s"
                    )
                self._cond.wait(remaining)
            self.pending.pop(did, None)
            return self._acked.pop(did)

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
        except Exception:
            pass  # link died mid-send; the monitor restarts and re-sends

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
        """Register liveness gauges (called by the router's obs wiring)."""
        if not (obs.enabled and obs.registry.enabled):
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

    def attach_observability(self, obs) -> None:
        """Wire the cross-process scrape for this shard (idempotent).

        Registers the merged sample cache as a registry collector (every
        cached worker sample re-labeled ``shard=<id>``) and remembers the
        supervisor recorder that pulled spans merge into.
        """
        if self._obs is obs:
            return
        first = self._obs is None
        self._obs = obs
        if first and obs.registry.enabled:
            obs.registry.register_collector(self.obs_cache.collect)

    def obs_pull_message(self) -> Message:
        """A SHARD_OBS_PULL asking for the delta since the last reply."""
        return Message(
            kind=kinds.SHARD_OBS_PULL,
            sender=ROUTER_ID,
            to=self.shard_id,
            payload={"since": self.obs_cache.epoch},
        )

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
        self.send(self.obs_pull_message())
        deadline = time.monotonic() + timeout
        with self._obs_cond:
            while self._obs_replies == seen:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._obs_cond.wait(remaining)
        return True

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
            obs = self._obs
            if obs is not None and obs.tracing:
                obs.spans.ingest(list(spans))
        stats = payload.get("trace_stats")
        if isinstance(stats, dict):
            self.remote_trace_stats = stats
        with self._obs_cond:
            self._obs_replies += 1
            self._obs_cond.notify_all()


class ProcCluster(ShardedCosoftCluster):
    """A sharded cluster whose shards are supervised subprocesses.

    Parameters (beyond :class:`ShardedCosoftCluster`)
    -------------------------------------------------
    directory:
        Root directory for per-shard journals, portfiles and worker
        logs.  Required — crash recovery needs a durable op log.
    link_codec:
        Wire codec of the router<->worker links (default: binary).
    heartbeat_interval / liveness_timeout:
        Monitor cadence and the silence threshold past which a worker is
        declared dead and restarted (``0`` disables the silence check).
    start_timeout / call_timeout:
        Bounds on worker startup and on one blocking shard call (the
        latter must cover a crash + restart + replay cycle).
    observability:
        Spawn workers with their own live registry + span recorder
        (SHARD_OBS_PULL answers).  Pass it at construction — workers
        start before :meth:`configure_observability` runs — though a
        later enable still covers every worker spawned afterwards.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        directory: str,
        link_codec: str = "binary",
        heartbeat_interval: float = 0.5,
        liveness_timeout: float = 5.0,
        start_timeout: float = 30.0,
        call_timeout: float = 60.0,
        snapshot_every: int = 500,
        observability: bool = False,
        **kwargs: Any,
    ):
        if kwargs.get("persistence") is not None:
            raise ValueError(
                "ProcCluster journals per worker; pass directory=, "
                "not persistence="
            )
        kwargs.pop("persistence", None)
        self.directory = directory
        self.link_codec = link_codec
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self.start_timeout = start_timeout
        self.call_timeout = call_timeout
        self.snapshot_every = snapshot_every
        self.observability = observability
        self._obs: Any = None
        self._supervisor_lock = threading.RLock()
        self._spawn_count = 0
        self._closed = False
        os.makedirs(directory, exist_ok=True)
        super().__init__(shards, codec=link_codec, **kwargs)
        self._queue: "list" = []
        self._queue_cond = threading.Condition()
        self._router_thread = threading.Thread(
            target=self._router_loop, name="proc-cluster-router", daemon=True
        )
        self._router_thread.start()
        self._stop_monitor = threading.Event()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="proc-cluster-monitor", daemon=True
        )
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # Shard lifecycle (overrides)
    # ------------------------------------------------------------------

    def _create_shard(self, shard_id: str) -> None:
        handle = ProcShardHandle(
            shard_id, os.path.join(self.directory, shard_id)
        )
        if self._obs is not None:
            handle.attach_observability(self._obs)
        self.shards[shard_id] = handle  # type: ignore[assignment]
        self._shard_stats[shard_id] = TrafficStats()
        with self._supervisor_lock:
            self._spawn(handle)

    def _retire_shard(self, shard_id: str) -> None:
        handle = self.shards.pop(shard_id)
        self._shard_stats.pop(shard_id, None)
        with self._supervisor_lock:
            handle.state = "retired"
            handle.abort()
            self._terminate(handle)
        # The journal directory stays — an operator can archive or
        # inspect a retired shard's op log.

    # ------------------------------------------------------------------
    # Observability (overrides)
    # ------------------------------------------------------------------

    def configure_observability(self, obs) -> None:
        """Extend the base wiring with the cross-process scrape plane.

        Each shard handle's merged sample cache becomes a registry
        collector (samples re-labeled ``shard=<id>``), pulled spans merge
        into the supervisor recorder, and an export-time refresher
        scrapes every ready worker so ``metrics_text()``/``span_dump()``
        transparently cover the fleet.  Also arms :attr:`observability`
        so any worker (re)spawned from here on comes up instrumented.
        """
        super().configure_observability(obs)
        if not obs.enabled:
            return
        self.observability = True
        self._obs = obs
        for handle in self.shards.values():
            handle.attach_observability(obs)
        obs.add_refresher(self._refresh_remote_obs)

    def _refresh_remote_obs(self) -> None:
        """Delta-scrape every ready worker (export time, off hot path)."""
        timeout = min(self.call_timeout, 5.0)
        for handle in list(self.shards.values()):
            if handle.state != "ready":
                continue
            try:
                handle.pull_obs(timeout)
            except OSError:
                # A link dying mid-scrape must not cost the other
                # shards their refresh; the monitor owns the restart.
                continue

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
            "--admin-users", ",".join(self.admin_users),
            "--history-depth", str(self.history_depth),
            "--floor-lease", str(self.floor_lease),
            "--snapshot-every", str(self.snapshot_every),
            # Disjoint per-spawn msg_id space: ids minted inside this
            # worker can never collide with another worker's (or the
            # router's) correlation ids.
            "--msg-id-base", str(self._spawn_count * 10**12),
        ]
        if not self.default_allow:
            cmd.append("--no-default-allow")
        if not self.ack_release:
            cmd.append("--no-ack-release")
        if self.observability:
            cmd.append("--observability")
        env = dict(os.environ)
        # The session's observability setting is authoritative for the
        # fleet: workers must not inherit a stray REPRO_OBSERVABILITY
        # from the supervisor's environment when the session disabled it
        # (nor miss it when enabled — respawns included).
        env["REPRO_OBSERVABILITY"] = "1" if self.observability else "0"
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
        handle.state = "starting"
        handle.spawned_at = time.monotonic()
        handle.flight.note(
            "spawn", pid=process.pid, spawn=self._spawn_count,
            observability=self.observability,
        )
        deadline = time.monotonic() + self.start_timeout
        while not os.path.exists(portfile):
            if process.poll() is not None:
                raise ReproError(
                    f"shard worker {handle.shard_id!r} exited with "
                    f"{process.returncode} before binding (see "
                    f"{handle.directory}/worker.log)"
                )
            if time.monotonic() > deadline:
                process.kill()
                raise ReproError(
                    f"shard worker {handle.shard_id!r} did not bind "
                    f"within {self.start_timeout:.0f}s"
                )
            time.sleep(0.01)
        with open(portfile, "r", encoding="utf-8") as fh:
            handle.port = int(fh.read().strip())
        handle.hello_event.clear()
        handle.link = AioClientTransport(
            ROUTER_ID,
            lambda message, _h=handle: self._on_link_message(_h, message),
            "127.0.0.1",
            handle.port,
            loop=None,
            codec=self.link_codec,
        )
        handle.send(
            Message(
                kind=kinds.SHARD_ATTACH,
                sender=ROUTER_ID,
                to=handle.shard_id,
                payload={},
            )
        )
        if not handle.hello_event.wait(self.start_timeout):
            raise ReproError(
                f"shard worker {handle.shard_id!r} never said hello"
            )
        handle.last_seen = time.monotonic()
        handle.state = "ready"
        handle.flight.note(
            "ready", pid=process.pid, port=handle.port,
            remote_max_did=handle.remote_max_did,
            pending=len(handle.pending),
        )
        handle.resend_pending()

    def _terminate(self, handle: ProcShardHandle) -> None:
        """Tear one worker down (graceful EOF, then SIGTERM, then SIGKILL)."""
        process = handle.process
        if process is not None and process.poll() is None:
            try:
                if process.stdin is not None:
                    process.stdin.close()
            except Exception:
                pass
            try:
                process.terminate()
                process.wait(timeout=2.0)
            except Exception:
                try:
                    process.kill()
                    process.wait(timeout=2.0)
                except Exception:
                    pass
        if handle.link is not None:
            try:
                handle.link.close()
            except Exception:
                pass
            handle.link = None

    def _restart(self, handle: ProcShardHandle) -> None:
        """Replace a dead worker; caller holds the supervisor lock."""
        if handle.link is not None:
            try:
                handle.link.close()
            except Exception:
                pass
            handle.link = None
        handle.restarts += 1
        handle.flight.note("restart", restarts=handle.restarts)
        try:
            self._spawn(handle)
        except ReproError:
            handle.state = "down"  # next monitor tick tries again
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
            "state": handle.state,
            "restarts": handle.restarts,
            "pid": process.pid if process is not None else None,
            "returncode": process.returncode if process is not None else None,
            "heartbeat_age_seconds": handle.heartbeat_age(),
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
        ping = None
        while not self._stop_monitor.wait(self.heartbeat_interval):
            for handle in list(self.shards.values()):
                if self._closed:
                    return
                if handle.state == "retired":
                    continue
                with self._supervisor_lock:
                    if self._closed or handle.state == "retired":
                        continue
                    process = handle.process
                    dead = process is None or process.poll() is not None
                    silent = (
                        not dead
                        and handle.state == "ready"
                        and self.liveness_timeout > 0
                        and time.monotonic() - handle.last_seen
                        > self.liveness_timeout
                    )
                    if silent:
                        # Alive but unresponsive: treat like a crash.
                        handle.flight.note(
                            "liveness_timeout",
                            age=time.monotonic() - handle.last_seen,
                        )
                        try:
                            process.kill()
                            process.wait(timeout=2.0)
                        except Exception:
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
                    ping = Message(
                        kind=kinds.SHARD_PING,
                        sender=ROUTER_ID,
                        to=handle.shard_id,
                        payload={},
                    )
                    handle.send(ping)
                    if self.observability and handle._obs is not None:
                        # Piggyback a delta scrape on the heartbeat so
                        # the supervisor's span/sample view (and thus a
                        # crash dump) is never staler than one tick.
                        handle.send(handle.obs_pull_message())

    def _on_link_message(self, handle: ProcShardHandle, message: Message) -> None:
        """Inbound from one worker (runs on that link's loop thread)."""
        handle.last_seen = time.monotonic()
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
            handle.last_pong = time.monotonic()
            handle.remote_max_did = int(
                payload.get("max_did", handle.remote_max_did)
            )
            stats = payload.get("stats")
            if isinstance(stats, dict):
                handle.remote_stats = stats
        elif kind == kinds.SHARD_OBS_REPLY:
            handle.on_obs_reply(payload)

    # ------------------------------------------------------------------
    # Router thread (serial dispatch)
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        """Enqueue for the router thread (callable from any thread)."""
        with self._queue_cond:
            self._queue.append(message)
            self._queue_cond.notify()

    def _router_loop(self) -> None:
        while True:
            with self._queue_cond:
                while not self._queue:
                    self._queue_cond.wait()
                item = self._queue.pop(0)
            if item is _STOP:
                return
            if isinstance(item, Message):
                try:
                    ShardedCosoftCluster.handle_message(self, item)
                except Exception:
                    pass  # dispatch already error-replies; never die
            else:
                fn, box, event = item
                try:
                    box["result"] = fn()
                except BaseException as exc:  # marshal to the caller
                    box["error"] = exc
                finally:
                    event.set()

    def _on_router_thread(self, fn):
        """Run *fn* on the router thread and return its result."""
        if threading.current_thread() is self._router_thread:
            return fn()
        box: Dict[str, Any] = {}
        event = threading.Event()
        with self._queue_cond:
            self._queue.append((fn, box, event))
            self._queue_cond.notify()
        if not event.wait(self.call_timeout + self.start_timeout):
            raise ReproError("cluster router thread is unresponsive")
        if "error" in box:
            raise box["error"]
        return box.get("result")

    # ------------------------------------------------------------------
    # Shard invocation (override)
    # ------------------------------------------------------------------

    def _call_shard(
        self,
        shard_id: str,
        message: Message,
        suppress: Optional[FrozenSet[str]] = None,
    ) -> None:
        handle = self.shards[shard_id]
        did = handle.next_did()
        obs = self.obs
        span = None
        if obs.tracing and message.trace is not None:
            # The supervisor half of the cross-process hop: covers the
            # envelope round trip (send .. ack + output replay).  The
            # worker parents its worker.apply span off this id, so the
            # merged trace tree crosses the process boundary intact.
            span = obs.spans.start(
                obs_tracing.CLUSTER_FORWARD,
                trace_id=message.trace[0],
                parent_id=message.trace[1],
                endpoint=ROUTER_ID,
                shard=shard_id,
                did=did,
            )
            message = dataclasses.replace(
                message, trace=(message.trace[0], span.span_id)
            )
        envelope = Message(
            kind=kinds.SHARD_FORWARD,
            sender=ROUTER_ID,
            to=shard_id,
            payload={
                "did": did,
                "msg": message.to_wire(),
                "suppress": sorted(suppress) if suppress else [],
            },
        )
        try:
            outs = handle.call(did, envelope, self.call_timeout)
            # The worker already applied the suppress filter; replay its
            # outputs through the base bookkeeping unfiltered.
            for wire in outs:
                self._on_shard_send(shard_id, Message.from_wire(wire))
        finally:
            if span is not None:
                obs.spans.finish(span)

    # ------------------------------------------------------------------
    # Resharding / administration entry points (marshal to router thread)
    # ------------------------------------------------------------------

    def add_shard(self, shard_id: Optional[str] = None) -> str:
        return self._on_router_thread(
            lambda: ShardedCosoftCluster.add_shard(self, shard_id)
        )

    def remove_shard(self, shard_id: str):
        return self._on_router_thread(
            lambda: ShardedCosoftCluster.remove_shard(self, shard_id)
        )

    def kill_shard(self, shard_id: str) -> int:
        """SIGKILL one worker (chaos/testing); the monitor restarts it."""
        handle = self.shards[shard_id]
        process = handle.process
        if process is None:
            raise ReproError(f"shard {shard_id!r} has no process")
        pid = process.pid
        handle.flight.note("kill_shard", pid=pid)
        process.kill()
        return pid

    def _on_cluster_reshard(self, message: Message) -> None:
        if message.payload.get("action") == "kill":
            shard_id = str(message.payload.get("shard", ""))
            if shard_id not in self.shards:
                raise ValueError(f"unknown shard {shard_id!r}")
            pid = self.kill_shard(shard_id)
            self._emit(
                message.reply(
                    kinds.CLUSTER_RESHARD_REPLY,
                    SERVER_ID,
                    action="kill",
                    shard=shard_id,
                    pid=pid,
                    shards=list(self.shard_ids),
                    moved=[],
                )
            )
            return
        super()._on_cluster_reshard(message)

    # ------------------------------------------------------------------
    # Introspection (overrides: shard internals live in the workers)
    # ------------------------------------------------------------------

    def cluster_status(self) -> Dict[str, Any]:
        status = super().cluster_status()
        status["processes"] = {
            shard_id: {
                "pid": handle.process.pid if handle.process else None,
                "state": handle.state,
                "restarts": handle.restarts,
                "port": handle.port,
            }
            for shard_id, handle in self.shards.items()
        }
        return status

    def stats(self) -> Dict[str, Any]:
        per_shard = {
            shard_id: {
                "messages": self._shard_stats[shard_id].messages,
                "state": handle.state,
                "pid": handle.process.pid if handle.process else None,
                "restarts": handle.restarts,
                "worker": dict(handle.remote_stats),
            }
            for shard_id, handle in self.shards.items()
        }
        routing = RoutingStats()
        routing.merge(self.routing)
        return {
            "shards": len(self.shards),
            "migrations": self.migrations,
            "registered": len(self.registry),
            "couple_links": len(self.mirror),
            "couple_groups": len(self.mirror.groups()),
            "homes": len(self._home),
            "processed": dict(self.processed),
            "routing": routing.snapshot(),
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop_monitor.set()
        with self._queue_cond:
            self._queue.append(_STOP)
            self._queue_cond.notify()
        for handle in list(self.shards.values()):
            handle.abort()
        self._monitor_thread.join(timeout=5.0)
        self._router_thread.join(timeout=5.0)
        with self._supervisor_lock:
            for handle in list(self.shards.values()):
                self._terminate(handle)

    def __enter__(self) -> "ProcCluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
