"""Multi-process cluster: the router on its own thread, shards as workers.

:class:`ProcCluster` is a :class:`~repro.cluster.router.ShardedCosoftCluster`
whose links come from a :class:`~repro.cluster.supervisor.ShardSupervisor`:
each shard runs ``python -m repro.cluster.worker`` in its own process,
hosting the server on an :class:`~repro.net.aio.AioHostTransport` with
its own journal, and the router reaches it through a
:class:`~repro.cluster.supervisor.ProcShardHandle` over an ordinary aio
link.  What this module adds to the router is only about threads: a
shard call blocks, so dispatch runs on one router thread fed by a queue
(docs/CLUSTER.md, "Shard links").
"""

from __future__ import annotations

import logging
import queue
import threading
from typing import Any, Dict, Optional, Tuple

from repro.cluster.router import ShardedCosoftCluster
from repro.cluster.supervisor import (
    FlightRecorder,
    ProcShardHandle,
    ShardSupervisor,
)
from repro.errors import ReproError
from repro.net import kinds
from repro.net.message import Message
from repro.net.transport import SERVER_ID
from repro.obs.log import get_logger, log_event

__all__ = ["ProcShardHandle", "ProcCluster", "FlightRecorder"]

_log = get_logger("cluster.proc")

#: Sentinel that stops the router thread.
_STOP = object()


class ProcCluster(ShardedCosoftCluster):
    """A sharded cluster whose shards are supervised subprocesses.

    *directory* is the root for per-shard journals, portfiles and worker
    logs — required, crash recovery needs a durable op log.  Keyword
    arguments the router does not take (``link_codec``, the heartbeat
    and timeout knobs, ``observability``) are the
    :class:`~repro.cluster.supervisor.ShardSupervisor`'s.  Pass
    *observability* at construction — workers start before
    :meth:`configure_observability` runs — though a later enable still
    covers every worker spawned afterwards.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        directory: str,
        snapshot_every: int = 500,
        default_allow: bool = True,
        admin_users: Tuple[str, ...] = (),
        ack_release: bool = True,
        persistence: Optional[Any] = None,
        **supervision: Any,
    ):
        if persistence is not None:
            raise ValueError(
                "ProcCluster journals per worker; pass directory=, "
                "not persistence="
            )
        worker_args = [
            "--admin-users", ",".join(admin_users),
            "--snapshot-every", str(snapshot_every),
        ]
        if not default_allow:
            worker_args.append("--no-default-allow")
        if not ack_release:
            worker_args.append("--no-ack-release")
        self.supervisor = ShardSupervisor(
            directory, worker_args=worker_args, **supervision
        )
        self._closed = False
        #: Orders ``close()`` against enqueues: nothing lands behind _STOP.
        self._gate = threading.Lock()
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        super().__init__(
            shards,
            codec=self.supervisor.link_codec,
            link_factory=self.supervisor.start,
            default_allow=default_allow,
            admin_users=admin_users,
            ack_release=ack_release,
        )
        self.supervisor.watch()
        self._router_thread = threading.Thread(
            target=self._router_loop, name="proc-cluster-router", daemon=True
        )
        self._router_thread.start()

    def configure_observability(self, obs) -> None:
        super().configure_observability(obs)
        if obs.enabled:
            self.supervisor.arm_observability(obs)

    # ------------------------------------------------------------------
    # Router thread (serial dispatch)
    # ------------------------------------------------------------------

    def _enqueue(self, item: Any) -> bool:
        with self._gate:
            if self._closed:
                return False
            self._queue.put(item)
            return True

    def handle_message(self, message: Message) -> None:
        """Enqueue for the router thread (callable from any thread)."""
        if not self._enqueue(message):
            self.processed["__closed__"] += 1

    def _router_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            if isinstance(item, Message):
                try:
                    ShardedCosoftCluster.handle_message(self, item)
                except Exception as exc:
                    # Dispatch already error-replies what a client can
                    # cause; whatever else escapes must not end the
                    # thread every later message waits on.
                    self.processed["__router_errors__"] += 1
                    log_event(
                        _log, logging.ERROR, "router_dispatch_failed",
                        kind=item.kind, error=f"{type(exc).__name__}: {exc}",
                    )
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
        if not self._enqueue((fn, box, event)):
            raise ReproError("cluster is closed")
        supervisor = self.supervisor
        if not event.wait(supervisor.call_timeout + supervisor.start_timeout):
            raise ReproError("cluster router thread is unresponsive")
        if "error" in box:
            raise box["error"]
        return box.get("result")

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
        return self.supervisor.kill(shard_id)

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
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        with self._gate:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_STOP)
        self.supervisor.close()
        self._router_thread.join(timeout=5.0)

    def __enter__(self) -> "ProcCluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
