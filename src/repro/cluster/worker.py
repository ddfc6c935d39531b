"""The shard worker: one ``CosoftServer`` in its own OS process.

``python -m repro.cluster.worker`` is what the multi-process supervisor
(:mod:`repro.cluster.proc`) spawns per shard.  The worker hosts a plain
:class:`~repro.server.server.CosoftServer` behind a
:class:`ShardEndpoint` adapter on an
:class:`~repro.net.aio.AioHostTransport` (built as a session builds its
aio host; it runs its own loop thread), journals every
mutating operation to its own op log, and speaks the private shard plane
(SHARD_* kinds, docs/CLUSTER.md) with the router over the ordinary aio
transport.

Exactly-once delivery across worker crashes
-------------------------------------------
The router wraps every message for a shard in a SHARD_FORWARD envelope
stamped with a monotonic **delivery id** (``did``) and keeps it pending
until the worker's SHARD_UPLINK acknowledges that id.  The worker makes
the acknowledgement meaningful by journaling ``did`` *and the outputs
the operation produced* in the same op-log entry as the operation itself
(one atomic append, ``fsync="always"``), and only then replying.  After
a crash the worker recovers from the journal, reports its newest
journaled ``did`` in SHARD_HELLO, and the router re-sends whatever is
still pending: a re-delivered id at or below the recovered high-water
mark is **not** re-executed — its journaled outputs are re-sent verbatim
— while ids above it re-apply exactly the operations whose durability
the dead worker never confirmed.  State mutates exactly once; outputs
are at-least-once, which the client replicas already dedup (event
sequence numbers, idempotent state installs).
"""

from __future__ import annotations

import argparse
import itertools
import os
import signal
import sys
import threading
from typing import Any, Dict, List, Optional

from repro.cluster.link import LocalShardLink
from repro.net import kinds
from repro.net.codec import CODEC_NAMES
from repro.net.message import Message
from repro.net.transport import ROUTER_ID
from repro.obs import NULL_OBS, Observability
from repro.obs import tracing as obs_tracing
from repro.obs.remote import SampleDiffer
from repro.persist.journal import PersistenceConfig
from repro.persist.recovery import recover_server
from repro.server.permissions import AccessControl
from repro.server.server import CosoftServer

__all__ = ["ShardEndpoint", "build_worker", "main"]


class _JournalWithDelivery:
    """Persistence proxy stamping the in-flight delivery into each entry.

    The server calls ``record(server, message)`` after a handler
    succeeds; this proxy widens that into ``record(server, message,
    did=..., outs=...)`` so the op, its delivery id and its outputs are
    one atomic, fsynced append — the property the ack/replay protocol
    rests on.  Everything else delegates to the real journal.
    """

    def __init__(self, inner: Any, endpoint: "ShardEndpoint"):
        self._inner = inner
        self._endpoint = endpoint

    def record(self, server: Any, message: Any) -> int:
        endpoint = self._endpoint
        if endpoint._current_did is None:
            return self._inner.record(server, message)
        return self._inner.record(
            server,
            message,
            did=endpoint._current_did,
            outs=[out.to_wire() for out in endpoint.link.collected],
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class ShardEndpoint:
    """Adapter between the shard plane and a plain ``CosoftServer``.

    Hosted on an :class:`~repro.net.aio.AioHostTransport` (same
    ``handle_message``/``bind`` contract as a server); unwraps
    SHARD_FORWARD envelopes, dispatches the inner message, and answers
    each delivery id with one SHARD_UPLINK carrying the collected
    outputs.
    """

    def __init__(
        self, server: CosoftServer, shard_id: str, obs: Any = NULL_OBS
    ):
        self.server = server
        self.shard_id = shard_id
        #: Runs one message on the server and collects its filtered
        #: outputs — the same link the in-process router uses.
        self.link = LocalShardLink(server)
        self.obs = obs
        #: Delta cache answering OBS pulls: repeated scrapes ship only
        #: samples whose values changed since the last pull.
        self._obs_differ = SampleDiffer()
        self._transport: Optional[Any] = None
        #: Newest delivery id whose effects are journaled (or executed,
        #: for relay-only ops) — re-deliveries at or below it are
        #: answered from :attr:`_last_outs` without re-execution.
        self.max_did = 0
        self._last_outs: Dict[int, List[Dict[str, Any]]] = {}
        self._current_did: Optional[int] = None
        if server.persistence is not None:
            self._scan_journal(server.persistence)
            server.persistence = _JournalWithDelivery(
                server.persistence, self
            )

    def _scan_journal(self, persistence: Any) -> None:
        """Recover the delivery high-water mark and its stored outputs."""
        for entry in persistence.log.read():
            did = entry.get("did")
            if did is None:
                continue
            did = int(did)
            if did > self.max_did:
                self.max_did = did
                self._last_outs = {did: list(entry.get("outs") or ())}

    # -- runtime contract ----------------------------------------------

    def bind(self, transport: Any) -> None:
        self._transport = transport

    def handle_message(self, message: Message) -> None:
        if message.sender != ROUTER_ID:
            return  # the shard plane only talks to the router
        kind = message.kind
        if kind == kinds.SHARD_FORWARD:
            self._on_forward(message)
        elif kind == kinds.SHARD_ATTACH:
            self._send_control(kinds.SHARD_HELLO, max_did=self.max_did)
        elif kind == kinds.SHARD_PING:
            self._send_control(
                kinds.SHARD_PONG,
                max_did=self.max_did,
                stats=self.server.stats(),
            )
        elif kind == kinds.SHARD_OBS_PULL:
            self._on_obs_pull(message)

    # -- internals ------------------------------------------------------

    def _send(self, message: Message) -> None:
        if self._transport is not None:
            self._transport.send(message)

    def _send_control(self, kind: str, **payload: Any) -> None:
        payload.setdefault("shard", self.shard_id)
        self._send(
            Message(
                kind=kind, sender=self.shard_id, to=ROUTER_ID, payload=payload
            )
        )

    def _on_obs_pull(self, message: Message) -> None:
        """Answer a supervisor scrape with this worker's telemetry delta.

        ``since`` is the epoch the supervisor last saw — a mismatch (or
        a fresh process after a crash) forces a full snapshot, so the
        supervisor's merged cache can never go stale silently.
        """
        obs = self.obs
        since = message.payload.get("since")
        if not obs.enabled:
            self._send_control(
                kinds.SHARD_OBS_REPLY,
                epoch=self._obs_differ.epoch,
                full=True,
                samples=[],
                spans=[],
                trace_stats={},
            )
            return
        epoch, full, samples = self._obs_differ.diff(
            obs.registry.collect(), since
        )
        self._send_control(
            kinds.SHARD_OBS_REPLY,
            epoch=epoch,
            full=full,
            samples=samples,
            spans=obs.spans.drain() if obs.tracing else [],
            trace_stats=obs.spans.stats() if obs.tracing else {},
        )

    def _on_forward(self, message: Message) -> None:
        payload = message.payload
        did = int(payload["did"])
        if did <= self.max_did:
            # Redelivery of something already applied (the ack was lost
            # with the previous process): do not re-execute — replay the
            # journaled outputs so the router can finish its bookkeeping.
            self._send_uplink(did, self._last_outs.get(did, []))
            return
        suppress_wire = payload.get("suppress") or ()
        self._current_did = did
        try:
            # The worker half of the cross-process hop: the supervisor's
            # cluster.forward span id rides in on the inner message, and
            # server.receive nests under worker.apply.
            with obs_tracing.hop(
                self.obs, obs_tracing.WORKER_APPLY,
                Message.from_wire(payload["msg"]),
                endpoint=self.shard_id, did=did,
            ) as inner:
                outs = [
                    out.to_wire()
                    for out in self.link.call(
                        inner,
                        frozenset(suppress_wire) if suppress_wire else None,
                    )
                ]
        finally:
            self._current_did = None
        self.max_did = did
        # Dispatch is serial per shard, so only the newest delivery can
        # ever be re-asked for; keeping one entry bounds memory.
        self._last_outs = {did: outs}
        self._send_uplink(did, outs)

    def _send_uplink(self, did: int, outs: List[Dict[str, Any]]) -> None:
        self._send_control(kinds.SHARD_UPLINK, did=did, outs=outs)


def build_worker(
    *,
    shard_id: str,
    directory: str,
    default_allow: bool = True,
    admin_users: tuple = (),
    ack_release: bool = True,
    snapshot_every: int = 500,
    observability: bool = False,
) -> ShardEndpoint:
    """Build (or recover) the shard server and wrap it for the plane.

    ``fsync="always"`` is forced: the ack/replay protocol requires that
    an acknowledged operation is durable *before* the ack leaves.

    With *observability* the worker runs a full registry + span recorder
    of its own (span ids prefixed ``<shard-id>.`` so they stay unique
    fleet-wide) and answers the supervisor's SHARD_OBS_PULL scrapes.
    """
    persistence = PersistenceConfig(
        directory=directory,
        fsync="always",
        snapshot_every=snapshot_every,
    ).build()
    server_kwargs = dict(
        access=AccessControl(default_allow=default_allow),
        admin_users=tuple(admin_users),
        ack_release=ack_release,
    )
    if persistence.log.last_seq > 0:
        server = recover_server(persistence, **server_kwargs)
    else:
        server = CosoftServer(persistence=persistence, **server_kwargs)
    obs: Any = NULL_OBS
    if observability:
        obs = Observability()
        obs.spans.id_prefix = f"{shard_id}."
        # No shard label here: the supervisor stamps shard=<id> onto
        # every pulled sample, so worker registries stay shard-agnostic.
        server.configure_observability(obs)
    return ShardEndpoint(server, shard_id, obs=obs)


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="One COSOFT shard as an OS process (docs/CLUSTER.md).",
    )
    parser.add_argument("--shard-id", required=True)
    parser.add_argument("--dir", required=True,
                        help="per-shard journal directory")
    parser.add_argument("--portfile", required=True,
                        help="file to write the bound port into once ready")
    parser.add_argument("--codec", required=True, choices=CODEC_NAMES)
    parser.add_argument("--no-default-allow", action="store_true")
    parser.add_argument("--admin-users", default="")
    parser.add_argument("--no-ack-release", action="store_true")
    parser.add_argument("--snapshot-every", type=int, default=500)
    parser.add_argument(
        "--observability", action="store_true",
        help="run a live metrics registry + span recorder in this worker",
    )
    parser.add_argument(
        "--msg-id-base", type=int, default=0,
        help="start of this process's msg_id space (the supervisor hands "
             "each spawn a disjoint range so correlation ids emitted by "
             "different shard processes can never collide at the router)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if args.msg_id_base:
        from repro.net import message as message_mod

        message_mod._msg_counter = itertools.count(args.msg_id_base + 1)
    endpoint = build_worker(
        shard_id=args.shard_id,
        directory=args.dir,
        default_allow=not args.no_default_allow,
        admin_users=tuple(u for u in args.admin_users.split(",") if u),
        ack_release=not args.no_ack_release,
        snapshot_every=args.snapshot_every,
        observability=args.observability,
    )
    from repro.net.aio import AioHostTransport

    host = AioHostTransport(endpoint.handle_message, port=0, codec=args.codec)
    endpoint.bind(host)
    done = threading.Event()

    def _shutdown(*_sig: object) -> None:
        done.set()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)

    # Orphan watchdog: the supervisor holds our stdin pipe; EOF means the
    # supervisor is gone and nobody will ever kill us — exit instead of
    # leaking a process per crashed test run.
    def _watch_stdin() -> None:
        try:
            while sys.stdin.buffer.read(4096):
                pass
        except (OSError, ValueError):
            pass  # a broken or closed pipe is the same EOF
        done.set()

    threading.Thread(target=_watch_stdin, daemon=True).start()

    # Atomic publish: the supervisor polls for this file, so it must
    # never observe a half-written port number.
    tmp = args.portfile + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(str(host.address[1]))
    os.replace(tmp, args.portfile)

    done.wait()
    try:
        host.close()
        persist = endpoint.server.persistence
        if persist is not None:
            persist.sync()
    finally:
        os._exit(0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
