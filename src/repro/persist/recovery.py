"""Crash recovery for event-sourced servers.

Recovery is "latest snapshot + log-suffix replay": the suffix messages
re-enter :meth:`~repro.server.server.CosoftServer.handle_message`
**verbatim** — the same handlers, in the same order, against the same
clock readings the live server saw (each journal entry carries the
server-clock time it executed at, and replay drives a
:class:`~repro.net.clock.SimClock` to it).  No dedup, no idempotence
assumptions: whatever the live server processed — including duplicates
and requests it answered with errors — replays identically, which is
what makes the recovered database bit-equal to the lost one.

Replayed handlers still *send* (broadcasts, replies); those transmissions
already happened in the previous life, so replay binds a
:class:`DiscardTransport` that swallows them.  The journal is detached
for the duration — replay must read the log, never grow it.

:func:`recover_server` / :func:`recover_cluster` restart a server or a
sharded cluster after a crash, or, with ``at_seq``, time-travel to any
historical point.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.clock import SimClock
from repro.net.message import Message
from repro.net.transport import TrafficStats, Transport
from repro.persist.snapshot import restore_state


class DiscardTransport(Transport):
    """A transport that counts and drops everything it is given.

    Bound to a server during replay: the outbound traffic was already
    delivered in the server's previous life.
    """

    def __init__(self) -> None:
        self._stats = TrafficStats()
        self._closed = False
        self.discarded = 0

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    def send(self, message: Message) -> None:
        self.discarded += 1

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


def _replay_into(
    server: Any,
    clock: SimClock,
    entries: Any,
    *,
    at_seq: Optional[int] = None,
) -> int:
    """Feed journal *entries* through *server*'s handlers, in order.

    The clock advances to each entry's recorded execution time first, so
    clock-derived state (``registered_at``, floor grant times, history
    timestamps) reproduces exactly.
    """
    replayed = 0
    for entry in entries:
        seq = int(entry["seq"])
        if at_seq is not None and seq > at_seq:
            break
        t = float(entry.get("t", 0.0))
        if t > clock.now():
            clock.advance_to(t)
        server.handle_message(Message.from_wire(entry["msg"]))
        replayed += 1
    return replayed


def _recover_into(server: Any, persistence: Any, at_seq: Optional[int]) -> None:
    """One server's recovery: install the newest snapshot at or below
    *at_seq* and replay the log suffix on ``server.clock`` (a
    :class:`SimClock`), with the journal detached.  Without *at_seq* the
    journal is re-attached afterwards."""
    server.persistence = None  # replay reads the log, never grows it
    clock = server.clock
    after = 0
    snap = persistence.snapshots.load_latest(max_seq=at_seq)
    if snap is not None:
        restore_state(server, snap["state"])
        clock.advance_to(float(snap.get("clock", 0.0)))
        after = int(snap["seq"])
    persistence.replayed_ops += _replay_into(
        server, clock, persistence.log.read(after), at_seq=at_seq
    )
    if at_seq is None:
        server.persistence = persistence


def recover_server(
    persistence: Any,
    *,
    at_seq: Optional[int] = None,
    **server_kwargs: Any,
) -> Any:
    """Rebuild a :class:`CosoftServer` from its journal.

    Loads the newest snapshot at or below *at_seq* (latest, if ``None``),
    installs it, and replays the log suffix.  Without *at_seq* the
    journal is re-attached afterwards so the recovered server resumes
    journaling where the dead one stopped; with *at_seq* the result is a
    read-only historical reconstruction (time travel) and stays
    detached.

    *server_kwargs* are forwarded to the ``CosoftServer`` constructor
    and must mirror the dead server's configuration.
    """
    from repro.server.server import CosoftServer

    server = CosoftServer(clock=SimClock(), **server_kwargs)
    server.bind(DiscardTransport())
    _recover_into(server, persistence, at_seq)
    return server


def recover_cluster(
    config: Any,
    *,
    at_seq: Optional[int] = None,
    **cluster_kwargs: Any,
) -> Any:
    """Rebuild a :class:`ShardedCosoftCluster` from its per-shard journals.

    Each shard recovers independently — its own snapshot, its own log
    suffix, its own replay clock (shards journal concurrently, so their
    time lines interleave; a private clock per shard reproduces each
    shard's exact clock readings without ever running time backwards).
    Router state (couple-table mirror, home pins, ack routes,
    registry) is then rebuilt from the recovered shards in one pass
    (:meth:`~repro.cluster.router.ShardedCosoftCluster.rebuild_from_shards`)
    rather than inferred from replay side effects.  The cluster is
    returned unbound; replay emits nothing through it (a shard's sends
    outside a routed call go nowhere).
    """
    from repro.cluster.router import ShardedCosoftCluster

    cluster = ShardedCosoftCluster(persistence=config, **cluster_kwargs)
    latest = 0.0
    for shard in cluster.shards.values():
        persist = shard.persistence
        if persist is None:
            continue
        shard.clock = SimClock()
        _recover_into(shard, persist, at_seq)
        latest = max(latest, shard.clock.now())
        shard.clock = cluster.clock
    if latest > cluster.clock.now():
        cluster.clock.advance_to(latest)
    cluster.rebuild_from_shards()
    return cluster
