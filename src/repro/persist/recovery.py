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

from typing import Any, Callable, Optional

from repro.net.clock import SimClock
from repro.net.message import Message
from repro.net.transport import SERVER_ID, TrafficStats, Transport
from repro.persist.snapshot import restore_state


class DiscardTransport(Transport):
    """A transport that counts and drops everything it is given.

    Bound to a server during replay: the outbound traffic was already
    delivered in the server's previous life.
    """

    def __init__(self, local_id: str = SERVER_ID):
        self._local_id = local_id
        self._stats = TrafficStats()
        self._closed = False
        self.discarded = 0

    @property
    def local_id(self) -> str:
        return self._local_id

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    def send(self, message: Message) -> None:
        self.discarded += 1

    def recv(self, message: Message) -> None:
        self.discarded += 1

    def drive(
        self, predicate: Callable[[], bool], timeout: float = 5.0
    ) -> bool:
        return bool(predicate())

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

    clock = SimClock()
    server = CosoftServer(clock=clock, **server_kwargs)
    server.bind(DiscardTransport())
    after = 0
    snap = persistence.snapshots.load_latest(max_seq=at_seq)
    if snap is not None:
        restore_state(server, snap["state"])
        clock.advance_to(float(snap.get("clock", 0.0)))
        after = int(snap["seq"])
    replayed = _replay_into(
        server, clock, persistence.log.read(after), at_seq=at_seq
    )
    persistence.replayed_ops += replayed
    if at_seq is None:
        server.persistence = persistence
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
    Router state (couple-table mirror, home pins, floor/lock routes,
    registry) is then rebuilt from the recovered shards in one pass
    rather than inferred from replay side effects.
    """
    from repro.cluster.router import ShardedCosoftCluster

    cluster = ShardedCosoftCluster(persistence=config, **cluster_kwargs)
    cluster.bind(DiscardTransport())
    latest = 0.0
    for shard_id, shard in cluster.shards.items():
        persist = shard.persistence
        if persist is None:
            continue
        shard.persistence = None    # replay reads the log, never grows it
        shard_clock = SimClock()
        shard.clock = shard_clock
        after = 0
        snap = persist.snapshots.load_latest(max_seq=at_seq)
        if snap is not None:
            restore_state(shard, snap["state"])
            shard_clock.advance_to(float(snap.get("clock", 0.0)))
            after = int(snap["seq"])
        persist.replayed_ops += _replay_into(
            shard, shard_clock, persist.log.read(after), at_seq=at_seq
        )
        latest = max(latest, shard_clock.now())
        shard.clock = cluster.clock
        if at_seq is None:
            shard.persistence = persist
    if latest > cluster.clock.now():
        cluster.clock.advance_to(latest)
    rebuild_router_state(cluster)
    # Unbind so the caller's bind() is the first real transport; the
    # replay sink must not swallow live traffic by accident.
    cluster._transport = None
    return cluster


def rebuild_router_state(cluster: Any) -> None:
    """Derive the router's books from its shards' recovered databases.

    One authoritative pass instead of trusting replay side effects: the
    mirror couple table and sticky home pins come from each shard's
    couple/lock/floor/history holdings, the roster with its version from
    the shard replicas (every shard holds the full registry), and each
    floor's route from its shape, as the live router books it: a floor
    awaiting acks gets an EVENT_ACK route, a bare floor (awaiting its
    EVENT or UNLOCK) an UNLOCK route.
    """
    from repro.server.couples import CoupleTable

    cluster.mirror = CoupleTable()
    cluster._home = {}
    cluster._lock_routes = {}
    cluster._floor_routes = {}
    cluster._floor_expected = {}
    cluster._pending_routes = {}
    for shard_id, shard in cluster.shards.items():
        for link in shard.couples.links():
            cluster.mirror.add_link(link)
            for gid in (link.source, link.target):
                cluster._home[gid] = shard_id
        for obj in shard.locks.locked_objects():
            cluster._home[obj] = shard_id
        for key, floor in shard.floors.items():
            if floor.pending_acks:
                cluster._floor_routes[key] = shard_id
                cluster._floor_expected[key] = len(floor.pending_acks)
            else:
                cluster._lock_routes[key] = shard_id
            for gid in floor.objects:
                cluster._home[gid] = shard_id
        for obj in shard.history.objects():
            cluster._home[obj] = shard_id
    for shard in cluster.shards.values():
        # Every shard replicates the full roster and its version; one
        # suffices.
        cluster.registry.restore(shard.registry.records(), shard.registry.version)
        break
    # Drop pins that merely restate the ring assignment — the live
    # router only pins what moved away from (or beyond) its ring home.
    for gid in [g for g, home in cluster._home.items()]:
        if (
            len(cluster.mirror.group_of(gid)) <= 1
            and cluster._home[gid] == cluster._ring_home(gid)
            and cluster.shards[cluster._home[gid]].history.depth(gid) == (0, 0)
            and cluster.shards[cluster._home[gid]].locks.holder(gid) is None
        ):
            del cluster._home[gid]

