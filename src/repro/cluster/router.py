"""The sharded COSOFT cluster: a router in front of N server shards.

The paper's architecture (Figure 4) funnels every couple, lock and event
through one central server.  Floor control and event serialization are
scoped *per couple group* (the transitive closure ``CO(o)``, §3.2), so
groups shard cleanly: each group lives on exactly one
:class:`~repro.server.server.CosoftServer` shard and the hot path (lock
request carrying the event → acks) never crosses shards.

:class:`ShardedCosoftCluster` is itself a **sans-I/O state machine** with
the same ``handle_message`` contract as ``CosoftServer`` — bind it to a
:class:`~repro.net.memory.MemoryNetwork` endpoint or a
:class:`~repro.net.tcp.TcpHostTransport` and clients cannot tell it from a
single server.  Internally it:

* forwards registration and permission rules to **all** shards (every
  shard needs the roster and ACLs), answering the client itself so the
  shards' duplicate replies never leave the cluster;
* routes group-scoped traffic (COUPLE/LOCK/EVENT/state sync/history/
  ``CoSendCommand``) to the owning shard — a sticky home assignment
  seeded by a consistent-hash ring (:class:`~repro.cluster.hashring.HashRing`);
* **migrates** a couple group between shards when a new couple link
  merges two groups homed on different shards: the smaller group is
  frozen (its traffic buffered), its couple rows, lock entries, floors
  and historical states are transferred with the MIGRATE_* messages
  (docs/CLUSTER.md), and the buffer is replayed on the new home.

The router keeps a mirror of the cluster-wide couple table, maintained
from every COUPLE_UPDATE the shards emit (like a client replica, but of
the whole relation), so it can compute transitive closures without asking
a shard.  Floor control stays on the shards (``server/locks.py``): an
UNLOCK goes to the home of each object it names, and the router books
only where each floor's EVENT_ACKs go.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core import coupling
from repro.errors import ReproError
from repro.net import kinds
from repro.net.clock import Clock, SimClock
from repro.net.codec import Codec, get_codec
from repro.net.message import Message
from repro.net.transport import ROUTER_ID, SERVER_ID, TrafficStats, Transport
from repro.cluster.hashring import HashRing
from repro.cluster.link import LocalShardLink, ShardLink
from repro.obs import NULL_OBS
from repro.obs import tracing as obs_tracing
from repro.server.couples import CoupleTable, GlobalId, gid_from_wire, gid_to_wire
from repro.server.locks import Floor
from repro.server.permissions import AccessControl
from repro.server.registry import Registry
from repro.server.routing import (
    RoutingStats,
    announce_left,
    answer_roster_resync,
    register_instance,
)
from repro.server.server import CosoftServer


#: Shard replies the router suppresses because it answers the client itself.
_REGISTER_SUPPRESS = frozenset({kinds.REGISTER_ACK, kinds.INSTANCE_LIST})
_UNREGISTER_SUPPRESS = frozenset({kinds.INSTANCE_LIST})
_SECONDARY_SUPPRESS = frozenset({kinds.PERMISSION_REPLY, kinds.ERROR})


class ShardedCosoftCluster:
    """A drop-in ``CosoftServer`` replacement that shards by couple group.

    Parameters
    ----------
    shards:
        Number of server shards.
    service_time:
        Optional modeled per-message processing cost (simulated seconds)
        each shard pays serially.  With it the cluster tracks per-shard
        busy periods so benchmarks can report the makespan a parallel
        deployment would achieve (see :meth:`modeled_makespan`).
    default_allow / admin_users / ack_release:
        Forwarded to every shard, mirroring ``CosoftServer``.
    link_factory:
        ``shard_id -> ShardLink``: where a shard lives.  Default: a
        ``CosoftServer`` in this process (:meth:`_local_link`).
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        clock: Optional[Clock] = None,
        service_time: float = 0.0,
        default_allow: bool = True,
        admin_users: Tuple[str, ...] = (),
        ack_release: bool = True,
        persistence: Optional[Any] = None,
        codec: str = "json",
        link_factory: Optional[Callable[[str], ShardLink]] = None,
    ):
        if shards <= 0:
            raise ValueError("a cluster needs at least one shard")
        self.clock: Clock = clock if clock is not None else SimClock()
        #: The codec the router accounts inter-shard bytes with (the
        #: router↔shard hop is in-process, so the codec only prices it).
        self.codec: Codec = get_codec(codec)
        #: Router-level delivery decisions (shards keep their own).
        self.routing = RoutingStats()
        self.shard_ids: Tuple[str, ...] = tuple(
            f"shard-{i}" for i in range(shards)
        )
        self.default_allow = default_allow
        self.admin_users = tuple(admin_users)
        self.ack_release = ack_release
        self.ring = HashRing(self.shard_ids)
        self._link_factory = link_factory or self._local_link
        self._links: Dict[str, ShardLink] = {}
        #: ``link.shard`` per shard: the ``CosoftServer`` in-process.
        self.shards: Dict[str, CosoftServer] = {}
        #: Each link's ``TrafficStats`` — the same object a single
        #: server's transport reports — aggregated with
        #: :meth:`TrafficStats.merge`.
        self._shard_stats: Dict[str, TrafficStats] = {}
        #: Per-shard journals (docs/PERSISTENCE.md): each shard gets its
        #: own op log + snapshot store under a shard-named subdirectory,
        #: so a group migration's MIGRATE_IMPORT — journaled like any
        #: other state change — ships the group's snapshot through the
        #: target shard's log automatically.
        self.persistence_config = persistence
        #: Router-side replica of the ACL table, maintained from the
        #: PERMISSION_SETs it forwards; ships to freshly added shards
        #: (:meth:`add_shard`) so they enforce the same rules.
        self.acl_mirror = AccessControl(default_allow=default_allow)
        #: The shards' history tombstones, shipped like the ACL mirror.
        self._forgotten: Set[str] = set()
        for shard_id in self.shard_ids:
            self._create_shard(shard_id)

        #: Router-owned registration records (shards hold replicas).
        self.registry = Registry()
        #: Mirror of the cluster-wide couple table, fed by the shards'
        #: COUPLE_UPDATEs (the same mechanism client replicas use).
        self.mirror = CoupleTable()
        #: Sticky home assignment: coupled (or migrated) object -> shard.
        self._home: Dict[GlobalId, str] = {}
        #: floor owner -> shards holding a part of its floor (EVENT_ACK
        #: routing): the one that broadcast the event, plus each shard a
        #: migration since moved a part to.
        self._floor_routes: Dict[Tuple[str, int], Set[str]] = {}
        #: floor owner -> receivers whose EVENT_ACK is still due (route
        #: cleanup); a set, so a duplicated or stray ack frees no route.
        self._floor_awaited: Dict[Tuple[str, int], Set[str]] = {}
        #: forwarded FETCH_STATE msg_id -> (shard, owner instance).
        self._pending_routes: Dict[int, Tuple[str, str]] = {}
        #: Objects mid-migration; messages touching them are buffered.
        self._frozen: set = set()
        self._migration_buffer: List[Message] = []
        #: Replies shards address to the router (migration control).
        self._captured: Dict[int, Message] = {}
        #: Modeled per-shard busy horizon (see ``service_time``).
        self.service_time = service_time
        self._busy_until: Dict[str, float] = {}

        self.processed: Counter = Counter()
        self.migrations = 0
        #: What the most recent :meth:`add_shard`/:meth:`remove_shard`
        #: moved (``{"action", "shard", "moved"}``) — the minimal-remap
        #: audit trail the reshard tests assert against.
        self.last_reshard: Dict[str, Any] = {}
        self._transport: Optional[Transport] = None
        #: Observability hooks (disabled stand-in by default).
        self.obs = NULL_OBS

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------

    def _local_link(self, shard_id: str) -> ShardLink:
        """The default link: a ``CosoftServer`` in this process."""
        return LocalShardLink(
            CosoftServer(
                clock=self.clock,
                access=AccessControl(default_allow=self.default_allow),
                admin_users=self.admin_users,
                ack_release=self.ack_release,
                persistence=(
                    self.persistence_config.for_shard(shard_id).build()
                    if self.persistence_config is not None
                    else None
                ),
            ),
            self.codec,
        )

    def _create_shard(self, shard_id: str) -> None:
        """Obtain one shard's link and wire it into the routing tables."""
        link = self._link_factory(shard_id)
        self._links[shard_id] = link
        self.shards[shard_id] = link.shard
        self._shard_stats[shard_id] = link.traffic

    # ------------------------------------------------------------------
    # Wiring (same contract as CosoftServer)
    # ------------------------------------------------------------------

    def bind(self, transport: Transport) -> None:
        """Attach the outward transport the cluster answers clients through."""
        self._transport = transport

    def configure_observability(self, obs) -> None:
        """Enable metrics/tracing on the router and every shard.

        The router's own routing stats and each shard's stats register
        with per-shard labels, so one registry snapshot shows the whole
        cluster broken down by shard.  The router's migrations, pinned
        homes and ``processed`` counts are families of their own; the
        last is not ``repro_server_processed_total`` because most of
        what the router processes a shard processes again (it answers
        roster resyncs itself).
        """
        self.obs = obs
        if obs.enabled:
            self.routing.register_into(obs.registry, endpoint="router")

            def collect():
                from repro.obs.metrics import Sample

                yield Sample(
                    "repro_cluster_migrations_total", "counter",
                    "Couple groups moved between shards", (),
                    self.migrations,
                )
                yield Sample(
                    "repro_cluster_pinned_homes", "gauge",
                    "Objects pinned to a home shard", (), len(self._home),
                )
                for kind, n in sorted(dict(self.processed).items()):
                    yield Sample(
                        "repro_router_processed_total", "counter",
                        "Messages the router processed, by kind",
                        (("kind", kind),), n,
                    )

            obs.registry.register_collector(collect)
        for shard_id in self._links:
            self._observe_shard(shard_id)

    def _observe_shard(self, shard_id: str) -> None:
        obs = self.obs
        link = self._links[shard_id]
        if obs.enabled:
            link.traffic.register_into(obs.registry, shard=shard_id)
        link.configure_observability(obs, shard=shard_id)

    def _emit(self, message: Message) -> None:
        if self._transport is None:
            raise ReproError("cluster has no transport bound")
        self._transport.send(message)

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------

    _MALFORMED = CosoftServer._MALFORMED

    #: Kinds routed to a single shard by group/object/correlation.
    _ROUTED = frozenset(
        {
            kinds.LOCK_REQUEST,
            kinds.EVENT,
            kinds.FETCH_STATE,
            kinds.STATE_REPLY,
            kinds.PUSH_STATE,
            kinds.REMOTE_COPY,
            kinds.RESYNC_REQUEST,
            kinds.HISTORY_PUSH,
            kinds.UNDO_REQUEST,
            kinds.COMMAND,
            kinds.COMMAND_REPLY,
            kinds.ERROR,
        }
    )

    def handle_message(self, message: Message) -> None:
        """Process one inbound client message (sans-I/O entry point)."""
        self.processed[message.kind] += 1
        self._safe_dispatch(message)

    def _safe_dispatch(self, message: Message) -> None:
        try:
            self._dispatch(message)
        except self._MALFORMED as exc:
            self.processed["__rejected__"] += 1
            try:
                self._emit(
                    message.error_reply(SERVER_ID, f"{type(exc).__name__}: {exc}")
                )
            except ReproError:
                pass  # no transport bound / sender unreachable

    def _dispatch(self, message: Message) -> None:
        if self._frozen and self._touches_frozen(message):
            # The group is mid-migration: hold the message and replay it
            # on the new home once the transfer completes.
            self._migration_buffer.append(message)
            self.processed["__buffered__"] += 1
            return
        kind = message.kind
        if kind == kinds.REGISTER:
            self._on_register(message)
        elif kind == kinds.UNREGISTER:
            self._on_unregister(message)
        elif kind == kinds.PERMISSION_SET:
            self._on_permission_set(message)
        elif kind in (kinds.COUPLE, kinds.REMOTE_COUPLE):
            self._on_couple(message)
        elif kind in (kinds.DECOUPLE, kinds.REMOTE_DECOUPLE):
            self._on_decouple(message)
        elif kind == kinds.CLUSTER_STATUS:
            self._on_cluster_status(message)
        elif kind == kinds.CLUSTER_RESHARD:
            self._on_cluster_reshard(message)
        elif kind == kinds.RESYNC_REQUEST and "roster" in message.payload:
            # A gap in the registration deltas, not in an object's state:
            # the router owns the registry, so no shard hears of it.
            answer_roster_resync(
                self._emit, self.registry, message, self.processed
            )
        elif kind == kinds.UNLOCK:
            # To the home of each object the floor's grant named: one
            # shard, unless a migration split the floor since.
            homes = {self._home_of(gid) for gid in self._scoped_gids(message)}
            for shard_id in sorted(homes):
                self._forward(shard_id, message)
        elif kind == kinds.EVENT_ACK:
            # To every shard holding a part of the floor; one without it
            # ignores the ack.
            for shard_id in sorted(self._ack_routes(message)):
                self._forward(shard_id, message)
        elif kind in self._ROUTED:
            shard_id = self._route(message)
            if shard_id is not None:
                self._forward(shard_id, message)
        else:
            self._emit(message.error_reply(SERVER_ID, "unsupported message kind"))

    # ------------------------------------------------------------------
    # Registration / permissions: fan out to every shard
    # ------------------------------------------------------------------

    def _on_register(self, message: Message) -> None:
        def fan_out(record) -> None:
            self._forgotten.discard(record.instance_id)
            for shard_id in self.shard_ids:
                self._forward(shard_id, message, suppress=_REGISTER_SUPPRESS)

        register_instance(
            self._emit, self.registry, self.mirror, message, self.clock,
            self.routing, admitted=fan_out,
        )

    def _on_unregister(self, message: Message) -> None:
        instance_id = message.sender
        self.registry.get(instance_id)  # NotRegisteredError -> ERROR reply
        for shard_id in self.shard_ids:
            # Shards do their own cleanup (couples, locks, floors, routes)
            # and broadcast the removed links; their link sets are disjoint
            # so the COUPLE_UPDATEs pass through without duplication.
            self._forward(shard_id, message, suppress=_UNREGISTER_SUPPRESS)
        self.mirror.remove_instance(instance_id)
        self.acl_mirror.forget_instance(instance_id)
        self._forgotten.add(instance_id)
        self._home = {
            gid: home for gid, home in self._home.items() if gid[0] != instance_id
        }
        for key, awaited in list(self._floor_awaited.items()):
            awaited.discard(instance_id)  # the shards stop awaiting it too
            if key[0] == instance_id or not awaited:
                del self._floor_awaited[key]
                self._floor_routes.pop(key, None)
        self._pending_routes = {
            msg_id: route
            for msg_id, route in self._pending_routes.items()
            if route[1] != instance_id
        }
        self.registry.remove(instance_id)
        announce_left(self._emit, self.registry, instance_id, self.routing)

    def _on_permission_set(self, message: Message) -> None:
        # Every shard enforces ACLs, so the rule lands everywhere; only the
        # first shard's reply (or error) travels back to the client.
        self._absorb_permission_set(message)
        self._forward(self.shard_ids[0], message)
        for shard_id in self.shard_ids[1:]:
            self._forward(shard_id, message, suppress=_SECONDARY_SUPPRESS)

    def _absorb_permission_set(self, message: Message) -> None:
        """Mirror a rule change the shards are about to commit.

        Applies the same admission check the shard handler does (own
        objects, or any for admins) so the mirror never holds a rule the
        shards rejected; malformed payloads fail later in the shard's
        handler, which produces the client-facing error.
        """
        try:
            from repro.server.permissions import PermissionRule

            payload = message.payload
            rule = PermissionRule.from_wire(dict(payload["rule"]))
            user = self.registry.get(message.sender).user
            if user not in self.admin_users and rule.instance_id != message.sender:
                return
            if payload.get("action", "add") == "remove":
                self.acl_mirror.remove(rule)
            else:
                self.acl_mirror.add(rule)
        except self._MALFORMED:
            return

    # ------------------------------------------------------------------
    # Couple links: the only operations that can move a group
    # ------------------------------------------------------------------

    def _on_couple(self, message: Message) -> None:
        payload = message.payload
        source = gid_from_wire(payload["source"])
        target = gid_from_wire(payload["target"])
        home_source = self._home_of(source)
        home_target = self._home_of(target)
        if home_source != home_target:
            # The link merges two groups homed on different shards: move
            # the smaller group (fewer rows to transfer) to the other's
            # home, then apply the couple there.
            group_source = self.mirror.group_of(source)
            group_target = self.mirror.group_of(target)
            if len(group_source) >= len(group_target):
                winner, moving, loser = home_source, group_target, home_target
            else:
                winner, moving, loser = home_target, group_source, home_source
            self._migrate(moving, loser, winner)
        else:
            winner = home_source
        self._forward(winner, message)

    def _on_decouple(self, message: Message) -> None:
        payload = message.payload
        if "object" in payload:
            obj = gid_from_wire(payload["object"])
            prefix = obj[1].rstrip("/") + "/"
            affected = {
                gid
                for gid in self.mirror.objects_of_instance(obj[0])
                if gid[1] == obj[1] or gid[1].startswith(prefix)
            }
            shard_ids = sorted({self._home_of(gid) for gid in affected})
            if not shard_ids:
                # Nothing coupled below the path: one shard produces the
                # noop confirmation (or the strict-mode error).
                shard_ids = [self._home_of(obj)]
        else:
            source = gid_from_wire(payload["source"])
            target = gid_from_wire(payload["target"])
            shard_ids = [
                self._home.get(source)
                or self._home.get(target)
                or self._ring_home(source)
            ]
        for shard_id in shard_ids:
            self._forward(shard_id, message)

    # ------------------------------------------------------------------
    # Single-shard routing
    # ------------------------------------------------------------------

    def _route(self, message: Message) -> Optional[str]:
        """The shard a routed-kind message belongs to (None = drop)."""
        kind = message.kind
        if kind in (kinds.STATE_REPLY, kinds.ERROR):
            route = self._pending_routes.pop(message.reply_to or -1, None)
            if route is None:
                return None  # late or duplicate reply; drop like the server
            return route[0]
        if kind in (kinds.COMMAND, kinds.COMMAND_REPLY):
            # Stateless relays: any shard can serve them (all hold the full
            # registry); hash the sender to spread the load.
            return self.ring.node_for(message.sender)
        # The rest belong to the home of the first object they name.
        return self._home_of(self._scoped_gids(message)[0])

    def _ack_routes(self, message: Message) -> Set[str]:
        """The shards an EVENT_ACK goes to; the route is forgotten with
        the floor's last expected ack."""
        owner = message.payload.get("owner")
        if not owner:
            return set()
        key = (str(owner[0]), int(owner[1]))
        shard_ids = self._floor_routes.get(key)
        if shard_ids is None:
            return set()  # late ack for a floor already gone
        awaited = self._floor_awaited[key]
        awaited.discard(message.sender)
        if not awaited:
            del self._floor_routes[key], self._floor_awaited[key]
        return shard_ids

    @property
    def _floor_expected(self) -> Dict[Tuple[str, int], int]:
        """Outstanding EVENT_ACKs per floor."""
        return {key: len(awaited) for key, awaited in self._floor_awaited.items()}

    def _home_of(self, gid: GlobalId) -> str:
        home = self._home.get(gid)
        return home if home is not None else self._ring_home(gid)

    def _ring_home(self, gid: GlobalId) -> str:
        return self.ring.node_for(f"{gid[0]}:{gid[1]}")

    # ------------------------------------------------------------------
    # Shard invocation
    # ------------------------------------------------------------------

    def _forward(
        self,
        shard_id: str,
        message: Message,
        suppress: Optional[FrozenSet[str]] = None,
    ) -> None:
        link = self._links[shard_id]
        link.traffic.record(message, self.codec.wire_size(message), shard_id)
        self._model_service(shard_id)
        # One routing hop per traced message, regardless of shard count
        # — parity tests rely on the trees being identical for 1, 2 or
        # 4 shards; the shard's receive span nests under it.
        with obs_tracing.hop(
            self.obs, obs_tracing.CLUSTER_ROUTE, message,
            endpoint=ROUTER_ID, shard=shard_id, kind=message.kind,
        ) as message:
            for out in link.call(message, suppress):
                self._on_shard_send(shard_id, out)

    def _on_shard_send(self, shard_id: str, message: Message) -> None:
        """Every message a shard link returns funnels through here."""
        if message.to == ROUTER_ID:
            if message.reply_to is not None:
                self._captured[message.reply_to] = message
            return
        if message.kind == kinds.COUPLE_UPDATE:
            self._absorb_couple_update(shard_id, message.payload)
        elif message.kind == kinds.FETCH_STATE:
            self._pending_routes[message.msg_id] = (shard_id, message.to)
        elif message.kind == kinds.EVENT_BROADCAST:
            owner = message.payload.get("owner")
            if owner:
                key = (str(owner[0]), int(owner[1]))
                self._floor_routes.setdefault(key, set()).add(shard_id)
                self._floor_awaited.setdefault(key, set()).add(message.to)
        self._emit(message)

    def _absorb_couple_update(self, shard_id: str, payload: Mapping[str, Any]) -> None:
        """Track shard-committed couple changes in the router's mirror.

        The same update arrives once per addressee (reply + group cast),
        a merging add in per-side variants that each carry only the other
        side's links; the mirror operations are idempotent, exactly as on
        clients, and the mirror — owned by no instance — forgets nothing.
        """
        link = coupling.apply_couple_update(self.mirror, payload)
        if link is None:
            return
        if payload.get("action") == "add":
            # The emitting shard owns the (possibly merged) group now.
            for gid in self.mirror.group_of(link.source):
                self._home[gid] = shard_id
        else:
            for endpoint in (link.source, link.target):
                if len(self.mirror.group_of(endpoint)) > 1:
                    continue
                # Back to a singleton: drop the pin unless the object's
                # state (history, locks) lives away from its ring home.
                if self._home.get(endpoint) == self._ring_home(endpoint):
                    del self._home[endpoint]

    # ------------------------------------------------------------------
    # Group migration
    # ------------------------------------------------------------------

    def _migrate(
        self, objects: Iterable[GlobalId], from_shard: str, to_shard: str
    ) -> None:
        """Move a couple group (and everything it owns) between shards."""
        moving = frozenset(objects)
        self.migrations += 1
        self._frozen.update(moving)
        try:
            export = Message(
                kind=kinds.MIGRATE_EXPORT,
                sender=ROUTER_ID,
                payload={"objects": [gid_to_wire(g) for g in sorted(moving)]},
            )
            state = self._shard_request(from_shard, export, kinds.MIGRATE_STATE)
            install = Message(
                kind=kinds.MIGRATE_IMPORT,
                sender=ROUTER_ID,
                payload=dict(state.payload),
            )
            self._shard_request(to_shard, install, kinds.MIGRATE_ACK)
            for gid in moving:
                self._home[gid] = to_shard
            # The source may keep a part of a moved floor: its acks now
            # go to both.
            for floor in map(Floor.from_wire, state.payload.get("floors", ())):
                if floor.key in self._floor_routes:
                    self._floor_routes[floor.key].add(to_shard)
            # Both journals observed the move (EXPORT on the source,
            # IMPORT on the target); stamp the new routing epoch so
            # their next snapshots record which era they belong to.
            for shard_id in (from_shard, to_shard):
                self._links[shard_id].mark_epoch(self.migrations)
        finally:
            self._frozen.difference_update(moving)
            self._drain_buffer()

    def _shard_request(
        self, shard_id: str, message: Message, expect: str
    ) -> Message:
        """Synchronously ask a shard and return its captured reply."""
        self._forward(shard_id, message)
        reply = self._captured.pop(message.msg_id, None)
        if reply is None or reply.kind != expect:
            detail = reply.payload.get("reason") if reply is not None else "no reply"
            raise ReproError(
                f"shard {shard_id!r} failed {message.kind}: {detail}"
            )
        return reply

    def _touches_frozen(self, message: Message) -> bool:
        """Whether *message* addresses an object that is mid-migration."""
        try:
            gids = self._scoped_gids(message)
        except (KeyError, ValueError, TypeError):
            return False  # malformed payloads fail in the normal dispatch path
        return any(gid in self._frozen for gid in gids)

    @staticmethod
    def _scoped_gids(message: Message) -> Tuple[GlobalId, ...]:
        """The objects *message* names, the one it routes by first.

        The one statement of which payload field scopes each kind;
        raises on a payload missing it, ``()`` for a kind scoped by no
        object.
        """
        payload = message.payload
        kind = message.kind
        if kind in (kinds.COUPLE, kinds.REMOTE_COUPLE,
                    kinds.DECOUPLE, kinds.REMOTE_DECOUPLE):
            if "object" in payload:
                return (gid_from_wire(payload["object"]),)
            return (
                gid_from_wire(payload["source"]),
                gid_from_wire(payload["target"]),
            )
        if kind == kinds.LOCK_REQUEST:
            return (gid_from_wire(payload["source"]),)
        if kind == kinds.UNLOCK:
            objects = payload.get("objects") or ()
            return tuple(gid_from_wire(g) for g in objects)
        if kind == kinds.EVENT:
            event_wire = dict(payload.get("event", {}))
            return ((
                str(event_wire.get("instance_id", message.sender)),
                str(event_wire.get("source_path", "")),
            ),)
        if kind in (kinds.FETCH_STATE, kinds.HISTORY_PUSH,
                    kinds.UNDO_REQUEST, kinds.RESYNC_REQUEST):
            return (gid_from_wire(payload["object"]),)
        if kind == kinds.PUSH_STATE:
            return (gid_from_wire(payload["target"]),)
        if kind == kinds.REMOTE_COPY:
            return (
                gid_from_wire(payload["source"]),
                gid_from_wire(payload["target"]),
            )
        return ()

    def _drain_buffer(self) -> None:
        if self._frozen or not self._migration_buffer:
            return
        pending, self._migration_buffer = self._migration_buffer, []
        for message in pending:
            self._safe_dispatch(message)

    # ------------------------------------------------------------------
    # Live resharding (docs/CLUSTER.md)
    # ------------------------------------------------------------------

    @staticmethod
    def _group_key(group: Iterable[GlobalId]) -> str:
        """The ring key a stateful group hashes under: its least member.

        Matches :meth:`_ring_home` for singletons, so an unpinned object
        reshards exactly where its live routing would send it.
        """
        gid = min(group)
        return f"{gid[0]}:{gid[1]}"

    def _shard_inventory(self, shard_id: str) -> List[List[GlobalId]]:
        """Ask one shard for its stateful groups (SHARD_INVENTORY)."""
        survey = Message(
            kind=kinds.SHARD_INVENTORY, sender=ROUTER_ID, payload={}
        )
        reply = self._shard_request(
            shard_id, survey, kinds.SHARD_INVENTORY_REPLY
        )
        return [
            [gid_from_wire(g) for g in group]
            for group in reply.payload.get("groups", ())
        ]

    def _bootstrap_shard(self, shard_id: str) -> None:
        """Ship the roster, ACL table and history tombstones to a freshly
        added shard, in the snapshot's keys."""
        self._forward(
            shard_id,
            Message(
                kind=kinds.SHARD_SYNC,
                sender=ROUTER_ID,
                payload={
                    "registry": self.registry.roster(),
                    "registry_version": self.registry.version,
                    "access": self.acl_mirror.export_state(),
                    "history": {"objects": [], "forgotten": sorted(self._forgotten)},
                },
            ),
        )

    def _next_shard_id(self) -> str:
        n = len(self.shards)
        while f"shard-{n}" in self.shards:
            n += 1
        return f"shard-{n}"

    def add_shard(self, shard_id: Optional[str] = None) -> str:
        """Grow the ring by one shard, live, with minimal group movement.

        The new shard is built, bootstrapped (roster + ACLs via
        SHARD_SYNC), and receives exactly the stateful groups whose ring
        ownership the added node takes over — consistent hashing keeps
        that to ~1/N of the keyspace, and pinned groups that already
        live away from their ring home do not move at all.  Returns the
        new shard id; the move list lands in :attr:`last_reshard`.
        """
        shard_id = shard_id or self._next_shard_id()
        if shard_id in self.shards:
            raise ValueError(f"shard {shard_id!r} already exists")
        self._create_shard(shard_id)
        self._observe_shard(shard_id)
        self._bootstrap_shard(shard_id)
        new_ring = HashRing(self.shard_ids + (shard_id,))
        moves: List[Tuple[List[GlobalId], str, str]] = []
        for sid in self.shard_ids:
            for group in self._shard_inventory(sid):
                key = self._group_key(group)
                if (
                    self.ring.node_for(key) != new_ring.node_for(key)
                    and new_ring.node_for(key) == shard_id
                ):
                    moves.append((group, sid, shard_id))
        self.shard_ids = self.shard_ids + (shard_id,)
        self.ring = new_ring
        for group, from_shard, to_shard in moves:
            self._migrate(group, from_shard, to_shard)
        self.last_reshard = {
            "action": "add",
            "shard": shard_id,
            "moved": [sorted(group) for group, _, _ in moves],
        }
        return shard_id

    def remove_shard(self, shard_id: str) -> List[List[GlobalId]]:
        """Drain a shard and retire it, live.

        Every stateful group on the leaving shard is handed off to its
        new ring home, then the shard is retired.  Traffic arriving during
        the handoff queues behind it (the router is single-threaded per
        message) and replays against the new homes.  Returns the moved
        groups.
        """
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id!r}")
        if len(self.shards) <= 1:
            raise ReproError("cannot remove the last shard")
        survivors = tuple(s for s in self.shard_ids if s != shard_id)
        new_ring = HashRing(survivors)
        inventory = self._shard_inventory(shard_id)
        moves: List[Tuple[List[GlobalId], str]] = [
            (group, new_ring.node_for(self._group_key(group)))
            for group in inventory
        ]
        for group, target in moves:
            self._migrate(group, shard_id, target)
        self.shard_ids = survivors
        self.ring = new_ring
        # Migration rewired the routes of everything stateful; scrub the
        # residue (ack routes, in-flight fetch correlations) so
        # nothing still points at the retired shard.
        for gid in [g for g, h in self._home.items() if h == shard_id]:
            del self._home[gid]
        for shard_ids in self._floor_routes.values():
            shard_ids.discard(shard_id)
        self._pending_routes = {
            msg_id: route
            for msg_id, route in self._pending_routes.items()
            if route[0] != shard_id
        }
        del self.shards[shard_id]
        del self._shard_stats[shard_id]
        self._links.pop(shard_id).close()
        self.last_reshard = {
            "action": "remove",
            "shard": shard_id,
            "moved": [sorted(group) for group, _ in moves],
        }
        return [sorted(group) for group, _ in moves]

    def rebuild_from_shards(self) -> None:
        """Derive the router's books from its shards' databases (crash
        recovery, :func:`repro.persist.recover_cluster`).

        One authoritative pass instead of trusting replay side effects:
        the mirror couple table and sticky home pins come from each
        shard's couple/lock/floor/history holdings, the roster with its
        version, the ACL mirror and the history tombstones from the
        shard replicas (every shard holds them in full), and the
        EVENT_ACK route of each floor awaiting acks, as the live router
        books it: every shard holding a part, expecting one ack per
        receiver any part still awaits.  An UNLOCK needs no route: it
        goes to its objects' homes.
        """
        self.mirror = CoupleTable()
        self._home = {}
        self._floor_routes = {}
        self._pending_routes = {}
        awaited: Dict[Tuple[str, int], Set[str]] = {}
        for shard_id, shard in self.shards.items():
            for link in shard.couples.links():
                self.mirror.add_link(link)
                for gid in (link.source, link.target):
                    self._home[gid] = shard_id
            for obj in shard.locks.locked_objects():
                self._home[obj] = shard_id
            for key, floor in shard.locks.floors.items():
                if floor.pending_acks:
                    self._floor_routes.setdefault(key, set()).add(shard_id)
                    awaited.setdefault(key, set()).update(floor.pending_acks)
                for gid in floor.objects:
                    self._home[gid] = shard_id
            for obj in shard.history.objects():
                self._home[obj] = shard_id
        self._floor_awaited = awaited
        for shard in self.shards.values():
            # Every shard replicates the full roster with its version, the
            # ACL table and the history tombstones; one suffices.
            self.registry.restore(shard.registry.records(), shard.registry.version)
            self.acl_mirror.import_state(shard.access.export_state())
            self._forgotten = set(shard.history.forgotten_instances())
            break
        # Drop pins that merely restate the ring assignment — the live
        # router only pins what moved away from (or beyond) its ring home.
        for gid, home in list(self._home.items()):
            shard = self.shards[home]
            if (
                len(self.mirror.group_of(gid)) <= 1
                and home == self._ring_home(gid)
                and shard.history.depth(gid) == (0, 0)
                and shard.locks.holder(gid) is None
            ):
                del self._home[gid]

    # ------------------------------------------------------------------
    # Cluster administration (operator CLI; docs/CLUSTER.md)
    # ------------------------------------------------------------------

    def cluster_status(self) -> Dict[str, Any]:
        """The CLUSTER_STATUS_REPLY payload (also handy for tests)."""
        stats = self.stats()
        status: Dict[str, Any] = {
            "shards": list(self.shard_ids),
            "loads": {
                shard_id: shard["messages"]
                for shard_id, shard in stats["per_shard"].items()
            },
        }
        for key in ("migrations", "registered", "couple_groups", "homes"):
            status[key] = stats[key]
        processes = {
            shard_id: facts
            for shard_id, link in self._links.items()
            if (facts := link.status())
        }
        if processes:
            status["processes"] = processes
        return status

    def _on_cluster_status(self, message: Message) -> None:
        self._emit(
            message.reply(
                kinds.CLUSTER_STATUS_REPLY, SERVER_ID, **self.cluster_status()
            )
        )

    def _on_cluster_reshard(self, message: Message) -> None:
        payload = message.payload
        action = payload.get("action")
        if action == "add":
            shard_id = self.add_shard(str(payload.get("shard") or "") or None)
        elif action == "remove":
            shard_id = str(payload["shard"])
            self.remove_shard(shard_id)
        else:
            raise ValueError(f"unknown reshard action {action!r}")
        self._emit(
            message.reply(
                kinds.CLUSTER_RESHARD_REPLY,
                SERVER_ID,
                action=action,
                shard=shard_id,
                shards=list(self.shard_ids),
                moved=self.last_reshard["moved"],
            )
        )

    # ------------------------------------------------------------------
    # Modeled parallelism (benchmarks)
    # ------------------------------------------------------------------

    def _model_service(self, shard_id: str) -> None:
        if not self.service_time:
            return
        start = max(self.clock.now(), self._busy_until.get(shard_id, 0.0))
        self._busy_until[shard_id] = start + self.service_time

    def modeled_makespan(self) -> float:
        """When the busiest shard finishes its (modeled) serial work.

        Only meaningful with a non-zero ``service_time``: each message a
        shard handles occupies it for that long, so the makespan shrinks
        as load spreads over more shards.
        """
        return max(self._busy_until.values(), default=0.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def shard_of(self, gid: GlobalId) -> str:
        """The shard currently owning *gid*'s couple group."""
        return self._home_of(gid)

    def shard_traffic(self) -> TrafficStats:
        """All shard transports aggregated into one cluster-wide snapshot."""
        total = TrafficStats()
        for stats in self._shard_stats.values():
            total.merge(stats)
        return total

    def reset_shard_traffic(self) -> None:
        for stats in self._shard_stats.values():
            stats.reset()

    def stats(self) -> Dict[str, Any]:
        """Operational counters, cluster-wide and per shard."""
        routing = Counter(self.routing.snapshot())
        for link in self._links.values():
            routing.update(link.routing_snapshot())
        return {
            "shards": len(self.shards),
            "migrations": self.migrations,
            "registered": len(self.registry),
            "couple_links": len(self.mirror),
            "couple_groups": self.mirror.group_count(),
            "homes": len(self._home),
            "processed": dict(self.processed),
            "routing": dict(routing),
            "per_shard": {
                shard_id: {"messages": link.traffic.messages, **link.stats()}
                for shard_id, link in self._links.items()
            },
        }
