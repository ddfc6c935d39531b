"""The central COSOFT server (Figure 4).

"A central controller (the server) coordinates the communication and access
control.  A centralized database residing on the server consists of four
categories of data: the access permissions, the registration records, the
historical UI states, and the lock table." (§2.2)

The server is a **sans-I/O state machine**: :meth:`CosoftServer.handle_message`
consumes one decoded :class:`~repro.net.message.Message` and emits messages
through the bound transport.  It never blocks and holds no threads of its
own, so the same class runs on the deterministic in-memory network and on
TCP.

Responsibilities per the paper:

* registration records (join/leave, one roster delta per change);
* the couple table with transitive-closure groups, replicated inside
  each group: a COUPLE_UPDATE reaches the instances holding a member of
  the affected group (§3.2);
* the floor-control lock table serializing events per couple group (§3.2);
* relaying and broadcasting UI events for multiple execution (§3.2);
* mediating synchronization by state — CopyFrom/CopyTo/RemoteCopy (§3.1);
* historical UI states with undo/redo (§2.2);
* access permissions (§2.2);
* the application-defined command channel, "directly handled by our
  communication server" (§3.4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import NoSuchCoupleError, ReproError
from repro.net import kinds
from repro.net.clock import Clock, SimClock
from repro.net.message import Message
from repro.net.transport import ROUTER_ID, SERVER_ID, Transport
from repro.obs import NULL_OBS
from repro.obs import tracing as obs_tracing
from repro.persist.snapshot import restore_state
from repro.server.couples import (
    CoupleLink,
    CoupleTable,
    GlobalId,
    gid_from_wire,
    gid_to_wire,
)
from repro.server.history import HistoricalState, HistoryStore
from repro.server.locks import Floor, LockOwner, LockTable
from repro.server.permissions import (
    COUPLE,
    READ,
    WRITE,
    AccessControl,
    PermissionRule,
)
from repro.server.registry import RegistrationRecord, Registry
from repro.server.routing import (
    RoutingStats,
    announce_left,
    answer_roster_resync,
    broadcast,
    register_instance,
)

# SERVER_ID historically lived here; it is now defined once in
# ``repro.net.transport`` (the wire layer also needs it) and re-exported
# for the many existing importers.
__all__ = ["SERVER_ID", "CosoftServer"]

#: Seconds a floor may be held before a competing lock request may
#: reclaim it (:attr:`CosoftServer.floor_lease`).
FLOOR_LEASE = 30.0

#: The :meth:`CosoftServer.stats` counts a scrape exports as gauges:
#: ``(stats key, family, help)``.
_DATABASE_GAUGES = (
    ("registered", "repro_server_registered_instances",
     "Instances currently registered"),
    ("permission_rules", "repro_server_permission_rules",
     "Access permission rules in force"),
    ("couple_links", "repro_server_couple_links", "Couple links"),
    ("couple_groups", "repro_server_couple_groups",
     "Couple groups of two or more objects"),
    ("locks_held", "repro_server_locks_held", "Objects currently locked"),
    ("floors_held", "repro_server_floors_held", "Floors currently granted"),
    ("history_entries", "repro_server_history_entries",
     "Historical UI states kept for undo"),
)


@dataclass
class _PendingRoute:
    """Book-keeping for a request the server forwarded on a client's behalf."""

    requester: str
    requester_msg_id: int
    purpose: str                      # "copy_from" | "remote_copy"
    forward_to: str = ""               # the owner the fetch was sent to
    target: Optional[GlobalId] = None  # remote-copy final destination
    mode: str = "strict"


def _event_wire(raw: Any) -> Dict[str, Any]:
    """The event a client shipped, checked for what every receiver's
    ``Event.from_wire`` needs — a receiver that cannot parse it never
    acknowledges, and the floor would wait out its lease."""
    event_wire = dict(raw)
    if not isinstance(event_wire["type"], str):
        raise ValueError("event type must be a string")
    if not isinstance(event_wire["source_path"], str):
        raise ValueError("event source_path must be a string")
    if not isinstance(event_wire.get("params", {}), Mapping):
        raise ValueError("event params must be a mapping")
    return event_wire


class CosoftServer:
    """The central controller of the fully replicated COSOFT architecture."""

    def __init__(
        self,
        *,
        clock: Optional[Clock] = None,
        access: Optional[AccessControl] = None,
        admin_users: Tuple[str, ...] = (),
        ack_release: bool = True,
        persistence: Optional[Any] = None,
    ):
        self.clock: Clock = clock if clock is not None else SimClock()
        self.registry = Registry()
        self.couples = CoupleTable()
        self.locks = LockTable()
        self.history = HistoryStore()
        self.access = access if access is not None else AccessControl()
        self.admin_users = set(admin_users)
        #: Maximum age of a floor before a competing lock request may
        #: forcibly reclaim it (protects liveness against a receiver that
        #: never acknowledges, e.g. because it was partitioned away).
        self.floor_lease = FLOOR_LEASE
        #: Hold floors until receivers acknowledge re-execution (the
        #: correct reading of §3.2).  ``False`` releases on broadcast —
        #: kept only for the ablation benchmark, which shows that mode
        #: diverges under contention.
        self.ack_release = ack_release
        #: Delivery decisions of the interest-aware routing layer.
        self.routing = RoutingStats()
        self._pending: Dict[int, _PendingRoute] = {}
        self.processed: Counter = Counter()
        self._transport: Optional[Transport] = None
        #: Event-sourced journal (:class:`repro.persist.Persistence`), or
        #: ``None`` — the default — which keeps the hot path at one
        #: attribute check (docs/PERSISTENCE.md).
        self.persistence = persistence
        #: Observability hooks (disabled stand-in by default; see
        #: :meth:`configure_observability`).
        self.obs = NULL_OBS
        #: Span of the message currently being handled (tracing only).
        self._active_span = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind(self, transport: Transport) -> None:
        """Attach the transport this server sends through."""
        self._transport = transport

    def configure_observability(self, obs, **labels: str) -> None:
        """Enable metrics/tracing for this server.

        Registers the routing and lock-table stats and the §2.2 database
        counts of :meth:`stats` as pull-time collectors of *obs*'s
        registry (labelled, so a sharded cluster can distinguish its
        shards) and arms span recording in :meth:`handle_message`.
        """
        self.obs = obs
        if obs.enabled:
            self.routing.register_into(obs.registry, **labels)
            self.locks.stats.register_into(obs.registry, **labels)
            if self.persistence is not None:
                self.persistence.register_into(obs.registry, **labels)
            base = tuple(sorted(labels.items()))

            def collect():
                from repro.obs.metrics import Sample

                stats = self.stats()
                for key, name, help_text in _DATABASE_GAUGES:
                    yield Sample(name, "gauge", help_text, base, stats[key])
                for kind, n in sorted(stats["processed"].items()):
                    yield Sample(
                        "repro_server_processed_total", "counter",
                        "Messages processed, by kind",
                        base + (("kind", kind),), n,
                    )

            obs.registry.register_collector(collect)

    def _send(self, message: Message) -> None:
        if self._transport is None:
            raise ReproError("server has no transport bound")
        self._transport.send(message)

    def _broadcast(
        self,
        kind: str,
        payload: Mapping[str, Any],
        *,
        exclude: Tuple[str, ...] = (),
        audience: Optional[Iterable[str]] = None,
        payload_for: Optional[Mapping[str, Mapping[str, Any]]] = None,
    ) -> int:
        """Send *payload* to every registered instance except *exclude*.

        With *audience* (instance ids from the couple table's interest
        index) the delivery is scoped to registered audience members —
        see :mod:`repro.server.routing`, shared with the cluster router.
        """
        return broadcast(
            self._send,
            self.registry.instance_ids(),
            kind,
            payload,
            exclude=exclude,
            audience=audience,
            payload_for=payload_for,
            stats=self.routing,
        )

    def _cast_couple_update(
        self,
        request: Message,
        update: Mapping[str, Any],
        audience: Iterable[str],
        payload_for: Mapping[str, Mapping[str, Any]],
    ) -> None:
        """Correlated reply to the requester, interest cast to the rest.

        *audience* is the instances holding a member of the affected
        group — for removals the *pre-removal* group, since whoever is
        split off must learn about the split.  The requester always gets
        its reply, member or not (a third-party ``remote_couple``).
        """
        self._send(
            Message(
                kind=kinds.COUPLE_UPDATE,
                sender=SERVER_ID,
                to=request.sender,
                payload=payload_for.get(request.sender, update),
                reply_to=request.msg_id,
            )
        )
        self._broadcast(
            kinds.COUPLE_UPDATE,
            update,
            exclude=(request.sender,),
            audience=audience,
            payload_for=payload_for,
        )

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    _HANDLERS: Dict[str, str] = {
        kinds.REGISTER: "_on_register",
        kinds.UNREGISTER: "_on_unregister",
        kinds.COUPLE: "_on_couple",
        kinds.REMOTE_COUPLE: "_on_couple",
        kinds.DECOUPLE: "_on_decouple",
        kinds.REMOTE_DECOUPLE: "_on_decouple",
        kinds.LOCK_REQUEST: "_on_lock_request",
        kinds.UNLOCK: "_on_unlock",
        kinds.EVENT: "_on_event",
        kinds.EVENT_ACK: "_on_event_ack",
        kinds.FETCH_STATE: "_on_fetch_state",
        kinds.STATE_REPLY: "_on_state_reply",
        kinds.PUSH_STATE: "_on_push_state",
        kinds.REMOTE_COPY: "_on_remote_copy",
        kinds.RESYNC_REQUEST: "_on_resync_request",
        kinds.HISTORY_PUSH: "_on_history_push",
        kinds.UNDO_REQUEST: "_on_undo_request",
        kinds.COMMAND: "_on_command",
        kinds.COMMAND_REPLY: "_on_command_reply",
        kinds.PERMISSION_SET: "_on_permission_set",
        kinds.ERROR: "_on_client_error",
        kinds.MIGRATE_EXPORT: "_on_migrate_export",
        kinds.MIGRATE_IMPORT: "_on_migrate_import",
        kinds.SHARD_SYNC: "_on_shard_sync",
        kinds.SHARD_INVENTORY: "_on_shard_inventory",
    }

    #: Kinds that mutate the server database and therefore go to the op
    #: log (when persistence is on).  Pure relays — FETCH_STATE,
    #: PUSH_STATE, COMMAND, … — change nothing durable and stay out, so
    #: replay is exactly "re-apply every state-changing operation".
    _JOURNALED = frozenset(
        {
            kinds.REGISTER,
            kinds.UNREGISTER,
            kinds.COUPLE,
            kinds.REMOTE_COUPLE,
            kinds.DECOUPLE,
            kinds.REMOTE_DECOUPLE,
            kinds.LOCK_REQUEST,
            kinds.UNLOCK,
            kinds.EVENT,
            kinds.EVENT_ACK,
            kinds.HISTORY_PUSH,
            kinds.UNDO_REQUEST,
            kinds.PERMISSION_SET,
            kinds.MIGRATE_EXPORT,
            kinds.MIGRATE_IMPORT,
            kinds.SHARD_SYNC,
        }
    )

    #: Exception classes a malformed payload can trigger inside a handler;
    #: they become ERROR replies instead of killing the server.  Anything
    #: else is a genuine bug and propagates.
    _MALFORMED = (ReproError, KeyError, ValueError, TypeError, AttributeError,
                  IndexError)

    #: Span name for a traced inbound message, by kind (tracing).
    _RECEIVE_SPANS: Dict[str, str] = {
        kinds.LOCK_REQUEST: obs_tracing.SERVER_LOCK,
        kinds.EVENT: obs_tracing.SERVER_RECEIVE,
        kinds.EVENT_ACK: obs_tracing.SERVER_ACK,
    }

    def handle_message(self, message: Message) -> None:
        """Process one inbound message; errors become ERROR replies.

        The server must survive any payload a (buggy or malicious) client
        sends: handler failures on malformed data are answered with an
        ERROR reply and counted, never raised.

        A message carrying trace context opens a receive span for the
        duration of its handler; :meth:`_broadcast_event` hangs the
        broadcast span off it (see :mod:`repro.obs.tracing`).
        """
        self.processed[message.kind] += 1
        obs = self.obs
        span = None
        if obs.tracing and message.trace is not None:
            span = obs.spans.start(
                self._RECEIVE_SPANS.get(message.kind, "server.receive"),
                trace_id=message.trace[0],
                parent_id=message.trace[1],
                endpoint=SERVER_ID,
                kind=message.kind,
                sender=message.sender,
            )
            self._active_span = span
        try:
            handler_name = self._HANDLERS.get(message.kind)
            if handler_name is None:
                self._send(
                    message.error_reply(SERVER_ID, "unsupported message kind")
                )
                return
            try:
                getattr(self, handler_name)(message)
            except self._MALFORMED as exc:
                self.processed["__rejected__"] += 1
                try:
                    self._send(
                        message.error_reply(
                            SERVER_ID, f"{type(exc).__name__}: {exc}"
                        )
                    )
                except ReproError:
                    pass  # no transport bound / sender unreachable
            else:
                # Journal the operation only after its handler succeeded:
                # the log then holds exactly the messages that mutated
                # the database, in application order, and a replay of
                # the log is byte-for-byte the same handler sequence.
                persist = self.persistence
                if persist is not None and message.kind in self._JOURNALED:
                    persist.record(self, message)
        finally:
            if span is not None:
                obs.spans.finish(span)
                self._active_span = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _require_registered(self, instance_id: str) -> RegistrationRecord:
        return self.registry.get(instance_id)

    def _user_of(self, instance_id: str) -> str:
        return self.registry.get(instance_id).user

    def _on_register(self, message: Message) -> None:
        register_instance(
            self._send, self.registry, self.couples, message, self.clock,
            self.routing,
            # A returning instance starts a fresh history: lift the
            # tombstone :meth:`HistoryStore.forget_instance` left.
            admitted=lambda record: self.history.revive_instance(
                record.instance_id
            ),
        )

    def _on_unregister(self, message: Message) -> None:
        instance_id = message.sender
        self._require_registered(instance_id)
        # "The decoupling algorithm is applied automatically when ... an
        # application instance terminates" (§3.2).
        unregister_audience: set = set()
        for coupled in self.couples.objects_of_instance(instance_id):
            unregister_audience.update(self.couples.group_instances(coupled))
        removed = self.couples.remove_instance(instance_id)
        for floor in self.locks.release_instance(instance_id):
            self._floor_released(floor)
        self.history.forget_instance(instance_id)
        self.access.forget_instance(instance_id)
        # Requests forwarded to the departing instance can never be
        # answered: fail them back to their requesters now instead of
        # leaking the route (and leaving the requester to time out).
        for msg_id, route in list(self._pending.items()):
            if route.forward_to != instance_id:
                continue
            del self._pending[msg_id]
            if route.requester in self.registry:
                self._send(
                    Message(
                        kind=kinds.ERROR,
                        sender=SERVER_ID,
                        to=route.requester,
                        payload={
                            "reason": f"instance {instance_id!r} left before "
                                      "answering",
                        },
                        reply_to=route.requester_msg_id,
                    )
                )
        self.registry.remove(instance_id)
        for link in removed:
            self._broadcast(
                kinds.COUPLE_UPDATE,
                {"action": "remove", "link": link.to_wire(), "cause": "unregister"},
                audience=unregister_audience,
            )
        announce_left(self._send, self.registry, instance_id, self.routing)

    # ------------------------------------------------------------------
    # Couple links
    # ------------------------------------------------------------------

    def _on_couple(self, message: Message) -> None:
        payload = message.payload
        self._require_registered(message.sender)
        source = gid_from_wire(payload["source"])
        target = gid_from_wire(payload["target"])
        user = self._user_of(message.sender)
        for endpoint in (source, target):
            if endpoint[0] not in self.registry:
                self._send(
                    message.error_reply(
                        SERVER_ID, f"instance {endpoint[0]!r} is not registered"
                    )
                )
                return
            if not self.access.check(user, endpoint, COUPLE):
                self._send(
                    message.error_reply(
                        SERVER_ID,
                        f"user {user!r} may not couple {endpoint[0]}:{endpoint[1]}",
                    )
                )
                return
        link = CoupleLink(source=source, target=target, creator=message.sender)
        couples = self.couples
        # A link between two groups merges them.  A side's instances have
        # never seen the other side's links: while the two are still
        # apart, note the joiners of each side (the other side's
        # instances that are not on it already) and, only where there are
        # any, the links they have to be told.
        told: List[Tuple[frozenset, List[CoupleLink]]] = []
        if target not in couples.group_of(source):
            near = couples.group_instances(source)
            far = couples.group_instances(target)
            told = [
                (joiners, couples.links_of_group(end))
                for joiners, end in ((far - near, source), (near - far, target))
                if joiners
            ]
        added = couples.add_link(link)
        update = {
            "action": "add",
            "link": link.to_wire(),
            "already_existed": not added,
        }
        # Joiners get the other side's history; an instance on both sides
        # knows it all.  At most two extra payloads, each serialised once.
        joined: Dict[str, Dict[str, Any]] = {}
        for joiners, history in told:
            if history:
                extended = dict(update, links=[l.to_wire() for l in history])
                joined.update(dict.fromkeys(joiners, extended))
        # The closure goes to the requester alone: replicas compute it
        # from the links, but a third-party requester holds no replica
        # of this group.
        joined[message.sender] = dict(
            joined.get(message.sender, update),
            group=[gid_to_wire(g) for g in sorted(couples.group_of(source))],
        )
        self._cast_couple_update(
            message, update, couples.group_instances(source), joined
        )

    def _on_decouple(self, message: Message) -> None:
        payload = message.payload
        self._require_registered(message.sender)
        # Pre-removal groups: who must learn about the split.
        audience: set = set()
        if "object" in payload:
            # Subtree decouple: widget destroyed or whole object withdrawn.
            obj = gid_from_wire(payload["object"])
            prefix = obj[1].rstrip("/") + "/"
            for coupled in self.couples.objects_of_instance(obj[0]):
                if coupled[1] == obj[1] or coupled[1].startswith(prefix):
                    audience.update(self.couples.group_instances(coupled))
            removed = self.couples.remove_subtree(obj[0], obj[1])
            if not removed and payload.get("strict", False):
                raise NoSuchCoupleError(f"no couple links under {obj}")
        else:
            source = gid_from_wire(payload["source"])
            target = gid_from_wire(payload["target"])
            audience.update(self.couples.group_instances(source))
            audience.update(self.couples.group_instances(target))
            removed = self.couples.remove_link(source, target)
        for link in removed:
            update = {"action": "remove", "link": link.to_wire(), "cause": "decouple"}
            self._cast_couple_update(message, update, audience, {})
        if not removed:
            # Nothing to remove: still confirm so the requester unblocks.
            self._send(
                message.reply(
                    kinds.COUPLE_UPDATE, SERVER_ID, action="noop", link=None
                )
            )

    # ------------------------------------------------------------------
    # Floor control
    # ------------------------------------------------------------------

    @property
    def floors(self) -> Dict[Tuple[str, int], Floor]:
        """The granted floors (read-only; :attr:`locks` owns them)."""
        return self.locks.floors

    def _floor_released(self, floor: Optional[Floor]) -> None:
        """Close the ``server.floor_held`` span of a released floor."""
        if floor is not None and floor.span is not None:
            self.obs.spans.finish(floor.span)

    def _on_lock_request(self, message: Message) -> None:
        """Grant or deny the floor on ``CO(source)``.

        A request that carries an ``event`` is a whole action: on a grant
        the event is broadcast under the floor just taken, on a denial
        nothing else happens.  Its reply lists only the requester's own
        members of the group; ``conflicts`` rides on a denial only.  The
        event is checked before any lock is taken, so a malformed one
        cannot strand a floor.
        """
        payload = message.payload
        self._require_registered(message.sender)
        now = self.clock.now()
        for floor in self.locks.expire(now, self.floor_lease):
            self._floor_released(floor)
        source = gid_from_wire(payload["source"])
        token = int(payload.get("token", 0))
        event_wire = _event_wire(payload["event"]) if "event" in payload else None
        owner = LockOwner(message.sender, token)
        group = sorted(self.couples.group_of(source))
        floor, conflicts = self.locks.acquire_all(group, owner, now)
        granted = floor is not None
        if granted:
            active = self._active_span
            if active is not None and floor.span is None:
                # Floor lifetime span: first grant .. release (ack, unlock,
                # lease); a renewal keeps the floor, and so its span.
                floor.span = self.obs.spans.start(
                    obs_tracing.SERVER_FLOOR,
                    trace_id=active.trace_id,
                    parent_id=active.span_id,
                    endpoint=SERVER_ID,
                    owner=owner.instance_id,
                    objects=len(group),
                )
        # The requester of an action reads only its own members of the
        # group (to re-execute on them); a bare floor request gets the
        # whole group, which its UNLOCK names back.
        listed = (
            group
            if event_wire is None
            else [g for g in group if g[0] == owner.instance_id]
        )
        reply = {"granted": granted, "group": [gid_to_wire(g) for g in listed]}
        if not granted:
            reply["conflicts"] = [gid_to_wire(c) for c in conflicts]
        self._send(message.reply(kinds.LOCK_REPLY, SERVER_ID, **reply))
        if granted and event_wire is not None:
            self._broadcast_event(owner, source, event_wire)

    def _on_unlock(self, message: Message) -> None:
        token = int(message.payload.get("token", 0))
        self._floor_released(self.locks.unlock((message.sender, token)))

    # ------------------------------------------------------------------
    # Synchronization by multiple execution (§3.2)
    # ------------------------------------------------------------------

    def _on_event(self, message: Message) -> None:
        """The two-message form: an EVENT under a floor granted earlier
        (or under none).  Current clients pack the event into the
        LOCK_REQUEST instead; both end in :meth:`_broadcast_event`."""
        payload = message.payload
        self._require_registered(message.sender)
        event_wire = _event_wire(payload["event"])
        source: GlobalId = (
            str(event_wire.get("instance_id", message.sender)),
            event_wire["source_path"],
        )
        self._broadcast_event(
            LockOwner(message.sender, int(payload.get("token", 0))),
            source,
            event_wire,
            release=bool(payload.get("release", True)),
        )

    def _broadcast_event(
        self,
        owner: LockOwner,
        source: GlobalId,
        event_wire: Dict[str, Any],
        *,
        release: bool = True,
    ) -> None:
        """Fan *owner*'s event out to the other instances of ``CO(source)``.

        Under *owner*'s floor the targets are the locked group; with
        *release* the floor goes once every receiver acknowledged.
        """
        floor = self.locks.floors.get((owner.instance_id, owner.token))
        locked = floor.objects if floor is not None else None
        # Group the coupled objects by owning instance and broadcast one
        # message per instance, listing the local target pathnames.
        targets_by_instance: Dict[str, List[str]] = {}
        if locked is not None:
            for gid in sorted(frozenset(locked) - {source}):
                targets_by_instance.setdefault(gid[0], []).append(gid[1])
        else:
            # Interest index lookup: O(audience), cached per component.
            audience = self.couples.audience_of(source)
            for instance_id in sorted(audience):
                paths = [p for p in audience[instance_id] if (instance_id, p) != source]
                if paths:
                    targets_by_instance[instance_id] = paths
        receivers = [
            instance_id
            for instance_id in targets_by_instance
            if instance_id in self.registry and instance_id != owner.instance_id
        ]
        active = self._active_span
        bcast_span = None
        bcast_trace = None
        if active is not None and receivers:
            # Fan-out span; EVENT_BROADCASTs carry its id so each remote
            # apply hangs off the broadcast in the trace tree.
            bcast_span = self.obs.spans.start(
                obs_tracing.SERVER_BROADCAST,
                trace_id=active.trace_id,
                parent_id=active.span_id,
                endpoint=SERVER_ID,
                receivers=len(receivers),
            )
            bcast_trace = (active.trace_id, bcast_span.span_id)
        # Only the target list depends on the receiver: receivers with
        # equal lists get one message re-addressed, so its payload is
        # validated and serialized once per distinct list.
        owner_wire = owner.to_wire()
        firsts: Dict[Tuple[str, ...], Message] = {}
        for instance_id in receivers:
            targets = targets_by_instance[instance_id]
            same_targets = tuple(targets)
            first = firsts.get(same_targets)
            if first is None:
                message = firsts[same_targets] = Message(
                    kind=kinds.EVENT_BROADCAST,
                    sender=SERVER_ID,
                    to=instance_id,
                    payload={
                        "event": event_wire,
                        "targets": targets,
                        "owner": owner_wire,
                    },
                    trace=bcast_trace,
                )
            else:
                message = first.addressed(instance_id, trace=bcast_trace)
            self._send(message)
        if bcast_span is not None:
            self.obs.spans.finish(bcast_span)
        self.routing.record_event(len(receivers))
        if release and floor is not None:
            # "They are unlocked when the processing of this event is
            # completed" (§3.2): hold the floor until every receiving
            # instance confirms it re-executed the event.
            self._floor_released(
                self.locks.broadcast(floor, receivers if self.ack_release else ())
            )

    def _on_event_ack(self, message: Message) -> None:
        owner_wire = message.payload.get("owner")
        if not owner_wire:
            return
        key = (str(owner_wire[0]), int(owner_wire[1]))
        floor = self.locks.ack(key, message.sender)
        # _floor_released inlined: this runs once per receiver per action.
        if floor is not None and floor.span is not None:
            self.obs.spans.finish(floor.span)

    # ------------------------------------------------------------------
    # Synchronization by UI state (§3.1)
    # ------------------------------------------------------------------

    def _forward_fetch(
        self,
        obj: GlobalId,
        route: _PendingRoute,
        sync: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Ask *obj*'s owner for its state.  With *sync* the reply is a
        transfer under the delta protocol at the object the block names
        (docs/PROTOCOL.md, "State transfer"); without, a full payload."""
        payload: Dict[str, Any] = {"object": gid_to_wire(obj)}
        if sync is not None:
            payload["sync"] = sync
        forward = Message(
            kind=kinds.FETCH_STATE, sender=SERVER_ID, to=obj[0], payload=payload
        )
        route.forward_to = obj[0]
        self._pending[forward.msg_id] = route
        self._send(forward)

    def _on_fetch_state(self, message: Message) -> None:
        """CopyFrom, step 1: requester asks for another object's state."""
        payload = message.payload
        self._require_registered(message.sender)
        obj = gid_from_wire(payload["object"])
        user = self._user_of(message.sender)
        if not self.access.check(user, obj, READ):
            self._send(
                message.error_reply(
                    SERVER_ID, f"user {user!r} may not read {obj[0]}:{obj[1]}"
                )
            )
            return
        if obj[0] not in self.registry:
            self._send(
                message.error_reply(
                    SERVER_ID, f"instance {obj[0]!r} is not registered"
                )
            )
            return
        sync = payload.get("sync")
        if sync is not None and gid_from_wire(sync["target"])[0] != message.sender:
            # The owner keeps a continuity entry per target it is asked
            # about; only the target itself may start or advance one.
            raise ValueError("a fetch's sync block names the requester's own object")
        self._forward_fetch(
            obj,
            _PendingRoute(
                requester=message.sender,
                requester_msg_id=message.msg_id,
                purpose="copy_from",
            ),
            sync,
        )

    def _on_state_reply(self, message: Message) -> None:
        """The owning instance answered a forwarded FETCH_STATE."""
        route = self._pending.pop(message.reply_to or -1, None)
        if route is None:
            return  # Late or duplicate reply; drop.
        if route.purpose == "copy_from":
            self._send(
                Message(
                    kind=kinds.STATE_REPLY,
                    sender=SERVER_ID,
                    to=route.requester,
                    payload=dict(message.payload),
                    reply_to=route.requester_msg_id,
                )
            )
        elif route.purpose == "remote_copy" and route.target is not None:
            push_payload = dict(message.payload)
            push_payload["target"] = gid_to_wire(route.target)
            push_payload["mode"] = route.mode
            self._send(
                Message(
                    kind=kinds.PUSH_STATE,
                    sender=SERVER_ID,
                    to=route.target[0],
                    payload=push_payload,
                )
            )
            # Confirm to the initiating (third) instance.
            self._send(
                Message(
                    kind=kinds.STATE_REPLY,
                    sender=SERVER_ID,
                    to=route.requester,
                    payload={"status": "copied", "target": gid_to_wire(route.target)},
                    reply_to=route.requester_msg_id,
                )
            )

    def _on_push_state(self, message: Message) -> None:
        """CopyTo: an owner pushes its state at a target object."""
        payload = dict(message.payload)
        self._require_registered(message.sender)
        target = gid_from_wire(payload["target"])
        user = self._user_of(message.sender)
        if not self.access.check(user, target, WRITE):
            self._send(
                message.error_reply(
                    SERVER_ID, f"user {user!r} may not write {target[0]}:{target[1]}"
                )
            )
            return
        if target[0] not in self.registry:
            self._send(
                message.error_reply(
                    SERVER_ID, f"instance {target[0]!r} is not registered"
                )
            )
            return
        self._send(
            Message(
                kind=kinds.PUSH_STATE,
                sender=SERVER_ID,
                to=target[0],
                payload=payload,
            )
        )
        self._send(
            message.reply(kinds.STATE_REPLY, SERVER_ID, status="pushed")
        )

    def _on_resync_request(self, message: Message) -> None:
        """A delta receiver lost continuity; relay to the object's owner.

        One-way: the owner answers with a fresh full-snapshot PUSH_STATE
        through the normal CopyTo path (docs/PERF.md, resync fallback).
        A request that names the roster instead of an object is a gap in
        the registration deltas, which this node answers itself.
        """
        payload = message.payload
        if "roster" in payload:
            answer_roster_resync(
                self._send, self.registry, message, self.processed
            )
            return
        self._require_registered(message.sender)
        obj = gid_from_wire(payload["object"])
        target = gid_from_wire(payload["target"])
        if obj[0] not in self.registry:
            self._send(
                message.error_reply(
                    SERVER_ID, f"instance {obj[0]!r} is not registered"
                )
            )
            return
        self._send(
            Message(
                kind=kinds.RESYNC_REQUEST,
                sender=SERVER_ID,
                to=obj[0],
                payload={
                    "object": gid_to_wire(obj),
                    "target": gid_to_wire(target),
                    "requester": message.sender,
                },
            )
        )

    def _on_remote_copy(self, message: Message) -> None:
        """RemoteCopy: a third instance copies A's object into B (§3.1)."""
        payload = message.payload
        self._require_registered(message.sender)
        source = gid_from_wire(payload["source"])
        target = gid_from_wire(payload["target"])
        user = self._user_of(message.sender)
        if not self.access.check(user, source, READ):
            self._send(
                message.error_reply(
                    SERVER_ID, f"user {user!r} may not read {source[0]}:{source[1]}"
                )
            )
            return
        if not self.access.check(user, target, WRITE):
            self._send(
                message.error_reply(
                    SERVER_ID, f"user {user!r} may not write {target[0]}:{target[1]}"
                )
            )
            return
        for endpoint in (source, target):
            if endpoint[0] not in self.registry:
                self._send(
                    message.error_reply(
                        SERVER_ID, f"instance {endpoint[0]!r} is not registered"
                    )
                )
                return
        mode = str(payload.get("mode", "strict"))
        # A strict RemoteCopy is a CopyTo a third party triggered: the
        # owner builds the push (delta when it can) and the target's
        # continuity check guards it.  Its recovery path is the owner's
        # own full push, so it is only taken where that push may land.
        as_push = mode == "strict" and self.access.check(
            self._user_of(source[0]), target, WRITE
        )
        self._forward_fetch(
            source,
            _PendingRoute(
                requester=message.sender,
                requester_msg_id=message.msg_id,
                purpose="remote_copy",
                target=target,
                mode=mode,
            ),
            {"target": gid_to_wire(target)} if as_push else None,
        )

    # ------------------------------------------------------------------
    # History (undo/redo of overwritten UI states)
    # ------------------------------------------------------------------

    def _on_history_push(self, message: Message) -> None:
        payload = message.payload
        obj = gid_from_wire(payload["object"])
        self.history.push(
            HistoricalState(
                obj=obj,
                state=dict(payload.get("state", {})),
                timestamp=self.clock.now(),
                reason=str(payload.get("reason", "")),
                by_user=str(payload.get("user", "")),
            )
        )

    def _on_undo_request(self, message: Message) -> None:
        payload = message.payload
        obj = gid_from_wire(payload["object"])
        current = payload.get("current_state")
        redo = bool(payload.get("redo", False))
        if redo:
            entry = self.history.redo(obj, current)
        else:
            entry = self.history.undo(obj, current)
        self._send(
            message.reply(
                kinds.UNDO_REPLY,
                SERVER_ID,
                object=gid_to_wire(obj),
                state=dict(entry.state),
                reason=entry.reason,
            )
        )

    # ------------------------------------------------------------------
    # CoSendCommand (§3.4)
    # ------------------------------------------------------------------

    def _on_command(self, message: Message) -> None:
        payload = dict(message.payload)
        self._require_registered(message.sender)
        targets = payload.pop("targets", [])
        if not isinstance(targets, (list, tuple)):
            raise ValueError(f"targets must be a list, got {targets!r}")
        if not targets:
            targets = [
                iid
                for iid in self.registry.instance_ids()
                if iid != message.sender
            ]
        payload["origin"] = message.sender
        payload["origin_msg_id"] = message.msg_id
        first = None  # one command, re-addressed to each further target
        for target in targets:
            if target not in self.registry:
                self._send(
                    message.error_reply(
                        SERVER_ID, f"instance {target!r} is not registered"
                    )
                )
            elif first is None:
                first = Message(
                    kind=kinds.COMMAND, sender=SERVER_ID, to=target, payload=payload
                )
                self._send(first)
            else:
                self._send(first.addressed(target))

    def _on_command_reply(self, message: Message) -> None:
        payload = dict(message.payload)
        origin = str(payload.pop("origin", ""))
        origin_msg_id = payload.pop("origin_msg_id", None)
        if origin and origin in self.registry:
            payload["responder"] = message.sender
            self._send(
                Message(
                    kind=kinds.COMMAND_REPLY,
                    sender=SERVER_ID,
                    to=origin,
                    payload=payload,
                    reply_to=int(origin_msg_id) if origin_msg_id else None,
                )
            )

    # ------------------------------------------------------------------
    # Permissions
    # ------------------------------------------------------------------

    def _on_permission_set(self, message: Message) -> None:
        payload = message.payload
        user = self._user_of(message.sender)
        rule = PermissionRule.from_wire(dict(payload["rule"]))
        # An instance may manage rules about its own objects; admins may
        # manage anything.
        if user not in self.admin_users and rule.instance_id != message.sender:
            self._send(
                message.error_reply(
                    SERVER_ID,
                    f"user {user!r} may only set permissions on own objects",
                )
            )
            return
        if payload.get("action", "add") == "remove":
            self.access.remove(rule)
        else:
            self.access.add(rule)
        self._send(
            message.reply(kinds.PERMISSION_REPLY, SERVER_ID, ok=True)
        )

    # ------------------------------------------------------------------
    # Group migration (sharded clusters; docs/CLUSTER.md)
    # ------------------------------------------------------------------

    def export_group(self, objects: Iterable[GlobalId]) -> Dict[str, Any]:
        """Extract everything this server holds about *objects*.

        Removes and returns the couple links, lock entries, floors and
        historical states of the given couple group, in a snapshot's keys,
        for another shard's ``restore_state``.  The group must be
        quiescent (the router freezes it).  In-flight floors go with
        their pending-ack sets; one that also lists objects staying
        here is split (:meth:`LockTable.transfer_out`).
        """
        objs = set(objects)
        links = self.couples.extract_objects(objs)
        tables, gone = self.locks.transfer_out(objs)
        for floor in gone:
            if floor.span is not None:
                # The floor migrates to another shard; close its span
                # here rather than leak an open one.
                self.obs.spans.finish(floor.span, migrated=True)
        return {
            "couples": [link.to_wire() for link in links],
            "locks": tables["locks"],
            "floors": tables["floors"],
            "history": self.history.export_state(objs),
        }

    def _require_router(self, message: Message) -> None:
        if message.sender != ROUTER_ID:
            raise ReproError(
                f"migration messages are router-internal, not for "
                f"{message.sender!r}"
            )

    def _on_migrate_export(self, message: Message) -> None:
        self._require_router(message)
        objects = [gid_from_wire(g) for g in message.payload["objects"]]
        data = self.export_group(objects)
        self._send(message.reply(kinds.MIGRATE_STATE, SERVER_ID, **data))

    def _on_migrate_import(self, message: Message) -> None:
        self._require_router(message)
        restore_state(self, message.payload)
        self._send(message.reply(kinds.MIGRATE_ACK, SERVER_ID))

    # ------------------------------------------------------------------
    # Shard-worker plane (multi-process clusters; docs/CLUSTER.md)
    # ------------------------------------------------------------------

    def _on_shard_sync(self, message: Message) -> None:
        """Bootstrap a freshly spawned shard with the replicated tables.

        A shard added to a live ring has seen none of the session's
        REGISTER/UNREGISTER/PERMISSION_SET traffic; the router ships it
        the registration records (original timestamps intact) with the
        router's registry version, the access-control table and the
        history tombstones before any group migrates there.  Journaled,
        so a recovering worker replays its bootstrap before the ops that
        assumed it; idempotent, so a replayed SHARD_SYNC coexists with
        later journaled REGISTERs.
        """
        self._require_router(message)
        restore_state(self, message.payload)

    def state_inventory(self) -> List[List[List[str]]]:
        """Stateful object groups, in wire form, for resharding surveys.

        Every couple group plus every singleton carrying server-side
        state (a lock, a floor or history).  The router diffs this
        against hashring ownership to compute the minimal set of groups
        a live ``add_shard``/``remove_shard`` must migrate.
        """
        stateful = set(self.locks.locked_objects())
        stateful.update(self.history.objects())
        for floor in self.locks.floors.values():
            stateful.update(floor.objects)
        groups: List[List[GlobalId]] = []
        for group in self.couples.groups():
            groups.append(sorted(group))
            stateful.difference_update(group)
        for obj in sorted(stateful):
            groups.append([obj])
        return [[gid_to_wire(g) for g in group] for group in groups]

    def _on_shard_inventory(self, message: Message) -> None:
        self._require_router(message)
        self._send(
            message.reply(
                kinds.SHARD_INVENTORY_REPLY,
                SERVER_ID,
                groups=self.state_inventory(),
            )
        )

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def _on_client_error(self, message: Message) -> None:
        """A client failed a forwarded request: route the error onward.

        E.g. a FETCH_STATE forwarded for a CopyFrom whose object has been
        destroyed — the owner's ERROR reply must reach the requester, or it
        would block until timeout.
        """
        route = self._pending.pop(message.reply_to or -1, None)
        if route is None:
            return
        self._send(
            Message(
                kind=kinds.ERROR,
                sender=SERVER_ID,
                to=route.requester,
                payload=dict(message.payload),
                reply_to=route.requester_msg_id,
            )
        )

    def stats(self) -> Dict[str, Any]:
        """Operational counters for experiments and monitoring."""
        return {
            "registered": len(self.registry),
            "permission_rules": len(self.access.rules()),
            "couple_links": len(self.couples),
            "couple_groups": self.couples.group_count(),
            "locks_held": len(self.locks),
            "floors_held": len(self.locks.floors),
            "lock_stats": {
                "acquisitions": self.locks.stats.acquisitions,
                "denials": self.locks.stats.denials,
                "releases": self.locks.stats.releases,
            },
            "history_entries": len(self.history),
            "processed": dict(self.processed),
            "routing": self.routing.snapshot(),
            "closure": dict(self.couples.stats),
            "persistence": (
                self.persistence.stats()
                if self.persistence is not None
                else None
            ),
        }
