"""Interest-aware routing: one broadcast helper for server and cluster.

The paper's central server exists so that traffic scales with *coupling
interest* rather than population size (§2.2): an event on object ``o``
concerns exactly the instances holding an object in ``CO(o)``.  This
module is the single place where "who receives this message" is decided —
:class:`~repro.server.server.CosoftServer` and
:class:`~repro.cluster.router.ShardedCosoftCluster` both delegate here, so
the interest index cannot drift between the two.

Two delivery modes, chosen by what the message is about, never by a knob:

* **full broadcast** — roster changes (INSTANCE_LIST) concern the whole
  population: every registered instance gets a copy of the one-record
  delta.  The full roster goes only to whoever is owed it: the joiner,
  in its REGISTER_ACK, and a replica that saw a version gap
  (:func:`answer_roster_resync`).
* **interest cast** — a change to a couple group (COUPLE_UPDATE) goes to
  the *audience* the caller passes (instance ids from the couple table's
  per-component audience index, :meth:`CoupleTable.audience_of`); only
  registered audience members get a copy and the suppressed remainder is
  counted.  "In a group of coupled objects, the coupling information is
  replicated for each object" (§3.2): replication is owed inside the
  group, so a couple or decouple costs messages per member, not per
  registered instance.

The §3.2 event fan-out (EVENT_BROADCAST) is scoped by the same audience
index but does not go through :func:`broadcast`: it lives in
:meth:`CosoftServer._broadcast_event <repro.server.server.CosoftServer._broadcast_event>`,
which already holds the receivers in order with their target lists and
must stamp each message with the fan-out's trace context.  It follows the
same payload rule — what does not depend on the receiver sits in one
payload: the first message is built around it, the rest are that message
re-addressed, so it serializes once (docs/PERF.md §6) — and is counted
by :meth:`RoutingStats.record_event`.

:class:`RoutingStats` records all three so benchmarks and the metrics
scrape can show delivered-vs-suppressed message counts per event.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Collection, Dict, Iterable, Mapping, Optional, Tuple

from repro.net import kinds
from repro.net.message import Message
from repro.net.transport import SERVER_ID
from repro.server.registry import RegistrationRecord, Registry

#: Key of a server's ``processed`` counter for roster resyncs asked of
#: it.  They arrive as RESYNC_REQUEST, whose per-kind count otherwise
#: means continuity losses of delta state sync; monitors tell the two
#: apart with this.
ROSTER_RESYNCS = "__roster_resyncs__"


class RoutingStats:
    """Counters for the routing layer's delivery decisions.

    ``broadcasts``/``broadcast_messages`` count full-population sends;
    ``interest_casts``/``interest_messages`` count audience-scoped sends;
    ``suppressed_messages`` is, summed over interest casts, the registered
    population (net of the excluded requester) minus the audience that got
    a copy — what population-wide delivery would have sent on top.
    ``events``/``event_receivers`` track EVENT_BROADCAST fan-out.
    """

    __slots__ = (
        "broadcasts",
        "broadcast_messages",
        "interest_casts",
        "interest_messages",
        "suppressed_messages",
        "events",
        "event_receivers",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.broadcasts = 0
        self.broadcast_messages = 0
        self.interest_casts = 0
        self.interest_messages = 0
        self.suppressed_messages = 0
        self.events = 0
        self.event_receivers = 0

    def record_event(self, receivers: int) -> None:
        self.events += 1
        self.event_receivers += receivers

    def merge(self, other: "RoutingStats") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def register_into(self, registry, **labels: str) -> None:
        """Expose these counters through an obs metrics registry.

        Pull-time collector: no cost is added to the routing hot path.
        """
        from repro.obs.metrics import Sample

        base = tuple(sorted(labels.items()))
        help_of = {
            "broadcasts": "Full-population broadcast sends",
            "broadcast_messages": "Messages delivered by full broadcasts",
            "interest_casts": "Audience-scoped (interest) sends",
            "interest_messages": "Messages delivered by interest casts",
            "suppressed_messages":
                "Copies a full broadcast would have added (savings)",
            "events": "EVENT fan-outs performed",
            "event_receivers": "Total EVENT_BROADCAST receivers",
        }

        def collect():
            for name in self.__slots__:
                yield Sample(
                    f"repro_routing_{name}_total", "counter",
                    help_of[name], base, getattr(self, name),
                )

        registry.register_collector(collect)


def broadcast(
    send: Callable[[Message], None],
    registered: Collection[str],
    kind: str,
    payload: Mapping[str, Any],
    *,
    sender: str = SERVER_ID,
    exclude: Tuple[str, ...] = (),
    audience: Optional[Iterable[str]] = None,
    payload_for: Optional[Mapping[str, Mapping[str, Any]]] = None,
    stats: Optional[RoutingStats] = None,
) -> int:
    """Deliver *payload* to *registered* instances, optionally scoped.

    With ``audience=None`` every registered instance outside *exclude*
    gets a copy (full broadcast).  With an *audience*, only registered
    audience members get one, and the difference to the full population is
    recorded as suppressed traffic.  Recipients named in *payload_for*
    get that payload instead of *payload* (a couple merge tells each side
    something different).  Returns the number of messages sent.
    """
    if audience is None:
        recipients = [i for i in registered if i not in exclude]
    else:
        membership = (
            registered if isinstance(registered, (set, frozenset, dict))
            else set(registered)
        )
        recipients = sorted(
            i
            for i in set(audience)
            if i in membership and i not in exclude
        )
    first = None  # everyone not in *payload_for* gets this one, re-addressed
    for instance_id in recipients:
        if payload_for and instance_id in payload_for:
            body = payload_for[instance_id]
            message = Message(kind=kind, sender=sender, to=instance_id, payload=body)
        elif first is None:
            message = first = Message(
                kind=kind, sender=sender, to=instance_id, payload=payload
            )
        else:
            message = first.addressed(instance_id)
        send(message)
    if stats is not None:
        if audience is None:
            stats.broadcasts += 1
            stats.broadcast_messages += len(recipients)
        else:
            stats.interest_casts += 1
            stats.interest_messages += len(recipients)
            population = len(registered) - sum(
                1 for i in exclude if i in registered
            )
            stats.suppressed_messages += max(0, population - len(recipients))
    return len(recipients)


def register_instance(
    send: Callable[[Message], None],
    registry: Registry,
    couples: Any,
    request: Message,
    clock: Any,
    stats: RoutingStats,
    admitted: Callable[[RegistrationRecord], None],
) -> None:
    """Handle a REGISTER for whichever node owns *registry*.

    The server, or the router of a cluster; *admitted* runs between the
    roster change and the replies (history revival there, shard fan-out
    here).  A second REGISTER raises ``AlreadyRegisteredError``.  The
    ack carries the full roster, once, and the newcomer's share of the
    couple table *couples*, initializing its local replica of the
    coupling info (§3.2); everyone else learns the one new record.
    """
    payload = request.payload
    record = RegistrationRecord(
        instance_id=request.sender,
        user=str(payload.get("user", "")),
        host=str(payload.get("host", "localhost")),
        app_type=str(payload.get("app_type", "")),
        registered_at=clock.now(),
    )
    registry.add(record)
    admitted(record)
    send(
        request.reply(
            kinds.REGISTER_ACK,
            SERVER_ID,
            **registry.full_roster(),
            couples=couples.to_wire_for(record.instance_id),
            server_time=clock.now(),
        )
    )
    broadcast(
        send,
        registry.instance_ids(),
        kinds.INSTANCE_LIST,
        registry.joined_delta(record),
        exclude=(record.instance_id,),
        stats=stats,
    )


def announce_left(
    send: Callable[[Message], None],
    registry: Registry,
    instance_id: str,
    stats: RoutingStats,
) -> None:
    """Tell everyone still in *registry* that *instance_id* is gone."""
    broadcast(
        send,
        registry.instance_ids(),
        kinds.INSTANCE_LIST,
        registry.left_delta(instance_id),
        stats=stats,
    )


def answer_roster_resync(
    send: Callable[[Message], None],
    registry: Registry,
    request: Message,
    processed: Counter[str],
) -> None:
    """Send the full roster to a replica that reported a version gap.

    Called by whichever node owns *registry* — the server, or the router
    of a cluster, which never forwards the request to a shard.
    """
    processed[ROSTER_RESYNCS] += 1
    registry.get(request.sender)  # NotRegisteredError -> ERROR reply
    send(
        Message(
            kind=kinds.INSTANCE_LIST,
            sender=SERVER_ID,
            to=request.sender,
            payload=registry.full_roster(),
        )
    )
