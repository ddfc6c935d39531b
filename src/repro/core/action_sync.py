"""Synchronization by multiple execution (§3.2).

This module implements the paper's algorithm verbatim (client side):

    Assume event e to occur on UI object O.  Let CO(o) be the set of the UI
    objects that have been coupled with O.
      - lock every object of the group in the server (all-or-nothing);
      - if locking failed: undo locking and *undo the syntactic built-in
        feedback* of e;
      - else: for each coupled O': simulate the feedback of e and execute
        the callbacks of e on O';
      - release all locks, re-enable the objects.

The server performs the all-or-nothing group acquisition atomically (see
:meth:`repro.server.locks.LockTable.acquire_all`, which mirrors the
pseudo-code's per-object loop with undo), grants or denies the floor, and
on a grant broadcasts the event under that floor and releases the group
once every receiver acknowledged.

The pseudo-code only requires that the lock on ``CO(o)`` is held before
anything executes, so one action is **one** client->server message: the
floor request carries the event.  On the initiating instance the flow is:

1. the widget applies its built-in feedback immediately (the user sees the
   local echo, as in any direct-manipulation UI);
2. the floor is requested for ``CO(o)`` with the event packed into the
   LOCK_REQUEST; the instance blocks on the LOCK_REPLY;
3. denied -> nothing was broadcast; the feedback is rolled back and no
   callbacks run;
4. granted -> the server has already broadcast the event to every other
   instance owning coupled objects (it releases the floor after their
   acks); local callbacks execute, then the event is re-executed on the
   group's other local members.  A remote replica's callbacks may
   therefore run before the source's own — legal, the floor is held;
5. no reply within ``lock_timeout`` -> rolled back like a denial, but the
   server may still grant: the event is kept, and a grant that arrives
   late is re-applied on the source (:func:`apply_late_reply`) so it
   ends where every replica ended.

Receiving instances execute :func:`apply_remote_event`: each local coupled
object is disabled (floor-locked), the event is re-executed on it —
"simulate the feedback of e; execute callbacks of the event e on object O'"
— and the object is re-enabled.  The receiver acknowledges however the
processing ended, so the floor is released.

What is validated where on the receive path: the server's ``_event_wire``
checks the shipped event **once per action**, before any lock is taken;
:meth:`Event.from_wire` builds it **once per delivery** (one ``params``
copy, checked JSON-safe), and the target list is checked to be
pathnames beside it, before the origin's event stream moves — a
malformed delivery is counted and acked, and uses up no number its
redelivery needs.  Nothing after that re-derives it: re-execution
takes no undo (:meth:`UIObject.reexecute`, only the source rolls back),
and the EVENT_ACK is one fixed shape (:meth:`Message.event_ack`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.net import kinds
from repro.net.message import Message
from repro.obs import NULL_OBS
from repro.obs import tracing as obs_tracing
from repro.server.couples import GlobalId, gid_from_wire, gid_to_wire
from repro.toolkit.events import Event
from repro.toolkit.widget import UIObject, UndoRecord


@dataclass(frozen=True)
class FloorGrant:
    """A granted floor: the lock token and the group the reply listed.

    A bare floor request (``acquire_floor()``) is granted the whole
    locked group, which :func:`release_floor` names back; a request that
    carried an event is granted only the requester's own members of it.
    """

    token: int
    group: Tuple[GlobalId, ...]


@dataclass
class ExecutionResult:
    """Outcome of one local event under multiple execution.

    ``group`` is the group the grant listed: this instance's own members
    of ``CO(o)``, the source included.
    """

    executed: bool
    lock_denied: bool = False
    group: Tuple[GlobalId, ...] = ()
    conflicts: Tuple[GlobalId, ...] = ()
    local_only: bool = False


def request_floor(
    instance: Any,
    source: GlobalId,
    timeout: float,
    *,
    trace: Optional[Tuple[str, str]] = None,
    event: Optional[Event] = None,
) -> Optional[FloorGrant]:
    """Ask the server to lock the couple group of *source*.

    With *event* the request carries it: a grant then means the server
    has broadcast the event under the floor and will release the floor
    after the receivers' acks.  Without, the floor is the caller's until
    :func:`release_floor` (``acquire_floor()``).

    Returns the grant, or ``None`` when the floor was denied or the request
    timed out.  A timeout is treated as a denial — the caller rolls back —
    but the instance keeps *event* with the abandoned request, in case
    the grant only raced the timeout (:func:`apply_late_reply`).

    *trace* is the caller's span context; the blocking round trip is
    recorded as a ``client.lock_wait`` span and the context travels on
    the LOCK_REQUEST so the server's handling joins the same trace.
    """
    token = instance.next_token()
    obs = getattr(instance, "obs", NULL_OBS)
    span = None
    if trace is not None and obs.tracing:
        span = obs.spans.start(
            obs_tracing.CLIENT_LOCK_WAIT,
            trace_id=trace[0],
            parent_id=trace[1],
            endpoint=instance.instance_id,
        )
        trace = (trace[0], span.span_id)
    payload = {"source": gid_to_wire(source), "token": token}
    if event is not None:
        payload["event"] = event.to_wire()
    request = Message(
        kind=kinds.LOCK_REQUEST,
        sender=instance.instance_id,
        payload=payload,
        trace=trace,
    )
    reply = instance.request(request, timeout=timeout, late=event)
    if span is not None:
        granted = bool(
            reply is not None
            and reply.kind == kinds.LOCK_REPLY
            and reply.payload.get("granted", False)
        )
        obs.spans.finish(span, granted=granted)
    if reply is None or reply.kind != kinds.LOCK_REPLY:
        return None
    if not reply.payload.get("granted", False):
        return None
    group = tuple(gid_from_wire(g) for g in reply.payload.get("group", ()))
    return FloorGrant(token=token, group=group)


def release_floor(instance: Any, grant: FloorGrant) -> None:
    """Explicitly release a floor obtained via :func:`request_floor`."""
    instance.send(
        Message(
            kind=kinds.UNLOCK,
            sender=instance.instance_id,
            payload={
                "token": grant.token,
                "objects": [gid_to_wire(g) for g in grant.group],
            },
        )
    )


def run_multiple_execution(
    instance: Any,
    widget: UIObject,
    event: Event,
    undo: UndoRecord,
    *,
    timeout: float,
) -> ExecutionResult:
    """Execute the paper's multiple-execution algorithm for a local event.

    *undo* is the built-in-feedback rollback record captured when the
    widget echoed the user action.
    """
    source: GlobalId = (instance.instance_id, widget.pathname)
    obs = getattr(instance, "obs", NULL_OBS)
    root = None
    trace = None
    if obs.tracing:
        # Root span of the whole synchronization: user action enters the
        # toolkit here, and the trace context rides every message.
        root = obs.spans.start(
            obs_tracing.CLIENT_EMIT,
            endpoint=instance.instance_id,
            event=event.type,
            source=widget.pathname,
        )
        trace = (root.trace_id, root.span_id)
    # One message: the request carries the event, and the server
    # broadcasts it under the floor it grants.
    grant = request_floor(instance, source, timeout, trace=trace, event=event)
    if grant is None:
        # "undo syntactic built-in feedback of the event e" (§3.2)
        undo.rollback()
        instance.stats["lock_denials"] += 1
        if root is not None:
            obs.spans.finish(root, outcome="lock_denied")
        return ExecutionResult(executed=False, lock_denied=True)

    # Disable the locally owned members of the group while the floor is
    # held ("Actions on locked objects are disabled").
    local_members = _local_widgets(instance, grant.group, exclude=source[1])
    for _path, member in local_members:
        member.floor_lock()
    try:
        # Execute callbacks on the source object (feedback already echoed).
        widget.run_callbacks(event)
        # The group may include other local objects (two objects coupled
        # "within the same application instance", §3.3) — the server's
        # broadcast deliberately skips the sending instance, so re-execute
        # on local members here.
        for path, member in local_members:
            member.reexecute(event.retargeted(path, instance.instance_id))
    finally:
        for _path, member in local_members:
            member.floor_unlock()
    instance.stats["events_coupled"] += 1
    if root is not None:
        obs.spans.finish(root, outcome="executed")
    return ExecutionResult(executed=True, group=grant.group)


def apply_late_reply(instance: Any, event: Event, reply: Message) -> int:
    """Settle a floor request the source gave up on (``lock_timeout``).

    The source rolled *event* back, but a late ``granted`` LOCK_REPLY
    means the server broadcast it: every replica executed it, so the
    source re-executes it too, as a remote event, on each of its own
    members of the group (the source object included).  A late denial
    means nothing happened anywhere.  Returns the objects executed on.
    """
    if reply.kind != kinds.LOCK_REPLY or not reply.payload.get("granted", False):
        return 0
    group = [gid_from_wire(g) for g in reply.payload.get("group", ())]
    members = _local_widgets(instance, group)
    for path, member in members:
        _reexecute_locked(instance, member, path, event)
    instance.stats["late_grants"] += 1
    return len(members)


def apply_remote_event(
    instance: Any,
    payload: Mapping[str, Any],
    *,
    trace: Optional[Tuple[str, str]] = None,
) -> int:
    """Re-execute a broadcast event on this instance's coupled objects.

    Returns the number of objects the event was executed on (objects that
    disappeared since the broadcast are skipped — their decoupling is
    already in flight).

    *trace* is the EVENT_BROADCAST's trace context: the re-execution is
    recorded as a ``remote.apply`` span and the EVENT_ACK carries the
    context back so the server's floor release joins the trace.
    """
    obs = getattr(instance, "obs", NULL_OBS)
    span = None
    if trace is not None and obs.tracing:
        span = obs.spans.start(
            obs_tracing.REMOTE_APPLY,
            trace_id=trace[0],
            parent_id=trace[1],
            endpoint=instance.instance_id,
        )
        trace = (trace[0], span.span_id)
    executed = 0
    fresh = False
    error = None
    try:
        event = Event.from_wire(payload["event"])
        targets = payload.get("targets", ())
        # Checked before the stream moves: a malformed delivery must not
        # use up the number its well-formed redelivery carries.
        if type(targets) not in (list, tuple):
            raise ValueError(f"broadcast targets {targets!r} are not a list")
        for path in targets:
            if type(path) is not str:
                raise ValueError(f"broadcast target {path!r} is not a pathname")
        # A duplicate delivery (at-least-once transport) was already
        # executed here: it is only acknowledged.
        fresh = instance.receiver.fresh_event(event.instance_id, event.seq)
        if fresh:
            for path in targets:
                widget = instance.find_widget(path)
                if widget is None or widget.destroyed:
                    continue
                _reexecute_locked(instance, widget, path, event)
                executed += 1
            instance.stats["events_remote"] += executed
        else:
            instance.stats["duplicate_events"] += 1
    except Exception as exc:
        error = type(exc).__name__
        raise
    finally:
        # The group stays locked "until the processing of this event is
        # completed": confirm completion however it ended — executed, a
        # duplicate, or a callback that raised — so a floor waiting on
        # this receiver never waits out its lease.
        owner = payload.get("owner")
        if owner is not None:
            instance.send(Message.event_ack(instance.instance_id, owner, trace=trace))
        if span is not None:
            if error is not None:
                obs.spans.finish(span, executed=executed, error=error)
            elif fresh:
                obs.spans.finish(span, executed=executed)
            else:
                obs.spans.finish(span, duplicate=True)
    return executed


def _reexecute_locked(instance: Any, widget: UIObject, path: str, event: Event) -> None:
    """Re-execute *event* on *widget*, which *instance* owns at *path*,
    with the widget disabled (floor-locked) meanwhile."""
    widget.floor_lock()
    try:
        widget.reexecute(event.retargeted(path, instance.instance_id))
    finally:
        widget.floor_unlock()


def _local_widgets(
    instance: Any, group: Sequence[GlobalId], *, exclude: Optional[str] = None
) -> List[Tuple[str, UIObject]]:
    """The group members owned by *instance*, resolved to live widgets:
    ``(pathname, widget)`` pairs."""
    members: List[Tuple[str, UIObject]] = []
    for owner, path in group:
        if owner != instance.instance_id or path == exclude:
            continue
        widget = instance.find_widget(path)
        if widget is not None and not widget.destroyed:
            members.append((path, widget))
    return members
