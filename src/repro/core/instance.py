"""The application-instance runtime: a COSOFT client.

An :class:`ApplicationInstance` is one replica in the fully replicated
architecture (Figure 4): it owns a widget tree (its user interface), its
own application functionality (callbacks and semantic data), a connection
to the central server, and a local replica of the coupling information.

Converting a single-user application into a multi-user one takes exactly
the paper's promise — "no more programming than inserting a statement to
register the application with the server":

    inst = ApplicationInstance("editor-1", user="alice").connect(network)
    inst.add_root(shell)        # the existing single-user widget tree
    inst.register()

From then on every ``widget.fire(...)`` is routed through the
multiple-execution algorithm whenever the widget is coupled, and stays
purely local otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core import action_sync, coupling, state_sync
from repro.core.action_sync import ExecutionResult, FloorGrant
from repro.core.commands import CommandRegistry
from repro.core.compat import ComponentMapping, CorrespondenceRegistry
from repro.core.continuity import Continuity, Sent
from repro.core.receiver import DUPLICATE, GAP, Receiver
from repro.core.semantic import SemanticHookRegistry
from repro.core.state_sync import ApplyReport, STRICT
from repro.errors import (
    NotRegisteredError,
    PathError,
    ReproError,
    ServerError,
)
from repro.net import kinds
from repro.net.aio import AioClientTransport
from repro.net.memory import MemoryNetwork
from repro.net.message import Message
from repro.net.tcp import TcpClientTransport
from repro.net.transport import Transport
from repro.obs import NULL_OBS
from repro.obs.log import get_logger
from repro.server.couples import CoupleTable, GlobalId, gid_from_wire, gid_to_wire
from repro.server.permissions import PermissionRule
from repro.server.registry import RegistrationRecord, record_from_delta
from repro.toolkit.builder import shape
from repro.toolkit.events import Event, EventTrace
from repro.toolkit.tree import apply_subtree_state, subtree_state
from repro.toolkit.widget import PATH_SEPARATOR, UIObject, state_clock

WidgetRef = Union[UIObject, str]

_log = get_logger("core.instance")

#: ``stats`` key counting each received kind, formatted once per kind.
_RX_STATS = {kind: f"rx_{kind}" for kind in kinds.ALL_KINDS}


def _blob_fingerprint(blob: Any) -> str:
    """Fingerprint an arbitrary (repr-stable) payload blob.

    Used to skip re-shipping an unchanged semantic blob in delta pushes;
    both sides of a comparison are produced by the same process, so repr
    stability within one run is all that is required.
    """
    return hashlib.sha1(repr(blob).encode("utf-8")).hexdigest()


class ApplicationInstance:
    """One application instance in the COSOFT architecture.

    Parameters
    ----------
    instance_id:
        Globally unique identifier (the first half of the paper's
        ``<instance-id, pathname>`` object ids).
    user:
        The participant operating this instance (permissions key on it).
    app_type:
        Free-form application type tag; heterogeneous coupling means
        coupling instances with different ``app_type``.
    correspondences:
        Type-correspondence registry for heterogeneous object coupling;
        defaults to the process-wide registry.
    lock_timeout / request_timeout:
        How long blocking operations wait for server replies (simulated
        seconds on the memory network, wall seconds on TCP).
    """

    def __init__(
        self,
        instance_id: str,
        user: str,
        *,
        app_type: str = "",
        host: str = "localhost",
        correspondences: Optional[CorrespondenceRegistry] = None,
        lock_timeout: float = 5.0,
        request_timeout: float = 5.0,
        replica_fast_path: bool = True,
        observability=None,
        trace_maxlen: Optional[int] = None,
    ):
        if not instance_id or instance_id in ("server", "router"):
            # Both endpoint names are reserved: "server" is the central
            # controller, "router" the cluster front-end's internal sender.
            raise ValueError(f"invalid instance id {instance_id!r}")
        self.instance_id = instance_id
        self.user = user
        self.app_type = app_type
        self.host = host
        self.correspondences = correspondences
        self.lock_timeout = lock_timeout
        self.request_timeout = request_timeout
        #: Use the local replica of the coupling information to keep
        #: uncoupled interaction fully local (§3.2 "to be completely
        #: available locally").  ``False`` forces every event through the
        #: server — kept for the ablation benchmark quantifying what the
        #: replica buys.
        self.replica_fast_path = replica_fast_path

        self._roots: Dict[str, UIObject] = {}
        #: Local replica of the server's couple table, restricted to the
        #: groups this instance's own objects belong to (§3.2).
        self.replica = CoupleTable()
        #: Replica of the server's registration records: the full roster
        #: from REGISTER_ACK, then one delta per join or leave, applied
        #: in the order :attr:`receiver` rules (:meth:`_on_roster`) to
        #: this dict in place — on a socket transport by the receive
        #: thread, so a reader on another thread copies it first.
        self.roster: Dict[str, RegistrationRecord] = {}
        #: Which numbered deliveries (roster changes, events) apply.
        self.receiver = Receiver()
        self.semantics = SemanticHookRegistry()
        self.commands = CommandRegistry()
        #: The user's own events, granted or denied: the input log that
        #: :class:`~repro.tools.replay.SessionRecorder` cuts.
        self.trace = EventTrace(capacity=trace_maxlen)
        #: Observability hooks shared with the deployment (the disabled
        #: stand-in unless the Session wires a live one in).
        self.obs = observability if observability is not None else NULL_OBS
        self.stats: Counter = Counter()
        self.registered = False
        self.last_execution: Optional[ExecutionResult] = None

        self._transport: Optional[Transport] = None
        self._replies: Dict[int, Message] = {}
        #: msg_ids whose request timed out: a late reply is dropped instead
        #: of accumulating forever in ``_replies``.  A floor request that
        #: carried an event maps to that event — the server may have
        #: granted and broadcast it after all
        #: (:func:`action_sync.apply_late_reply`); anything else to None.
        self._abandoned: Dict[int, Optional[Event]] = {}
        #: Delta continuity; touched only under the transport guard.
        self.continuity = Continuity()
        self._tokens = itertools.count(1)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def connect(self, network: MemoryNetwork) -> "ApplicationInstance":
        """Attach to a simulated network; returns self for chaining."""
        self.bind(network.attach(self.instance_id, self.handle_message))
        return self

    def connect_tcp(
        self, host: str, port: int, *, codec: str = "json"
    ) -> "ApplicationInstance":
        """Connect to a TCP server; returns self for chaining.

        *codec* names the outbound wire codec (``"json"``/``"binary"``);
        the server detects it per connection and answers in kind.
        """
        self.bind(
            TcpClientTransport(
                self.instance_id, self.handle_message, host, port, codec=codec
            )
        )
        return self

    def connect_aio(
        self, host: str, port: int, *, loop=None, codec: str = "json"
    ) -> "ApplicationInstance":
        """Connect through a shared event loop; returns self for chaining.

        With ``loop=None`` the transport starts a private loop thread;
        passing a running loop (e.g. the aio runtime's) lets any number
        of instances share one thread for all their connections.  *codec*
        selects the outbound wire codec, as in :meth:`connect_tcp`.
        """
        self.bind(
            AioClientTransport(
                self.instance_id,
                self.handle_message,
                host,
                port,
                loop=loop,
                codec=codec,
            )
        )
        return self

    def bind(self, transport: Transport) -> None:
        self._transport = transport

    @property
    def transport(self) -> Optional[Transport]:
        return self._transport

    @property
    def roster_version(self) -> int:
        """The registry version :attr:`roster` reflects."""
        return self.receiver.roster.known

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def register(self) -> None:
        """Join the session: the paper's one-statement multi-user upgrade."""
        reply = self.request(
            Message(
                kind=kinds.REGISTER,
                sender=self.instance_id,
                payload={
                    "user": self.user,
                    "host": self.host,
                    "app_type": self.app_type,
                },
            )
        )
        if reply is None:
            raise ServerError("registration timed out")
        # The ack's roster was adopted on arrival (_dispatch_message).
        self.registered = True
        coupling.bootstrap_replica(self.replica, reply.payload.get("couples"))

    def unregister(self) -> None:
        """Leave the session; the server auto-decouples our objects."""
        if not self.registered:
            return
        self.send(Message(kind=kinds.UNREGISTER, sender=self.instance_id))
        self.registered = False
        self.replica.clear()
        with self._guard():
            self.continuity.clear()

    def close(self) -> None:
        """Unregister and release the transport."""
        transport = self._transport
        if transport is None:
            return
        try:
            if self.registered and not transport.closed:
                self.unregister()
        finally:
            transport.close()
            self._transport = None

    # ------------------------------------------------------------------
    # Widget trees
    # ------------------------------------------------------------------

    def add_root(self, widget: UIObject) -> UIObject:
        """Adopt a widget tree; its events now route through this runtime."""
        if widget.parent is not None:
            raise ValueError("only root widgets can be added to an instance")
        if widget.name in self._roots:
            raise ValueError(f"root {widget.name!r} already added")
        self._roots[widget.name] = widget
        widget.attach_runtime(self)
        return widget

    def roots(self) -> Tuple[UIObject, ...]:
        return tuple(self._roots.values())

    def find_widget(self, pathname: str) -> Optional[UIObject]:
        """Resolve an absolute pathname to a live widget, or ``None``.
        Every broadcast target goes through here: split once, then walked."""
        parts = [p for p in pathname.split(PATH_SEPARATOR) if p]
        node = self._roots.get(parts[0]) if parts else None
        for part in parts[1:]:
            if node is None:
                break
            node = node._children.get(part)
        return node

    def widget(self, pathname: str) -> UIObject:
        """Like :meth:`find_widget` but raising :class:`PathError`."""
        found = self.find_widget(pathname)
        if found is None:
            raise PathError(pathname)
        return found

    def gid(self, ref: WidgetRef) -> GlobalId:
        """The global id ``<instance-id, pathname>`` of a local widget."""
        pathname = ref.pathname if isinstance(ref, UIObject) else str(ref)
        return (self.instance_id, pathname)

    # ------------------------------------------------------------------
    # Coupling (§3.2, §3.3)
    # ------------------------------------------------------------------

    def couple(self, source: WidgetRef, target: GlobalId) -> None:
        """Create a couple link from a local object to *target*."""
        self._couple_request(kinds.COUPLE, self.gid(source), target)

    def decouple(self, source: WidgetRef, target: GlobalId) -> None:
        """Remove the couple link between a local object and *target*."""
        self._couple_request(kinds.DECOUPLE, self.gid(source), target)

    def decouple_object(self, source: WidgetRef) -> None:
        """Remove every couple link touching a local object (and its
        subtree) — leaving a group entirely, the same operation the
        automatic decoupling on destroy performs (§3.2)."""
        self._require_connected()
        reply = self.request(
            Message(
                kind=kinds.DECOUPLE,
                sender=self.instance_id,
                payload={"object": gid_to_wire(self.gid(source))},
            )
        )
        if reply is None:
            raise ServerError("decouple_object timed out")

    def remote_couple(self, source: GlobalId, target: GlobalId) -> None:
        """Couple two objects in (possibly) other instances (§3.3):
        "allow a third application instance to couple objects in remote
        instances"."""
        self._couple_request(kinds.REMOTE_COUPLE, source, target)

    def remote_decouple(self, source: GlobalId, target: GlobalId) -> None:
        self._couple_request(kinds.REMOTE_DECOUPLE, source, target)

    def _couple_request(self, kind: str, source: GlobalId, target: GlobalId) -> None:
        self._require_connected()
        reply = self.request(
            Message(
                kind=kind,
                sender=self.instance_id,
                payload={
                    "source": gid_to_wire(source),
                    "target": gid_to_wire(target),
                },
            )
        )
        if reply is None:
            raise ServerError(f"{kind} request timed out")

    def coupled_objects(self, ref: WidgetRef) -> Tuple[GlobalId, ...]:
        """The paper's ``CO(o)`` for a local object, from the replica."""
        return tuple(sorted(self.replica.coupled_objects(self.gid(ref))))

    def is_coupled(self, ref: WidgetRef) -> bool:
        return self.replica.is_coupled(self.gid(ref))

    # ------------------------------------------------------------------
    # Synchronization by UI state (§3.1)
    # ------------------------------------------------------------------

    def fetch_state(self, source: GlobalId) -> Dict[str, Any]:
        """Fetch a remote object's state payload *without* applying it.

        Returns the raw payload (``structure``, ``state`` and — if the
        owner registered hooks — ``semantic``).  Used for inspection UIs
        such as the §4 coupling control panel, which shows "a (potentially
        simplified) graphical representation of the student's environment".
        """
        reply = self.request(
            Message(
                kind=kinds.FETCH_STATE,
                sender=self.instance_id,
                payload={"object": gid_to_wire(source)},
            )
        )
        if reply is None:
            raise ServerError("fetch_state timed out")
        return dict(reply.payload)

    def copy_from(
        self,
        local: WidgetRef,
        source: GlobalId,
        *,
        mode: str = STRICT,
        strategy: str = state_sync.AUTO,
        predefined: Optional[ComponentMapping] = None,
    ) -> ApplyReport:
        """Active synchronization: pull *source*'s state onto a local object.

        "With the active synchronization (implemented as a function
        CopyFrom) ... an application actively requests the state of UI
        objects in other instances, and updates its own state" (§3.1).

        Returns once the state is applied, or raises.  Repeat STRICT
        fetches of one source are answered with a delta, exactly as
        :meth:`copy_to`'s repeat pushes are (one stream per pair of
        objects, whichever end starts a transfer).
        """
        widget = self._resolve_local(local)
        # A STRICT fetch rides the delta protocol: the request says where
        # the last transfer from *source* left this object, and the owner
        # answers with what it wrote since — or with everything, when
        # either end's record of that transfer is gone or stale.  A delta
        # is translated along the mapping cached at first contact, so a
        # caller who names a mapping or a matcher gets a full transfer.
        in_protocol = (
            mode == STRICT and predefined is None and strategy == state_sync.AUTO
        )
        with self._guard():
            known = self.continuity.known((widget.pathname, source), widget)
        for _attempt in range(2):
            request: Dict[str, Any] = {"object": gid_to_wire(source)}
            if in_protocol:
                request["sync"] = {
                    "target": gid_to_wire(self.gid(widget)),
                    "seq": known[0],
                    "fp": known[1],
                }
            reply = self.request(
                Message(
                    kind=kinds.FETCH_STATE, sender=self.instance_id, payload=request
                )
            )
            if reply is None:
                raise ServerError("copy_from timed out")
            with self._guard():
                report = self._apply_transfer(
                    widget,
                    reply.payload,
                    "copy_from",
                    mode=mode,
                    strategy=strategy,
                    predefined=predefined,
                )
            if report is not None:
                return report
            known = (0, None)  # continuity lost: once more, for a full snapshot
        raise ServerError("copy_from: the owner answered seq 0 with a delta")

    def copy_to(
        self,
        local: WidgetRef,
        target: GlobalId,
        *,
        mode: str = STRICT,
        predefined: Optional[ComponentMapping] = None,
    ) -> None:
        """Passive synchronization: push a local object's state at *target*.

        "The passive synchronization (implemented as a function CopyTo)
        indicates a scenario in which one person lets another person see
        his or her work" (§3.1).

        Repeat STRICT pushes to the same target ship only the attributes
        written since the last acknowledged transfer (no structure, no
        unchanged state); the receiver detects continuity loss via
        sequence/fingerprint checks and requests a full resync.
        """
        widget = self._resolve_local(local)
        key = (widget.pathname, target)
        with self._guard():
            base = self.continuity.entry_for(key)
            payload, commit = self._build_push_payload(
                widget, target, mode, predefined, base
            )
        reply = None
        try:
            reply = self.request(
                Message(
                    kind=kinds.PUSH_STATE, sender=self.instance_id, payload=payload
                )
            )
        finally:
            # Unacknowledged, refused or outside the protocol: no record,
            # the next push is full.  A resync the loop thread answered
            # meanwhile (the target rejected this push) stays.
            with self._guard():
                self.continuity.commit_if_current(
                    key, base, commit if reply is not None else None
                )
        if reply is None:
            raise ServerError("copy_to timed out")

    def _build_push_payload(
        self,
        widget: UIObject,
        target: GlobalId,
        mode: str,
        predefined: Optional[ComponentMapping],
        entry: Optional[Sent],
        *,
        counted_as: str = "pushes",
    ) -> Tuple[Dict[str, Any], Optional[Sent]]:
        """Build the payload of a transfer at *target*, delta-encoded when
        safe: a PUSH_STATE, or the STATE_REPLY to a fetch that named it.
        *entry* is the record to continue from (``None``: a full
        snapshot).

        Returns ``(payload, commit)`` where *commit* is the record to
        keep once the transfer is sent or acknowledged (``None`` when the
        transfer is outside the delta protocol entirely).
        """
        addressing = {
            "target": gid_to_wire(target),
            "mode": mode,
            "source": gid_to_wire(self.gid(widget)),
        }
        if mode != STRICT or predefined is not None:
            # MERGE/FLEXIBLE rewrite structure, predefined mappings bypass
            # the cached-mapping path: a full snapshot, and no record.
            payload = state_sync.build_state_payload(widget, self.semantics)
            payload.update(addressing)
            if predefined is not None:
                payload["predefined"] = dict(predefined)
            return payload, None
        # Baseline *before* reading state: attributes written between the
        # snapshot and the read are shipped now and again in the next
        # delta — at-least-once per attribute, never lost.
        baseline = state_clock()
        fp = shape(widget).fingerprint
        delta = entry is not None and entry.fp == fp
        payload = state_sync.build_state_payload(
            widget,
            self.semantics,
            include_structure=not delta,
            since=entry.baseline if delta else None,
        )
        payload.update(addressing)
        stored = payload.get("semantic")
        sem_fp = _blob_fingerprint(stored) if stored else None
        seq = self.continuity.next_seq()
        if delta:
            payload["sync"] = {
                "delta": True,
                "seq": seq,
                "base": entry.seq,
                "fp": fp,
            }
            if stored and sem_fp == entry.sem_fp:
                del payload["semantic"]
            self.stats[f"delta_{counted_as}"] += 1
        else:
            payload["sync"] = {"delta": False, "seq": seq, "fp": fp}
            self.stats[f"full_{counted_as}"] += 1
        return payload, Sent(seq, baseline, fp, sem_fp)

    def remote_copy(
        self, source: GlobalId, target: GlobalId, *, mode: str = STRICT
    ) -> None:
        """Third-party copy: "remotely copy complex UI objects from the
        first application instance ... into a third application instance"
        (§3.1, the RemoteCopy primitive)."""
        reply = self.request(
            Message(
                kind=kinds.REMOTE_COPY,
                sender=self.instance_id,
                payload={
                    "source": gid_to_wire(source),
                    "target": gid_to_wire(target),
                    "mode": mode,
                },
            )
        )
        if reply is None:
            raise ServerError("remote_copy timed out")

    def undo(self, local: WidgetRef) -> bool:
        """Restore the most recent overwritten UI state of a local object."""
        return self._history_restore(local, redo=False)

    def redo(self, local: WidgetRef) -> bool:
        """Inverse of :meth:`undo`."""
        return self._history_restore(local, redo=True)

    def _history_restore(self, local: WidgetRef, *, redo: bool) -> bool:
        widget = self._resolve_local(local)
        current = subtree_state(widget, relevant_only=True)
        try:
            reply = self.request(
                Message(
                    kind=kinds.UNDO_REQUEST,
                    sender=self.instance_id,
                    payload={
                        "object": gid_to_wire(self.gid(widget)),
                        "current_state": current,
                        "redo": redo,
                    },
                )
            )
        except ServerError:
            return False
        if reply is None:
            return False
        state = reply.payload.get("state", {})
        apply_subtree_state(widget, state)
        return True

    def _push_history(
        self, widget: UIObject, old_state: Mapping[str, Any], reason: str
    ) -> None:
        if not self.registered:
            return
        self.send(
            Message(
                kind=kinds.HISTORY_PUSH,
                sender=self.instance_id,
                payload={
                    "object": gid_to_wire(self.gid(widget)),
                    "state": dict(old_state),
                    "reason": reason,
                    "user": self.user,
                },
            )
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def export_ui(self) -> Dict[str, Any]:
        """Serialize every root widget tree (structure + full state).

        The result is JSON-safe; :meth:`import_ui` reconstructs the trees
        in a fresh instance — e.g. to persist a workspace across runs or
        to seed a test fixture from a live session.
        """
        from repro.toolkit.builder import to_spec

        return {
            "roots": [
                to_spec(root, full_state=True) for root in self.roots()
            ],
        }

    def import_ui(self, exported: Mapping[str, Any]) -> List[UIObject]:
        """Rebuild previously exported widget trees as roots of this
        instance.  Root names must not collide with existing roots."""
        from repro.toolkit.builder import build

        added: List[UIObject] = []
        for spec in exported.get("roots", []):
            added.append(self.add_root(build(spec)))
        return added

    # ------------------------------------------------------------------
    # CoSendCommand (§3.4)
    # ------------------------------------------------------------------

    def send_command(
        self,
        command: str,
        data: Any = None,
        *,
        targets: Optional[List[str]] = None,
        want_reply: bool = False,
        timeout: Optional[float] = None,
    ) -> Optional[Any]:
        """Send an application-defined command through the server.

        With ``want_reply`` the call blocks for the first COMMAND_REPLY and
        returns its data (sensible with a single target).
        """
        self._require_connected()
        message = Message(
            kind=kinds.COMMAND,
            sender=self.instance_id,
            payload={
                "command": command,
                "data": data,
                "targets": list(targets or []),
                "want_reply": want_reply,
            },
        )
        if not want_reply:
            self.send(message)
            return None
        reply = self.request(message, timeout=timeout)
        if reply is None:
            raise ServerError(f"command {command!r} got no reply")
        return reply.payload.get("data")

    def on_command(self, command: str, handler: Any) -> None:
        """Register the receiver-side function interpreting *command*."""
        self.commands.register(command, handler)

    # ------------------------------------------------------------------
    # Permissions
    # ------------------------------------------------------------------

    def set_permission(self, rule: PermissionRule, *, action: str = "add") -> None:
        reply = self.request(
            Message(
                kind=kinds.PERMISSION_SET,
                sender=self.instance_id,
                payload={"rule": rule.to_wire(), "action": action},
            )
        )
        if reply is None:
            raise ServerError("permission_set timed out")

    # ------------------------------------------------------------------
    # Floor control (explicit; normally implicit in fire())
    # ------------------------------------------------------------------

    def acquire_floor(self, ref: WidgetRef) -> Optional[FloorGrant]:
        """Explicitly lock a couple group (e.g. around a long operation)."""
        return action_sync.request_floor(
            self, self.gid(ref), timeout=self.lock_timeout
        )

    def release_floor(self, grant: FloorGrant) -> None:
        action_sync.release_floor(self, grant)

    # ------------------------------------------------------------------
    # Runtime interface (used by widgets and the action-sync algorithm)
    # ------------------------------------------------------------------

    def process_local_event(self, widget: UIObject, event: Event) -> ExecutionResult:
        """Entry point for every local ``widget.fire(...)``."""
        with self._guard():
            return self._process_local_event(widget, event)

    def _process_local_event(self, widget: UIObject, event: Event) -> ExecutionResult:
        self.trace.record(event)
        undo = widget.apply_feedback(event)
        source = (self.instance_id, widget.pathname)
        if not self.registered or self._transport is None or (
            self.replica_fast_path and not self.replica.is_coupled(source)
        ):
            # Uncoupled objects never touch the network: interaction stays
            # fully local, the key win of the replicated architecture.
            widget.run_callbacks(event)
            self.stats["events_local"] += 1
            result = ExecutionResult(executed=True, local_only=True)
        else:
            result = action_sync.run_multiple_execution(
                self, widget, event, undo, timeout=self.lock_timeout
            )
        self.last_execution = result
        return result

    def next_token(self) -> int:
        return next(self._tokens)

    def send(self, message: Message) -> None:
        self._require_connected()
        assert self._transport is not None
        self._transport.send(message)

    def request(
        self,
        message: Message,
        timeout: Optional[float] = None,
        *,
        late: Optional[Event] = None,
    ) -> Optional[Message]:
        """Send *message* and block for its correlated reply.

        Returns ``None`` on timeout.  An ERROR reply raises
        :class:`ServerError`.  *late* is the event a floor request
        carries: kept past a timeout, for the reply that may still come.
        """
        self._require_connected()
        assert self._transport is not None
        self._transport.send(message)
        msg_id = message.msg_id
        arrived = self._transport.drive(
            lambda: msg_id in self._replies,
            timeout=self.request_timeout if timeout is None else timeout,
        )
        if not arrived:
            self.stats["request_timeouts"] += 1
            self._abandoned[msg_id] = late
            return None
        reply = self._replies.pop(msg_id)
        if reply.kind == kinds.ERROR:
            raise ServerError(
                f"server rejected {message.kind}: {reply.payload.get('reason')}"
            )
        return reply

    def on_widget_destroyed(self, widget: UIObject) -> None:
        """Runtime hook from the toolkit: auto-decouple destroyed objects.

        "The decoupling algorithm is applied automatically when a UI object
        is destroyed" (§3.2).  Delta continuity with the object ends
        here too; every destroyed descendant gets its own call.
        """
        gid = self.gid(widget)
        with self._guard():
            self.continuity.forget(lambda local, _remote: local == gid[1])
        if not self.registered or self._transport is None:
            return
        if not coupling.subtree_is_coupled(self.replica, *gid):
            return
        self.send(
            Message(
                kind=kinds.DECOUPLE,
                sender=self.instance_id,
                payload={"object": gid_to_wire(gid)},
            )
        )

    # ------------------------------------------------------------------
    # Inbound message handling
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        """Sans-I/O inbound dispatch (invoked by the bound transport).

        Replies are stashed for :meth:`request` before dispatch, so even a
        malformed reply unblocks its waiter.  A handler that raises — on a
        garbage payload, or in an application callback re-executing an
        event — is counted in ``stats['malformed_messages']``: one bad
        message must not kill the receive path.
        """
        self.stats[_RX_STATS[message.kind]] += 1
        late = None
        if message.reply_to is not None:
            if message.reply_to in self._abandoned:
                late = self._abandoned.pop(message.reply_to)
                self.stats["late_replies"] += 1
            else:
                self._replies[message.reply_to] = message
        try:
            if late is not None:
                action_sync.apply_late_reply(self, late, message)
            self._dispatch_message(message)
        except Exception:
            self.stats["malformed_messages"] += 1
            _log.warning("%s: %s failed", self.instance_id, message.kind, exc_info=True)

    def _dispatch_message(self, message: Message) -> None:
        if message.kind == kinds.COUPLE_UPDATE:
            coupling.apply_couple_update(
                self.replica, message.payload, self.instance_id
            )
        elif message.kind == kinds.INSTANCE_LIST:
            self._on_roster(message.payload)
        elif message.kind == kinds.EVENT_BROADCAST:
            action_sync.apply_remote_event(
                self, message.payload, trace=message.trace
            )
        elif message.kind == kinds.FETCH_STATE:
            self._on_fetch_state(message)
        elif message.kind == kinds.PUSH_STATE:
            self._on_push_state(message)
        elif message.kind == kinds.RESYNC_REQUEST:
            self._on_resync_request(message)
        elif message.kind == kinds.COMMAND:
            self._on_command(message)
        elif message.kind == kinds.REGISTER_ACK:
            # Adopted here, not in register(): in order with the deltas
            # that follow the ack on the connection.
            self._on_roster(message.payload, opens=True)

    def _on_fetch_state(self, message: Message) -> None:
        """Owner side of CopyFrom/RemoteCopy: serialize the asked object.

        A fetch with a ``sync`` block is a push its target asked for:
        the reply is what :meth:`_build_push_payload` builds for that
        target.  A block with a ``seq`` (CopyFrom) says where the
        requester stands, and a delta is only sent from exactly there;
        without one (RemoteCopy) this end's own entry decides, as for a
        push, and the target's continuity check is the safety net.
        """
        obj = gid_from_wire(message.payload["object"])
        widget = self.find_widget(obj[1])
        if widget is None or widget.destroyed:
            self.send(
                message.error_reply(
                    self.instance_id, f"no such object {obj[1]!r}"
                )
            )
            return
        sync = message.payload.get("sync")
        if sync is None:
            payload = state_sync.build_state_payload(widget, self.semantics)
        else:
            target = gid_from_wire(sync["target"])
            key = (widget.pathname, target)
            requester = (sync["seq"], sync.get("fp")) if "seq" in sync else None
            entry = self.continuity.entry_for(key, requester)
            payload, commit = self._build_push_payload(
                widget, target, STRICT, None, entry, counted_as="fetches"
            )
            # Optimistic, as in _on_resync_request: a lost reply leaves
            # the requester behind this record, which its next fetch says
            # (``seq``) or its continuity check finds.
            self.continuity.commit_if_current(key, entry, commit)
        payload["object"] = gid_to_wire(obj)
        self.send(
            Message(
                kind=kinds.STATE_REPLY,
                sender=self.instance_id,
                payload=payload,
                reply_to=message.msg_id,
            )
        )

    def _on_push_state(self, message: Message) -> None:
        """Receiver side of CopyTo/RemoteCopy: apply the shipped state."""
        payload = message.payload
        target = gid_from_wire(payload["target"])
        widget = self.find_widget(target[1])
        if widget is None or widget.destroyed:
            self.stats["push_state_misses"] += 1
            return
        predefined = payload.get("predefined")
        try:
            report = self._apply_transfer(
                widget,
                payload,
                "push_state",
                mode=str(payload.get("mode", STRICT)),
                predefined=dict(predefined) if predefined else None,
            )
        except ReproError:
            self.stats["push_state_failures"] += 1
            return
        if report is None:
            self._request_resync(gid_from_wire(payload["source"]), target)

    def _apply_transfer(
        self,
        widget: UIObject,
        payload: Mapping[str, Any],
        reason: str,
        *,
        mode: str = STRICT,
        strategy: str = state_sync.AUTO,
        predefined: Optional[ComponentMapping] = None,
    ) -> Optional[ApplyReport]:
        """Apply one state transfer onto *widget* — a PUSH_STATE or the
        STATE_REPLY of a fetch; the delta protocol is the same in both.

        Returns the report, or ``None`` for a delta whose continuity is
        lost: nothing was applied and the caller asks for a full
        snapshot its own way (push: RESYNC_REQUEST; fetch: once more).
        An incompatible pair raises, for the caller to report.
        """
        sync = payload.get("sync")
        if sync and sync.get("delta"):
            key = (widget.pathname, gid_from_wire(payload["source"]))
            state = self.continuity.accept(
                key, widget, sync, payload.get("state", {}), self.correspondences
            )
            if state is None:
                self.stats["delta_resyncs"] += 1
                return None
            delta = {"state": state}
            if "semantic" in payload:
                delta["semantic"] = payload["semantic"]
            # Structure-less: applied by identical relative paths.
            report = state_sync.apply_state_payload(
                widget, delta, semantics=self.semantics
            )
            mapping = self.continuity.received[key].mapping
            if mapping is not None:
                report.mapping = dict(mapping)
                report.mapping_size = len(mapping)
            self.continuity.advance(key, int(sync["seq"]))
            self.stats["deltas_applied"] += 1
        else:
            report = state_sync.apply_state_payload(
                widget,
                payload,
                mode=mode,
                strategy=strategy,
                semantics=self.semantics,
                correspondences=self.correspondences,
                predefined=predefined,
            )
            if sync is not None and "source" in payload:
                # Full snapshot under the delta protocol: (re)establish
                # the continuity baseline for this sender/target pair.
                self.continuity.advance(
                    (widget.pathname, gid_from_wire(payload["source"])),
                    int(sync["seq"]),
                    fp=sync.get("fp"),
                    local_fp=shape(widget).fingerprint,
                    types=report.source_types,
                    mapping=report.mapping,
                )
        self._push_history(widget, report.old_state, reason=reason)
        self.stats["states_applied"] += 1
        return report

    def _request_resync(self, source: GlobalId, target: GlobalId) -> None:
        """Ask the server to have *source*'s owner re-push a full snapshot."""
        if self._transport is None or self._transport.closed or not self.registered:
            return
        self.send(
            Message(
                kind=kinds.RESYNC_REQUEST,
                sender=self.instance_id,
                payload={
                    "object": gid_to_wire(source),
                    "target": gid_to_wire(target),
                },
            )
        )

    def _on_resync_request(self, message: Message) -> None:
        """Sender side of a resync: re-push a full snapshot, fire-and-forget.

        Runs inside the inbound dispatch, so it must not block on a
        correlated reply (a nested ``request`` could deadlock the memory
        network pump); the server's PUSH_STATE ack is pre-abandoned
        instead.  If the push is lost the receiver simply resyncs again.
        """
        payload = message.payload
        obj = gid_from_wire(payload["object"])
        target = gid_from_wire(payload["target"])
        widget = self.find_widget(obj[1])
        if widget is None or widget.destroyed:
            self.stats["resync_misses"] += 1
            return
        key = (widget.pathname, target)
        base = self.continuity.entry_for(key)
        push_payload, commit = self._build_push_payload(
            widget, target, STRICT, None, None
        )
        push = Message(
            kind=kinds.PUSH_STATE, sender=self.instance_id, payload=push_payload
        )
        self._abandoned[push.msg_id] = None
        self.send(push)
        # Optimistic: if this push is also lost, the receiver's next
        # continuity check fails and it asks again.
        self.continuity.commit_if_current(key, base, commit)
        self.stats["resync_pushes"] += 1

    def _on_command(self, message: Message) -> None:
        """Receiver side of CoSendCommand: unpack and interpret."""
        payload = message.payload
        command = str(payload.get("command", ""))
        try:
            reply_data = self.commands.dispatch(
                command, payload.get("data"), str(payload.get("origin", ""))
            )
        except ReproError:
            self.stats["command_failures"] += 1
            return
        if payload.get("want_reply"):
            self.send(
                Message(
                    kind=kinds.COMMAND_REPLY,
                    sender=self.instance_id,
                    payload={
                        "command": command,
                        "data": reply_data,
                        "origin": payload.get("origin", ""),
                        "origin_msg_id": payload.get("origin_msg_id"),
                    },
                )
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _on_roster(self, payload: Mapping[str, Any], *, opens: bool = False) -> None:
        """Apply one roster message as :attr:`receiver` rules by its
        version: a full roster (*opens*: a REGISTER_ACK's) or a delta."""
        stream = self.receiver.roster
        version = int(payload["version"])
        if "roster" in payload:
            records = [RegistrationRecord.from_wire(r) for r in payload["roster"]]
            if not stream.adopt(version, always=opens):
                self.stats["roster_duplicates"] += 1
                return
            held, self.roster = self.roster, {r.instance_id: r for r in records}
            self.receiver.registrations(held, self.roster)
            self.continuity.forget(lambda _local, remote: remote[0] not in self.roster)
            return
        verdict = stream.classify(version)
        if verdict == DUPLICATE:
            self.stats["roster_duplicates"] += 1
        elif verdict == GAP:
            transport = self._transport
            if transport is None or transport.closed or not self.registered:
                return
            if stream.ask(version, transport.now(), self.request_timeout):
                self.stats["roster_resyncs"] += 1
                self.send(
                    Message(
                        kind=kinds.RESYNC_REQUEST,
                        sender=self.instance_id,
                        payload={"roster": stream.known},
                    )
                )
        else:
            if "joined" in payload:
                record = record_from_delta(payload)
                self.roster[record.instance_id] = record
            else:
                left = str(payload["left"])
                self.roster.pop(left, None)
                self.receiver.left(left)
                self.continuity.forget(lambda _local, remote: remote[0] == left)
            stream.advance(version)

    def _guard(self):
        """The transport's guard against its message handlers, if bound."""
        transport = self._transport
        return transport.guard() if transport is not None else contextlib.nullcontext()

    def _resolve_local(self, ref: WidgetRef) -> UIObject:
        if isinstance(ref, UIObject):
            return ref
        return self.widget(str(ref))

    def _require_connected(self) -> None:
        if self._transport is None or self._transport.closed:
            raise NotRegisteredError(self.instance_id)

    def __repr__(self) -> str:
        return (
            f"<ApplicationInstance {self.instance_id!r} user={self.user!r} "
            f"registered={self.registered}>"
        )
