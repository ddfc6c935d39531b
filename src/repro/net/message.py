"""Wire messages of the COSOFT communication protocol.

Everything the central server and the application instances exchange is a
:class:`Message`: a small, JSON-serializable envelope with a *kind*, a
sender, an optional addressee, a payload dict and request/reply
correlation ids.

The protocol is deliberately application-independent (§3.4): its kinds talk
about UI objects, couple links, locks, UI states and generic commands —
never about application semantics.  Application-specific protocols ride on
:data:`COMMAND` (the paper's ``CoSendCommand`` primitive).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import CodecError

# ---------------------------------------------------------------------------
# Message kinds
# ---------------------------------------------------------------------------

# Registration (server database: "registration records")
REGISTER = "register"              # client -> server: join the session
REGISTER_ACK = "register_ack"      # server -> client
UNREGISTER = "unregister"          # client -> server: leave (auto-decouples)
INSTANCE_LIST = "instance_list"    # server -> client: roster update broadcast

# Couple links (§3.2 "coupling information is replicated for each object")
COUPLE = "couple"                  # client -> server: create couple link
DECOUPLE = "decouple"              # client -> server: remove couple link
COUPLE_UPDATE = "couple_update"    # server -> all: link added/removed + groups
REMOTE_COUPLE = "remote_couple"    # third party -> server: couple remote objs
REMOTE_DECOUPLE = "remote_decouple"

# Floor control (§3.2 lock table)
LOCK_REQUEST = "lock_request"      # client -> server: lock CO(o)
LOCK_REPLY = "lock_reply"          # server -> client: granted / denied
UNLOCK = "unlock"                  # client -> server: release group lock

# Synchronization by multiple execution (§3.2)
EVENT = "event"                    # client -> server: high-level UI event
EVENT_BROADCAST = "event_broadcast"  # server -> clients: re-execute event
EVENT_ACK = "event_ack"            # client -> server: re-execution done
#   (the floor is released only when every receiver acked: objects stay
#   locked "until the processing of this event is completed", §3.2)

# Synchronization by UI state (§3.1)
FETCH_STATE = "fetch_state"        # CopyFrom: requester -> server -> owner
STATE_REPLY = "state_reply"        # owner -> server -> requester
PUSH_STATE = "push_state"          # CopyTo: owner -> server -> receiver(s)
REMOTE_COPY = "remote_copy"        # third party -> server: copy A's obj to B
RESYNC_REQUEST = "resync_request"  # delta receiver -> server -> owner: the
#   receiver lost delta continuity (missed seq / structure changed) and
#   asks the owner to re-send a full snapshot (docs/PERF.md)

# Protocol extension (§3.4)
COMMAND = "command"                # CoSendCommand: app-defined RPC
COMMAND_REPLY = "command_reply"

# Access permissions & history (server database categories)
PERMISSION_SET = "permission_set"
PERMISSION_REPLY = "permission_reply"
HISTORY_PUSH = "history_push"      # receiver backs up an overwritten state
UNDO_REQUEST = "undo_request"      # restore a historical UI state
UNDO_REPLY = "undo_reply"

# Cluster-internal group migration (sharded deployments; docs/CLUSTER.md).
# Only a cluster front-end router (sender "router") may issue these; a
# shard answers EXPORT with STATE and IMPORT with ACK.
MIGRATE_EXPORT = "migrate_export"  # router -> shard: extract a couple group
MIGRATE_STATE = "migrate_state"    # shard -> router: the group's state
MIGRATE_IMPORT = "migrate_import"  # router -> shard: install a couple group
MIGRATE_ACK = "migrate_ack"        # shard -> router: import complete

# Multi-process cluster plane (docs/CLUSTER.md).  Spoken only on the
# private router<->shard-worker links of a ``processes=True`` cluster and
# by the operator CLI; a shard worker rejects them from any sender other
# than the router.
SHARD_ATTACH = "shard_attach"      # router -> worker: claim the link
SHARD_HELLO = "shard_hello"        # worker -> router: ready + max seen did
SHARD_FORWARD = "shard_forward"    # router -> worker: deliver inner message
SHARD_UPLINK = "shard_uplink"      # worker -> router: ack + collected outputs
SHARD_PING = "shard_ping"          # router -> worker: liveness probe
SHARD_PONG = "shard_pong"          # worker -> router: liveness + load stats
SHARD_SYNC = "shard_sync"          # router -> worker: roster/ACL bootstrap
SHARD_INVENTORY = "shard_inventory"  # router -> worker: list stateful groups
SHARD_INVENTORY_REPLY = "shard_inventory_reply"  # worker -> router
SHARD_OBS_PULL = "shard_obs_pull"  # router -> worker: scrape metrics + spans
SHARD_OBS_REPLY = "shard_obs_reply"  # worker -> router: samples/span delta

# Cluster administration (operator CLI -> router; docs/CLUSTER.md).
CLUSTER_STATUS = "cluster_status"
CLUSTER_STATUS_REPLY = "cluster_status_reply"
CLUSTER_RESHARD = "cluster_reshard"          # add/remove a shard live
CLUSTER_RESHARD_REPLY = "cluster_reshard_reply"

# Errors
ERROR = "error"                    # server -> client: request failed

ALL_KINDS = frozenset(
    {
        # Retired log-shipping pair, still decodable: an older peer's
        # request gets the ERROR any unhandled kind gets, and the binary
        # codec's ids for them stay reserved.
        "catchup_request",
        "catchup_reply",
        MIGRATE_EXPORT,
        MIGRATE_STATE,
        MIGRATE_IMPORT,
        MIGRATE_ACK,
        REGISTER,
        REGISTER_ACK,
        UNREGISTER,
        INSTANCE_LIST,
        COUPLE,
        DECOUPLE,
        COUPLE_UPDATE,
        REMOTE_COUPLE,
        REMOTE_DECOUPLE,
        LOCK_REQUEST,
        LOCK_REPLY,
        UNLOCK,
        EVENT,
        EVENT_ACK,
        EVENT_BROADCAST,
        FETCH_STATE,
        STATE_REPLY,
        PUSH_STATE,
        REMOTE_COPY,
        RESYNC_REQUEST,
        COMMAND,
        COMMAND_REPLY,
        PERMISSION_SET,
        PERMISSION_REPLY,
        HISTORY_PUSH,
        UNDO_REQUEST,
        UNDO_REPLY,
        SHARD_ATTACH,
        SHARD_HELLO,
        SHARD_FORWARD,
        SHARD_UPLINK,
        SHARD_PING,
        SHARD_PONG,
        SHARD_SYNC,
        SHARD_INVENTORY,
        SHARD_INVENTORY_REPLY,
        SHARD_OBS_PULL,
        SHARD_OBS_REPLY,
        CLUSTER_STATUS,
        CLUSTER_STATUS_REPLY,
        CLUSTER_RESHARD,
        CLUSTER_RESHARD_REPLY,
        ERROR,
    }
)

_msg_counter = itertools.count(1)


def _next_msg_id() -> int:
    return next(_msg_counter)


#: ``json.dumps`` with non-default options builds an encoder per call;
#: the payload format is fixed, so one encoder serves every message.
_dumps = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


#: Kinds are fixed ASCII identifiers — their JSON form needs no escaping.
_WIRE_KINDS = {kind: f'"{kind}"' for kind in ALL_KINDS}

#: Endpoint ids repeat across nearly every message of a session; memoize
#: their (escaping-correct) JSON form instead of re-dumping per message.
_WIRE_IDS: "Dict[str, str]" = {}
_WIRE_IDS_MAX = 1024


def _wire_id(value: str) -> str:
    cached = _WIRE_IDS.get(value)
    if cached is None:
        cached = json.dumps(value)
        if len(_WIRE_IDS) >= _WIRE_IDS_MAX:
            _WIRE_IDS.clear()
        _WIRE_IDS[value] = cached
    return cached


@dataclass(frozen=True)
class Message:
    """One protocol message.

    Two ways to get one, chosen by who calls.  **Built from parts**,
    ``Message(kind=..., payload=...)`` validates: the kind is known, the
    payload's keys are strings, and one ``json.dumps`` proves the payload
    serializable *and* yields the text the JSON codec splices into the
    frame.  **Derived or decoded** — :meth:`addressed` / :meth:`with_trace`
    from a message that passed that check, :meth:`from_wire` from a decode
    that proved the payload JSON-safe — wraps the payload without walking
    it again.

    A fan-out is one message re-addressed: build the first copy, derive
    the rest.  That is all "shared" means — the copies hold the **same
    payload object** and the same holder of its per-codec encodings, so
    the payload is validated and serialized once per fan-out.

    Attributes
    ----------
    kind:
        One of the module-level kind constants.
    sender:
        The instance id of the sending endpoint (``"server"`` for the
        central controller).
    payload:
        Kind-specific JSON-safe data.  **Read-only for whoever is handed
        the message**: handlers treat payloads as immutable.  One payload
        container is shared by every ``Message`` of a fan-out, reaches
        in-process receivers by reference, and is interned by the binary
        decoder — a handler that wrote into it would edit what the next
        receiver reads.  Copy what you need to change
        (``tests/integration/test_payload_readonly.py`` holds every
        handler to this).
    to:
        Addressee instance id; empty string means "to the server" for
        client messages, and is never empty for server messages.  The
        empty string is never serialized.
    msg_id:
        Unique id for request/reply correlation.
    reply_to:
        The ``msg_id`` this message answers, or ``None``, which is never
        serialized.
    trace:
        Optional causal-trace context ``(trace_id, parent_span_id)``
        stamped by an observability-enabled endpoint (see
        :mod:`repro.obs.tracing`).  ``None`` — the default — is never
        serialized, so uninstrumented traffic is byte-identical to a
        build without tracing.
    """

    kind: str
    sender: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    to: str = ""
    msg_id: int = field(default_factory=_next_msg_id)
    reply_to: Optional[int] = None
    trace: Optional[Tuple[str, str]] = None
    #: The payload's encodings **keyed by codec name** (JSON ``str``, set
    #: when built from parts; binary sized-map ``bytes``), else filled in
    #: by the first encode that needs one.  Derived messages hold the same
    #: dict by reference: it is what a fan-out shares besides the payload.
    _encoded: Dict[str, Any] = field(
        init=False, repr=False, compare=False, default=None
    )
    #: Wire frames cached by the codecs, **keyed by codec name** — a
    #: message is immutable, so re-sends (retries, replays, broadcasts)
    #: skip re-serialization entirely, and a frame cached under one codec
    #: can never replay on a connection negotiated to another (a JSON
    #: frame must not answer a binary peer).  ``None`` until the first
    #: encode; codecs create the dict lazily.  Contract: each entry is
    #: one **complete frame** (4-byte length header + body) — exactly
    #: the bytes a transport writes — whose body is self-describing: the
    #: codecs' reference batch-envelope producer splices
    #: ``frame[HEADER_SIZE:]`` into an envelope as is (docs/PROTOCOL.md).
    _frames: Optional[Dict[str, bytes]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise CodecError(f"unknown message kind {self.kind!r}")
        trace = self.trace
        if trace is not None and type(trace) is not tuple:
            # Normalize list-form data so equality/hashing work.
            object.__setattr__(self, "trace", tuple(trace))
        payload = self.payload
        if type(payload) is not dict:
            payload = dict(payload)
        for key in payload:
            if not isinstance(key, str):
                raise CodecError(
                    f"payload of {self.kind!r} message has non-string "
                    f"key {key!r}"
                )
        # Validating and serializing are the same walk: one C-speed dump.
        try:
            body = _dumps(payload)
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"payload of {self.kind!r} message is not "
                f"JSON-serializable: {exc}"
            ) from exc
        object.__setattr__(self, "_encoded", {"json": body})

    @classmethod
    def event_ack(
        cls,
        sender: str,
        owner: Sequence[Any],
        *,
        trace: Optional[Tuple[str, str]] = None,
    ) -> "Message":
        """The :data:`EVENT_ACK` a receiver sends for floor *owner*.

        Byte-identical to ``Message(kind=EVENT_ACK, sender=sender,
        payload={"owner": [owner_id, token]}, trace=trace)``, but the
        payload has one fixed shape: its two fields are type-checked and
        its JSON is spliced, the way :meth:`wire_body` splices the
        envelope, instead of walked by a general ``json.dumps``.
        """
        if (type(owner) is not list and type(owner) is not tuple) or len(owner) != 2:
            raise CodecError(f"floor owner {owner!r} is not [str, int]")
        owner_id, token = owner
        if type(owner_id) is not str or type(token) is not int:
            raise CodecError(f"floor owner {owner!r} is not [str, int]")
        message = object.__new__(cls)
        message.__dict__.update(
            {
                "kind": EVENT_ACK,
                "sender": sender,
                "payload": {"owner": [owner_id, token]},
                "to": "",
                "msg_id": _next_msg_id(),
                "reply_to": None,
                "trace": trace,
                "_encoded": {"json": f'{{"owner":[{_wire_id(owner_id)},{token:d}]}}'},
                "_frames": None,
            }
        )
        return message

    def _derive(
        self, to: str, msg_id: int, trace: Optional[Tuple[str, str]]
    ) -> "Message":
        """A new envelope around this message's payload and its encodings,
        copied once; ``__post_init__`` is skipped — nothing it checks has
        changed."""
        message = object.__new__(Message)
        envelope = message.__dict__
        envelope.update(self.__dict__)
        envelope["to"] = to
        envelope["msg_id"] = msg_id
        envelope["trace"] = trace
        envelope["_frames"] = None
        return message

    def addressed(
        self, to: str, *, trace: Optional[Tuple[str, str]] = None
    ) -> "Message":
        """The same message for someone else.

        A new envelope (fresh ``msg_id``, its own ``to`` and ``trace``)
        around this message's payload object and its already-built
        encodings: nothing is validated or serialized again.
        """
        return self._derive(to, _next_msg_id(), trace)

    def with_trace(self, trace: Tuple[str, str]) -> "Message":
        """This message — same ``msg_id`` — under another trace context."""
        return self._derive(self.to, self.msg_id, trace)

    def wire_body(self) -> str:
        """The frame body: JSON identical to ``dumps(self.to_wire())``.

        Splices the payload serialization between cheaply-dumped scalar
        fields, preserving the codec's sorted-key, compact-separator
        format byte for byte.  Like :meth:`to_wire`, it leaves out
        ``reply_to``, ``to`` and ``trace`` at their defaults.
        """
        encoded = self._encoded
        payload_json = encoded.get("json")
        if payload_json is None:  # decoded; serialize on first use
            payload_json = encoded["json"] = _dumps(self.payload)
        reply_to = self.reply_to
        to = self.to
        trace = self.trace
        # Sorted key order: kind, msg_id, payload, reply_to, sender, to,
        # trace — each optional part slots in between the fixed ones
        # without disturbing byte-for-byte parity with
        # ``_dumps(self.to_wire())``.
        reply_part = "" if reply_to is None else f',"reply_to":{reply_to:d}'
        to_part = f',"to":{_wire_id(to)}' if to else ""
        trace_part = (
            ""
            if trace is None
            else f',"trace":[{_wire_id(trace[0])},{_wire_id(trace[1])}]'
        )
        return (
            f'{{"kind":{_WIRE_KINDS[self.kind]}'
            f',"msg_id":{self.msg_id:d}'
            f',"payload":{payload_json}{reply_part}'
            f',"sender":{_wire_id(self.sender)}{to_part}{trace_part}}}'
        )

    def reply(self, kind: str, sender: str, **payload: Any) -> "Message":
        """Build a reply to this message (correlated via ``reply_to``)."""
        return Message(
            kind=kind,
            sender=sender,
            to=self.sender,
            payload=payload,
            reply_to=self.msg_id,
        )

    def error_reply(self, sender: str, reason: str, **extra: Any) -> "Message":
        """Build an :data:`ERROR` reply carrying *reason*."""
        payload: Dict[str, Any] = {"reason": reason, "failed_kind": self.kind}
        payload.update(extra)
        return Message(
            kind=ERROR,
            sender=sender,
            to=self.sender,
            payload=payload,
            reply_to=self.msg_id,
        )

    def to_wire(self) -> Dict[str, Any]:
        """The envelope as a dict, without the fields at their defaults
        (``to=""``, ``reply_to=None``, ``trace=None``): :meth:`from_wire`
        fills them back in."""
        wire = {
            "kind": self.kind,
            "sender": self.sender,
            "payload": dict(self.payload),
            "msg_id": self.msg_id,
        }
        if self.to:
            wire["to"] = self.to
        if self.reply_to is not None:
            wire["reply_to"] = self.reply_to
        if self.trace is not None:
            wire["trace"] = list(self.trace)
        return wire

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "Message":
        """The decoders' constructor, for every codec.

        *data* came out of a decode, which proves the payload JSON-safe —
        it is wrapped as is, not walked or copied (``to_wire`` hands out
        copies anyway).  The envelope fields are whatever the peer wrote:
        their types are checked here.
        """
        try:
            kind, sender, msg_id = data["kind"], data["sender"], data["msg_id"]
        except (KeyError, TypeError) as exc:
            raise CodecError(f"malformed wire message: {exc!r}") from exc
        to = data.get("to", "")
        reply_to = data.get("reply_to")
        payload = data.get("payload", {})
        if (
            type(kind) is not str
            or type(sender) is not str
            or type(to) is not str
            or type(msg_id) is not int
            or (reply_to is not None and type(reply_to) is not int)
            or type(payload) is not dict
        ):
            raise CodecError(
                f"malformed envelope: kind={kind!r} sender={sender!r} to={to!r} "
                f"msg_id={msg_id!r} reply_to={reply_to!r} payload={payload!r:.40}"
            )
        if kind not in ALL_KINDS:
            raise CodecError(f"unknown message kind {kind!r}")
        trace = data.get("trace")
        if trace is not None:
            if type(trace) not in (list, tuple) or [*map(type, trace)] != [str, str]:
                raise CodecError(f"trace context {trace!r} is not two strings")
            trace = tuple(trace)
        message = object.__new__(cls)
        message.__dict__.update(
            kind=kind,
            sender=sender,
            payload=payload,
            to=to,
            msg_id=msg_id,
            reply_to=reply_to,
            trace=trace,
            _encoded={},
            _frames=None,
        )
        return message
