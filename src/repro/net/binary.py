"""The wire-efficient binary codec (``codec="binary"``).

JSON spends most of a frame on envelope punctuation, quoted attribute
names and decimal integers — pure overhead on the fan-out hot path,
where one logical event becomes N per-receiver frames (docs/PERF.md,
E11).  This codec replaces the JSON *body* behind the shared 4-byte
length framing with:

* a **struct-packed envelope** — magic, version, a one-byte id for the
  message kind, a flag byte, varint ``msg_id``/``reply_to`` and
  length-prefixed sender/addressee strings;
* a compact **tagged value encoding** for the payload (small ints and
  short strings in one tag byte, varint lengths for the rest — the
  msgpack idea, dependency-free);
* **interned attribute names**: the protocol's recurring payload keys
  and enum-like values are table indexes (2 bytes) instead of quoted
  strings.  The table is part of the wire format version — append-only,
  never reordered (docs/PROTOCOL.md).

The first body byte is :data:`MAGIC`, a UTF-8 continuation byte no JSON
document can start with, so binary and JSON frames coexist on one
connection and negotiation is pure auto-detection (see
:mod:`repro.net.codec`).

Two things keep the hot path cheap in *CPU*, not just bytes:

* the payload's encoded bytes live on the message (``Message._encoded``),
  in a holder the messages of one fan-out share by reference
  (``Message.addressed``), so the payload encodes once per fan-out;
* the decoder interns decoded payloads by their exact encoded bytes —
  the N in-process receivers of one broadcast share a single decoded
  dict instead of re-parsing N identical bodies.  Both rely on the
  read-only payload contract stated on :class:`repro.net.message.Message`.

Round-trip semantics are JSON's: tuples decode as lists, non-string map
keys are stringified exactly like ``json.dumps`` would, int/float/bool/
None/str/list/dict round-trip by value.  The property suite asserts
binary ≡ JSON on arbitrary messages (tests/property).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CodecError
from repro.net.codec import HEADER_SIZE, MAX_FRAME_SIZE, envelope_frame
from repro.net.message import Message

#: First body byte of every binary frame.  0xB5 is a UTF-8 continuation
#: byte: no JSON (UTF-8) body can begin with it.
MAGIC = 0xB5

#: Binary body layout version.  Bumped when the envelope layout, the
#: value tags, the kind table or the intern table change incompatibly.
VERSION = 1

_HEADER = struct.Struct(">I")
_FLOAT64 = struct.Struct(">d")

#: Flag-byte bits.
_FLAG_REPLY_TO = 0x01
_FLAG_TRACE = 0x02

# ---------------------------------------------------------------------------
# Wire tables (append-only; order is part of VERSION 1)
# ---------------------------------------------------------------------------

#: Message kinds by wire id.  APPEND ONLY — ids are on the wire.
KIND_TABLE: Tuple[str, ...] = (
    "register",
    "register_ack",
    "unregister",
    "instance_list",
    "couple",
    "decouple",
    "couple_update",
    "remote_couple",
    "remote_decouple",
    "lock_request",
    "lock_reply",
    "unlock",
    "event",
    "event_broadcast",
    "event_ack",
    "fetch_state",
    "state_reply",
    "push_state",
    "remote_copy",
    "resync_request",
    "command",
    "command_reply",
    "permission_set",
    "permission_reply",
    "history_push",
    "undo_request",
    "undo_reply",
    "migrate_export",
    "migrate_state",
    "migrate_import",
    "migrate_ack",
    "catchup_request",
    "catchup_reply",
    "error",
    "shard_attach",
    "shard_hello",
    "shard_forward",
    "shard_uplink",
    "shard_ping",
    "shard_pong",
    "shard_sync",
    "shard_inventory",
    "shard_inventory_reply",
    "cluster_status",
    "cluster_status_reply",
    "cluster_reshard",
    "cluster_reshard_reply",
    "shard_obs_pull",
    "shard_obs_reply",
)

#: Escape id for a kind not in :data:`KIND_TABLE` (inline string follows).
KIND_INLINE = 0xFF

_KIND_IDS: Dict[str, int] = {kind: i for i, kind in enumerate(KIND_TABLE)}

#: Interned strings: the protocol's recurring payload keys plus its
#: enum-like values (event types, coupling strategies, endpoint ids).
#: APPEND ONLY — indexes are on the wire.  Capped below 128 so every
#: index is a one-byte varint.
INTERN_TABLE: Tuple[str, ...] = (
    # payload keys (protocol envelope level)
    "action", "after_seq", "all", "app_type", "attrs", "author",
    "cause", "command", "conflicts", "couple_groups", "couple_links",
    "couples", "current_state", "data", "delta", "entries", "event",
    "failed_kind", "fingerprint", "first_seq", "floors", "fp",
    "granted", "granted_at", "group", "history", "host", "instance_id",
    "joined", "last_seq", "left", "link", "links", "locks", "mode",
    "msg", "object", "objects", "origin", "origin_msg_id", "owner",
    "params", "path", "pending_acks", "predefined", "processed",
    "reason", "record", "records", "redo", "registered", "release",
    "responder", "result", "revision", "roster", "rule", "semantic",
    "seq", "server_time", "shard", "snapshot", "source", "source_path",
    "state", "strict", "structure", "sync", "target", "targets",
    "title", "token", "type", "undo", "user", "value", "values",
    "version", "versions", "want_reply",
    # enum-like values
    "activate", "value_changed", "selection_changed",
    "attribute_changed", "focus_in", "focus_out", "key_press",
    "pointer_motion", "draw", "destroyed", "child_added",
    "child_removed", "auto", "merge", "flexible", "add", "remove",
    "noop", "server", "router",
)

assert len(INTERN_TABLE) < 128, "intern indexes must stay one varint byte"

_INTERN_IDS: Dict[str, int] = {s: i for i, s in enumerate(INTERN_TABLE)}

# ---------------------------------------------------------------------------
# Value tags (VERSION 1)
# ---------------------------------------------------------------------------
#
#   0x00..0x7F  positive fixint 0..127
#   0x80..0x9F  fixstr, length 0..31 (UTF-8 bytes follow)
#   0xA0..0xAF  fixmap, 0..15 pairs
#   0xB0..0xBF  fixarray, 0..15 items
#   0xC0        null
#   0xC1        false
#   0xC2        true
#   0xC3        int, zigzag varint
#   0xC4        float64, 8 bytes big-endian
#   0xC5        str, varint byte length + UTF-8
#   0xC6        array, varint count
#   0xC7        map, varint pair count
#   0xC8        interned string, varint table index
#   0xC9        sized map: varint byte length, then the map encoding —
#               the length prefix lets the decoder memoize nested dicts
#               by their exact bytes (fan-out frames differ only in
#               their envelope and per-receiver fields, so the shared
#               ``event`` sub-map decodes once per fan-out, not once
#               per frame); a whole payload is one splice-able blob
#   0xE0..0xFF  negative fixint -32..-1

_NIL = 0xC0
_FALSE = 0xC1
_TRUE = 0xC2
_INT = 0xC3
_FLOAT = 0xC4
_STR = 0xC5
_ARRAY = 0xC6
_MAP = 0xC7
_INTERNED = 0xC8
_SIZED_MAP = 0xC9


def _uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _zigzag(v: int) -> int:
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


def _unzigzag(n: int) -> int:
    return (n >> 1) if not (n & 1) else -((n + 1) >> 1)


def _key_str(key: Any) -> str:
    """Stringify a non-str map key exactly like ``json.dumps`` does."""
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, (int, float)):
        return repr(key)
    raise CodecError(f"map key {key!r} is not JSON-representable")


#: Precomputed 2-byte encodings of every interned string.
_INTERN_BYTES: Tuple[bytes, ...] = tuple(
    bytes((_INTERNED, i)) for i in range(len(INTERN_TABLE))
)

#: Whole-encoding cache for short strings.  Protocol strings repeat
#: heavily (pathnames, instance ids, event types); keying by the string
#: itself is safe — str is immutable — and turns a re-encode into one
#: dict hit plus one concat.
_STR_CACHE: Dict[str, bytes] = {}
_STR_CACHE_MAX = 4096


def _enc_str(out: bytearray, value: str) -> None:
    enc = _STR_CACHE.get(value)
    if enc is None:
        idx = _INTERN_IDS.get(value)
        if idx is not None:
            enc = _INTERN_BYTES[idx]
        else:
            data = value.encode("utf-8")
            n = len(data)
            if n <= 31:
                enc = bytes((0x80 | n,)) + data
            else:
                head = bytearray((_STR,))
                _uvarint(head, n)
                out += head
                out += data
                return  # long strings are not worth pinning
        if len(_STR_CACHE) >= _STR_CACHE_MAX:
            _STR_CACHE.clear()
        _STR_CACHE[value] = enc
    out += enc


def _enc_value(out: bytearray, value: Any) -> None:
    t = type(value)
    if t is str:
        _enc_str(out, value)
    elif t is bool:
        out.append(_TRUE if value else _FALSE)
    elif t is int:
        if 0 <= value <= 0x7F:
            out.append(value)
        elif -32 <= value < 0:
            out.append(256 + value)
        else:
            out.append(_INT)
            _uvarint(out, _zigzag(value))
    elif t is float:
        out.append(_FLOAT)
        out += _FLOAT64.pack(value)
    elif t is dict:
        # Dicts ship as sized maps (see the tag table).
        sub = bytearray()
        n = len(value)
        if n <= 15:
            sub.append(0xA0 | n)
        else:
            sub.append(_MAP)
            _uvarint(sub, n)
        for key, item in value.items():
            _enc_str(sub, key if type(key) is str else _key_str(key))
            _enc_value(sub, item)
        out.append(_SIZED_MAP)
        _uvarint(out, len(sub))
        out += sub
    elif t is list or t is tuple:
        n = len(value)
        if n <= 15:
            out.append(0xB0 | n)
        else:
            out.append(_ARRAY)
            _uvarint(out, n)
        for item in value:
            _enc_value(out, item)
    elif value is None:
        out.append(_NIL)
    # Subclass fallbacks (json.dumps accepts these too):
    elif isinstance(value, bool):
        out.append(_TRUE if value else _FALSE)
    elif isinstance(value, int):
        out.append(_INT)
        _uvarint(out, _zigzag(int(value)))
    elif isinstance(value, float):
        out.append(_FLOAT)
        out += _FLOAT64.pack(float(value))
    elif isinstance(value, str):
        _enc_str(out, str(value))
    elif isinstance(value, dict):
        _enc_value(out, dict(value))
    elif isinstance(value, (list, tuple)):
        _enc_value(out, list(value))
    else:
        raise CodecError(
            f"value {value!r} of type {t.__name__} is not JSON-representable"
        )


def _dec_uvarint(body, pos: int) -> Tuple[int, int]:
    shift = 0
    result = 0
    while True:
        try:
            byte = body[pos]
        except IndexError:
            raise CodecError("truncated varint") from None
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _dec_value(body, pos: int) -> Tuple[Any, int]:
    try:
        tag = body[pos]
    except IndexError:
        raise CodecError("truncated value") from None
    pos += 1
    if tag <= 0x7F:
        return tag, pos
    if tag >= 0xE0:
        return tag - 256, pos
    high = tag & 0xE0
    if high == 0x80:  # fixstr
        n = tag & 0x1F
        end = pos + n
        if end > len(body):
            raise CodecError("truncated string")
        chunk = bytes(body[pos:end])
        value = _DEC_STR_CACHE.get(chunk)
        if value is None:
            value = chunk.decode("utf-8")
            if len(_DEC_STR_CACHE) >= _STR_CACHE_MAX:
                _DEC_STR_CACHE.clear()
            _DEC_STR_CACHE[chunk] = value
        return value, end
    if high == 0xA0:
        n = tag & 0x0F
        if tag & 0x10:  # fixarray 0xB0..0xBF
            out: List[Any] = []
            append = out.append
            for _ in range(n):
                item, pos = _dec_value(body, pos)
                append(item)
            return out, pos
        mapping: Dict[str, Any] = {}
        for _ in range(n):
            key, pos = _dec_value(body, pos)
            if type(key) is not str:
                raise CodecError(f"map key {key!r} is not a string")
            mapping[key], pos = _dec_value(body, pos)
        return mapping, pos
    if tag == _NIL:
        return None, pos
    if tag == _FALSE:
        return False, pos
    if tag == _TRUE:
        return True, pos
    if tag == _INT:
        n, pos = _dec_uvarint(body, pos)
        return _unzigzag(n), pos
    if tag == _FLOAT:
        end = pos + 8
        if end > len(body):
            raise CodecError("truncated float")
        return _FLOAT64.unpack_from(body, pos)[0], end
    if tag == _STR:
        n, pos = _dec_uvarint(body, pos)
        end = pos + n
        if end > len(body):
            raise CodecError("truncated string")
        return bytes(body[pos:end]).decode("utf-8"), end
    if tag == _ARRAY:
        n, pos = _dec_uvarint(body, pos)
        out = []
        append = out.append
        for _ in range(n):
            item, pos = _dec_value(body, pos)
            append(item)
        return out, pos
    if tag == _MAP:
        n, pos = _dec_uvarint(body, pos)
        mapping = {}
        for _ in range(n):
            key, pos = _dec_value(body, pos)
            if type(key) is not str:
                raise CodecError(f"map key {key!r} is not a string")
            mapping[key], pos = _dec_value(body, pos)
        return mapping, pos
    if tag == _INTERNED:
        idx, pos = _dec_uvarint(body, pos)
        try:
            return INTERN_TABLE[idx], pos
        except IndexError:
            raise CodecError(f"interned string index {idx} out of range") from None
    if tag == _SIZED_MAP:
        n, pos = _dec_uvarint(body, pos)
        end = pos + n
        if end > len(body):
            raise CodecError("truncated sized map")
        chunk = bytes(body[pos:end])
        cached = _DEC_MEMO.get(chunk)
        if cached is not None:
            return cached, end
        value, sub_pos = _dec_value(chunk, 0)
        if sub_pos != n:
            raise CodecError("sized map length mismatch")
        if type(value) is not dict:
            raise CodecError("sized map does not contain a map")
        if len(_DEC_MEMO) >= _DEC_MEMO_MAX:
            _DEC_MEMO.clear()
        _DEC_MEMO[chunk] = value
        return value, end
    raise CodecError(f"unknown value tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# Decoder memos (hot-path CPU, see module docstring)
# ---------------------------------------------------------------------------

#: Decoder memo: exact encoded bytes -> the decoded (shared) dict.
_DEC_MEMO: Dict[bytes, Dict[str, Any]] = {}
_DEC_MEMO_MAX = 4096

#: Decoder twin of ``_STR_CACHE``: short UTF-8 chunks -> str.
_DEC_STR_CACHE: Dict[bytes, str] = {}


#: Precomputed body prefix (magic, version, kind id, flags) for every
#: table kind × flag combination — the whole fixed-width envelope head
#: becomes one dict hit and one append on the hot path.
_BODY_PREFIX: Dict[Tuple[str, int], bytes] = {
    (kind, flags): bytes((MAGIC, VERSION, kind_id, flags))
    for kind, kind_id in _KIND_IDS.items()
    for flags in range(4)
}

#: Prefixes for kinds outside the table (inline kind string follows).
_INLINE_PREFIX: Tuple[bytes, ...] = tuple(
    bytes((MAGIC, VERSION, KIND_INLINE, flags)) for flags in range(4)
)


def _encode_body(out: bytearray, message: Message) -> None:
    """Append *message*'s binary body (no length header) to *out*.

    The one body writer: :meth:`BinaryCodec.encode` frames it, and
    :meth:`BinaryCodec.encode_batch` puts several in an envelope.
    """
    reply_to = message.reply_to
    trace = message.trace
    flags = 0
    if reply_to is not None:
        flags |= _FLAG_REPLY_TO
    if trace is not None:
        flags |= _FLAG_TRACE
    kind = message.kind
    prefix = _BODY_PREFIX.get((kind, flags))
    if prefix is not None:
        out += prefix
    else:
        out += _INLINE_PREFIX[flags]
        _enc_str(out, kind)
    _uvarint(out, _zigzag(message.msg_id))
    if reply_to is not None:
        _uvarint(out, _zigzag(reply_to))
    _enc_str(out, message.sender)
    _enc_str(out, message.to)
    if trace is not None:
        _enc_str(out, trace[0])
        _enc_str(out, trace[1])
    # The payload is one tagged value (a sized map); its byte length is
    # self-describing, so no separate length field.
    encoded = message._encoded
    blob = encoded.get("binary")
    if blob is None:
        blob = encoded["binary"] = _payload_blob(message)
    out += blob


def _payload_blob(message: Message) -> bytes:
    """*message*'s payload as one sized map — built once per fan-out: the
    caller keeps it in ``message._encoded``, which derived messages share."""
    payload = message.payload
    out = bytearray()
    try:
        _enc_value(out, payload if type(payload) is dict else dict(payload))
    except CodecError as exc:
        raise CodecError(
            f"cannot encode payload of {message.kind!r} message: {exc}"
        ) from exc
    return bytes(out)


class BinaryCodec:
    """Struct-packed envelope + tagged values behind the shared framing."""

    name = "binary"

    def encode(self, message: Message) -> bytes:
        frames = message._frames
        if frames is None:
            frames = {}
            object.__setattr__(message, "_frames", frames)
        else:
            cached = frames.get("binary")
            if cached is not None:
                return cached
        out = bytearray(HEADER_SIZE)  # length header back-patched below
        _encode_body(out, message)
        body_len = len(out) - HEADER_SIZE
        if body_len > MAX_FRAME_SIZE:
            raise CodecError(
                f"message of {body_len} bytes exceeds MAX_FRAME_SIZE"
            )
        _HEADER.pack_into(out, 0, body_len)
        frame = bytes(out)
        frames["binary"] = frame
        return frame

    def encode_batch(self, messages: Sequence[Message]) -> bytes:
        """One batch-envelope frame holding every message's binary body.

        The format's reference producer (no transport calls it).
        Already-encoded messages splice their cached frame body.  A
        single-message batch degenerates to the plain per-message frame.
        """
        if not messages:
            raise CodecError("encode_batch needs at least one message")
        if len(messages) == 1:
            return self.encode(messages[0])
        bodies = []
        for message in messages:
            frames = message._frames
            cached = frames.get("binary") if frames is not None else None
            if cached is not None:
                bodies.append(memoryview(cached)[HEADER_SIZE:])
            else:
                body = bytearray()
                _encode_body(body, message)
                bodies.append(body)
        return envelope_frame(bodies)

    def decode_body(self, body: bytes) -> Message:
        if len(body) < 4 or body[0] != MAGIC:
            raise CodecError("not a binary frame body")
        if body[1] != VERSION:
            raise CodecError(
                f"unsupported binary frame version {body[1]} "
                f"(this build speaks version {VERSION})"
            )
        kind_id = body[2]
        flags = body[3]
        pos = 4
        if kind_id == KIND_INLINE:
            kind, pos = _dec_value(body, pos)
        else:
            try:
                kind = KIND_TABLE[kind_id]
            except IndexError:
                raise CodecError(f"unknown kind id {kind_id}") from None
        n, pos = _dec_uvarint(body, pos)
        msg_id = _unzigzag(n)
        reply_to: Optional[int] = None
        if flags & _FLAG_REPLY_TO:
            n, pos = _dec_uvarint(body, pos)
            reply_to = _unzigzag(n)
        sender, pos = _dec_value(body, pos)
        to, pos = _dec_value(body, pos)
        trace = None
        if flags & _FLAG_TRACE:
            t0, pos = _dec_value(body, pos)
            t1, pos = _dec_value(body, pos)
            trace = (t0, t1)
        payload, end = _dec_value(body, pos)
        if end != len(body):
            raise CodecError("trailing bytes after payload")
        # Kind and field types are checked by the one decode constructor.
        return Message.from_wire(
            {
                "kind": kind,
                "sender": sender,
                "to": to,
                "payload": payload,
                "msg_id": msg_id,
                "reply_to": reply_to,
                "trace": trace,
            }
        )

    def wire_size(self, message: Message) -> int:
        return len(self.encode(message))


BINARY_CODEC = BinaryCodec()
