"""Wire codecs for protocol messages: framing, the :class:`Codec`
contract, and the codec registry.

Every frame on every transport is a 4-byte big-endian length header
followed by one message *body*.  Two body encodings ship with the
package, selected per :class:`~repro.session.Session` via
``SessionConfig(codec=...)`` (docs/PROTOCOL.md):

``"json"``
    A UTF-8 JSON document — the debugging-friendly fallback and the
    historical wire format.  :class:`JsonCodec`.
``"binary"``
    A struct-packed envelope with interned kind/attribute names and
    varint lengths (:mod:`repro.net.binary`) — markedly smaller and the
    default target for high fan-out deployments.

The first body byte discriminates the encoding (``{`` opens a JSON
document; :data:`repro.net.binary.MAGIC` opens a binary envelope, and is
deliberately a UTF-8 continuation byte no JSON body can start with), so
**decoding is codec-agnostic**: :class:`StreamDecoder` and :func:`decode`
accept any mix of frames on one connection.  That is the whole version
negotiation — a receiver understands every codec it knows, and the host
transports answer each peer in the codec of the peer's own frames, so
mixed fleets and rolling upgrades need no handshake round-trip.

A third discriminator byte, :data:`ENVELOPE_MAGIC`, opens a **batch
envelope**: one frame carrying several message bodies (count plus sized
bodies).  It is an *input* format: the decoder splits envelopes
transparently — each member body is a standard codec body, dispatched
by its own first byte — so a peer that sends them, per-message senders
and mixed-codec fleets interoperate on one port with no handshake.  No
transport of this package emits one (a flush to one destination holds
one message on every measured workload, docs/PERF.md §10);
``JsonCodec.encode_batch`` / ``BinaryCodec.encode_batch`` remain as the
format's reference producer for the decoder and interop tests
(docs/PROTOCOL.md).

Third-party codecs implement the :class:`Codec` protocol and register
with :func:`register_codec`; transports resolve names through
:func:`get_codec`.

The module-level :func:`encode` / :func:`wire_size` helpers remain the
plain-JSON entry points (the byte-accounting baseline of the committed
benchmarks); :func:`decode` accepts frames from any registered codec.
"""

from __future__ import annotations

import importlib
import json
import struct
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import CodecError
from repro.net.message import Message

_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size

#: Upper bound on one frame; protects the decoder from corrupt headers.
MAX_FRAME_SIZE = 16 * 1024 * 1024

#: First body byte of a batch envelope (several message bodies in one
#: frame).  Like the binary magic it is a UTF-8 continuation byte, so no
#: JSON body can begin with it, and it is distinct from
#: :data:`repro.net.binary.MAGIC` so a plain binary body is never
#: mistaken for an envelope.
ENVELOPE_MAGIC = 0xB6

#: Batch-envelope layout version (bumped on incompatible change).
ENVELOPE_VERSION = 1


def _write_uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _read_uvarint(body, pos: int) -> "Tuple[int, int]":
    shift = 0
    result = 0
    while True:
        try:
            byte = body[pos]
        except IndexError:
            raise CodecError("truncated varint in batch envelope") from None
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def envelope_frame(bodies: Sequence) -> bytes:
    """Frame already-encoded member *bodies* as one batch envelope:
    magic, version, count, then each body behind its uvarint length."""
    out = bytearray(HEADER_SIZE)
    out.append(ENVELOPE_MAGIC)
    out.append(ENVELOPE_VERSION)
    _write_uvarint(out, len(bodies))
    for body in bodies:
        _write_uvarint(out, len(body))
        out += body
    body_len = len(out) - HEADER_SIZE
    if body_len > MAX_FRAME_SIZE:
        raise CodecError(f"batch of {body_len} bytes exceeds MAX_FRAME_SIZE")
    _HEADER.pack_into(out, 0, body_len)
    return bytes(out)


@runtime_checkable
class Codec(Protocol):
    """The contract a wire codec implements.

    A codec owns one *body* encoding; the 4-byte length framing is shared
    by all of them (so :class:`StreamDecoder` can split any stream).  The
    first body byte must unambiguously identify the codec — see
    :func:`decode_body` for the dispatch rule.
    """

    #: Registry name (``SessionConfig(codec=<name>)``).
    name: str

    def encode(self, message: Message) -> bytes:
        """Serialize *message* into one complete length-prefixed frame."""
        ...

    def decode_body(self, body: bytes) -> Message:
        """Inverse of :meth:`encode` for one frame body (header stripped)."""
        ...

    def wire_size(self, message: Message) -> int:
        """Bytes :meth:`encode` would produce (used for byte accounting)."""
        ...


class JsonCodec:
    """Length-prefixed UTF-8 JSON — the debugging-friendly fallback.

    The frame body is the compact, sorted-key document
    :meth:`Message.wire_body` produces; the frame is cached on the
    (immutable) message keyed by codec name, so retries, replays and
    broadcasts of the same object serialize once per codec.
    """

    name = "json"

    def encode(self, message: Message) -> bytes:
        frames = message._frames
        if frames is None:
            frames = {}
            object.__setattr__(message, "_frames", frames)
        else:
            cached = frames.get("json")
            if cached is not None:
                return cached
        try:
            body = message.wire_body().encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot encode message: {exc}") from exc
        if len(body) > MAX_FRAME_SIZE:
            raise CodecError(
                f"message of {len(body)} bytes exceeds MAX_FRAME_SIZE"
            )
        frame = _HEADER.pack(len(body)) + body
        frames["json"] = frame
        return frame

    def encode_batch(self, messages: Sequence[Message]) -> bytes:
        """One batch-envelope frame holding every message's JSON body.

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
            cached = frames.get("json") if frames is not None else None
            if cached is not None:
                bodies.append(memoryview(cached)[HEADER_SIZE:])
                continue
            try:
                bodies.append(message.wire_body().encode("utf-8"))
            except (TypeError, ValueError) as exc:
                raise CodecError(f"cannot encode message: {exc}") from exc
        return envelope_frame(bodies)

    def decode_body(self, body: bytes) -> Message:
        if isinstance(body, memoryview):  # envelope members arrive as views
            body = bytes(body)
        try:
            data = json.loads(
                body.decode("utf-8")
                if isinstance(body, (bytes, bytearray))
                else body
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CodecError(f"cannot decode message body: {exc}") from exc
        if not isinstance(data, dict):
            raise CodecError("message body is not a JSON object")
        return Message.from_wire(data)

    def wire_size(self, message: Message) -> int:
        return len(self.encode(message))


#: The process-wide codec registry.  Built-ins register here at import;
#: third-party codecs add themselves with :func:`register_codec`.
_CODECS: Dict[str, Codec] = {}

#: Lazily-imported modules that self-register a codec on import, keyed by
#: the codec name they provide (the binary codec stays un-imported until
#: a binary frame or an explicit ``codec="binary"`` asks for it).
_LAZY_CODECS: Dict[str, str] = {"binary": "repro.net.binary"}


def register_codec(codec: Codec, *, replace: bool = False) -> None:
    """Register *codec* under ``codec.name``.

    Registering an already-known name raises unless *replace* — guarding
    against two packages silently fighting over one name.
    """
    name = codec.name
    if not replace and name in _CODECS and _CODECS[name] is not codec:
        raise ValueError(f"codec {name!r} is already registered")
    _CODECS[name] = codec


def get_codec(name) -> Codec:
    """Resolve a codec by registry name (or pass a ready codec through)."""
    if not isinstance(name, str):
        return name  # already a Codec instance
    codec = _CODECS.get(name)
    if codec is None:
        lazy = _LAZY_CODECS.get(name)
        if lazy is not None:
            importlib.import_module(lazy)
            codec = _CODECS.get(name)
    if codec is None:
        known = sorted(set(_CODECS) | set(_LAZY_CODECS))
        raise CodecError(
            f"unknown codec {name!r}; registered codecs: {known}"
        )
    return codec


def codec_names() -> tuple:
    """Every resolvable codec name (registered plus lazy built-ins)."""
    return tuple(sorted(set(_CODECS) | set(_LAZY_CODECS)))


JSON_CODEC = JsonCodec()
register_codec(JSON_CODEC)


# ---------------------------------------------------------------------------
# Codec-agnostic decoding
# ---------------------------------------------------------------------------

#: First bytes a JSON body may start with (our encoder emits ``{``; the
#: whitespace forms tolerate third-party pretty-printers).
_JSON_OPENERS = frozenset(b"{ \t\r\n")


def _codec_for_body(body) -> Codec:
    """The codec whose body encoding *body* opens with."""
    if not body:
        raise CodecError("empty frame body")
    first = body[0]
    if first in _JSON_OPENERS:
        return JSON_CODEC
    from repro.net import binary  # self-registers on first import

    if first == binary.MAGIC:
        return _CODECS["binary"]
    if first == ENVELOPE_MAGIC:
        raise CodecError(
            "frame body is a batch envelope, not a single message; "
            "use StreamDecoder or decode_batch"
        )
    raise CodecError(
        f"unrecognized frame body (first byte 0x{first:02x}); "
        f"known codecs: {codec_names()}"
    )


def decode_body(body: bytes) -> Message:
    """Decode one frame body, dispatching on its leading byte."""
    return _codec_for_body(body).decode_body(body)


def _decode_envelope(body, out: List[Message]) -> Optional[Codec]:
    """Split one envelope body into *out*; returns the last member codec.

    Members are standard codec bodies behind uvarint length prefixes, so
    one envelope may even mix codecs.  Bodies are handed to the member
    codec as memoryview slices — one copy for the envelope, zero per
    member.
    """
    if len(body) < 2:
        raise CodecError("truncated batch envelope")
    version = body[1]
    if version != ENVELOPE_VERSION:
        raise CodecError(
            f"unsupported batch envelope version {version} "
            f"(this build speaks version {ENVELOPE_VERSION})"
        )
    count, pos = _read_uvarint(body, 2)
    size = len(body)
    view = memoryview(body)
    last: Optional[Codec] = None
    for _ in range(count):
        length, pos = _read_uvarint(body, pos)
        end = pos + length
        if end > size:
            raise CodecError("truncated batch envelope member")
        member = view[pos:end]
        codec = _codec_for_body(member)
        out.append(codec.decode_body(member))
        last = codec
        pos = end
    if pos != size:
        raise CodecError("trailing bytes after batch envelope")
    return last


# ---------------------------------------------------------------------------
# Module-level helpers (JSON entry points, kept for compatibility)
# ---------------------------------------------------------------------------


def encode(message: Message) -> bytes:
    """Serialize *message* into one length-prefixed JSON frame."""
    return JSON_CODEC.encode(message)


def decode(frame: bytes) -> Message:
    """Inverse of :meth:`Codec.encode` for exactly one complete frame.

    Accepts a frame from **any** registered codec — the body's first
    byte picks the decoder.
    """
    if len(frame) < HEADER_SIZE:
        raise CodecError("frame shorter than header")
    (length,) = _HEADER.unpack_from(frame)
    body = frame[HEADER_SIZE:]
    if len(body) != length:
        raise CodecError(
            f"frame length mismatch: header says {length}, got {len(body)}"
        )
    return decode_body(body)


def wire_size(message: Message) -> int:
    """Number of bytes the JSON codec would produce for *message*."""
    return len(JSON_CODEC.encode(message))


def encode_batch(messages: Sequence[Message]) -> bytes:
    """Serialize *messages* into one (JSON) batch-envelope frame."""
    return JSON_CODEC.encode_batch(messages)


def decode_batch(frame: bytes) -> List[Message]:
    """Decode one complete frame into its messages.

    The inverse of :func:`encode_batch` and of any codec's
    ``encode_batch`` — a batch envelope yields every member, a plain
    per-message frame yields a one-element list.
    """
    if len(frame) < HEADER_SIZE:
        raise CodecError("frame shorter than header")
    (length,) = _HEADER.unpack_from(frame)
    body = frame[HEADER_SIZE:]
    if len(body) != length:
        raise CodecError(
            f"frame length mismatch: header says {length}, got {len(body)}"
        )
    out: List[Message] = []
    if body and body[0] == ENVELOPE_MAGIC:
        _decode_envelope(bytes(body), out)
    else:
        out.append(decode_body(body))
    return out


class StreamDecoder:
    """Incremental decoder for a byte stream of concatenated frames.

    Feed arbitrary chunks with :meth:`feed`; complete messages come out of
    :meth:`messages`.  Used by the socket transports, whose reads do not
    align with frame boundaries.  Frames from different codecs may be
    interleaved freely on one stream — each body is dispatched by its
    leading byte — and :attr:`last_codec` names the codec of the most
    recently decoded frame, which the host transports use to answer a
    peer in its own encoding.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Name of the codec that produced the last decoded frame (None
        #: until the first complete frame arrives).
        self.last_codec: Optional[str] = None

    def feed(self, data: bytes) -> List[Message]:
        """Append *data*; return all messages completed by it."""
        buffer = self._buffer
        buffer.extend(data)
        out: List[Message] = []
        pos = 0
        size = len(buffer)
        # Scan complete frames by offset; the buffer is compacted once
        # per feed, not once per frame (which is quadratic in the number
        # of frames a chunk carries).
        while size - pos >= HEADER_SIZE:
            (length,) = _HEADER.unpack_from(buffer, pos)
            if length > MAX_FRAME_SIZE:
                raise CodecError(
                    f"frame of {length} bytes exceeds MAX_FRAME_SIZE"
                )
            end = pos + HEADER_SIZE + length
            if end > size:
                break
            body = buffer[pos + HEADER_SIZE : end]
            if body and body[0] == ENVELOPE_MAGIC:
                # A batch envelope: split it into its member messages.
                # (The slice above is already a copy, so member
                # memoryviews never pin the live buffer.)
                codec = _decode_envelope(bytes(body), out)
            else:
                codec = _codec_for_body(body)
                out.append(codec.decode_body(body))
            if codec is not None:
                self.last_codec = codec.name
            pos = end
        if pos:
            del buffer[:pos]
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


def encode_many(messages: Iterator[Message]) -> bytes:
    """Concatenate the (JSON) frames of several messages."""
    return b"".join(encode(m) for m in messages)
