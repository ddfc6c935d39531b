"""Wire codecs for protocol messages: framing, the :class:`Codec`
contract, and the two codecs.

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

Transports resolve a codec name through :func:`get_codec`; there are
exactly two.

The module-level :func:`encode` / :func:`wire_size` helpers remain the
plain-JSON entry points (the byte-accounting baseline of the committed
benchmarks); :func:`decode` accepts frames from either codec.
"""

from __future__ import annotations

import json
import struct
from typing import (
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

    #: The name :func:`get_codec` resolves (``SessionConfig(codec=<name>)``).
    name: str

    def encode(self, message: Message) -> bytes:
        """Serialize *message* into one complete length-prefixed frame."""
        ...

    def decode_body(self, body: bytes) -> Message:
        """Inverse of :meth:`encode` for one frame body (header stripped).

        *body* may be a ``memoryview`` of a buffer its caller reuses once
        this returns: copy whatever the message keeps.
        """
        ...

    def wire_size(self, message: Message) -> int:
        """Bytes :meth:`encode` would produce (used for byte accounting)."""
        ...


#: The C scanner ``json.loads`` ends in.  :func:`_parse` calls it
#: directly and writes out the checks ``json.loads`` wraps around it.
_scan_once = json.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match
_BOM = chr(0xFEFF)


def _parse(text: str):
    """``json.loads(text)``: the same value, or the same error with the
    same text.  A body that opens with ``{`` (every body this package
    encodes) skips the BOM check and the leading whitespace scan, and one
    that ends where its value does skips the trailing scan
    (docs/PERF.md §17)."""
    start = 0
    if text[:1] != "{":
        if text[:1] == _BOM:
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            )
        start = _skip_space(text, 0).end()
    try:
        value, end = _scan_once(text, start)
    except StopIteration as stop:
        raise json.JSONDecodeError("Expecting value", text, stop.value) from None
    if end != len(text):
        end = _skip_space(text, end).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    return value


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
        # ``str(view, "utf-8")`` decodes straight out of a memoryview: the
        # text is the one copy a frame costs (StreamDecoder).
        try:
            data = _parse(str(body, "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CodecError(f"cannot decode message body: {exc}") from exc
        if type(data) is not dict:
            raise CodecError("message body is not a JSON object")
        return Message.from_wire(data)

    def wire_size(self, message: Message) -> int:
        return len(self.encode(message))


JSON_CODEC = JsonCodec()

#: Every codec name :func:`get_codec` resolves.
CODEC_NAMES = ("binary", "json")


def get_codec(name: str) -> Codec:
    """The codec called *name*: ``"json"`` or ``"binary"``.

    The binary codec's module is imported on first use.  Anything else —
    another name, or no name at all — raises :class:`CodecError`.
    """
    if name == "json":
        return JSON_CODEC
    if name == "binary":
        from repro.net.binary import BINARY_CODEC

        return BINARY_CODEC
    raise CodecError(f"unknown codec {name!r}; codecs: {list(CODEC_NAMES)}")


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
    from repro.net import binary

    if first == binary.MAGIC:
        return binary.BINARY_CODEC
    if first == ENVELOPE_MAGIC:
        raise CodecError(
            "frame body is a batch envelope, not a single message; "
            "use StreamDecoder or decode_batch"
        )
    raise CodecError(
        f"unrecognized frame body (first byte 0x{first:02x}); "
        f"codecs: {list(CODEC_NAMES)}"
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

    Accepts a frame from **either** codec — the body's first
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

    A frame is decoded where it lands: each complete frame of a chunk is
    decoded from a view of the chunk itself, so a JSON frame costs one
    copy (its text) and one parse.  Only an incomplete tail is copied,
    into a pending buffer the next chunks extend; the frame it completes
    is decoded from that buffer.  Nothing keeps a view of *data* past
    :meth:`feed`, so a caller may reuse its receive buffer (the aio
    transport shares one per loop thread).
    """

    def __init__(self) -> None:
        self._pending = bytearray()
        #: Size the pending buffer needs before it holds a whole frame
        #: (a header, until the header is in).
        self._wanted = HEADER_SIZE
        #: Name of the codec that produced the last decoded frame (None
        #: until the first complete frame arrives).
        self.last_codec: Optional[str] = None

    def feed(self, data: bytes) -> List[Message]:
        """Decode every frame *data* completes; keep what is left over.

        A frame that does not decode raises :class:`CodecError`, whose
        ``decoded`` holds the messages *data* completed ahead of it.
        """
        out: List[Message] = []
        pending = self._pending
        if pending:
            pending += data
            if len(pending) < self._wanted:
                return out
            data = pending
            pending = self._pending = bytearray()
        view = memoryview(data)
        pos = 0
        size = len(view)
        wanted = HEADER_SIZE
        try:
            while size - pos >= HEADER_SIZE:
                (length,) = _HEADER.unpack_from(view, pos)
                if length > MAX_FRAME_SIZE:
                    raise CodecError(
                        f"frame of {length} bytes exceeds MAX_FRAME_SIZE"
                    )
                end = pos + HEADER_SIZE + length
                if end > size:
                    wanted = end - pos
                    break
                body = view[pos + HEADER_SIZE : end]
                if body and body[0] == ENVELOPE_MAGIC:
                    # A batch envelope: its members are views of one copy,
                    # so none of them pins *data*.
                    codec = _decode_envelope(bytes(body), out)
                else:
                    codec = _codec_for_body(body)
                    out.append(codec.decode_body(body))
                if codec is not None:
                    self.last_codec = codec.name
                pos = end
        except CodecError as exc:
            exc.decoded = out
            raise
        if pos < size:
            pending += view[pos:]
            self._wanted = wanted
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._pending)


def encode_many(messages: Iterator[Message]) -> bytes:
    """Concatenate the (JSON) frames of several messages."""
    return b"".join(encode(m) for m in messages)
