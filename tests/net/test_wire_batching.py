"""Batch envelopes as decoder input: framing, splitting, errors.

A batch envelope (docs/PROTOCOL.md) is one frame carrying many
self-describing codec bodies behind the 0xB6 discriminator.  No
transport emits it; every decoder accepts it, and the codecs'
``encode_batch`` is the reference producer these tests feed it from.
They pin the format's invariants — exact round-trip equivalence with
per-message frames, transparent :class:`StreamDecoder` splitting under
arbitrary fragmentation (byte by byte, mid-envelope), mixed
envelope/legacy streams on one connection — and the error surface for
truncated or alien envelopes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.net import kinds
from repro.net.binary import BINARY_CODEC
from repro.net.codec import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    HEADER_SIZE,
    JSON_CODEC,
    StreamDecoder,
    decode,
    decode_batch,
    encode_batch,
)
from repro.net.message import ALL_KINDS, Message

CODECS = [JSON_CODEC, BINARY_CODEC]


def msg(seq=0, **over):
    over.setdefault("kind", kinds.EVENT)
    over.setdefault("sender", "server")
    over.setdefault("to", f"c{seq % 3}")
    over.setdefault("payload", {"seq": seq, "data": "x" * (seq % 7)})
    return Message(**over)


def fresh(message):
    """The same message without its frame cache (forces a real encode)."""
    return Message(
        kind=message.kind,
        sender=message.sender,
        to=message.to,
        payload=dict(message.payload),
        msg_id=message.msg_id,
        reply_to=message.reply_to,
        trace=message.trace,
    )


def batch():
    return [
        msg(0),
        msg(1, reply_to=7),
        msg(2, trace=("t" * 16, "s" * 8)),
        msg(3, payload={}),
        msg(4, payload={"nested": {"a": [1, 2, None], "b": True}}),
    ]


# ---------------------------------------------------------------------------
# Envelope format
# ---------------------------------------------------------------------------


class TestEnvelopeFormat:
    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_envelope_magic_and_version(self, codec):
        frame = codec.encode_batch(batch())
        assert frame[HEADER_SIZE] == ENVELOPE_MAGIC
        assert frame[HEADER_SIZE + 1] == ENVELOPE_VERSION

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_roundtrip_equals_per_message_decode(self, codec):
        messages = batch()
        decoded = decode_batch(codec.encode_batch(messages))
        reference = [decode(codec.encode(m)) for m in messages]
        assert [m.to_wire() for m in decoded] == [
            m.to_wire() for m in reference
        ]

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_single_message_degenerates_to_plain_frame(self, codec):
        m = msg()
        assert codec.encode_batch([m]) == codec.encode(fresh(m))

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_empty_batch_rejected(self, codec):
        with pytest.raises(CodecError):
            codec.encode_batch([])

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_envelope_smaller_than_concatenated_frames(self, codec):
        messages = batch()
        envelope = codec.encode_batch(messages)
        frames = b"".join(codec.encode(fresh(m)) for m in messages)
        assert len(envelope) < len(frames)

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_cached_frames_splice_identically(self, codec):
        """Pre-encoded messages (fan-out cache hits) produce the same
        envelope bytes as cache-cold encodes."""
        messages = batch()
        for m in messages:
            codec.encode(m)  # warm the per-message frame cache
        warm = codec.encode_batch(messages)
        cold = codec.encode_batch([fresh(m) for m in messages])
        assert warm == cold

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_cold_and_cached_members_decode_alike(self, codec):
        """One envelope may mix spliced (already encoded) and freshly
        written members; both decode to the messages that went in."""
        messages = batch()
        for m in messages[::2]:
            codec.encode(m)  # every other member is a cache hit
        assert any(m._frames is None for m in messages)
        decoded = decode_batch(codec.encode_batch(messages))
        assert [m.to_wire() for m in decoded] == [
            m.to_wire() for m in messages
        ]

    def test_padded_member_lengths_decode(self):
        """Earlier builds' binary emitter wrote every member length as a
        fixed two-byte varint (redundant continuation bit on short
        members); a mixed fleet still sends those."""
        messages = batch()
        body = bytearray((ENVELOPE_MAGIC, ENVELOPE_VERSION, len(messages)))
        for m in messages:
            member = BINARY_CODEC.encode(m)[HEADER_SIZE:]
            assert len(member) < 0x80
            body += bytes(((len(member) & 0x7F) | 0x80, len(member) >> 7))
            body += member
        frame = len(body).to_bytes(HEADER_SIZE, "big") + bytes(body)
        assert [m.to_wire() for m in decode_batch(frame)] == [
            m.to_wire() for m in messages
        ]

    def test_module_level_encode_batch_is_json(self):
        messages = batch()
        assert encode_batch(messages) == JSON_CODEC.encode_batch(
            [fresh(m) for m in messages]
        )


# ---------------------------------------------------------------------------
# Error surface
# ---------------------------------------------------------------------------


class TestEnvelopeErrors:
    def envelope(self):
        return JSON_CODEC.encode_batch(batch())

    def test_unsupported_version(self):
        frame = bytearray(self.envelope())
        frame[HEADER_SIZE + 1] = ENVELOPE_VERSION + 1
        with pytest.raises(CodecError, match="version"):
            decode_batch(bytes(frame))

    def test_truncated_member(self):
        frame = self.envelope()
        import struct

        body = frame[HEADER_SIZE:-3]
        with pytest.raises(CodecError, match="truncated|trailing"):
            decode_batch(struct.pack(">I", len(body)) + body)

    def test_trailing_bytes_rejected(self):
        frame = self.envelope()
        import struct

        body = frame[HEADER_SIZE:] + b"\x00"
        with pytest.raises(CodecError, match="trailing|truncated"):
            decode_batch(struct.pack(">I", len(body)) + body)

    def test_decode_single_frame_still_works(self):
        m = msg()
        assert decode_batch(JSON_CODEC.encode(m))[0].to_wire() == m.to_wire()


# ---------------------------------------------------------------------------
# StreamDecoder fragmentation
# ---------------------------------------------------------------------------


class TestStreamDecoderEnvelopes:
    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_byte_by_byte_feed(self, codec):
        tail = msg(9, to="tail")
        messages = batch() + [tail]
        stream = codec.encode_batch(messages[:-1]) + codec.encode(fresh(tail))
        decoder = StreamDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert [m.to_wire() for m in out] == [m.to_wire() for m in messages]
        assert decoder.last_codec == codec.name

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_split_mid_envelope_across_feeds(self, codec):
        messages = batch()
        stream = codec.encode_batch(messages)
        # Split inside the envelope body — after the count varint but in
        # the middle of a member — and again inside the length header.
        for cut in (2, HEADER_SIZE + 3, len(stream) // 2, len(stream) - 1):
            decoder = StreamDecoder()
            out = list(decoder.feed(stream[:cut]))
            out += list(decoder.feed(stream[cut:]))
            assert [m.to_wire() for m in out] == [
                m.to_wire() for m in messages
            ]

    def test_mixed_envelope_and_legacy_frames_one_stream(self):
        """A peer may interleave envelopes and per-message frames (and
        even codecs) on one connection; the decoder needs no mode bit."""
        stream = (
            JSON_CODEC.encode(msg(0))
            + BINARY_CODEC.encode_batch([msg(1), msg(2)])
            + JSON_CODEC.encode_batch([msg(3), msg(4)])
            + BINARY_CODEC.encode(fresh(msg(5)))
        )
        decoder = StreamDecoder()
        out = list(decoder.feed(stream))
        assert [m.payload["seq"] for m in out] == [0, 1, 2, 3, 4, 5]
        assert decoder.last_codec == "binary"


# ---------------------------------------------------------------------------
# Property: batch round-trip ≡ per-message round-trip
# ---------------------------------------------------------------------------

ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.text(max_size=16),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=8,
)
messages = st.builds(
    Message,
    kind=st.sampled_from(sorted(ALL_KINDS)),
    sender=ids,
    to=st.one_of(st.just(""), ids),
    payload=st.dictionaries(st.text(max_size=8), json_values, max_size=4),
    msg_id=st.integers(min_value=0, max_value=2**40),
    reply_to=st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
    trace=st.one_of(st.none(), st.tuples(ids, ids)),
)


class TestBatchRoundtripProperty:
    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    @settings(max_examples=60, deadline=None)
    @given(msgs=st.lists(messages, min_size=1, max_size=6))
    def test_batch_roundtrip_matches_per_message(self, codec, msgs):
        decoded = decode_batch(codec.encode_batch(msgs))
        reference = [decode(codec.encode(fresh(m))) for m in msgs]
        assert [m.to_wire() for m in decoded] == [
            m.to_wire() for m in reference
        ]

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    @settings(max_examples=30, deadline=None)
    @given(
        msgs=st.lists(messages, min_size=1, max_size=5),
        cut=st.integers(min_value=0, max_value=200),
    )
    def test_stream_decoder_split_anywhere(self, codec, msgs, cut):
        stream = codec.encode_batch(msgs)
        cut = min(cut, len(stream))
        decoder = StreamDecoder()
        out = list(decoder.feed(stream[:cut]))
        out += list(decoder.feed(stream[cut:]))
        assert [m.to_wire() for m in out] == [m.to_wire() for m in msgs]
