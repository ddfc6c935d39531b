"""Unit tests for the binary wire codec (repro.net.binary)."""

import os
import struct
import subprocess
import sys

import pytest

import repro
from repro.errors import CodecError
from repro.net import binary
from repro.net.binary import BINARY_CODEC, INTERN_TABLE, KIND_TABLE, BinaryCodec
from repro.net.codec import (
    JSON_CODEC,
    MAX_FRAME_SIZE,
    StreamDecoder,
    codec_names,
    decode,
    get_codec,
)
from repro.net.message import ALL_KINDS, Message


def msg(**overrides):
    defaults = dict(
        kind="event",
        sender="i-1",
        to="server",
        payload={
            "object": "/app/board/zoom",
            "type": "value_changed",
            "seq": 42,
            "params": {"value": [1, 2.5, None, True, "héllo", -7]},
        },
    )
    defaults.update(overrides)
    return Message(**defaults)


class TestRoundTrip:
    def test_basic(self):
        m = msg()
        assert decode(BINARY_CODEC.encode(m)) == m

    def test_reply_to_and_trace(self):
        m = msg(reply_to=17, trace=("t" * 16, "s" * 8))
        out = decode(BINARY_CODEC.encode(m))
        assert out == m
        assert out.reply_to == 17
        assert out.trace == ("t" * 16, "s" * 8)

    def test_unicode_payload(self):
        m = msg(payload={"msg": "日本語 🎌 ü ", "ключ": ["väl\tue"]})
        assert decode(BINARY_CODEC.encode(m)).payload == m.payload

    def test_empty_payload(self):
        m = msg(payload={})
        assert decode(BINARY_CODEC.encode(m)) == m

    def test_every_kind(self):
        for kind in sorted(ALL_KINDS):
            m = Message(kind=kind, sender="a", to="b", payload={"x": 1})
            assert decode(BINARY_CODEC.encode(m)).kind == kind

    def test_large_ints(self):
        values = [0, 127, 128, -1, -32, -33, 2**40, -(2**40), 2**80, -(2**80)]
        m = msg(payload={"values": values})
        assert decode(BINARY_CODEC.encode(m)).payload["values"] == values

    def test_float_exact(self):
        values = [0.1, -1e300, 5e-324, 3.141592653589793]
        m = msg(payload={"values": values})
        out = decode(BINARY_CODEC.encode(m)).payload["values"]
        assert [struct.pack(">d", v) for v in out] == [
            struct.pack(">d", v) for v in values
        ]

    def test_tuple_decodes_as_list(self):
        # Same normalization JSON applies.
        m = msg(payload={"t": (1, 2)})
        assert decode(BINARY_CODEC.encode(m)).payload["t"] == [1, 2]

    def test_long_strings_and_collections(self):
        m = msg(
            payload={
                "data": "x" * 5000,
                "entries": list(range(100)),
                "state": {f"k{i}": i for i in range(50)},
            }
        )
        assert decode(BINARY_CODEC.encode(m)).payload == m.payload

    def test_nested_int_keys_match_json(self):
        # json.dumps stringifies non-str keys of nested objects; binary
        # must mirror that so binary ≡ JSON holds.
        payload = {"state": {1: "a", True: "b"}}
        m_bin = decode(BINARY_CODEC.encode(msg(payload=payload)))
        m_json = decode(JSON_CODEC.encode(msg(payload=payload)))
        assert m_bin.payload == m_json.payload


class TestWireFormat:
    def test_magic_is_first_body_byte(self):
        frame = BINARY_CODEC.encode(msg())
        assert frame[4] == binary.MAGIC

    def test_magic_cannot_open_json(self):
        # 0xB5 is a UTF-8 continuation byte: no JSON document starts with it.
        with pytest.raises(UnicodeDecodeError):
            bytes([binary.MAGIC]).decode("utf-8")

    def test_kind_table_covers_all_kinds(self):
        assert set(KIND_TABLE) == set(ALL_KINDS)
        assert len(KIND_TABLE) == len(set(KIND_TABLE))

    def test_intern_table_is_unique_and_small(self):
        assert len(INTERN_TABLE) == len(set(INTERN_TABLE))
        assert len(INTERN_TABLE) < 128

    def test_inline_kind_escape(self, monkeypatch):
        # Simulate a kind newer than this build's KIND_TABLE: it ships as
        # an inline string behind the 0xFF escape id.  The encoder's
        # precomputed (kind, flags) prefix table shadows _KIND_IDS, so
        # both must forget the kind.
        monkeypatch.delitem(binary._KIND_IDS, "event")
        for flags in range(4):
            monkeypatch.delitem(binary._BODY_PREFIX, ("event", flags))
        m = msg()
        frame = BinaryCodec().encode(
            Message(
                kind=m.kind, sender=m.sender, to=m.to, payload=dict(m.payload)
            )
        )
        assert frame[6] == binary.KIND_INLINE
        assert decode(frame).kind == "event"

    def test_binary_smaller_than_json_on_protocol_messages(self):
        m = msg(reply_to=3, trace=("a" * 16, "b" * 8))
        assert len(BINARY_CODEC.encode(m)) < len(JSON_CODEC.encode(m))

    def test_wire_size_matches_encode(self):
        m = msg()
        assert BINARY_CODEC.wire_size(m) == len(BINARY_CODEC.encode(m))


class TestCaching:
    def test_frames_keyed_by_codec(self):
        m = msg()
        json_frame = JSON_CODEC.encode(m)
        bin_frame = BINARY_CODEC.encode(m)
        assert json_frame != bin_frame
        assert m._frames == {"json": json_frame, "binary": bin_frame}
        # Cached: same object back.
        assert BINARY_CODEC.encode(m) is bin_frame
        assert JSON_CODEC.encode(m) is json_frame

    def test_fanout_shares_payload_encoding(self, monkeypatch):
        built = []
        real_blob = binary._payload_blob

        def spy(message):
            built.append(message.payload)
            return real_blob(message)

        monkeypatch.setattr(binary, "_payload_blob", spy)
        payload = {"object": "/a", "seq": 1}
        a = Message(kind="event_broadcast", sender="server", to="a", payload=payload)
        b = a.addressed("b")
        BINARY_CODEC.encode(a)
        assert len(built) == 1 and built[0] is payload
        BINARY_CODEC.encode(b)  # splices a's blob; smoke-checked via decode
        assert len(built) == 1
        assert decode(BINARY_CODEC.encode(b)).payload == payload

    def test_decode_interns_identical_payload_bytes(self):
        payload = {"object": "/a", "seq": 1}
        a = Message(kind="event_broadcast", sender="server", to="a", payload=payload)
        b = Message(kind="event_broadcast", sender="server", to="b", payload=payload)
        out_a = decode(BINARY_CODEC.encode(a))
        out_b = decode(BINARY_CODEC.encode(b))
        assert out_a.payload is out_b.payload


class TestErrors:
    def test_truncated_body(self):
        frame = bytearray(BINARY_CODEC.encode(msg()))
        # Shorten the body but fix up the length header so framing holds.
        body = frame[4:-3]
        struct.pack_into(">I", frame, 0, len(body))
        with pytest.raises(CodecError):
            decode(bytes(frame[:4]) + bytes(body))

    def test_unsupported_version(self):
        frame = bytearray(BINARY_CODEC.encode(msg()))
        frame[5] = 99
        with pytest.raises(CodecError, match="version 99"):
            decode(bytes(frame))

    def test_trailing_bytes_rejected(self):
        frame = bytearray(BINARY_CODEC.encode(msg()))
        frame += b"\x00"
        struct.pack_into(">I", frame, 0, len(frame) - 4)
        with pytest.raises(CodecError):
            decode(bytes(frame))

    def test_unknown_kind_id(self):
        frame = bytearray(BINARY_CODEC.encode(msg()))
        frame[6] = 200  # not a table id, not the inline escape
        with pytest.raises(CodecError, match="kind id"):
            decode(bytes(frame))

    def test_interned_index_out_of_range(self):
        out = bytearray()
        binary._enc_value(out, "x")
        bad = bytes([binary._INTERNED, 127])
        with pytest.raises(CodecError, match="out of range"):
            binary._dec_value(bad, 0)

    def test_oversized_message_rejected(self):
        m = msg(payload={"data": "x" * (MAX_FRAME_SIZE + 16)})
        with pytest.raises(CodecError, match="MAX_FRAME_SIZE"):
            BINARY_CODEC.encode(m)

    def test_unencodable_payload(self):
        payload = {"x": object()}
        # Bypass Message validation to hit the codec's own error path.
        out = bytearray()
        with pytest.raises(CodecError, match="not JSON-representable"):
            binary._enc_value(out, payload)


class TestRegistryIntegration:
    def test_get_codec_by_name(self):
        assert get_codec("binary") is BINARY_CODEC
        assert get_codec(BINARY_CODEC) is BINARY_CODEC

    def test_codec_names(self):
        names = codec_names()
        assert "json" in names and "binary" in names

    def test_unknown_codec_lists_known(self):
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("carrier-pigeon")

    def test_first_lookup_imports_the_module_in_a_fresh_interpreter(self):
        """This process imported repro.net.binary at collection, so the
        lazy import is checked where nothing has yet."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        check = (
            "import sys\n"
            "from repro.net.codec import get_codec\n"
            "assert 'repro.net.binary' not in sys.modules\n"
            "assert get_codec('binary').name == 'binary'\n"
            "assert 'repro.net.binary' in sys.modules\n"
        )
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", check],
            env=dict(os.environ, PYTHONPATH=path),
            check=True,
        )


class TestMixedStreams:
    def test_interleaved_codecs_on_one_stream(self):
        m1, m2, m3 = msg(), msg(payload={"seq": 1}), msg(payload={"seq": 2})
        blob = (
            BINARY_CODEC.encode(m1)
            + JSON_CODEC.encode(m2)
            + BINARY_CODEC.encode(m3)
        )
        decoder = StreamDecoder()
        out = []
        for i in range(0, len(blob), 7):
            out.extend(decoder.feed(blob[i : i + 7]))
        assert out == [m1, m2, m3]
        assert decoder.last_codec == "binary"

    def test_last_codec_tracks_most_recent_frame(self):
        decoder = StreamDecoder()
        assert decoder.last_codec is None
        decoder.feed(JSON_CODEC.encode(msg()))
        assert decoder.last_codec == "json"
        decoder.feed(BINARY_CODEC.encode(msg()))
        assert decoder.last_codec == "binary"
