"""Unit tests for protocol messages."""

import json
import struct

import pytest

from repro.errors import CodecError
from repro.net import binary, kinds
from repro.net import message as message_module
from repro.net.binary import BINARY_CODEC
from repro.net.codec import JSON_CODEC, decode
from repro.net.message import ALL_KINDS, Message
from repro.obs import Observability
from repro.obs.tracing import hop


def json_frame(**envelope):
    """A JSON frame written by hand: whatever a peer could put on the wire."""
    wire = {
        "kind": kinds.ERROR,
        "sender": "server",
        "to": "a",
        "payload": {},
        "msg_id": 1,
        "reply_to": None,
    }
    wire.update(envelope)
    body = json.dumps(wire).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def binary_frame(kind=None, sender=b"\x81s", to=b"\x81a", payload=b"\xc9\x01\xa0"):
    """A binary frame written by hand (values are pre-encoded bytes);
    *kind* ``None`` is table kind 0, else an inline kind value."""
    head = bytes((binary.MAGIC, binary.VERSION, 0, 0))
    if kind is not None:
        head = bytes((binary.MAGIC, binary.VERSION, binary.KIND_INLINE, 0)) + kind
    body = head + b"\x02" + sender + to + payload  # msg_id 1
    return struct.pack(">I", len(body)) + body


class TestConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError):
            Message(kind="bogus", sender="a")

    def test_payload_must_be_json_safe(self):
        with pytest.raises(CodecError):
            Message(kind=kinds.EVENT, sender="a", payload={"x": object()})

    def test_msg_ids_unique(self):
        m1 = Message(kind=kinds.EVENT, sender="a")
        m2 = Message(kind=kinds.EVENT, sender="a")
        assert m1.msg_id != m2.msg_id

    def test_all_kinds_is_complete(self):
        # Every module-level kind constant is a member of ALL_KINDS.
        constants = {
            value
            for name, value in vars(kinds).items()
            if name.isupper() and isinstance(value, str) and name != "SERVER_ID"
        }
        assert constants <= ALL_KINDS | {"server"}


class TestReplies:
    def test_reply_correlates(self):
        request = Message(kind=kinds.LOCK_REQUEST, sender="a", payload={})
        reply = request.reply(kinds.LOCK_REPLY, "server", granted=True)
        assert reply.reply_to == request.msg_id
        assert reply.to == "a"
        assert reply.payload["granted"] is True

    def test_error_reply_carries_reason_and_kind(self):
        request = Message(kind=kinds.COUPLE, sender="a")
        error = request.error_reply("server", "nope", detail=1)
        assert error.kind == kinds.ERROR
        assert error.payload["reason"] == "nope"
        assert error.payload["failed_kind"] == kinds.COUPLE
        assert error.payload["detail"] == 1


class TestWire:
    def test_roundtrip(self):
        message = Message(
            kind=kinds.EVENT,
            sender="a",
            to="b",
            payload={"event": {"type": "activate"}},
            reply_to=7,
        )
        back = Message.from_wire(message.to_wire())
        assert back == message

    def test_from_wire_missing_fields(self):
        with pytest.raises(CodecError):
            Message.from_wire({"kind": kinds.EVENT})

    def test_from_wire_defaults(self):
        back = Message.from_wire(
            {"kind": kinds.EVENT, "sender": "a", "msg_id": 3}
        )
        assert back.to == ""
        assert back.payload == {}
        assert back.reply_to is None

    def test_the_endpoint_id_memo_starts_over_at_its_cap(self, monkeypatch):
        """Every trace id is new and goes through the same memo as the
        endpoint ids, so the memo is bounded: a full one is cleared."""
        memo = {}
        monkeypatch.setattr(message_module, "_WIRE_IDS", memo)
        cap = message_module._WIRE_IDS_MAX
        for n in range(cap):
            message = Message(
                kind=kinds.EVENT, sender="a", to="b", trace=(f"t{n}", f"s{n}")
            )
            assert decode(JSON_CODEC.encode(message)) == message
            assert len(memo) <= cap
        assert {"a", "b", f"t{cap - 1}", f"s{cap - 1}"} <= set(memo)
        assert "t0" not in memo


@pytest.fixture
def dumped(monkeypatch):
    """Every value ``Message`` serializes while the test runs."""
    values = []
    real_dumps = message_module._dumps

    def spy(value):
        values.append(value)
        return real_dumps(value)

    monkeypatch.setattr(message_module, "_dumps", spy)
    return values


class TestDerived:
    """A fan-out is one message re-addressed: built once, derived N - 1
    times around the same payload object and its encodings."""

    PAYLOAD = {"event": {"type": "activate", "params": {"n": 1}}, "targets": ["/x"]}

    def first(self, **fields):
        return Message(
            kind=kinds.EVENT_BROADCAST,
            sender="server",
            to="r0",
            payload=self.PAYLOAD,
            **fields,
        )

    def test_addressed_is_a_new_envelope_around_the_same_payload(self):
        first = self.first(trace=("t", "s0"))
        derived = first.addressed("r1", trace=("t", "s1"))
        assert derived.msg_id > first.msg_id
        assert (derived.to, derived.trace) == ("r1", ("t", "s1"))
        assert (first.to, first.trace) == ("r0", ("t", "s0"))
        assert first.addressed("r2").trace is None
        assert derived.payload is first.payload
        assert (derived.kind, derived.sender, derived.reply_to) == (
            first.kind,
            first.sender,
            first.reply_to,
        )
        body = json.loads(derived.wire_body())
        expected = json.loads(first.wire_body())
        expected.update(to="r1", msg_id=derived.msg_id, trace=["t", "s1"])
        assert body == expected

    def test_fanout_of_64_serializes_the_payload_once(self, dumped):
        first = self.first()
        fanout = [first] + [first.addressed(f"r{i}") for i in range(1, 64)]
        for message in fanout:
            JSON_CODEC.encode(message)
        assert len(dumped) == 1
        assert len({m.msg_id for m in fanout}) == 64

    @pytest.mark.parametrize("codec", [JSON_CODEC, BINARY_CODEC], ids=lambda c: c.name)
    @pytest.mark.parametrize("trace", [None, ("t", "s1")])
    def test_derived_frame_equals_a_frame_built_from_scratch(self, codec, trace):
        derived = self.first().addressed("r1", trace=trace)
        scratch = Message(
            kind=derived.kind,
            sender=derived.sender,
            to="r1",
            payload=json.loads(json.dumps(self.PAYLOAD)),
            msg_id=derived.msg_id,
            reply_to=derived.reply_to,
            trace=trace,
        )
        assert codec.encode(derived) == codec.encode(scratch)
        assert decode(codec.encode(derived)) == scratch

    def test_first_encode_of_a_decoded_message_is_shared_too(self, dumped):
        decoded = decode(JSON_CODEC.encode(self.first()))
        dumped.clear()
        for message in (decoded.addressed("r1"), decoded, decoded.addressed("r2")):
            JSON_CODEC.encode(message)
        assert len(dumped) == 1

    def test_hop_restamps_the_trace_and_serializes_nothing(self, dumped):
        message = self.first(trace=("t", "s0"))
        dumped.clear()
        with hop(Observability(), "cluster.forward", message) as stamped:
            pass
        assert stamped.msg_id == message.msg_id
        assert stamped.trace[0] == "t" and stamped.trace[1] != "s0"
        assert stamped.payload is message.payload
        assert {**stamped.to_wire(), "trace": ["t", "s0"]} == message.to_wire()
        JSON_CODEC.encode(stamped)
        assert dumped == []


class TestEveryEntryRefusesTheSame:
    """A decoded or derived message refuses what a built one refuses."""

    @pytest.mark.parametrize(
        "entry",
        [
            lambda: Message(kind="bogus", sender="a"),
            lambda: Message.from_wire({"kind": "bogus", "sender": "a", "msg_id": 1}),
            lambda: decode(json_frame(kind="bogus")),
            lambda: decode(binary_frame(kind=b"\x85bogus")),
        ],
        ids=["Message", "from_wire", "json decode_body", "binary decode_body"],
    )
    def test_unknown_kind(self, entry):
        with pytest.raises(CodecError, match="unknown message kind 'bogus'"):
            entry()

    def test_deriving_cannot_change_the_kind(self):
        message = Message(kind=kinds.EVENT, sender="a")
        with pytest.raises(TypeError):
            message.addressed("b", kind="bogus")
        assert message.addressed("b").kind == message.with_trace(("t", "s")).kind

    @pytest.mark.parametrize(
        "payload", [{"x": object()}, {"x": {1, 2}}, {1: "x"}, {("a",): 1}]
    )
    def test_built_payload_must_be_json_safe_with_string_keys(self, payload):
        with pytest.raises(CodecError):
            Message(kind=kinds.EVENT, sender="a", payload=payload)

    @pytest.mark.parametrize(
        "envelope",
        [
            ("reply_to", [[1], "x", True, 1.5]),
            ("msg_id", ["7", True, None, 7.0]),
            ("sender", [5, None]),
            ("to", [["a"], None]),
            ("kind", [["error"], 3]),
            ("payload", [[1], "x"]),
            ("trace", ["ab", ["t"], ["t", 1], ["t", "s", "x"], 5]),
        ],
        ids=lambda case: case[0],
    )
    def test_json_envelope_field_types(self, envelope):
        field, values = envelope
        for value in values:
            frame = json_frame(**{field: value})
            with pytest.raises(CodecError):
                decode(frame)
            with pytest.raises(CodecError):
                Message.from_wire(json.loads(frame[4:]))

    @pytest.mark.parametrize(
        "fields",
        [
            {"sender": b"\x05"},
            {"to": b"\xc0"},
            {"kind": b"\x07"},
            {"payload": b"\xb0"},
            {"payload": b"\x81x"},
        ],
        ids=repr,
    )
    def test_binary_envelope_field_types(self, fields):
        assert decode(binary_frame()).sender == "s"
        with pytest.raises(CodecError):
            decode(binary_frame(**fields))

    def test_well_typed_envelope_still_decodes(self):
        message = decode(json_frame(reply_to=7, msg_id=3, trace=["t", "s"]))
        assert (message.msg_id, message.reply_to, message.trace) == (3, 7, ("t", "s"))
