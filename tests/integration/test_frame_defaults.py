"""A frame carries what its receiver reads.

No envelope carries ``reply_to`` at ``None`` or ``to`` at ``""``, no
event carries ``user`` at ``""``, and the grant of a floor request that
carries an event lists only the requester's own members of the group.
Decoders default all three fields and clients pick their own members out
of a group, so a peer that still writes the fuller form — frames or
journal entries — decodes to the same messages and drives the same
outcome.
"""

import itertools
import json
import struct

import pytest

from repro.core import action_sync
from repro.net import kinds
from repro.net import message as message_module
from repro.net.binary import BINARY_CODEC
from repro.net.codec import HEADER_SIZE, JSON_CODEC, decode
from repro.net.clock import SimClock
from repro.net.message import Message
from repro.persist import PersistenceConfig, recover_server
from repro.persist.recovery import DiscardTransport
from repro.persist.snapshot import server_fingerprint
from repro.server.couples import global_id
from repro.server.server import CosoftServer
from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED, Event
from repro.toolkit.widgets import Shell, TextField


def frame(body):
    body = body.encode("utf-8")
    return struct.pack(">I", len(body)) + body


def body_of(message):
    return JSON_CODEC.encode(message)[HEADER_SIZE:].decode("utf-8")


# ---------------------------------------------------------------------------
# Both codecs round-trip every field at and off its default
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("codec", [JSON_CODEC, BINARY_CODEC], ids=["json", "binary"])
@pytest.mark.parametrize("reply_to", [None, 7])
@pytest.mark.parametrize("to", ["", "b"])
@pytest.mark.parametrize("user", ["", "ann"])
def test_decode_of_encode_is_the_message(codec, reply_to, to, user):
    event = Event(
        type=VALUE_CHANGED,
        source_path="/app/f",
        params={"value": "v"},
        user=user,
        instance_id="a",
    )
    message = Message(
        kind=kinds.EVENT_BROADCAST,
        sender="server",
        to=to,
        reply_to=reply_to,
        payload={"event": event.to_wire(), "targets": ["/app/f"]},
    )
    back = decode(codec.encode(message))
    assert back == message
    assert Event.from_wire(back.payload["event"]) == event
    assert Message.from_wire(message.to_wire()) == message


def test_a_json_frame_leaves_out_the_defaults():
    event = Event(type=VALUE_CHANGED, source_path="/app/f", instance_id="a")
    bare = Message(kind=kinds.EVENT, sender="a", payload={"event": event.to_wire()})
    body = body_of(bare)
    for key in ('"reply_to"', '"to"', '"user"', '"trace"'):
        assert key not in body
    assert set(bare.to_wire()) == {"kind", "msg_id", "payload", "sender"}
    named = Event(type=VALUE_CHANGED, source_path="/f", user="u")
    full = Message(
        kind=kinds.EVENT,
        sender="a",
        to="b",
        reply_to=3,
        payload={"event": named.to_wire()},
        trace=("t", "s"),
    )
    assert ',"reply_to":3,' in body_of(full)
    assert ',"to":"b","trace":["t","s"]}' in body_of(full)
    assert '"user":"u"' in body_of(full)
    ack = Message.event_ack("b", ["a", 4])
    assert body_of(ack) == (
        f'{{"kind":"event_ack","msg_id":{ack.msg_id},'
        f'"payload":{{"owner":["a",4]}},"sender":"b"}}'
    )


# ---------------------------------------------------------------------------
# Frames in the fuller form an older peer writes
# ---------------------------------------------------------------------------

OLD_ACK = (
    '{"kind":"event_ack","msg_id":12,"payload":{"owner":["i00",3]},'
    '"reply_to":null,"sender":"i01","to":""}'
)
NEW_ACK = (
    '{"kind":"event_ack","msg_id":12,"payload":{"owner":["i00",3]},"sender":"i01"}'
)

OLD_BROADCAST = (
    '{"kind":"event_broadcast","msg_id":41,"payload":{"event":{"instance_id":"i00",'
    '"params":{"value":"old peer"},"seq":9,"source_path":"/app/f",'
    '"type":"value_changed","user":""},"owner":["i00",3],"targets":["/app/f"]},'
    '"reply_to":null,"sender":"server","to":"i01"}'
)
NEW_BROADCAST = OLD_BROADCAST.replace(',"user":""', "").replace(',"reply_to":null', "")


def test_an_old_ack_decodes_to_the_new_one():
    old, new = decode(frame(OLD_ACK)), decode(frame(NEW_ACK))
    assert old == new
    assert (old.to, old.reply_to) == ("", None)
    assert body_of(old) == NEW_ACK


@pytest.mark.parametrize("wire", [OLD_BROADCAST, NEW_BROADCAST], ids=["old", "new"])
def test_an_old_broadcast_drives_the_same_re_execution(wire):
    message, new = decode(frame(wire)), decode(frame(NEW_BROADCAST))
    for name in ("kind", "sender", "to", "msg_id", "reply_to", "trace"):
        assert getattr(message, name) == getattr(new, name)
    assert Event.from_wire(message.payload["event"]) == Event.from_wire(
        new.payload["event"]
    )
    with Session() as session:
        receiver = session.create_instance("i01", user="bob")
        field = TextField("f", parent=receiver.add_root(Shell("app")))
        users = []
        field.add_callback(VALUE_CHANGED, lambda w, e: users.append(e.user))
        acks = []
        receiver.send = acks.append
        assert action_sync.apply_remote_event(receiver, message.payload) == 1
        assert field.value == "old peer"
        assert users == [""]
        assert [(m.kind, m.payload) for m in acks] == [
            (kinds.EVENT_ACK, {"owner": ["i00", 3]})
        ]


def old_grant(request, group):
    """The granted LOCK_REPLY an older server wrote: the whole group and
    an empty ``conflicts``, ``to`` and ``reply_to`` spelt out."""
    groups = ",".join(f'["{i}","{p}"]' for i, p in group)
    return decode(
        frame(
            f'{{"kind":"lock_reply","msg_id":{request.msg_id + 1},'
            f'"payload":{{"conflicts":[],"granted":true,"group":[{groups}]}},'
            f'"reply_to":{request.msg_id},"sender":"server",'
            f'"to":"{request.sender}"}}'
        )
    )


def coupled_trio(session):
    """i00 owns /app/f and /app/g, coupled to each other and to i01's
    /app/f; every field counts its callback runs."""
    a = session.create_instance("i00", user="alice")
    b = session.create_instance("i01", user="bob")
    runs = []
    fields = {}
    for inst in (a, b):
        root = inst.add_root(Shell("app"))
        for name in ("f", "g") if inst is a else ("f",):
            field = TextField(name, parent=root)
            field.add_callback(
                VALUE_CHANGED,
                lambda w, e, at=inst.instance_id: runs.append((at, w.pathname)),
            )
            fields[(inst.instance_id, field.pathname)] = field
    a.couple(fields[("i00", "/app/f")], ("i00", "/app/g"))
    a.couple(fields[("i00", "/app/f")], ("i01", "/app/f"))
    session.pump()
    return a, fields, runs


@pytest.mark.parametrize("server_form", ["old", "new"])
def test_an_old_grant_re_executes_on_exactly_the_sources_members(server_form):
    with Session() as session:
        a, fields, runs = coupled_trio(session)
        whole_group = sorted(session.server.couples.group_of(("i00", "/app/f")))
        assert len(whole_group) == 3
        if server_form == "old":
            request = a.request

            def older_server(message, *args, **kwargs):
                reply = request(message, *args, **kwargs)
                assert reply.payload["group"] == [["i00", "/app/f"], ["i00", "/app/g"]]
                return old_grant(message, whole_group)

            a.request = older_server
        fields[("i00", "/app/f")].commit("typed")
        session.pump()
        assert {k: w.value for k, w in fields.items()} == dict.fromkeys(fields, "typed")
        assert sorted(runs) == [("i00", "/app/f"), ("i00", "/app/g"), ("i01", "/app/f")]
        assert len(session.server.floors) == 0


@pytest.mark.parametrize("server_form", ["old", "new"])
def test_an_old_late_grant_re_executes_on_exactly_the_sources_members(server_form):
    with Session() as session:
        a, fields, runs = coupled_trio(session)
        request = Message(
            kind=kinds.LOCK_REQUEST, sender="i00", payload={"source": ["i00", "/app/f"]}
        )
        if server_form == "old":
            group = sorted(session.server.couples.group_of(("i00", "/app/f")))
            reply = old_grant(request, group)
        else:
            reply = request.reply(
                kinds.LOCK_REPLY,
                "server",
                granted=True,
                group=[["i00", "/app/f"], ["i00", "/app/g"]],
            )
        event = Event(
            type=VALUE_CHANGED,
            source_path="/app/f",
            params={"value": "late"},
            instance_id="i00",
        )
        assert action_sync.apply_late_reply(a, event, reply) == 2
        assert sorted(runs) == [("i00", "/app/f"), ("i00", "/app/g")]
        assert fields[("i01", "/app/f")].value == ""


# ---------------------------------------------------------------------------
# The grant's shape
# ---------------------------------------------------------------------------


def grant_bytes(members, first_id, monkeypatch):
    """Bytes of the granted LOCK_REPLY of one commit on a group of
    *members* instances, one field each, its message ids counted from
    *first_id* (above any id used so far); and the group a bare floor
    request is granted."""
    with Session() as session:
        fields = []
        for n in range(members):
            inst = session.create_instance(f"i{n:02d}", user=f"u{n}")
            fields.append(TextField("f", parent=inst.add_root(Shell("app"))))
        source = session.instances["i00"]
        for n in range(1, members):
            source.couple(fields[0], (f"i{n:02d}", "/app/f"))
        session.pump()
        monkeypatch.setattr(message_module, "_msg_counter", itertools.count(first_id))
        before = session.traffic()["bytes_by_kind"].get(kinds.LOCK_REPLY, 0)
        fields[0].commit("x")
        session.pump()
        after = session.traffic()["bytes_by_kind"][kinds.LOCK_REPLY]
        assert source.last_execution.group == (("i00", "/app/f"),)
        grant = source.acquire_floor(fields[0])
        source.release_floor(grant)
        session.pump()
        return after - before, grant.group


def test_an_action_grant_does_not_grow_with_the_group(monkeypatch):
    # Ids of one width on both sides: only the group could tell them apart.
    size3, bare3 = grant_bytes(3, 1_000_000, monkeypatch)
    size64, bare64 = grant_bytes(64, 2_000_000, monkeypatch)
    assert size3 == size64
    # A bare floor request is granted the whole group: its UNLOCK names it.
    assert bare3 == tuple(global_id(f"i{n:02d}", "/app/f") for n in range(3))
    assert bare64 == tuple(global_id(f"i{n:02d}", "/app/f") for n in range(64))


# ---------------------------------------------------------------------------
# A journal written in the fuller entry form
# ---------------------------------------------------------------------------

#: Entries as an older server journaled them: every envelope spells out
#: ``"reply_to":null`` and ``"to":""``, the event its ``"user":""``.
OLD_JOURNAL = [
    json.loads(line)
    for line in """
{"msg":{"kind":"register","msg_id":1,"payload":{"app_type":"","user":"alice"},"reply_to":null,"sender":"a","to":""},"seq":1,"t":0.01}
{"msg":{"kind":"register","msg_id":3,"payload":{"app_type":"","user":"bob"},"reply_to":null,"sender":"b","to":""},"seq":2,"t":0.02}
{"msg":{"kind":"couple","msg_id":6,"payload":{"source":["a","/app/x"],"target":["b","/app/x"]},"reply_to":null,"sender":"a","to":""},"seq":3,"t":0.03}
{"msg":{"kind":"lock_request","msg_id":9,"payload":{"event":{"instance_id":"a","params":{"value":"v"},"seq":1,"source_path":"/app/x","type":"value_changed","user":""},"source":["a","/app/x"],"token":1},"reply_to":null,"sender":"a","to":""},"seq":4,"t":0.04}
{"msg":{"kind":"event_ack","msg_id":12,"payload":{"owner":["a",1]},"reply_to":null,"sender":"b","to":""},"seq":5,"t":0.05}
{"msg":{"kind":"history_push","msg_id":13,"payload":{"object":["b","/app/x"],"reason":"copy_to","state":{"value":"old"},"user":"bob"},"reply_to":null,"sender":"b","to":""},"seq":6,"t":0.060000000000000005}
{"msg":{"kind":"lock_request","msg_id":14,"payload":{"source":["b","/app/x"],"token":2},"reply_to":null,"sender":"b","to":""},"seq":7,"t":0.07}
""".split("\n")
    if line
]


def test_an_old_journal_recovers_to_the_same_database(tmp_path):
    config = PersistenceConfig(directory=str(tmp_path / "new"), snapshot_every=0)
    live_persistence = config.build()
    live = CosoftServer(clock=SimClock(), persistence=live_persistence)
    live.bind(DiscardTransport())
    for entry in OLD_JOURNAL:
        live.clock.advance_to(entry["t"])
        wire = {k: v for k, v in entry["msg"].items() if k not in ("to", "reply_to")}
        event = wire["payload"].get("event")
        if event is not None:
            event = {k: v for k, v in event.items() if k != "user"}
            wire["payload"] = dict(wire["payload"], event=event)
        live.handle_message(Message.from_wire(wire))
    live_persistence.sync()
    written = [entry["msg"] for entry in live_persistence.log.read()]
    assert len(written) == len(OLD_JOURNAL)
    assert not any({"to", "reply_to"} & set(m) for m in written)
    assert len(live.floors) == 1

    old_config = PersistenceConfig(directory=str(tmp_path / "old"), snapshot_every=0)
    old_persistence = old_config.build()
    for entry in OLD_JOURNAL:
        old_persistence.log.append_entry(entry)
    old_persistence.sync()
    old_persistence.log.close()

    from_old = recover_server(old_config.build())
    from_new = recover_server(config.build())
    assert server_fingerprint(from_old) == server_fingerprint(live)
    assert server_fingerprint(from_new) == server_fingerprint(live)
