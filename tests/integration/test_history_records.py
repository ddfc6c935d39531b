"""A history record holds what its transfer overwrote.

A STRICT transfer's receiver pushes the pre-image of the attributes the
transfer wrote, not its whole relevant subtree (docs/PROTOCOL.md, "Undo").
A full record is the pre-image of every attribute, so a record of that
form — from a client that still sends it, in a journal, in a snapshot —
restores and recovers exactly as before.
"""

import json

import pytest

from repro.net import kinds
from repro.net.clock import SimClock
from repro.net.codec import wire_size
from repro.net.message import Message
from repro.persist import PersistenceConfig, recover_server
from repro.persist.recovery import DiscardTransport
from repro.persist.snapshot import server_fingerprint
from repro.server.history import HistoricalState, HistoryStore
from repro.server.server import CosoftServer
from repro.session import Session
from repro.toolkit.tree import subtree_state
from repro.toolkit.widgets import Form, TextField

FIELDS = 25
GID_A = ("a", "/form")
GID_B = ("b", "/form")


def make_form():
    form = Form("form")
    for j in range(FIELDS):
        form.add_child(TextField(f"f{j:02d}"))
    return form


@pytest.fixture
def pair():
    """Two registered memory-backend instances, one 25-field form each."""
    session = Session(backend="memory")
    try:
        a = session.create_instance("a", user="user-a")
        b = session.create_instance("b", user="user-b")
        form_a = a.add_root(make_form())
        form_b = b.add_root(make_form())
        session.pump()
        yield session, a, b, form_a, form_b
    finally:
        session.close()


def tap_history(instance):
    """The HISTORY_PUSH messages *instance* sends from now on."""
    pushes = []
    send = instance.send

    def tapped(message):
        if message.kind == kinds.HISTORY_PUSH:
            pushes.append(message)
        send(message)

    instance.send = tapped
    return pushes


@pytest.mark.parametrize("direction", ["copy_to", "copy_from"])
def test_a_repeat_delta_records_only_the_field_it_wrote(pair, direction):
    session, a, b, form_a, form_b = pair
    # CopyTo writes B's form from A's; CopyFrom (by A) writes A's from B's.
    if direction == "copy_to":
        source, receiver, receiving_form = form_a, b, form_b
    else:
        source, receiver, receiving_form = form_b, a, form_a
    transfer = getattr(a, direction)

    for j in range(FIELDS):
        source.find(f"f{j:02d}").set("value", f"text of field {j}")
    source.find("f07").set("value", "old")
    transfer(form_a, GID_B)  # full: starts the stream
    session.pump()
    assert receiving_form.find("f07").value == "old"
    pushes = tap_history(receiver)
    before = subtree_state(receiving_form, relevant_only=True)

    source.find("f07").set("value", "new")
    transfer(form_a, GID_B)  # a one-field delta
    session.pump()
    assert receiver.stats["deltas_applied"] == 1
    assert receiving_form.find("f07").value == "new"

    (push,) = pushes
    assert push.payload["state"] == {"f07": {"value": "old"}}
    gid = receiver.gid(receiving_form)
    assert session.server.history.peek(gid).state == {"f07": {"value": "old"}}
    # The same message carrying the whole pre-transfer form, as a
    # receiver recording full states sends it.
    full = Message(
        kind=kinds.HISTORY_PUSH,
        sender=push.sender,
        msg_id=push.msg_id,
        payload=dict(push.payload, state=before),
    )
    assert len(before) == FIELDS + 1
    assert wire_size(push) * 5 < wire_size(full)


def test_an_undo_keeps_a_later_write_the_transfer_did_not_make(pair):
    session, a, b, form_a, form_b = pair
    a.copy_to(form_a, GID_B)
    session.pump()
    form_b.find("f01").set("value", "b1")
    form_b.find("f02").set("value", "b2")
    form_a.find("f01").set("value", "a1")
    a.copy_to(form_a, GID_B)  # a delta would miss b's edits: full resync
    session.pump()
    form_a.find("f01").set("value", "a1-again")
    a.copy_to(form_a, GID_B)  # a delta writing f01 only
    session.pump()
    assert b.stats["deltas_applied"] == 1
    form_b.find("f01").set("value", "later-1")  # written by the transfer
    form_b.find("f03").set("value", "later-3")  # not written by it
    assert b.undo(form_b)
    assert form_b.find("f01").value == "a1"
    assert form_b.find("f03").value == "later-3"
    assert b.redo(form_b)
    assert form_b.find("f01").value == "later-1"
    assert form_b.find("f03").value == "later-3"


def test_an_undo_through_a_full_record_restores_the_whole_form(pair):
    """A receiver that still records whole forms (an older client)."""
    session, a, b, form_a, form_b = pair
    fields = [form_b.find(f"f{j:02d}") for j in range(FIELDS)]
    for j, field in enumerate(fields):
        field.set("value", f"b{j}")
    before = subtree_state(form_b, relevant_only=True)
    b.send(
        Message(
            kind=kinds.HISTORY_PUSH,
            sender="b",
            payload={
                "object": list(GID_B),
                "state": before,
                "reason": "copy_to",
                "user": "user-b",
            },
        )
    )
    session.pump()
    for field in fields:
        field.set("value", "later")
    assert b.undo(form_b)
    assert subtree_state(form_b, relevant_only=True) == before
    assert b.redo(form_b)
    assert all(field.value == "later" for field in fields)


def test_redo_keeps_only_what_the_undo_overwrote():
    store = HistoryStore()
    store.push(HistoricalState(obj=GID_B, state={"f01": {"value": "old"}}))
    current = {"": {"title": ""}, "f01": {"value": "new"}, "f02": {"value": "x"}}
    store.undo(GID_B, current_state=current)
    redo = store.redo(GID_B, current_state=dict(current, f01={"value": "old"}))
    assert redo.state == {"f01": {"value": "new"}}
    # ... and the record the redo left for the next undo is trimmed too.
    assert store.peek(GID_B).state == {"f01": {"value": "old"}}


# ---------------------------------------------------------------------------
# Records of the full form in a journal and in a snapshot
# ---------------------------------------------------------------------------


def full_form(values):
    fields = {f"f{j}": {"value": value} for j, value in enumerate(values)}
    return {"": {"title": ""}, **fields}


def record(gid, reason, user, values):
    return {
        "object": list(gid),
        "reason": reason,
        "user": user,
        "state": full_form(values),
    }


def undo(gid, redo, values):
    return {"object": list(gid), "redo": redo, "current_state": full_form(values)}


def entry(seq, kind, sender, payload):
    return {
        "msg": {"kind": kind, "msg_id": seq, "payload": payload, "sender": sender},
        "seq": seq,
        "t": seq / 100,
    }


#: A journal as a server journaled whole-form records: every
#: ``history_push`` and every ``undo_request``'s ``current_state`` holds
#: the receiver's whole relevant subtree.
FULL_JOURNAL = [
    entry(1, "register", "a", {"app_type": "", "user": "alice"}),
    entry(2, "register", "b", {"app_type": "", "user": "bob"}),
    entry(3, "history_push", "b", record(GID_B, "copy_to", "bob", ["", "", ""])),
    entry(4, "history_push", "b", record(GID_B, "copy_from", "bob", ["x", "", ""])),
    entry(5, "undo_request", "b", undo(GID_B, False, ["x", "y", ""])),
    entry(6, "undo_request", "b", undo(GID_B, True, ["x", "", "z"])),
    entry(7, "undo_request", "b", undo(GID_B, False, ["x", "y", "z"])),
    entry(8, "history_push", "a", record(GID_A, "copy_to", "alice", ["p", "q", "r"])),
]

#: ``server_fingerprint`` of the database :data:`FULL_JOURNAL` leaves, as
#: a server that kept each record and each ``current_state`` whole
#: computed it.
WHOLE_RECORD_FINGERPRINT = "5c27cfc143c0e9e3da9b95e0992239e86fd2711c"


def replay(entries, server):
    for item in entries:
        server.clock.advance_to(item["t"])
        server.handle_message(Message.from_wire(json.loads(json.dumps(item["msg"]))))


def test_a_journal_of_full_records_recovers_to_the_same_database(tmp_path):
    config = PersistenceConfig(directory=str(tmp_path), snapshot_every=0)
    persistence = config.build()
    for item in FULL_JOURNAL:
        persistence.log.append_entry(item)
    persistence.sync()
    persistence.log.close()

    recovered = recover_server(config.build())
    assert server_fingerprint(recovered) == WHOLE_RECORD_FINGERPRINT
    # Undo, redo, undo: one record left below the popped one, and the
    # redo entry holds the whole current state of entry 7.
    assert recovered.history.depth(GID_B) == (1, 1)
    assert recovered.history.peek(GID_B).state == full_form(["", "", ""])


def test_a_snapshot_of_full_records_recovers_to_the_same_database(tmp_path):
    config = PersistenceConfig(directory=str(tmp_path), snapshot_every=0)
    persistence = config.build()
    live = CosoftServer(clock=SimClock(), persistence=persistence)
    live.bind(DiscardTransport())
    replay(FULL_JOURNAL, live)
    snap = persistence.snapshot(live)
    persistence.log.close()
    assert snap["fingerprint"] == WHOLE_RECORD_FINGERPRINT

    recovered = recover_server(config.build())
    assert server_fingerprint(recovered) == WHOLE_RECORD_FINGERPRINT
