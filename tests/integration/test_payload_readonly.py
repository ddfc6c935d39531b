"""Handlers treat the payloads they are handed as read-only.

On the memory backend a message reaches its receiver by reference, and
one fan-out hands the *same* payload dict to every receiver (the server
shares it so it serializes once; docs/PERF.md §6).  A handler that wrote
into a payload would therefore edit what the next receiver is about to
read.  This test delivers the canonical workload — coupling churn,
coupled edits, CopyTo — plus CopyFrom, RemoteCopy, undo, a command
round trip and one two-message ``EVENT`` through a checking ``recv``: every payload is deep-copied
before its handler runs and compared after.
"""

import copy

from repro.net import kinds
from repro.net.memory import MemoryTransport
from repro.net.message import Message
from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED, Event

from test_routing_parity import FIELD, ROOT, run_workload


def test_no_handler_mutates_a_delivered_payload(monkeypatch):
    delivered = []
    mutated = []
    real_recv = MemoryTransport.recv

    def checking_recv(self, message):
        before = copy.deepcopy(message.payload)
        real_recv(self, message)
        delivered.append(message.kind)
        if message.payload != before:
            mutated.append((self.local_id, message.kind, before, message.payload))

    monkeypatch.setattr(MemoryTransport, "recv", checking_recv)
    with Session(backend="memory") as session:
        run_workload(session)
        instances = session.instances
        i0, i1, i3 = instances["i0"], instances["i1"], instances["i3"]
        i1.copy_from(ROOT, ("i0", ROOT))
        i3.remote_copy(("i0", ROOT), ("i1", ROOT))
        assert i1.undo(ROOT)
        i1.on_command("double", lambda data, sender: data * 2)
        assert i0.send_command("double", 21, targets=["i1"], want_reply=True) == 42
        i0.send_command("double", 1)
        i0.find_widget(FIELD).commit("last")
        session.pump()
        # Clients pack the event into the LOCK_REQUEST; the server still
        # takes a bare EVENT (older clients), so hold that handler too.
        legacy = Event(
            type=VALUE_CHANGED, source_path=FIELD, params={"value": "legacy"},
            user="u0", instance_id="i0",
        )
        i0.send(
            Message(
                kind=kinds.EVENT, sender="i0", payload={"event": legacy.to_wire()}
            )
        )
        session.pump()

    assert mutated == []
    # The workload reached every handler family the contract covers.
    assert {
        "couple_update",
        "lock_request",
        "event",
        "event_broadcast",
        "event_ack",
        "push_state",
        "fetch_state",
        "state_reply",
        "remote_copy",
        "undo_request",
        "command",
        "command_reply",
    } <= set(delivered)
