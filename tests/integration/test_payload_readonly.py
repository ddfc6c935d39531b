"""Handlers treat the payloads they are handed as read-only.

The churn workload (tests/harness.py) plus CopyFrom, RemoteCopy, undo,
a command round trip and one two-message ``EVENT`` run under
``conftest.payload_guard``, so every handler family the contract covers
is reached with a checking ``recv``.
"""

from repro.net import kinds
from repro.net.message import Message
from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED, Event

from harness import FIELD, ROOT, churn


def test_no_handler_mutates_a_delivered_payload(payload_guard):
    with Session(backend="memory") as session:
        churn(session)
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
    } <= set(payload_guard)
