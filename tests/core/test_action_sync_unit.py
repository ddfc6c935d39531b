"""Direct unit tests for the action-sync helpers (with a stub instance)."""

from collections import Counter
from typing import Optional


from repro.core import action_sync
from repro.core.action_sync import FloorGrant
from repro.core.receiver import Receiver
from repro.net import kinds
from repro.net.message import Message
from repro.toolkit.events import ACTIVATE, VALUE_CHANGED, Event, EventTrace
from repro.toolkit.widgets import Shell, TextField, ToggleButton

from conftest import record_executions


class StubInstance:
    """Just enough of ApplicationInstance for the action-sync functions."""

    def __init__(self, *, grant: Optional[dict] = None):
        self.instance_id = "stub"
        self.stats = Counter()
        self.trace = EventTrace()
        self.sent = []
        self._grant = grant
        self._token = 0
        self.receiver = Receiver()
        self.root = Shell("app")
        TextField("field", parent=self.root)
        ToggleButton("flag", parent=self.root)
        self.root.attach_runtime(self)

    # Runtime interface ---------------------------------------------------

    def next_token(self) -> int:
        self._token += 1
        return self._token

    def send(self, message: Message) -> None:
        self.sent.append(message)

    def request(
        self, message: Message, timeout=None, *, late=None
    ) -> Optional[Message]:
        self.sent.append(message)
        if message.kind == kinds.LOCK_REQUEST and self._grant is not None:
            return message.reply(kinds.LOCK_REPLY, "server", **self._grant)
        return None  # simulate timeout

    def find_widget(self, pathname: str):
        try:
            return self.root.find(pathname)
        except Exception:
            return None

    def process_local_event(self, widget, event):
        # Stub: behave like an uncoupled instance (no network round).
        widget.run_callbacks(event)


class TestRequestFloor:
    def test_granted(self):
        inst = StubInstance(
            grant={"granted": True, "group": [["stub", "/app/field"]]}
        )
        grant = action_sync.request_floor(inst, ("stub", "/app/field"), 1.0)
        assert grant is not None
        assert grant.group == (("stub", "/app/field"),)
        assert inst.sent[0].kind == kinds.LOCK_REQUEST

    def test_denied(self):
        inst = StubInstance(grant={"granted": False, "group": [], "conflicts": []})
        assert action_sync.request_floor(inst, ("stub", "/x"), 1.0) is None

    def test_timeout_is_denial(self):
        inst = StubInstance(grant=None)
        assert action_sync.request_floor(inst, ("stub", "/x"), 1.0) is None

    def test_release_floor_message(self):
        inst = StubInstance()
        grant = FloorGrant(token=7, group=(("stub", "/app/field"),))
        action_sync.release_floor(inst, grant)
        msg = inst.sent[-1]
        assert msg.kind == kinds.UNLOCK
        assert msg.payload["token"] == 7
        assert msg.payload["objects"] == [["stub", "/app/field"]]


class TestRunMultipleExecution:
    def test_denied_rolls_back_and_skips_callbacks(self):
        inst = StubInstance(grant={"granted": False, "group": []})
        toggle = inst.root.find("/app/flag")
        calls = []
        toggle.add_callback(ACTIVATE, lambda w, e: calls.append(1))
        event = Event(type=ACTIVATE, source_path="/app/flag",
                      instance_id="stub")
        undo = toggle.apply_feedback(event)
        result = action_sync.run_multiple_execution(
            inst, toggle, event, undo, timeout=1.0
        )
        assert result.lock_denied and not result.executed
        assert toggle.value is False  # feedback undone
        assert calls == []
        assert inst.stats["lock_denials"] == 1

    def test_granted_runs_callbacks_and_ships_event(self):
        inst = StubInstance(
            grant={
                "granted": True,
                "group": [["stub", "/app/flag"], ["other", "/y"]],
            }
        )
        toggle = inst.root.find("/app/flag")
        calls = []
        toggle.add_callback(ACTIVATE, lambda w, e: calls.append(1))
        event = Event(type=ACTIVATE, source_path="/app/flag",
                      instance_id="stub")
        undo = toggle.apply_feedback(event)
        result = action_sync.run_multiple_execution(
            inst, toggle, event, undo, timeout=1.0
        )
        assert result.executed
        assert calls == [1]
        # One message per action: the floor request carries the event.
        assert [m.kind for m in inst.sent] == [kinds.LOCK_REQUEST]
        request = inst.sent[0]
        assert request.payload["token"] == 1
        assert request.payload["source"] == ["stub", "/app/flag"]
        assert request.payload["event"] == event.to_wire()

    def test_local_group_members_reexecuted_and_unlocked(self):
        inst = StubInstance(
            grant={
                "granted": True,
                "group": [["stub", "/app/flag"], ["stub", "/app/field"]],
            }
        )
        toggle = inst.root.find("/app/flag")
        field = inst.root.find("/app/field")
        locked_during = []
        field.add_callback(
            ACTIVATE, lambda w, e: locked_during.append(w.floor_locked)
        )
        event = Event(type=ACTIVATE, source_path="/app/flag",
                      instance_id="stub")
        undo = toggle.apply_feedback(event)
        action_sync.run_multiple_execution(inst, toggle, event, undo, timeout=1.0)
        assert locked_during == [True]
        assert not field.floor_locked  # unlocked afterwards


class TestApplyRemoteEvent:
    def test_executes_and_acks(self):
        inst = StubInstance()
        payload = {
            "event": Event(
                type=VALUE_CHANGED,
                source_path="/elsewhere/field",
                params={"value": "remote"},
                instance_id="origin",
            ).to_wire(),
            "targets": ["/app/field"],
            "owner": ["origin", 9],
        }
        executed = action_sync.apply_remote_event(inst, payload)
        assert executed == 1
        assert inst.root.find("/app/field").value == "remote"
        acks = [m for m in inst.sent if m.kind == kinds.EVENT_ACK]
        assert len(acks) == 1
        assert acks[0].payload["owner"] == ["origin", 9]

    def test_missing_targets_skipped(self):
        inst = StubInstance()
        payload = {
            "event": Event(
                type=VALUE_CHANGED, source_path="/x", params={"value": "v"},
                instance_id="origin",
            ).to_wire(),
            "targets": ["/ghost/path"],
            "owner": ["origin", 1],
        }
        assert action_sync.apply_remote_event(inst, payload) == 0
        # The ack still goes out (the event was processed as far as
        # possible; the floor must not stay wedged).
        assert any(m.kind == kinds.EVENT_ACK for m in inst.sent)

    def test_remote_event_executed_not_traced(self):
        """A re-execution runs the receiver's callbacks; the trace, the
        receiver's own input log, does not record it."""
        inst = StubInstance()
        executed = record_executions(inst.root.find("/app/field"))
        event = Event(
            type=VALUE_CHANGED,
            source_path="/x",
            params={"value": "v"},
            user="alice",
            instance_id="origin",
        )
        payload = {
            "event": event.to_wire(),
            "targets": ["/app/field"],
            "owner": ["origin", 1],
        }
        action_sync.apply_remote_event(inst, payload)
        assert executed == [("alice", event.seq, {"value": "v"})]
        assert len(inst.trace) == 0
