"""Unit tests for events, callback registry and the event trace."""

import pytest

from repro.toolkit import events as events_module
from repro.toolkit.events import (
    ACTIVATE,
    FINE_GRAINED_EVENTS,
    KEY_PRESS,
    POINTER_MOTION,
    VALUE_CHANGED,
    CallbackRegistry,
    Event,
    EventTrace,
)


class TestEvent:
    def test_wire_roundtrip(self):
        event = Event(
            type=VALUE_CHANGED,
            source_path="/app/form/name",
            params={"value": "x"},
            user="alice",
            instance_id="a",
        )
        back = Event.from_wire(event.to_wire())
        assert back == event

    def test_seq_is_monotonic(self):
        e1 = Event(type=ACTIVATE, source_path="/a")
        e2 = Event(type=ACTIVATE, source_path="/a")
        assert e2.seq > e1.seq

    def test_params_must_be_json_safe(self):
        with pytest.raises(ValueError):
            Event(type=ACTIVATE, source_path="/a", params={"x": object()})

    def test_fine_grained_classification(self):
        assert Event(type=KEY_PRESS, source_path="/a").is_fine_grained
        assert Event(type=POINTER_MOTION, source_path="/a").is_fine_grained
        assert not Event(type=VALUE_CHANGED, source_path="/a").is_fine_grained
        assert KEY_PRESS in FINE_GRAINED_EVENTS

    def test_global_source(self):
        event = Event(type=ACTIVATE, source_path="/a/b", instance_id="i1")
        assert event.global_source == ("i1", "/a/b")

    def test_retargeted_keeps_payload_changes_location(self):
        event = Event(
            type=VALUE_CHANGED,
            source_path="/a/x",
            params={"value": 1},
            user="u",
            instance_id="i1",
        )
        moved = event.retargeted("/b/y", "i2")
        assert moved.source_path == "/b/y"
        assert moved.instance_id == "i2"
        assert moved.params == {"value": 1}
        assert moved.user == "u"
        assert moved.seq == event.seq  # same logical event

    def test_retargeted_copies_params_without_validating_again(self, monkeypatch):
        event = Event(
            type=VALUE_CHANGED,
            source_path="/a/x",
            params={"value": [1, 2]},
            user="u",
            instance_id="i1",
        )
        walks = []
        monkeypatch.setattr(
            events_module, "json_safe", lambda value: walks.append(value) or True
        )
        moved = event.retargeted("/b/y", "i2")
        assert walks == []  # the source event passed the check already
        assert moved == Event(
            type=VALUE_CHANGED,
            source_path="/b/y",
            params={"value": [1, 2]},
            user="u",
            instance_id="i2",
            seq=event.seq,
        )
        assert walks == [{"value": [1, 2]}]  # ...which Event(...) still makes
        moved.params["value"] = "changed"
        assert event.params == {"value": [1, 2]}
        with pytest.raises(AttributeError):
            moved.type = "other"  # a clone is as frozen as any event

    def test_from_wire_rejects_non_json_params(self):
        wire = Event(type=ACTIVATE, source_path="/a").to_wire()
        with pytest.raises(ValueError):
            Event.from_wire({**wire, "params": {1: "non-string key"}})
        with pytest.raises(ValueError):
            Event.from_wire({**wire, "params": {"x": object()}})
        with pytest.raises(KeyError):
            Event.from_wire({"source_path": "/a"})

    def test_events_are_immutable(self):
        event = Event(type=ACTIVATE, source_path="/a")
        with pytest.raises(AttributeError):
            event.type = "other"


class TestCallbackRegistry:
    def test_invoke_in_registration_order(self):
        reg = CallbackRegistry()
        calls = []
        reg.add(ACTIVATE, lambda w, e: calls.append("first"))
        reg.add(ACTIVATE, lambda w, e: calls.append("second"))
        count = reg.invoke(None, Event(type=ACTIVATE, source_path="/x"))
        assert count == 2
        assert calls == ["first", "second"]

    def test_invoke_only_matching_type(self):
        reg = CallbackRegistry()
        calls = []
        reg.add(ACTIVATE, lambda w, e: calls.append("a"))
        reg.invoke(None, Event(type=VALUE_CHANGED, source_path="/x"))
        assert calls == []

    def test_remove(self):
        reg = CallbackRegistry()
        cb = lambda w, e: None
        reg.add(ACTIVATE, cb)
        assert reg.remove(ACTIVATE, cb)
        assert not reg.remove(ACTIVATE, cb)
        assert len(reg) == 0

    def test_remove_one_registration_at_a_time(self):
        reg = CallbackRegistry()
        cb = lambda w, e: None
        reg.add(ACTIVATE, cb)
        reg.add(ACTIVATE, cb)
        assert reg.remove(ACTIVATE, cb)
        assert len(reg.get(ACTIVATE)) == 1

    def test_clear_by_type(self):
        reg = CallbackRegistry()
        reg.add(ACTIVATE, lambda w, e: None)
        reg.add(VALUE_CHANGED, lambda w, e: None)
        reg.clear(ACTIVATE)
        assert reg.get(ACTIVATE) == ()
        assert len(reg.get(VALUE_CHANGED)) == 1

    def test_clear_all(self):
        reg = CallbackRegistry()
        reg.add(ACTIVATE, lambda w, e: None)
        reg.clear()
        assert len(reg) == 0

    def test_callback_added_during_invoke_not_run_this_round(self):
        reg = CallbackRegistry()
        calls = []

        def adder(w, e):
            calls.append("adder")
            reg.add(ACTIVATE, lambda w2, e2: calls.append("late"))

        reg.add(ACTIVATE, adder)
        reg.invoke(None, Event(type=ACTIVATE, source_path="/x"))
        assert calls == ["adder"]

    def test_widget_passed_through(self):
        reg = CallbackRegistry()
        seen = []
        sentinel = object()
        reg.add(ACTIVATE, lambda w, e: seen.append(w))
        reg.invoke(sentinel, Event(type=ACTIVATE, source_path="/x"))
        assert seen == [sentinel]

    def test_event_types_listing(self):
        reg = CallbackRegistry()
        reg.add(ACTIVATE, lambda w, e: None)
        reg.add(KEY_PRESS, lambda w, e: None)
        assert set(reg.event_types()) == {ACTIVATE, KEY_PRESS}


class TestEventTrace:
    def test_records_in_order(self):
        trace = EventTrace()
        e1 = Event(type=ACTIVATE, source_path="/a")
        e2 = Event(type=VALUE_CHANGED, source_path="/b")
        trace.record(e1)
        trace.record(e2)
        assert trace.events() == [e1, e2]

    def test_filter_by_type(self):
        trace = EventTrace()
        trace.record(Event(type=ACTIVATE, source_path="/a"))
        trace.record(Event(type=VALUE_CHANGED, source_path="/b"))
        assert len(trace.events(ACTIVATE)) == 1

    def test_capacity_bound_drops_oldest(self):
        trace = EventTrace(capacity=3)
        events = [Event(type=ACTIVATE, source_path=f"/{i}") for i in range(5)]
        for event in events:
            trace.record(event)
        assert len(trace) == 3
        assert trace.dropped == 2
        assert trace.events() == events[2:]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)

    def test_clear(self):
        trace = EventTrace()
        trace.record(Event(type=ACTIVATE, source_path="/a"))
        trace.clear()
        assert len(trace) == 0
