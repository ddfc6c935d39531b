"""Bounded EventTrace (toolkit.events) and Session.trace_stats()."""

from repro.session import Session
from repro.toolkit.events import Event, EventTrace

from conftest import make_demo_tree


def make_event(n):
    return Event(type="key_press", source_path=f"/app/w{n}")


def test_default_capacity():
    trace = EventTrace()
    assert trace.capacity == 100_000
    assert len(trace) == 0


def test_maxlen_bounds_memory():
    trace = EventTrace(capacity=3)
    for n in range(5):
        trace.record(make_event(n))
    assert len(trace) == 3
    assert trace.dropped == 2
    assert [e.source_path for e in trace.events()] == [
        "/app/w2",
        "/app/w3",
        "/app/w4",
    ]


def test_stats_shape():
    trace = EventTrace(capacity=2)
    trace.record(make_event(0))
    assert trace.stats() == {"events": 1, "capacity": 2, "dropped": 0}


def test_session_trace_stats():
    sess = Session("memory", trace_maxlen=4, observability=False)
    try:
        a = sess.create_instance("a", user="alice")
        b = sess.create_instance("b", user="bob")
        ta, tb = make_demo_tree(), make_demo_tree()
        a.add_root(ta)
        b.add_root(tb)
        a.couple(ta.find("/app/form/name"), ("b", "/app/form/name"))
        sess.pump()
        field = ta.find("/app/form/name")
        for n in range(8):
            field.type_text(f"x{n}")
            sess.pump()
        stats = sess.trace_stats()
        assert set(stats) == {"instances", "spans"}
        assert stats["instances"]["a"]["capacity"] == 4
        assert stats["instances"]["a"]["events"] <= 4
        assert stats["instances"]["a"]["dropped"] > 0
        # b re-executed every keystroke; its trace holds only its own input.
        assert stats["instances"]["b"] == {"events": 0, "capacity": 4, "dropped": 0}
        # Observability explicitly off: the span recorder stays empty.
        assert stats["spans"]["spans"] == 0
    finally:
        sess.close()
