"""Acceptance: one enabled Session run yields complete metrics + traces.

Criteria (ISSUE 5): a Prometheus-text dump covering the routing /
traffic / lock / compat families, and at least one complete multi-hop
span tree — client emit → lock wait → server lock wait → broadcast →
remote apply → ack — with per-segment durations, on both the memory and
aio backends.
"""

import time

import pytest

from repro.net import kinds
from repro.obs.tracing import (
    CLIENT_EMIT,
    CLIENT_LOCK_WAIT,
    REMOTE_APPLY,
    SERVER_ACK,
    SERVER_BROADCAST,
    SERVER_FLOOR,
    SERVER_LOCK,
    SERVER_RECEIVE,
)
from repro.session import Session

from conftest import make_demo_tree

FIELD = "/app/form/name"

BACKENDS = ("memory", "aio")


def settle_spans(sess, timeout=10.0):
    """Wait until every buffered span has finished (acks drained)."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        sess.pump()
        stats = sess.obs.spans.stats()
        if stats["spans"] and stats["open"] == 0:
            return True
        if sess.backend != "memory":
            time.sleep(0.01)
    stats = sess.obs.spans.stats()
    return stats["spans"] and stats["open"] == 0


def run_coupled_edit(backend, **knobs):
    sess = Session(backend, observability=True, **knobs)
    a = sess.create_instance("a", user="alice")
    b = sess.create_instance("b", user="bob")
    ta, tb = make_demo_tree(), make_demo_tree()
    a.add_root(ta)
    b.add_root(tb)
    a.couple(ta.find(FIELD), ("b", FIELD))
    sess.pump()
    ta.find(FIELD).type_text("hello")
    assert settle_spans(sess)
    return sess, tb


@pytest.mark.parametrize("backend", BACKENDS)
def test_prometheus_dump_covers_all_families(backend):
    sess, _ = run_coupled_edit(backend)
    try:
        sess.obs.observe_span_latencies()
        text = sess.metrics_text()
    finally:
        sess.close()
    for family in (
        "repro_routing_events_total",
        "repro_routing_broadcast_messages_total",
        "repro_traffic_messages_total",
        "repro_traffic_bytes_total",
        "repro_locks_acquisitions_total",
        "repro_compat_matches_total",
        "repro_server_processed_total",
        "repro_sync_latency_seconds_bucket",
    ):
        assert family in text, f"{family} missing from dump ({backend})"


@pytest.mark.parametrize("backend", BACKENDS)
def test_complete_multi_hop_span_tree(backend):
    sess, tb = run_coupled_edit(backend)
    try:
        # The edit really synchronized.
        assert tb.find(FIELD).get("value") == "hello"
        spans = sess.obs.spans.spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        for name in (
            CLIENT_EMIT,
            CLIENT_LOCK_WAIT,
            SERVER_LOCK,
            SERVER_FLOOR,
            SERVER_BROADCAST,
            REMOTE_APPLY,
            SERVER_ACK,
        ):
            assert name in by_name, f"missing hop {name} ({backend})"
            assert all(s.finished for s in by_name[name])
            assert all(s.duration >= 0 for s in by_name[name])
        # The floor request carries the event: no separate EVENT hop.
        assert SERVER_RECEIVE not in by_name
        # Causal chain: every hop of one trace links back to the root.
        root = by_name[CLIENT_EMIT][0]
        trace = {s.span_id: s for s in spans if s.trace_id == root.trace_id}
        ack_span = next(s for s in trace.values() if s.name == SERVER_ACK)
        hops = []
        cursor = ack_span
        while cursor is not None:
            hops.append(cursor.name)
            cursor = trace.get(cursor.parent_id)
        assert hops == [
            SERVER_ACK,
            REMOTE_APPLY,
            SERVER_BROADCAST,
            SERVER_LOCK,
            CLIENT_LOCK_WAIT,
            CLIENT_EMIT,
        ]
        # The floor hangs off the same server hop as the broadcast.
        floor_span = next(s for s in trace.values() if s.name == SERVER_FLOOR)
        assert trace[floor_span.parent_id].name == SERVER_LOCK
        # Per-segment durations decompose the root latency.
        dump = sess.span_dump()
        assert "client.emit" in dump and "ms" in dump
    finally:
        sess.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_disabled_by_default_records_nothing(backend):
    sess = Session(backend)
    try:
        a = sess.create_instance("a", user="alice")
        b = sess.create_instance("b", user="bob")
        ta, tb = make_demo_tree(), make_demo_tree()
        a.add_root(ta)
        b.add_root(tb)
        a.couple(ta.find(FIELD), ("b", FIELD))
        sess.pump()
        ta.find(FIELD).type_text("quiet")
        if sess.backend == "memory":
            sess.pump()
        else:
            end = time.monotonic() + 5.0
            while time.monotonic() < end:
                if tb.find(FIELD).get("value") == "quiet":
                    break
                time.sleep(0.01)
        assert tb.find(FIELD).get("value") == "quiet"
        assert not sess.obs.enabled
        assert len(sess.obs.spans) == 0
        assert sess.metrics_text() == ""
    finally:
        sess.close()


def test_json_export_includes_spans():
    import json

    sess, _ = run_coupled_edit("memory")
    try:
        doc = json.loads(sess.metrics_json(include_spans=True))
        assert doc["span_stats"]["spans"] > 0
        names = {m["name"] for m in doc["metrics"]}
        assert "repro_traffic_messages_total" in names
    finally:
        sess.close()


def test_sharded_cluster_adds_route_hops():
    from repro.obs.tracing import CLUSTER_ROUTE

    sess, _ = run_coupled_edit("memory", shards=2)
    try:
        names = {s.name for s in sess.obs.spans.spans()}
        assert CLUSTER_ROUTE in names
        text = sess.metrics_text()
        assert 'shard="shard-0"' in text
    finally:
        sess.close()


def observed_pair():
    sess = Session(observability=True)
    a = sess.create_instance("a", user="alice")
    b = sess.create_instance("b", user="bob")
    ta, tb = a.add_root(make_demo_tree()), b.add_root(make_demo_tree())
    a.couple(ta.find(FIELD), ("b", FIELD))
    sess.pump()
    return sess, b, ta, tb


def test_a_denied_floor_finishes_its_root_span_as_lock_denied():
    """Contention, observed: b fires while a's acks are outstanding."""
    sess, b, ta, tb = observed_pair()
    with sess:
        ta.find(FIELD).commit("holder")
        tb.find(FIELD).commit("contender")
        assert b.last_execution.lock_denied
        sess.pump()
        outcomes = {
            span.endpoint: span.attrs["outcome"]
            for span in sess.obs.spans.spans()
            if span.name == CLIENT_EMIT
        }
        assert outcomes == {"a": "executed", "b": "lock_denied"}
        assert tb.find(FIELD).value == "holder"


def test_a_duplicate_delivery_is_traced_as_a_duplicate(monkeypatch):
    """Every EVENT_BROADCAST is delivered twice: the second remote.apply
    span executes nothing and says why."""
    sess, b, ta, tb = observed_pair()
    with sess:
        submit = sess.network.submit

        def twice(message):
            submit(message)
            if message.kind == kinds.EVENT_BROADCAST:
                submit(message)

        monkeypatch.setattr(sess.network, "submit", twice)
        ta.find(FIELD).commit("once")
        sess.pump()
        applies = [s.attrs for s in sess.obs.spans.spans() if s.name == REMOTE_APPLY]
        assert applies == [{"executed": 1}, {"duplicate": True}]
        assert b.stats["duplicate_events"] == 1
        assert tb.find(FIELD).value == "once"
        assert len(sess.server.locks) == 0


def test_an_observed_journal_times_every_append_and_sync():
    """Journaling, observed: each append under the default ``batch``
    policy and the snapshot's fsync land in the fsync histogram."""
    with Session(observability=True, persistence=True) as sess:
        a = sess.create_instance("a", user="alice")
        b = sess.create_instance("b", user="bob")
        ta = a.add_root(make_demo_tree())
        b.add_root(make_demo_tree())
        a.couple(ta.find(FIELD), ("b", FIELD))
        sess.pump()
        ta.find(FIELD).commit("journaled")
        sess.pump()
        journal = sess.server.persistence
        journal.snapshot(sess.server)
        appends = journal.appends
        samples = dict(
            line.rsplit(" ", 1)
            for line in sess.metrics_text().splitlines()
            if line.startswith("repro_persist_")
        )
    assert appends > 0
    assert samples["repro_persist_appends_total"] == str(appends)
    assert samples["repro_persist_snapshots_total"] == "1"
    assert samples["repro_persist_fsync_seconds_count"] == str(appends + 1)
