"""F4 — Figure 4: the COSOFT server-client architecture.

Measures the central controller itself: registration throughput, couple
link creation/broadcast cost, event fan-out versus couple-group size, and
the size of the replicated coupling information.

Series reproduced: group size ∈ {2..32} → (messages per event, bytes per
event, end-to-end sync latency); plus raw server event throughput.
"""

import pytest

from _common import emit_table, ms
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField

GROUP_SIZES = (2, 4, 8, 16, 32)


def build_group(n):
    session = Session()
    trees = []
    for i in range(n):
        inst = session.create_instance(f"i{i}", user=f"u{i}")
        root = Shell("ui")
        TextField("field", parent=root)
        inst.add_root(root)
        trees.append(root)
    primary = session.instances["i0"]
    for i in range(1, n):
        primary.couple(trees[0].find("/ui/field"), (f"i{i}", "/ui/field"))
    session.pump()
    return session, trees


def measure_group(n, events=10):
    session, trees = build_group(n)
    session.network.stats.reset()
    start = session.now
    for k in range(events):
        trees[0].find("/ui/field").commit(f"v{k}")
        session.pump()
    elapsed = session.now - start
    stats = session.network.stats.snapshot()
    result = {
        "group": n,
        "msgs_per_event": stats["messages"] / events,
        "bytes_per_event": stats["bytes"] / events,
        "sync_ms": ms(elapsed / events),
        "replica_links": len(session.instances["i0"].replica),
    }
    session.close()
    return result


class TestFigure4:
    def test_group_size_sweep(self, benchmark):
        results = benchmark.pedantic(
            lambda: [measure_group(n) for n in GROUP_SIZES],
            rounds=1,
            iterations=1,
        )
        rows = [
            [
                r["group"],
                round(r["msgs_per_event"], 1),
                round(r["bytes_per_event"]),
                r["sync_ms"],
                r["replica_links"],
            ]
            for r in results
        ]
        emit_table(
            "fig4_group_sweep",
            "Figure 4: COSOFT server cost vs couple-group size",
            ["group size", "msgs/event", "bytes/event", "sync ms/event",
             "replica links"],
            rows,
        )
        # Shape: per-event messages = lock request (it carries the event)
        # + reply + (N-1) broadcasts + (N-1) acks -> linear in group size.
        for r in results:
            assert r["msgs_per_event"] == pytest.approx(2 + 2 * (r["group"] - 1))
        # Shape: the replicated coupling info holds all N-1 star links.
        for r in results:
            assert r["replica_links"] == r["group"] - 1

    def test_server_event_throughput(self, benchmark):
        """Raw wall-clock throughput of the whole pipeline (server +
        clients + simulated network) for a 4-member group."""
        session, trees = build_group(4)
        field = trees[0].find("/ui/field")

        def one_event():
            field.commit("x")
            session.pump()

        benchmark(one_event)
        processed = session.server.processed["lock_request"]
        benchmark.extra_info["events_processed"] = processed
        session.close()
        assert processed > 0

    def test_registration_cost(self, benchmark):
        """Cost of joining a session grows linearly with the population:
        the full roster shipped to the newcomer, once, in its ack, and one
        small delta (the new record and a version) to everyone present.
        The couple table is no part of it: a newcomer is a member of no
        group, so its replica bootstrap is empty."""

        def join_after(links):
            session, trees = build_group(links + 1)
            session.network.stats.reset()
            late = session.create_instance("late", user="late-user")
            session.pump()
            bytes_for_join = session.network.stats.bytes
            session.close()
            return bytes_for_join

        sizes = benchmark.pedantic(
            lambda: [(n, join_after(n)) for n in (1, 4, 16)],
            rounds=1,
            iterations=1,
        )
        emit_table(
            "fig4_registration",
            "Figure 4: join cost vs population (existing star links + 1)",
            ["existing links", "join bytes"],
            [[n, b] for n, b in sizes],
        )
        assert sizes[-1][1] > sizes[0][1]
