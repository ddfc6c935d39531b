"""Ablations of the design choices DESIGN.md calls out.

A1 — **replicated coupling information** (§3.2 "to be completely
available locally").  The client-side replica answers "is this object
coupled?" without a server round trip, so *uncoupled* interaction is
free.  Disabling the fast path forces every event through the server.

A2 — **ack-held floors** (our E10 fix for the paper's "unlocked when the
processing of this event is completed").  Releasing on broadcast saves
the ack messages but lets racing replicas diverge; the ablation
quantifies both sides.
"""

import pytest

from _common import emit_table, ms
from repro.session import Session
from repro.toolkit.widgets import Scale, Shell, TextField
from repro.workloads import contention_burst

FIELD = "/ui/field"


def build_session(**session_kwargs):
    session = Session(**session_kwargs)
    return session


class TestReplicaFastPath:
    def test_uncoupled_event_cost(self, benchmark):
        def measure(fast_path):
            session = Session()
            inst = session.create_instance(
                "solo", user="u", replica_fast_path=fast_path
            )
            tree = inst.add_root(Shell("ui"))
            field = TextField("field", parent=tree)
            session.network.stats.reset()
            start = session.now
            for i in range(50):
                field.commit(f"v{i}")
                session.pump()
            result = {
                "messages": session.network.stats.messages,
                "sim_ms_per_event": ms((session.now - start) / 50),
            }
            session.close()
            return result

        def both():
            return measure(True), measure(False)

        with_replica, without = benchmark.pedantic(both, rounds=1, iterations=1)
        emit_table(
            "ablation_replica",
            "A1: uncoupled-event cost with/without the coupling replica",
            ["variant", "messages (50 events)", "sim ms/event"],
            [
                ["replica fast path", with_replica["messages"],
                 with_replica["sim_ms_per_event"]],
                ["ask server always", without["messages"],
                 without["sim_ms_per_event"]],
            ],
        )
        # Shape: the replica makes uncoupled interaction free.
        assert with_replica["messages"] == 0
        assert without["messages"] >= 100  # lock request + reply per commit
        assert with_replica["sim_ms_per_event"] == pytest.approx(0.0)
        assert without["sim_ms_per_event"] > 0

    def test_coupled_behaviour_identical(self, benchmark):
        """The fast path only matters for uncoupled objects: coupled
        events behave identically either way."""

        def run(fast_path):
            session = Session()
            a = session.create_instance("a", user="u1",
                                        replica_fast_path=fast_path)
            b = session.create_instance("b", user="u2")
            ta = a.add_root(Shell("ui"))
            TextField("field", parent=ta)
            tb = b.add_root(Shell("ui"))
            TextField("field", parent=tb)
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            ta.find(FIELD).commit("payload")
            session.pump()
            value = tb.find(FIELD).value
            session.close()
            return value

        values = benchmark.pedantic(
            lambda: (run(True), run(False)), rounds=1, iterations=1
        )
        assert values == ("payload", "payload")


class TestAckRelease:
    def _run_contention(self, ack_release):
        session = Session(base_latency=0.005, ack_release=ack_release)
        trees = []
        for i in range(4):
            inst = session.create_instance(f"i{i}", user=f"u{i}")
            root = Shell("ui")
            Scale("zoom", parent=root, maximum=100)
            inst.add_root(root)
            trees.append(root)
        primary = session.instances["i0"]
        for i in range(1, 4):
            primary.couple(trees[0].find("/ui/zoom"), (f"i{i}", "/ui/zoom"))
        session.pump()
        session.network.stats.reset()
        workload = contention_burst(
            n_users=4, rounds=8, spacing=0.0005, path="/ui/zoom", seed=3
        )
        denied = 0
        for action in workload:
            session.network.pump_until_time(action.at)
            widget = trees[action.user].find(action.path)
            widget.fire(action.event_type, **dict(action.params))
            inst = session.instances[f"i{action.user}"]
            if inst.last_execution and inst.last_execution.lock_denied:
                denied += 1
        session.pump()
        values = {tree.find("/ui/zoom").value for tree in trees}
        stats = session.network.stats.snapshot()
        session.close()
        executed = len(workload) - denied
        return {
            "denied": denied,
            "converged": len(values) == 1,
            "messages": stats["messages"],
            "msgs_per_executed": stats["messages"] / max(executed, 1),
        }

    def test_ack_release_vs_broadcast_release(self, benchmark):
        both = benchmark.pedantic(
            lambda: (self._run_contention(True), self._run_contention(False)),
            rounds=1,
            iterations=1,
        )
        with_acks, without = both
        emit_table(
            "ablation_ack_release",
            "A2: floor release policy under contention (4 users, 8 rounds)",
            ["variant", "denied", "converged", "messages",
             "msgs/executed action"],
            [
                ["ack-held floors", with_acks["denied"],
                 with_acks["converged"], with_acks["messages"],
                 round(with_acks["msgs_per_executed"], 1)],
                ["release on broadcast", without["denied"],
                 without["converged"], without["messages"],
                 round(without["msgs_per_executed"], 1)],
            ],
        )
        # Shape: ack-held floors cost more protocol per executed action and
        # refuse contended actions — but they are what keeps the replicas
        # convergent; release-on-broadcast silently diverges.
        assert with_acks["converged"] is True
        assert without["converged"] is False
        assert with_acks["denied"] > without["denied"]
        assert (
            with_acks["msgs_per_executed"] > without["msgs_per_executed"]
        )
