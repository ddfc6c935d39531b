"""Failure injection: message loss, partitions, and timeouts."""

import pytest

from repro.session import Session

from conftest import make_demo_tree

FIELD = "/app/form/name"


class TestLossyNetwork:
    def test_lock_reply_loss_causes_denial_and_rollback(self):
        """If the lock reply never arrives, the client treats the event as
        denied and undoes the feedback — the UI never wedges."""
        session = Session()
        try:
            a = session.create_instance("a", user="u1", lock_timeout=0.05)
            b = session.create_instance("b", user="u2")
            ta = a.add_root(make_demo_tree())
            tb = b.add_root(make_demo_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            # Partition the server so the lock request dies.
            session.network.partition("server")
            ta.find(FIELD).commit("lost")
            assert a.last_execution.lock_denied
            assert ta.find(FIELD).value == ""  # rolled back
            session.network.heal("server")
        finally:
            session.close()

    def test_late_grant_is_reapplied_on_the_source(self):
        """The LOCK_REPLY misses ``lock_timeout`` but the request — which
        carried the event — was granted: the server broadcast it, so the
        source, having rolled back, re-executes it when the grant limps
        in and ends where the replica ended."""
        # 40 ms a hop: the request lands at 40 ms, its reply at 80 ms,
        # the timeout fires at 50 ms (simulated clock, deterministic).
        session = Session(backend="memory", base_latency=0.04)
        try:
            a = session.create_instance("a", user="u1", lock_timeout=0.05)
            b = session.create_instance("b", user="u2")
            ta = a.add_root(make_demo_tree())
            tb = b.add_root(make_demo_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            calls = []
            ta.find(FIELD).add_callback(
                "value_changed", lambda w, e: calls.append(e.params["value"])
            )
            ta.find(FIELD).commit("late")
            assert a.last_execution.lock_denied
            assert ta.find(FIELD).value == ""  # rolled back at the timeout
            assert calls == []
            assert len(session.server.locks) > 0  # granted all the same
            session.pump()
            assert ta.find(FIELD).value == tb.find(FIELD).value == "late"
            assert calls == ["late"]
            assert a.stats["late_grants"] == 1
            assert a.stats["late_replies"] == 1
            assert not a._abandoned
            assert len(session.server.locks) == 0  # acks released the floor
            assert session.server._floors == {}
        finally:
            session.close()

    def test_late_denial_changes_nothing(self):
        session = Session(backend="memory", base_latency=0.04)
        try:
            a = session.create_instance("a", user="u1", lock_timeout=0.05)
            b = session.create_instance("b", user="u2")
            ta = a.add_root(make_demo_tree())
            tb = b.add_root(make_demo_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            held = b.acquire_floor(FIELD)
            assert held is not None
            ta.find(FIELD).commit("refused")
            assert a.last_execution.lock_denied
            session.pump()
            assert ta.find(FIELD).value == tb.find(FIELD).value == ""
            assert a.stats["late_replies"] == 1
            assert a.stats["late_grants"] == 0
            assert not a._abandoned
            b.release_floor(held)
            session.pump()
            assert len(session.server.locks) == 0
        finally:
            session.close()

    def test_recovery_after_partition_heals(self):
        session = Session()
        try:
            a = session.create_instance("a", user="u1", lock_timeout=0.05)
            b = session.create_instance("b", user="u2")
            ta = a.add_root(make_demo_tree())
            tb = b.add_root(make_demo_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            session.network.partition("server")
            ta.find(FIELD).commit("dropped")
            session.network.heal("server")
            ta.find(FIELD).commit("delivered")
            session.pump()
            assert tb.find(FIELD).value == "delivered"
        finally:
            session.close()

    def test_stale_lock_released_when_holder_unregisters(self):
        session = Session()
        try:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            ta = a.add_root(make_demo_tree())
            tb = b.add_root(make_demo_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            grant = a.acquire_floor(ta.find(FIELD))
            assert grant is not None
            # a crashes while holding the floor.
            a.close()
            session.pump()
            assert len(session.server.locks) == 0
            tb.find(FIELD).commit("free again")
            assert not b.last_execution.lock_denied
        finally:
            session.close()

    def test_copy_from_timeout_raises_cleanly(self):
        session = Session()
        try:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            a.request_timeout = 0.05
            ta = a.add_root(make_demo_tree())
            b.add_root(make_demo_tree())
            session.network.partition("b")  # owner unreachable
            from repro.errors import ServerError

            with pytest.raises(ServerError):
                a.copy_from(ta.find("/app/form"), ("b", "/app/form"))
        finally:
            session.close()

    def test_event_to_departed_instance_dropped_silently(self):
        session = Session()
        try:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            ta = a.add_root(make_demo_tree())
            tb = b.add_root(make_demo_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            # b's widget disappears locally but the broadcast is in flight.
            ta.find(FIELD).commit("racing")
            tb.find(FIELD).destroy()
            session.pump()  # no exception: the miss is tolerated
        finally:
            session.close()


class TestJitterAndLoad:
    def test_convergence_under_jitter(self):
        """Per-link FIFO keeps replicas convergent despite jitter."""
        session = Session(jitter=0.01, seed=99)
        try:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            ta = a.add_root(make_demo_tree())
            tb = b.add_root(make_demo_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            session.pump()
            for i in range(25):
                ta.find(FIELD).commit(f"tick-{i}")
            session.pump()
            assert tb.find(FIELD).value == "tick-24"
        finally:
            session.close()

    def test_deterministic_replay(self):
        """Same seed, same workload -> byte-identical traffic counts."""

        def run(seed):
            session = Session(jitter=0.005, seed=seed)
            try:
                a = session.create_instance("a", user="u1")
                b = session.create_instance("b", user="u2")
                ta = a.add_root(make_demo_tree())
                b.add_root(make_demo_tree())
                a.couple(ta.find(FIELD), ("b", FIELD))
                session.pump()
                for i in range(10):
                    ta.find(FIELD).commit(f"v{i}")
                session.pump()
                return (session.network.stats.messages, session.now)
            finally:
                session.close()

        assert run(5) == run(5)
