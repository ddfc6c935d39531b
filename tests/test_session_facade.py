"""Tests for the unified Session facade and the deprecated aliases."""

import time

import pytest

from repro.net.aio import BatchConfig
from repro.session import (
    ClusterSession,
    LocalSession,
    Session,
    SessionConfig,
    TcpSession,
)


def wait_until(predicate, timeout=5.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestSessionConfig:
    def test_defaults(self):
        config = SessionConfig()
        assert config.backend == "memory"
        assert config.shards == 0
        assert isinstance(config.batch, BatchConfig)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            SessionConfig(backend="carrier-pigeon")

    def test_rejects_negative_shards(self):
        with pytest.raises(ValueError):
            SessionConfig(shards=-1)


class TestSessionConstruction:
    def test_default_is_memory(self):
        with Session() as session:
            assert session.backend == "memory"
            assert session.cluster is None

    def test_config_object(self):
        with Session(config=SessionConfig(shards=2)) as session:
            assert session.cluster is not None
            assert len(session.cluster.shards) == 2

    def test_backend_argument_overrides_config(self):
        config = SessionConfig(backend="memory")
        with Session("tcp", config=config) as session:
            assert session.backend == "tcp"
        # The caller's config object is not mutated.
        assert config.backend == "memory"

    def test_config_and_knobs_are_exclusive(self):
        with pytest.raises(TypeError):
            Session(config=SessionConfig(), seed=3)

    def test_batch_knobs_fold_into_batch_config(self):
        with Session(max_queue=7, backpressure="block") as session:
            assert session.config.batch.max_queue == 7
            assert session.config.batch.backpressure == "block"

    def test_unknown_knob_raises(self):
        with pytest.raises(TypeError):
            Session(warp_speed=9)

    def test_getattr_falls_through_to_backend(self):
        with Session() as session:
            assert session.network is session._impl.network
            assert session.clock is session._impl.clock

    def test_getattr_error_names_backend(self):
        with Session() as session:
            with pytest.raises(AttributeError, match="memory"):
                session.runtime  # an aio-only attribute

    def test_repr(self):
        with Session(shards=2) as session:
            assert "memory" in repr(session)
            assert "shards=2" in repr(session)


class TestAioBackend:
    def test_roundtrip_and_stats(self):
        with Session(backend="aio") as session:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            assert wait_until(lambda: "b" in a.roster and "a" in b.roster)
            assert b.send_command("echo", 1, targets=["a"]) is None  # no-op ok
            snapshot = session.traffic()
            assert snapshot["messages"] > 0
            # The unified stats shape: batching fields present everywhere.
            for key in ("batches", "batched_messages", "retries", "drops_by_reason"):
                assert key in snapshot

    def test_runtime_accessible(self):
        with Session(backend="aio") as session:
            assert session.runtime.transport is not None
            assert session.runtime.config.max_queue == session.config.batch.max_queue

    def test_sharded_aio(self):
        with Session(backend="aio", shards=2) as session:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            assert wait_until(lambda: "b" in a.roster and "a" in b.roster)
            assert session.cluster is not None


class TestTrafficShapeParity:
    def test_same_snapshot_keys_on_every_backend(self):
        with Session() as memory_session:
            memory_session.create_instance("a", user="u1")
            memory_session.pump()
            memory_keys = set(memory_session.traffic())
        with Session(backend="aio") as aio_session:
            aio_session.create_instance("a", user="u1")
            aio_session.pump()
            aio_keys = set(aio_session.traffic())
        assert memory_keys == aio_keys


class TestDeprecatedAliases:
    def test_local_session_warns_and_works(self):
        with pytest.warns(FutureWarning, match="LocalSession"):
            session = LocalSession(seed=3)
        try:
            assert session.backend == "memory"
            assert session.config.seed == 3
            a = session.create_instance("a", user="u1")
            session.pump()
            assert "a" in a.roster
        finally:
            session.close()

    def test_cluster_session_warns_and_builds_cluster(self):
        with pytest.warns(FutureWarning, match="ClusterSession"):
            session = ClusterSession(shards=3)
        try:
            assert session.cluster is not None
            assert len(session.cluster.shards) == 3
        finally:
            session.close()

    def test_cluster_session_rejects_zero_shards(self):
        with pytest.warns(FutureWarning):
            with pytest.raises(ValueError):
                ClusterSession(shards=0)

    def test_tcp_session_warns_and_keeps_signature(self):
        with pytest.warns(FutureWarning, match="TcpSession"):
            session = TcpSession("127.0.0.1", 0)
        try:
            assert session.backend == "tcp"
            assert session.port != 0
        finally:
            session.close()

    def test_aliases_are_sessions(self):
        with pytest.warns(FutureWarning):
            session = LocalSession()
        try:
            assert isinstance(session, Session)
        finally:
            session.close()
