"""Tests for the Session deployment object and its one public surface."""

import threading
import time

import pytest

from repro.net.aio import BatchConfig
from repro.session import Session, SessionConfig


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
        with Session(max_queue=7, retry_limit=3) as session:
            assert session.config.batch.max_queue == 7
            assert session.config.batch.retry_limit == 3

    def test_unknown_knob_raises(self):
        with pytest.raises(TypeError):
            Session(warp_speed=9)

    def test_getattr_falls_through_to_backend(self):
        with Session() as session:
            assert session.network.clock is session.clock
            assert session.metrics_address is None
        with Session(backend="tcp") as session:
            assert (session.host, session.port) == session._host_transport.address

    def test_getattr_error_names_backend(self):
        with Session() as session:
            with pytest.raises(AttributeError, match="memory"):
                session._host_transport  # a socket-backend attribute
            with pytest.raises(AttributeError, match="'port'"):
                session.port
        with Session(backend="tcp") as session:
            with pytest.raises(AttributeError, match="tcp.*'network'"):
                session.network
            # A name no backend has says which deployment was asked.
            with pytest.raises(AttributeError, match="tcp.*'warp_drive'"):
                session.warp_drive

    def test_persistence_names_every_journal(self):
        with Session(persistence=False) as session:
            assert session.persistence is None
        with Session(persistence=True) as session:
            assert session.persistence is session.server.persistence
            assert session.persistence is not None
        with Session(shards=2, persistence=True) as session:
            shards = session.cluster.shards
            assert session.persistence == {
                shard_id: shard.persistence for shard_id, shard in shards.items()
            }
            assert len(session.persistence) == 2

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
            assert session._host_transport is not None
            assert (
                session._host_transport.config.max_queue
                == session.config.batch.max_queue
            )

    def test_one_thread_serves_the_host_and_every_client(self):
        before = set(threading.enumerate())
        with Session(backend="aio") as session:
            names = ("a", "b", "c")
            instances = [session.create_instance(name, user=name) for name in names]
            assert wait_until(
                lambda: all(set(names) <= set(i.roster) for i in instances)
            )
            started = set(threading.enumerate()) - before
            assert len(started) == 1
        assert [thread for thread in started if thread.is_alive()] == []
        assert set(threading.enumerate()) - before == set()

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


#: Every public Session name, and the backends that have each
#: backend-only one.
PUBLIC_NAMES = (
    "backend clock close cluster create_instance drop_instance host instances "
    "metrics_address metrics_json metrics_text network now obs persistence port "
    "pump server span_dump trace_stats traffic"
).split()
BACKEND_ONLY = {
    "network": {"memory"},
    "clock": {"memory"},
    "host": {"tcp", "aio"},
    "port": {"tcp", "aio"},
}


@pytest.mark.parametrize("backend", ["memory", "tcp", "aio"])
def test_every_backend_offers_one_surface(backend):
    with Session() as reference:
        reference.create_instance("a", user="u1")
        reference.pump()
        memory_keys = set(reference.traffic())
    with Session(backend=backend) as session:
        before = session.now
        session.create_instance(
            "a",
            user="u1",
            app_type="form",
            register=True,
            lock_timeout=1.0,
            request_timeout=1.0,
            replica_fast_path=False,
        )
        moved = session.pump()
        assert isinstance(moved, int)
        assert session.now > before
        assert set(session.traffic()) == memory_keys
        for name in PUBLIC_NAMES:
            if backend in BACKEND_ONLY.get(name, {backend}):
                getattr(session, name)
            else:
                with pytest.raises(AttributeError, match=f"{backend}.*'{name}'"):
                    getattr(session, name)
