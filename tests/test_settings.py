"""Settings that no deployment sets are gone, and naming one fails at
construction: before a backend is built, a socket opens or an instance
exists.  Protocol paths no deployment sends are gone too, and reaching
for one is refused."""

import threading

import pytest

import repro.session as session_module
from repro.cluster import ShardedCosoftCluster
from repro.cluster.proc import ProcCluster
from repro.cluster.worker import _parse_args as worker_args
from repro.cluster.worker import build_worker
from repro.errors import CodecError
from repro.net import kinds
from repro.net.aio import AioHostTransport
from repro.net.message import Message
from repro.persist import OpLog, PersistenceConfig
from repro.server.server import CosoftServer
from repro.session import BACKENDS, Session, SessionConfig


class TestRemovedSettingsFailAtConstruction:
    def test_backpressure_is_not_a_session_knob(self, monkeypatch):
        def refuse(config, clock=None):
            pytest.fail(f"a {config.backend} deployment was built")

        # The central endpoint is the first thing a Session builds.
        monkeypatch.setattr(session_module, "_build_server", refuse)
        with pytest.raises(TypeError, match="backpressure"):
            Session(backend="aio", backpressure="block")

    @pytest.mark.parametrize("name", ["backpressure", "config"])
    def test_removed_settings_are_not_host_parameters(self, name):
        """Neither a backpressure policy nor a config object: the aio
        host's one setting is ``max_queue``."""
        before = threading.active_count()
        with pytest.raises(TypeError, match=name):
            AioHostTransport(lambda message: None, **{name: object()})
        assert threading.active_count() == before  # no loop was started

    @pytest.mark.parametrize(
        "name", ["retry_limit", "retry_initial", "retry_backoff", "retry_max_delay"]
    )
    def test_per_hop_retry_settings_are_not_session_knobs(self, monkeypatch, name):
        """The aio host retries nothing: a message it cannot write is
        dropped, so no retry setting exists to name."""

        def refuse(config, clock=None):
            pytest.fail(f"a {config.backend} deployment was built")

        monkeypatch.setattr(session_module, "_build_server", refuse)
        with pytest.raises(TypeError, match=name):
            Session(backend="aio", **{name: 3})

    def test_batch_is_not_a_session_config_field(self):
        """The one aio setting is the flat ``SessionConfig.max_queue``."""
        with pytest.raises(TypeError, match="batch"):
            SessionConfig(backend="aio", batch=object())

    def test_placement_is_not_a_cluster_parameter(self):
        with pytest.raises(TypeError, match="placement"):
            ShardedCosoftCluster(2, placement="load")

    def test_placement_is_not_a_proc_cluster_parameter(self, tmp_path):
        with pytest.raises(TypeError, match="placement"):
            ProcCluster(2, directory=str(tmp_path), placement="load")
        assert list(tmp_path.iterdir()) == []  # no worker was spawned

    def test_fsync_never_is_not_a_policy(self, tmp_path):
        with pytest.raises(ValueError, match="never"):
            OpLog(str(tmp_path), fsync="never")

    def test_keep_snapshots_is_not_a_persistence_field(self):
        with pytest.raises(TypeError, match="keep_snapshots"):
            PersistenceConfig(keep_snapshots=3)

    @pytest.mark.parametrize("name", ["history_depth", "floor_lease"])
    def test_history_depth_and_floor_lease_are_not_server_parameters(self, name):
        with pytest.raises(TypeError, match=name):
            CosoftServer(**{name: 5})

    @pytest.mark.parametrize("name", ["vnodes", "history_depth", "floor_lease"])
    def test_ring_and_shard_settings_are_not_cluster_parameters(self, name):
        with pytest.raises(TypeError, match=name):
            ShardedCosoftCluster(2, **{name: 5})

    @pytest.mark.parametrize("name", ["vnodes", "history_depth", "floor_lease"])
    def test_ring_and_shard_settings_are_not_proc_cluster_parameters(
        self, tmp_path, name
    ):
        with pytest.raises(TypeError, match=name):
            ProcCluster(2, directory=str(tmp_path), **{name: 5})
        assert list(tmp_path.iterdir()) == []  # no worker was spawned

    @pytest.mark.parametrize("name", ["history_depth", "floor_lease"])
    def test_history_depth_and_floor_lease_are_not_worker_settings(self, name):
        with pytest.raises(TypeError, match=name):
            build_worker(shard_id="shard-0", directory="unused", **{name: 5})
        required = ["--shard-id", "s", "--dir", "d", "--portfile", "p"]
        required += ["--codec", "json"]
        worker_args(required)
        with pytest.raises(SystemExit):
            worker_args(required + ["--" + name.replace("_", "-"), "5"])

    def test_vnodes_is_not_a_session_knob(self, monkeypatch):
        def refuse(config, clock=None):
            pytest.fail(f"a {config.backend} deployment was built")

        monkeypatch.setattr(session_module, "_build_server", refuse)
        with pytest.raises(TypeError, match="vnodes"):
            Session(shards=2, vnodes=8)


class TestCatchupIsGone:
    """Log-shipping catch-up had no sender: an older peer's request is
    an unsupported kind, answered with an ERROR and journaled nowhere."""

    def _request(self):
        return Message(
            kind="catchup_request", sender="standby", payload={"after_seq": 0}
        )

    def test_apply_catchup_is_not_importable(self):
        with pytest.raises(ImportError):
            from repro.persist import apply_catchup  # noqa: F401

    def test_single_server_answers_error_and_journals_nothing(self):
        replies = []

        class Capture:
            local_id = "server"
            send = staticmethod(replies.append)

        server = CosoftServer(persistence=PersistenceConfig().build())
        server.bind(Capture())
        server.handle_message(self._request())
        assert [m.kind for m in replies] == [kinds.ERROR]
        assert replies[0].payload["reason"] == "unsupported message kind"
        assert server.persistence.log.last_seq == 0

    def test_cluster_answers_error_and_journals_nothing(self):
        with Session(shards=2, persistence=True) as session:
            session.create_instance("a", user="alice")
            session.pump()
            journals = session.persistence
            before = {sid: p.log.last_seq for sid, p in journals.items()}
            replies = []
            standby = session.network.attach("standby", replies.append)
            standby.send(self._request())
            session.pump()
            assert [m.kind for m in replies] == [kinds.ERROR]
            assert replies[0].payload["reason"] == "unsupported message kind"
            assert {sid: p.log.last_seq for sid, p in journals.items()} == before


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("codec", ["msgpack", None, 5], ids=["msgpack", "None", "int"])
def test_a_codec_that_is_not_a_name_is_refused_at_construction(backend, codec):
    """A codec is one of two names.  Anything that is not a name used to
    pass the config check as "a ready codec", build the deployment and
    fail with an ``AttributeError`` at the first instance."""
    with pytest.raises(CodecError, match="unknown codec") as excinfo:
        with Session(backend=backend, codec=codec) as session:
            session.create_instance("a", user="u")
    assert "['binary', 'json']" in str(excinfo.value)


def test_a_config_passed_as_backend_is_refused_naming_config():
    """``Session(SessionConfig(...))`` puts the config where the backend
    name goes.  It used to fail as an unknown backend whose message
    printed the whole config; it now says where a config belongs."""
    with pytest.raises(TypeError, match="config=") as excinfo:
        Session(SessionConfig(backend="memory"))
    assert "SessionConfig(" not in str(excinfo.value)
    with Session(config=SessionConfig(backend="memory")) as session:
        assert session.backend == "memory"
