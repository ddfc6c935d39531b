"""Settings that no deployment sets are gone, and naming one fails at
construction: before a backend is built, a socket opens or an instance
exists.  Protocol paths no deployment sends are gone too, and reaching
for one is refused."""

import pytest

import repro.session as session_module
from repro.cluster import ShardedCosoftCluster
from repro.cluster.proc import ProcCluster
from repro.errors import CodecError
from repro.net import kinds
from repro.net.aio import BatchConfig
from repro.net.message import Message
from repro.persist import OpLog, PersistenceConfig
from repro.server.server import CosoftServer
from repro.session import BACKENDS, Session


class TestRemovedSettingsFailAtConstruction:
    def test_backpressure_is_not_a_session_knob(self, monkeypatch):
        def refuse(config):
            pytest.fail(f"a {config.backend} backend was built")

        monkeypatch.setitem(session_module._BACKEND_TYPES, "aio", refuse)
        with pytest.raises(TypeError, match="backpressure"):
            Session(backend="aio", backpressure="block")

    def test_backpressure_is_not_a_batch_config_field(self):
        with pytest.raises(TypeError, match="backpressure"):
            BatchConfig(backpressure="drop")

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
