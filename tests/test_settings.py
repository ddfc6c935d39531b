"""Settings that no deployment sets are gone, and naming one fails at
construction: before a backend is built, a socket opens or an instance
exists."""

import pytest

import repro.session as session_module
from repro.cluster import ShardedCosoftCluster
from repro.cluster.proc import ProcCluster
from repro.errors import CodecError
from repro.net.aio import BatchConfig
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
