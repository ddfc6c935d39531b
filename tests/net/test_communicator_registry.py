"""The backend names ``Session(backend=...)`` accepts: a closed set of three."""

import pytest

from repro.errors import NetworkError, UnknownCommunicatorError
from repro.session import BACKENDS, Session, SessionConfig


class TestBuiltins:
    def test_builtin_trio_registered(self):
        assert BACKENDS == ("memory", "tcp", "aio")


class TestErrorPaths:
    def test_unknown_backend_is_value_error(self):
        with pytest.raises(UnknownCommunicatorError) as excinfo:
            Session(backend="carrier-pigeon")
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, NetworkError)
        assert "memory" in str(excinfo.value)

    def test_session_config_rejects_unknown_backend(self):
        with pytest.raises(UnknownCommunicatorError):
            SessionConfig(backend="carrier-pigeon")


class TestLiveBackendsView:
    """``BACKENDS`` is a plain tuple of the three names."""

    def test_tuple_compat(self):
        assert len(BACKENDS) == 3
        assert BACKENDS[0] == "memory"
        assert BACKENDS == tuple(BACKENDS)


class TestErrorPathDetails:
    def test_unknown_name_error_lists_every_registered_name(self):
        with pytest.raises(UnknownCommunicatorError) as excinfo:
            SessionConfig(backend="carrier-pigeon")
        text = str(excinfo.value)
        assert "carrier-pigeon" in text
        for name in BACKENDS:
            assert name in text
        assert excinfo.value.known == BACKENDS
