"""Operational tooling: session record/replay (``top``, the metrics and
cluster CLIs are ``python -m repro.tools.<name>`` modules)."""

from repro.tools.replay import SessionRecorder, loads, replay, replay_locally

__all__ = [
    "SessionRecorder",
    "loads",
    "replay",
    "replay_locally",
]
