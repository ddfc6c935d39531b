"""The metrics and cluster CLIs, driven through their ``main``."""

import json

import pytest

from repro.session import Session
from repro.tools import cluster, metrics


@pytest.mark.parametrize(
    "fmt, fragment",
    [
        ("prom", "# TYPE repro_"),
        ("json", '"metrics"'),
        ("spans", "client.emit"),
    ],
)
def test_metrics_main_prints_each_format(capsys, fmt, fragment):
    assert metrics.main(["--format", fmt, "--events", "2"]) == 0
    out = capsys.readouterr().out
    assert fragment in out
    if fmt == "json":
        json.loads(out)


def test_cluster_main_reports_status(capsys):
    with Session(backend="aio", shards=2) as session:
        session.create_instance("a", user="alice")
        session.pump()
        assert cluster.main(["--port", str(session.port), "status"]) == 0
        out = capsys.readouterr().out
        assert "shards:     shard-0, shard-1" in out
        assert "registered: 1" in out
        assert cluster.main(["--port", str(session.port), "--json", "status"]) == 0
        assert json.loads(capsys.readouterr().out)["shards"] == ["shard-0", "shard-1"]
