"""The metrics, cluster and top CLIs, driven through their ``main``."""

import json
import time

import pytest

from repro.session import Session
from repro.tools import cluster, metrics, top


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


def test_cluster_main_kills_a_worker_that_the_supervisor_restarts(capsys):
    """``kill`` SIGKILLs a shard worker of a multi-process cluster; the
    reply names the dead pid and the supervisor brings the shard back."""
    with Session(backend="aio", shards=2, processes=True) as session:
        handle = session.cluster.shards["shard-0"]
        victim = handle.process.pid
        port = str(session.port)
        assert cluster.main(["--port", port, "kill", "shard-0"]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["action"] == "kill"
        assert reply["pid"] == victim
        deadline = time.monotonic() + 60.0
        while not (handle.restarts >= 1 and handle.state == "ready"):
            assert time.monotonic() < deadline, handle.state
            time.sleep(0.05)
        assert cluster.main(["--port", port, "--json", "status"]) == 0
        process = json.loads(capsys.readouterr().out)["processes"]["shard-0"]
        assert process["restarts"] >= 1
        assert process["pid"] != victim


def test_top_main_renders_a_frame_scraped_from_a_metrics_port(capsys):
    with Session(observability=True, metrics_port=0) as session:
        session.create_instance("a", user="alice")
        session.pump()
        host, port = session.metrics_address
        url = f"http://{host}:{port}/metrics"
        assert top.main(["--url", url, "--once"]) == 0
    header, summary = capsys.readouterr().out.splitlines()[:2]
    assert header.endswith(f"— {url}")
    messages = int(summary.split("msgs ")[1].split()[0].replace(",", ""))
    assert messages >= 2  # the REGISTER and its REGISTER_ACK
