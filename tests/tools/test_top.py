"""Tests for the live cluster dashboard (repro.tools.top)."""

import io
import re
import subprocess
import sys

import pytest

from repro.net import kinds
from repro.net.message import Message
from repro.session import Session
from repro.tools.top import (
    ParsedMetrics,
    main,
    parse_prometheus_text,
    quantile_from_buckets,
    render_frame,
)

from conftest import make_demo_tree

FIELD = "/app/form/name"

#: A canned two-shard exposition in the shapes the repo's exporter emits.
EXPOSITION = """\
# HELP repro_cluster_shard_up Shard worker liveness
# TYPE repro_cluster_shard_up gauge
repro_cluster_shard_up{shard="shard-0"} 1
repro_cluster_shard_up{shard="shard-1"} 0
# TYPE repro_cluster_shard_restarts_total counter
repro_cluster_shard_restarts_total{shard="shard-0"} 0
repro_cluster_shard_restarts_total{shard="shard-1"} 2
# TYPE repro_cluster_shard_heartbeat_age_seconds gauge
repro_cluster_shard_heartbeat_age_seconds{shard="shard-0"} 0.25
repro_cluster_shard_heartbeat_age_seconds{shard="shard-1"} 7.5
# TYPE repro_traffic_messages_total counter
repro_traffic_messages_total{transport="aio"} 1200
# TYPE repro_server_processed_total counter
repro_server_processed_total{kind="event",shard="shard-0"} 90
repro_server_processed_total{kind="register",shard="shard-0"} 10
repro_server_processed_total{kind="event",shard="shard-1"} 50
# TYPE repro_server_registered_instances gauge
repro_server_registered_instances{shard="shard-0"} 2
repro_server_registered_instances{shard="shard-1"} 1
# TYPE repro_sync_latency_seconds histogram
repro_sync_latency_seconds_bucket{segment="e2e",le="0.005"} 60
repro_sync_latency_seconds_bucket{segment="e2e",le="0.05"} 99
repro_sync_latency_seconds_bucket{segment="e2e",le="+Inf"} 100
repro_sync_latency_seconds_count{segment="e2e"} 100
repro_sync_latency_seconds_sum{segment="e2e"} 0.9
"""


class TestParser:
    def test_series_labels_and_values(self):
        parsed = parse_prometheus_text(EXPOSITION)
        assert parsed.value("repro_cluster_shard_up", shard="shard-0") == 1
        assert parsed.value("repro_cluster_shard_up", shard="shard-1") == 0
        assert parsed.total("repro_server_processed_total", shard="shard-0") == 100
        assert parsed.label_values("repro_cluster_shard_up", "shard") == [
            "shard-0", "shard-1",
        ]

    def test_plus_inf_bucket_bound(self):
        parsed = parse_prometheus_text(EXPOSITION)
        hist = parsed.histogram("repro_sync_latency_seconds", segment="e2e")
        assert hist["buckets"][-1] == (float("inf"), 100)
        assert hist["count"] == 100
        assert hist["sum"] == 0.9

    def test_escaped_label_values_unescape(self):
        parsed = parse_prometheus_text(
            'repro_esc_total{path="a\\"b\\\\c\\nd"} 3\n'
        )
        ((labels, value),) = parsed.get("repro_esc_total")
        assert labels == (("path", 'a"b\\c\nd'),)
        assert value == 3

    def test_comments_and_garbage_are_skipped(self):
        parsed = parse_prometheus_text(
            "# HELP x y\nnot a metric line !!\nrepro_ok 1\n"
        )
        assert parsed.value("repro_ok") == 1
        assert len(parsed.series) == 1


class TestQuantiles:
    BUCKETS = [(0.005, 60), (0.05, 99), (float("inf"), 100)]

    def test_p50_lands_in_first_covering_bucket(self):
        assert quantile_from_buckets(self.BUCKETS, 100, 0.5) == 0.005

    def test_p99_needs_the_second_bucket(self):
        assert quantile_from_buckets(self.BUCKETS, 100, 0.99) == 0.05

    def test_tail_falls_into_inf(self):
        assert quantile_from_buckets(self.BUCKETS, 100, 0.999) == float("inf")

    def test_empty_histogram_has_no_quantiles(self):
        assert quantile_from_buckets([], 0, 0.5) is None


class TestRenderFrame:
    def test_cluster_summary_and_shard_rows(self):
        frame = render_frame(parse_prometheus_text(EXPOSITION))
        assert "shards 1/2 up" in frame
        assert "restarts 2" in frame
        assert "msgs 1,200" in frame
        lines = frame.splitlines()
        (row0,) = [ln for ln in lines if ln.startswith("shard-0")]
        (row1,) = [ln for ln in lines if ln.startswith("shard-1")]
        assert " up " in row0 and "DOWN" in row1
        assert "100" in row0  # processed msgs
        assert "7.50s" in row1  # stale heartbeat age rendered

    def test_latency_table_has_quantiles(self):
        frame = render_frame(parse_prometheus_text(EXPOSITION))
        (row,) = [
            ln for ln in frame.splitlines() if ln.startswith("e2e")
        ]
        assert "100" in row      # count
        assert "5.0ms" in row    # p50 = 0.005
        assert "50.0ms" in row   # p99 = 0.05
        assert "9.0ms" in row    # mean = 0.9 / 100

    def test_rates_come_from_frame_deltas(self):
        previous = parse_prometheus_text(EXPOSITION)
        current = ParsedMetrics()
        for name, series in previous.series.items():
            for labels, value in series:
                bump = 500 if name == "repro_traffic_messages_total" else 0
                current.add(name, labels, value + bump)
        frame = render_frame(current, previous=previous, interval=2.0)
        assert "msgs/s 250" in frame

    def test_empty_scrape_renders_header_only(self):
        frame = render_frame(parse_prometheus_text(""))
        assert frame.startswith("repro.tools.top")
        assert "shards 0/0 up" in frame


def database(frame):
    """The DATABASE block's counts, by label."""
    block = frame.split("DATABASE\n", 1)[1]
    return {
        label: int(n)
        for label, n in re.findall(r"([a-z][a-z ]*?) (\d+)", block)
    }


@pytest.fixture(params=[0, 2], ids=["server", "2-shard-cluster"])
def busy_session(request):
    """Two coupled instances, one CopyFrom, one held floor."""
    session = Session(shards=request.param, observability=True)
    a = session.create_instance("a", user="alice", app_type="editor")
    b = session.create_instance("b", user="bob", app_type="editor")
    ta = a.add_root(make_demo_tree())
    b.add_root(make_demo_tree())
    a.couple(ta.find(FIELD), ("b", FIELD))
    session.pump()
    a.copy_from(ta.find(FIELD), ("b", FIELD))
    a.acquire_floor(ta.find(FIELD))
    session.pump()
    yield session
    session.close()


def live_frame(session):
    return render_frame(parse_prometheus_text(session.metrics_text()))


class TestLiveScrape:
    def test_database_block_counts_the_four_categories(self, busy_session):
        counts = database(live_frame(busy_session))
        # Every shard replicates the roster: read once, not summed.
        assert counts["registered"] == 2
        assert counts["rules"] == 0
        assert counts["groups"] == 1
        assert counts["links"] == 1
        assert counts["floors"] == 1
        assert counts["locks"] == 2
        assert counts["history"] == 1
        assert counts["lock denials"] == 0

    def test_lock_acquisitions_are_scraped(self, busy_session):
        parsed = parse_prometheus_text(busy_session.metrics_text())
        assert parsed.total("repro_locks_acquisitions_total") >= 1

    def test_roster_resyncs_are_not_counted_as_continuity_losses(
        self, busy_session
    ):
        for payload in (
            {"roster": 0},
            {"object": ["b", FIELD], "target": ["a", FIELD]},
        ):
            busy_session.server.handle_message(
                Message(kind=kinds.RESYNC_REQUEST, sender="a", payload=payload)
            )
        busy_session.pump()
        counts = database(live_frame(busy_session))
        assert counts["resyncs"] == 1
        assert counts["roster resyncs"] == 1

    def test_a_cross_shard_couple_counts_one_migration(self, busy_session):
        frame = live_frame(busy_session)
        if busy_session.cluster is None:
            assert "migrations" not in frame
            return
        ring = busy_session.cluster.ring
        # The two fields hash to different shards: the couple moved one.
        assert ring.node_for(f"a:{FIELD}") != ring.node_for(f"b:{FIELD}")
        assert database(frame)["migrations"] == 1
        parsed = parse_prometheus_text(busy_session.metrics_text())
        assert parsed.value("repro_cluster_pinned_homes") == 2

    @pytest.mark.parametrize("shards", [0, 2], ids=["server", "2-shard-cluster"])
    def test_a_fresh_deployment_shows_an_empty_database(self, shards):
        with Session(shards=shards, observability=True) as session:
            counts = database(live_frame(session))
        assert set(counts.values()) == {0}
        assert ("migrations" in counts) == bool(shards)


class TestCli:
    def test_file_mode_renders_one_frame(self, tmp_path, capsys):
        path = tmp_path / "scrape.txt"
        path.write_text(EXPOSITION)
        assert main(["--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shards 1/2 up" in out
        assert str(path) in out  # the source is named in the header

    def test_once_flag_prints_a_single_frame(self, tmp_path):
        # --once with --url is the scripted/CI path; exercise the loop
        # body directly with a stub scraper to stay off the network.
        from repro.tools.top import _run_loop

        out = io.StringIO()
        rc = _run_loop(
            lambda: EXPOSITION, interval=0.0, once=True,
            source="stub", out=out,
        )
        assert rc == 0
        frame = out.getvalue()
        assert frame.count("repro.tools.top") == 1
        assert "\x1b[2J" not in frame  # no tty clear in one-shot mode

    def test_module_entrypoint(self, tmp_path):
        path = tmp_path / "scrape.txt"
        path.write_text(EXPOSITION)
        import os

        import repro

        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools.top", "--file", str(path)],
            capture_output=True, text=True, timeout=60,
            env={
                **os.environ,
                "PYTHONPATH": os.path.dirname(
                    os.path.dirname(os.path.abspath(repro.__file__))
                ),
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert "SYNC-LATENCY" in proc.stdout
