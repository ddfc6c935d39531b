"""Cluster-wide observability plane (ISSUE acceptance scenarios).

With ``Session(backend="aio", shards=4, processes=True,
observability=True)`` every shard worker runs its own registry and span
recorder; the supervisor scrapes them over the admin links (delta pulls)
and merges the result, so one ``metrics_text()`` covers the whole fleet
with ``shard=<id>`` labels and one ``span_dump()`` shows the complete
cross-process causal trees.  The parity gate: the multi-process span
tree equals the single-process tree modulo the two new hop segments
(``cluster.forward``, ``worker.apply``) introduced by the process
boundary; the workload is the conformance harness's keystrokes
(tests/harness.py).
"""

import urllib.request

import pytest

from repro.obs.tracing import CLUSTER_FORWARD, WORKER_APPLY
from repro.session import Session

from harness import REFERENCES, keystrokes

pytestmark = pytest.mark.proc_chaos

SHARDS = 4


def observed_keystrokes(tmp_path):
    """The harness's keystrokes workload on a multi-process cluster:
    ``(result, metrics text)``."""
    with Session(
        backend="aio",
        shards=SHARDS,
        processes=True,
        observability=True,
        persistence=str(tmp_path),
    ) as sess:
        return keystrokes(sess), sess.metrics_text()


def splice_cluster_hops(tree):
    """Remove ``cluster.forward``/``worker.apply`` nodes, hoisting their
    children — the single-process shape of a multi-process trace."""
    drop = {CLUSTER_FORWARD, WORKER_APPLY}

    def walk(node):
        name, children = node
        hoisted = []
        for child in children:
            hoisted.extend(walk(child))
        if name in drop:
            return hoisted
        return [(name, tuple(sorted(hoisted)))]

    return tuple(sorted(n for root in tree for n in walk(root)))


class TestClusterWideScrape:
    def test_metrics_cover_every_worker_with_shard_labels(self, tmp_path):
        _, text = observed_keystrokes(tmp_path)
        for n in range(SHARDS):
            shard = f"shard-{n}"
            # Supervisor-side liveness gauge...
            assert f'repro_cluster_shard_up{{shard="{shard}"}} 1' in text
            # ...and families scraped out of the worker process itself,
            # re-labeled with the owning shard.
            assert (
                f'repro_server_registered_instances{{shard="{shard}"}}'
                in text
            )
            assert (
                f'repro_server_processed_total{{kind="register",'
                f'shard="{shard}"}}' in text
            )

    def test_merged_latency_histogram_has_cluster_segments(self, tmp_path):
        _, text = observed_keystrokes(tmp_path)
        for segment in ("e2e", "forward", "worker_apply"):
            assert (
                f'repro_sync_latency_seconds_count{{segment="{segment}"}}'
                in text
            )


class TestCrossProcessTraceParity:
    def test_proc_tree_matches_single_process_modulo_cluster_hops(
        self, tmp_path
    ):
        ui, reference = REFERENCES["keystrokes"]
        (proc_ui, proc_trees), _ = observed_keystrokes(tmp_path)
        assert proc_ui == ui
        assert len(proc_trees) == len(reference)
        # The raw multi-process tree really does carry the new hops...
        flat = str(proc_trees[0])
        assert CLUSTER_FORWARD in flat and WORKER_APPLY in flat
        # ...and collapsing them yields exactly the in-process shape.
        assert [splice_cluster_hops(t) for t in proc_trees] == reference


class TestMetricsEndpoint:
    def test_http_scrape_serves_the_merged_registry(self, tmp_path):
        with Session(
            backend="aio", shards=2, processes=True, observability=True,
            persistence=str(tmp_path), metrics_port=0,
        ) as sess:
            host, port = sess.metrics_address
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
                assert r.status == 200
                assert "text/plain" in r.headers["Content-Type"]
                body = r.read().decode()
            assert 'repro_cluster_shard_up{shard="shard-0"} 1' in body
            assert 'repro_cluster_shard_up{shard="shard-1"} 1' in body
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as r:
                assert r.read() == b"ok\n"

    def test_endpoint_is_off_by_default(self):
        with Session(backend="memory", observability=True) as sess:
            assert sess.metrics_address is None
