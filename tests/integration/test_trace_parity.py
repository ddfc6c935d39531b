"""Trace parity: one user action traverses the same causal hops — lock
wait, floor, receive, broadcast, remote apply — on every backend and
shard count.  Canonical trees (:meth:`SpanRecorder.canonical_tree`)
keep only names and causal structure; the keystrokes workload
(tests/harness.py) compares them with its reference."""

import pytest

from repro.obs.tracing import CLUSTER_ROUTE

from harness import REFERENCES, conform

SHARD_COUNTS = (1, 2, 4)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_span_trees_identical_across_backends(shards):
    for backend in ("tcp", "aio"):
        conform("keystrokes", f"{backend}-{shards}-observed")


def test_span_trees_identical_across_shard_counts():
    for shards in SHARD_COUNTS:
        conform("keystrokes", f"memory-{shards}-observed")


def test_edits_have_same_tree_and_distinct_traces():
    _, trees = REFERENCES["keystrokes"]
    assert len(trees) == 3  # one trace per keystroke
    assert len(set(trees)) == 1  # every edit takes the same causal path
    assert CLUSTER_ROUTE in str(trees[0])  # router hop present
