"""Single server vs. cluster: same protocol, same outcome.

Two couple groups merge across shards while three users draw; the
strokes workload (tests/harness.py) must land on the single server's
reference — stroke lists are the exact order DRAW events executed — on
every shard count, with a journal, and with shards as OS processes.
"""

import pytest

from harness import REFERENCES, conform, run


@pytest.fixture(
    scope="module",
    params=[
        pytest.param("memory-0", id="single-server"),
        pytest.param("memory-1", id="cluster-1"),
        pytest.param("memory-2", id="cluster-2"),
        pytest.param("memory-4", id="cluster-4"),
        pytest.param("memory-8", id="cluster-8"),
        pytest.param("memory-2-persistent", id="cluster-2-persistent"),
        pytest.param("aio-2-processes", id="cluster-2-processes"),
    ],
)
def result(request):
    """The strokes workload's result on one cell (run once per cell)."""
    return run("strokes", request.param)[0]


def test_deployments_agree_with_the_single_server(result):
    assert result == REFERENCES["strokes"]


def test_replicas_converge_within_each_deployment(result):
    assert result["a"]["strokes"] == result["b"]["strokes"]
    assert len(result["a"]["strokes"]) == 10
    # c holds the 8 stage-2 strokes, in the order everyone else did.
    assert result["c"]["strokes"] == result["a"]["strokes"][2:]
    assert result["a"]["title"] == result["c"]["title"] == "round-3"


def test_the_scenario_actually_migrates_on_two_shards():
    # a:/ui/board and b:/ui/board hash to different 2-shard homes (stable
    # BLAKE2b placement), so stage 1 must have migrated at least once.
    assert conform("strokes", "memory-2").cluster.migrations >= 1
