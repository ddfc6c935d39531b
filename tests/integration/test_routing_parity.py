"""Interest-aware routing and delta sync must be semantically invisible:
the churn workload (tests/harness.py) lands on the reference recorded
when every COUPLE_UPDATE went to the whole population and every CopyTo
was a full snapshot, on every backend and shard count."""

import pytest

from harness import REFERENCES, conform

SOCKET_CELLS = ["tcp-0", "tcp-2", "aio-0", "aio-4", "aio-2-binary"]


@pytest.mark.parametrize("shards", [0, 2, 4], ids=["1-shard", "2-shard", "4-shard"])
class TestScopedRoutingParity:
    def test_memory_scoped_matches_broadcast_reference(self, shards):
        session = conform("churn", f"memory-{shards}")
        assert session.server.stats()["routing"]["suppressed_messages"] > 0


class TestCrossBackendParity:
    @pytest.mark.parametrize("cell", SOCKET_CELLS)
    def test_socket_backends_match_reference(self, cell):
        conform("churn", cell)

    def test_reference_is_nontrivial(self):
        snapshot, order = REFERENCES["churn"]
        assert snapshot["i2"]["/app/form/name"]["value"] == "post-churn"
        assert snapshot["i1"]["/app/form/name"]["value"] == "charlie"
        assert snapshot["i3"]["/app/board/zoom"]["value"] == 9
        assert snapshot["i3"]["/app/form/flag"]["set"] is True
        edits = ["alpha", "bravo", "charlie", "post-churn"]
        for member in ("i0", "i2"):
            assert [v for _, v in order[member]] == edits
        assert [v for _, v in order["i1"]] == edits[:3]
