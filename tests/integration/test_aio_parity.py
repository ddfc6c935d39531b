"""The multi-writer group workload (tests/harness.py) on memory and aio
at 1, 2 and 4 shards, and under duplicated deliveries and a partition."""

import pytest

from harness import FIELD, REFERENCES, conform, partition_then_heal


@pytest.mark.parametrize("shards", [0, 2, 4], ids=["1-shard", "2-shard", "4-shard"])
class TestBackendParity:
    def test_final_state_and_order_match(self, shards):
        conform("group", f"aio-{shards}")

    def test_reference_state_is_nontrivial(self, shards):
        """The memory deployment lands on the reference, and the
        reference exercises coupled state."""
        conform("group", f"memory-{shards}")
        snapshot, order = REFERENCES["group"]
        assert snapshot["i0"]["/app/board/zoom"]["value"] == 7
        assert snapshot["i3"]["/app/form/flag"]["set"] is True
        for instance_id in ("i0", "i1", "i2", "i3"):
            assert snapshot[instance_id]["/app/form/name"]["value"] == "delta"
            values = [value for _, value in order[instance_id]]
            assert values == ["alpha", "bravo", "charlie", "delta"]


class TestInjectionParity:
    @pytest.mark.parametrize("rate", [0.2, 0.5])
    def test_duplicate_injection_matches_clean_run(self, rate):
        """Duplicated deliveries are deduplicated: same state and order."""
        conform("group", "memory-0", duplicate_rate=rate, seed=7)

    def test_loss_recovery_converges_to_reference(self):
        """Edits lost to a partition are rolled back; once the network
        heals, the session converges to the reference.  No replica
        executed the lost edit; the source's trace keeps its rolled-back
        attempt as the user's input."""
        source = {}

        def fault(session):
            partition_then_heal(session)
            source["i0"] = session.instances["i0"]

        conform("group", "memory-0", mid_workload=fault)
        inputs = [
            event.params["value"]
            for event in source["i0"].trace.events()
            if event.source_path == FIELD
        ]
        assert inputs == ["lost-edit", "alpha"]
