"""Cross-backend parity: the asyncio runtime must be protocol-transparent.

The same deterministic workload runs once on the sync simulated backend
(the reference) and once under the asyncio runtime (real sockets,
batching on), across 1-, 2- and 4-shard deployments; the final UI state
of every instance — and the order in which each replica executed the
coupled events — must be identical.  A second group injects duplicates
and losses into the simulated network and asserts the idempotent-dedup
and recovery paths land on the same final state as a clean run.
"""

import pytest

from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED

from conftest import make_demo_tree, settle

FIELD = "/app/form/name"
ZOOM = "/app/board/zoom"
FLAG = "/app/form/flag"

N_INSTANCES = 4


def ui_snapshot(trees):
    """{instance: {pathname: coupling-relevant state}} for comparison."""
    return {
        instance_id: {
            widget.pathname: widget.relevant_state()
            for widget in tree.walk()
        }
        for instance_id, tree in trees.items()
    }


def field_event_order(instance):
    """The (user, value) sequence of FIELD events this replica executed."""
    return [
        (event.user, event.params.get("value"))
        for event in instance.trace.events(VALUE_CHANGED)
        if event.source_path.endswith("/form/name")
    ]


def run_workload(session):
    """A deterministic multi-writer session: couple, edit, converge.

    Returns (final snapshot, per-instance FIELD event order).
    """
    instances = {}
    trees = {}
    for i in range(N_INSTANCES):
        instance_id = f"i{i}"
        instances[instance_id] = session.create_instance(
            instance_id, user=f"u{i}"
        )
        trees[instance_id] = instances[instance_id].add_root(make_demo_tree())
    assert settle(
        session,
        lambda: all(
            len(inst.roster) == N_INSTANCES for inst in instances.values()
        ),
    )

    # One couple group over FIELD spanning everyone, a pair over ZOOM,
    # and a pair over FLAG.
    for other in ("i1", "i2", "i3"):
        instances["i0"].couple(trees["i0"].find(FIELD), (other, FIELD))
    instances["i1"].couple(trees["i1"].find(ZOOM), ("i0", ZOOM))
    instances["i2"].couple(trees["i2"].find(FLAG), ("i3", FLAG))
    assert settle(
        session,
        lambda: all(
            instances[i].is_coupled(FIELD) for i in instances
        )
        and instances["i0"].is_coupled(ZOOM)
        and instances["i3"].is_coupled(FLAG),
    )

    # Sequential multi-writer edits; each step settles before the next so
    # the global order is deterministic on every backend.
    for writer, value in (
        ("i0", "alpha"),
        ("i1", "bravo"),
        ("i3", "charlie"),
        ("i2", "delta"),
    ):
        trees[writer].find(FIELD).commit(value)
        assert settle(
            session,
            lambda v=value: all(
                trees[i].find(FIELD).value == v for i in trees
            ),
        )

    trees["i1"].find(ZOOM).set_value(3)
    assert settle(session, lambda: trees["i0"].find(ZOOM).value == 3)
    trees["i0"].find(ZOOM).set_value(7)
    assert settle(session, lambda: trees["i1"].find(ZOOM).value == 7)

    trees["i2"].find(FLAG).set_value(True)
    assert settle(session, lambda: trees["i3"].find(FLAG).value is True)

    snapshot = ui_snapshot(trees)
    order = {i: field_event_order(instances[i]) for i in instances}
    return snapshot, order


def run_on(backend, shards):
    with Session(backend=backend, shards=shards) as session:
        return run_workload(session)


@pytest.mark.parametrize("shards", [0, 2, 4], ids=["1-shard", "2-shard", "4-shard"])
class TestBackendParity:
    def test_final_state_and_order_match(self, shards):
        ref_snapshot, ref_order = run_on("memory", shards)
        aio_snapshot, aio_order = run_on("aio", shards)
        assert aio_snapshot == ref_snapshot
        assert aio_order == ref_order

    def test_reference_state_is_nontrivial(self, shards):
        """Guard: the workload actually exercises coupled state."""
        snapshot, order = run_on("memory", shards)
        for instance_id in snapshot:
            assert snapshot[instance_id]["/app/form/name"]["value"] == "delta"
        assert snapshot["i0"]["/app/board/zoom"]["value"] == 7
        assert snapshot["i3"]["/app/form/flag"]["set"] is True
        # Every replica in the FIELD group executed all four edits, in
        # the same global order.
        for instance_id in ("i0", "i1", "i2", "i3"):
            values = [value for _, value in order[instance_id]]
            assert values == ["alpha", "bravo", "charlie", "delta"]


class TestInjectionParity:
    @pytest.mark.parametrize("rate", [0.2, 0.5])
    def test_duplicate_injection_matches_clean_run(self, rate):
        """Duplicated deliveries are deduplicated: same final state."""
        clean_snapshot, clean_order = run_on("memory", 0)
        with Session(backend="memory", duplicate_rate=rate, seed=7) as session:
            dup_snapshot, dup_order = run_workload(session)
        assert dup_snapshot == clean_snapshot
        assert dup_order == clean_order

    def test_loss_recovery_converges_to_reference(self):
        """Edits lost to a partition are rolled back; once the network
        heals, the session converges to the reference final state."""
        clean_snapshot, _ = run_on("memory", 0)
        with Session(backend="memory") as session:
            instances = {}
            trees = {}
            for i in range(N_INSTANCES):
                instance_id = f"i{i}"
                instances[instance_id] = session.create_instance(
                    instance_id, user=f"u{i}", lock_timeout=0.05
                )
                trees[instance_id] = instances[instance_id].add_root(
                    make_demo_tree()
                )
            session.pump()
            for other in ("i1", "i2", "i3"):
                instances["i0"].couple(trees["i0"].find(FIELD), (other, FIELD))
            instances["i1"].couple(trees["i1"].find(ZOOM), ("i0", ZOOM))
            instances["i2"].couple(trees["i2"].find(FLAG), ("i3", FLAG))
            session.pump()

            # These edits die against a partitioned server (lock denied,
            # feedback rolled back locally).
            session.network.partition("server")
            trees["i0"].find(FIELD).commit("lost-edit")
            trees["i1"].find(ZOOM).set_value(9)
            session.pump()
            session.network.heal("server")

            # Now run the reference edit sequence to convergence.
            for writer, value in (
                ("i0", "alpha"),
                ("i1", "bravo"),
                ("i3", "charlie"),
                ("i2", "delta"),
            ):
                trees[writer].find(FIELD).commit(value)
                session.pump()
            trees["i1"].find(ZOOM).set_value(3)
            session.pump()
            trees["i0"].find(ZOOM).set_value(7)
            session.pump()
            trees["i2"].find(FLAG).set_value(True)
            session.pump()
            assert ui_snapshot(trees) == clean_snapshot
