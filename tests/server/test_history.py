"""Unit tests for the historical-UI-state store (undo/redo)."""

import pytest

from repro.errors import HistoryError
from repro.server.couples import global_id
from repro.server.history import HistoricalState, HistoryStore

OBJ = global_id("a", "/app/form")
OTHER = global_id("b", "/app/form")


def entry(state, reason="copy"):
    return HistoricalState(obj=OBJ, state=state, timestamp=1.0, reason=reason)


class TestUndo:
    def test_push_and_undo_lifo(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        store.push(entry({"v": 2}))
        assert store.undo(OBJ).state == {"v": 2}
        assert store.undo(OBJ).state == {"v": 1}

    def test_undo_empty_raises(self):
        with pytest.raises(HistoryError):
            HistoryStore().undo(OBJ)

    def test_depth_reporting(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        assert store.depth(OBJ) == (1, 0)
        store.undo(OBJ, current_state={"v": 9})
        assert store.depth(OBJ) == (0, 1)

    def test_peek_does_not_pop(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        assert store.peek(OBJ).state == {"v": 1}
        assert store.depth(OBJ) == (1, 0)

    def test_peek_empty_is_none(self):
        assert HistoryStore().peek(OBJ) is None

    def test_bounded_depth_drops_oldest(self):
        store = HistoryStore(max_depth=2)
        for i in range(4):
            store.push(entry({"v": i}))
        assert store.undo(OBJ).state == {"v": 3}
        assert store.undo(OBJ).state == {"v": 2}
        with pytest.raises(HistoryError):
            store.undo(OBJ)

    def test_max_depth_validated(self):
        with pytest.raises(ValueError):
            HistoryStore(max_depth=0)


class TestRedo:
    def test_undo_then_redo(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        undone = store.undo(OBJ, current_state={"v": 2})
        assert undone.state == {"v": 1}
        redone = store.redo(OBJ, current_state={"v": 1})
        assert redone.state == {"v": 2}
        # And the redo pushed the pre-redo state back onto undo.
        assert store.undo(OBJ).state == {"v": 1}

    def test_redo_empty_raises(self):
        with pytest.raises(HistoryError):
            HistoryStore().redo(OBJ)

    def test_new_push_clears_redo(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        store.undo(OBJ, current_state={"v": 2})
        store.push(entry({"v": 3}))
        with pytest.raises(HistoryError):
            store.redo(OBJ)

    def test_undo_without_current_state_skips_redo(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        store.undo(OBJ)
        with pytest.raises(HistoryError):
            store.redo(OBJ)


class TestIsolationAndCleanup:
    def test_objects_are_independent(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        store.push(
            HistoricalState(obj=OTHER, state={"w": 9}, timestamp=0.0)
        )
        assert store.undo(OTHER).state == {"w": 9}
        assert store.depth(OBJ) == (1, 0)

    def test_forget_instance(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        store.push(HistoricalState(obj=OTHER, state={"w": 1}))
        dropped = store.forget_instance("a")
        assert dropped == 1
        assert store.objects() == [OTHER]

    def test_len_counts_undo_entries(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        store.push(entry({"v": 2}))
        assert len(store) == 2

    def test_wire_form(self):
        wire = entry({"v": 1}, reason="copy_from").to_wire()
        assert wire["obj"] == ["a", "/app/form"]
        assert wire["reason"] == "copy_from"


def export_of(*entries):
    """The export of a store holding *entries* and no tombstones."""
    store = HistoryStore()
    for pushed in entries:
        store.push(pushed)
    return store.export_state()


class TestForgetImportAsymmetry:
    """Regression: an export taken before ``forget_instance`` must not
    resurrect the dead instance's history through ``import_state``
    (e.g. a shard migration in flight while the instance terminated)."""

    def test_stale_import_after_forget_is_dropped(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        exported = store.export_state([OBJ])  # migration takes the stacks
        store.forget_instance("a")  # ... instance dies meanwhile
        store.import_state(exported)  # ... migration lands late
        assert store.depth(OBJ) == (0, 0)
        assert store.objects() == []

    def test_forget_tombstones_even_without_entries(self):
        store = HistoryStore()
        store.forget_instance("a")
        assert store.forgotten_instances() == ["a"]
        store.import_state(export_of(entry({"v": 1})))
        assert store.depth(OBJ) == (0, 0)

    def test_revive_lifts_the_tombstone(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        exported = store.export_state([OBJ])
        store.forget_instance("a")
        store.revive_instance("a")  # the instance re-registered
        store.import_state(exported)
        assert store.depth(OBJ) == (1, 0)

    def test_other_instances_unaffected(self):
        store = HistoryStore()
        store.push(HistoricalState(obj=OTHER, state={"w": 1}))
        exported = store.export_state([OTHER])
        store.forget_instance("a")
        store.import_state(exported)
        assert store.depth(OTHER) == (1, 0)

    def test_a_push_for_a_forgotten_instance_is_dropped(self):
        store = HistoryStore()
        store.forget_instance("a")
        store.push(entry({"v": 1}))
        assert store.depth(OBJ) == (0, 0)
        store.revive_instance("a")
        store.push(entry({"v": 1}))
        assert store.depth(OBJ) == (1, 0)

    def test_a_redo_only_object_is_listed_and_exported(self):
        """What a reshard surveys (``objects()``) includes an object
        whose undo stack an undo emptied: its redo stack must move."""
        store = HistoryStore()
        store.push(entry({"v": 1}))
        store.undo(OBJ, {"v": 2})
        assert store.depth(OBJ) == (0, 1)
        assert store.objects() == [OBJ]
        twin = HistoryStore()
        twin.import_state(store.export_state([OBJ]))
        assert (store.depth(OBJ), twin.depth(OBJ)) == ((0, 0), (0, 1))

    def test_tombstones_round_trip_through_export_state(self):
        store = HistoryStore()
        store.push(entry({"v": 1}))
        store.forget_instance("a")
        twin = HistoryStore()
        twin.import_state(store.export_state())
        assert twin.forgotten_instances() == ["a"]
        twin.import_state(export_of(entry({"v": 1})))
        assert twin.depth(OBJ) == (0, 0)
