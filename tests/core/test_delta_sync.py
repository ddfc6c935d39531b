"""End-to-end tests of the delta state sync protocol (docs/PERF.md).

CopyTo ships a full snapshot on first contact, then only the attributes
written since the last acknowledged transfer; continuity is guarded by
sequence numbers and structure fingerprints, with RESYNC_REQUEST as the
recovery path.
"""

import pytest

from repro.session import Session
from repro.toolkit.widgets import Form, Label, Scale, Shell, TextField, ToggleButton

PATH = "/app"


def make_tree():
    root = Shell("app", title="delta")
    TextField("field", parent=root)
    Scale("zoom", parent=root, maximum=100)
    ToggleButton("flag", parent=root)
    return root


@pytest.fixture
def duo():
    session = Session(backend="memory")
    a = session.create_instance("a", user="alice")
    b = session.create_instance("b", user="bob")
    tree_a = a.add_root(make_tree())
    tree_b = b.add_root(make_tree())
    session.pump()
    yield session, a, b, tree_a, tree_b
    session.close()


def assert_synced(tree_a, tree_b):
    assert tree_b.find("field").value == tree_a.find("field").value
    assert tree_b.find("zoom").value == tree_a.find("zoom").value
    assert tree_b.find("flag").get("set") == tree_a.find("flag").get("set")


class TestDeltaProtocol:
    def test_first_push_is_full_then_delta(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "one")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["full_pushes"] == 1
        assert a.stats["delta_pushes"] == 0
        assert_synced(tree_a, tree_b)

        tree_a.find("field").set("value", "two")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["delta_pushes"] == 1
        assert b.stats["deltas_applied"] == 1
        assert_synced(tree_a, tree_b)

    def test_idle_delta_is_empty_and_harmless(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("zoom").set("value", 42)
        a.copy_to(PATH, ("b", PATH))
        a.copy_to(PATH, ("b", PATH))  # nothing changed in between
        session.pump()
        assert a.stats["delta_pushes"] == 1
        assert_synced(tree_a, tree_b)

    def test_delta_applies_only_changed_attributes(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "keep")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        # A local-only edit on the receiver that the sender never touches
        # again must survive the next delta (it is not in the payload).
        tree_b.find("zoom").set("value", 77)
        tree_a.find("flag").set("set", True)
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert tree_b.find("flag").get("set") is True
        assert tree_b.find("zoom").value == 77  # untouched by the delta

    def test_structure_change_falls_back_to_full(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        TextField("extra", parent=tree_a)
        TextField("extra", parent=tree_b)
        tree_a.find("extra").set("value", "new")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["full_pushes"] == 2
        assert a.stats["delta_pushes"] == 0
        assert tree_b.find("extra").value == "new"

    def test_nested_structure_change_falls_back_to_full(self, duo):
        """The change is a grandchild two levels below the transferred
        root: the root's fingerprint must still move."""
        session, a, b, tree_a, tree_b = duo
        for tree in (tree_a, tree_b):
            Form("inner", parent=Form("outer", parent=tree))
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        tree_a.find("field").set("value", "still a delta")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (1, 1)

        TextField("deep", parent=tree_a.find("outer/inner"))
        TextField("deep", parent=tree_b.find("outer/inner"))
        tree_a.find("outer/inner/deep").set("value", "new")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (2, 1)
        assert b.stats["delta_resyncs"] == 0
        assert tree_b.find("outer/inner/deep").value == "new"

    def test_receiver_continuity_loss_triggers_resync(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "v1")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        # Simulate a receiver that lost its continuity baseline (e.g. a
        # restart): the next delta cannot be applied and must trigger a
        # full resync from the sender.
        b._delta_in.clear()
        tree_a.find("field").set("value", "v2")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert b.stats["delta_resyncs"] == 1
        assert a.stats["resync_pushes"] == 1
        # The resync's full snapshot brings the receiver up to date.
        assert tree_b.find("field").value == "v2"

    def test_receiver_structure_change_triggers_resync(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        # Rename-equivalent change on the receiver: same shape, so a full
        # resync can still match structurally, but the receiver's local
        # fingerprint changed and the cached mapping is stale.
        tree_b.find("field").destroy()
        TextField("field2", parent=tree_b)
        tree_a.find("field").set("value", "after")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert b.stats["delta_resyncs"] == 1
        assert tree_b.find("field2").value == "after"

    def test_receiver_nested_structure_change_triggers_resync(self, duo):
        session, a, b, tree_a, tree_b = duo
        for tree in (tree_a, tree_b):
            TextField("deep", parent=Form("inner", parent=Form("outer", parent=tree)))
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        # Two levels below the transferred root, on the receiver only:
        # same shape under another name, so the resync still matches.
        tree_b.find("outer/inner/deep").destroy()
        TextField("deep2", parent=tree_b.find("outer/inner"))
        tree_a.find("outer/inner/deep").set("value", "after")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert b.stats["delta_resyncs"] == 1
        assert a.stats["resync_pushes"] == 1
        assert tree_b.find("outer/inner/deep2").value == "after"

    def test_merge_that_rebuilt_a_child_is_followed_by_a_full_push(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_b.find("field").destroy()
        Label("field", parent=tree_b)  # conflicts with a's textfield
        a.copy_to(PATH, ("b", PATH), mode="merge")
        session.pump()
        assert tree_b.find("field").TYPE_NAME == "textfield"  # rebuilt
        tree_a.find("field").set("value", "strict again")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (1, 0)
        assert tree_b.find("field").value == "strict again"
        # The baseline the full push left describes the rebuilt tree:
        # the next delta applies without a resync.
        tree_a.find("zoom").set("value", 5)
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["delta_pushes"] == 1
        assert (b.stats["deltas_applied"], b.stats["delta_resyncs"]) == (1, 0)
        assert tree_b.find("zoom").value == 5

    def test_merge_mode_invalidates_delta_chain(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        a.copy_to(PATH, ("b", PATH), mode="merge")
        session.pump()
        # The MERGE transfer dropped continuity: next STRICT is full again.
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["full_pushes"] == 2
        assert a.stats["delta_pushes"] == 0

    def test_predefined_mapping_bypasses_delta(self, duo):
        session, a, b, tree_a, tree_b = duo
        identity = {
            "": "",
            "field": "field",
            "zoom": "zoom",
            "flag": "flag",
        }
        a.copy_to(PATH, ("b", PATH), predefined=identity)
        session.pump()
        assert a.stats["full_pushes"] == 0
        assert a.stats["delta_pushes"] == 0
        assert "a" not in {k[0] for k in b._delta_in}

    def test_history_still_pushed_for_deltas(self, duo):
        """Delta application still records the overwritten state, so the
        server's historical UI states (undo) keep working."""
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "first")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        tree_a.find("field").set("value", "second")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert tree_b.find("field").value == "second"
        assert b.undo(PATH)
        session.pump()
        assert tree_b.find("field").value == "first"

    def test_unregister_clears_delta_caches(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a._delta_out
        a.unregister()
        session.pump()
        assert not a._delta_out
        assert not a._delta_in

    def test_destroyed_widget_drops_its_entries_on_both_sides(self, duo):
        session, a, b, tree_a, tree_b = duo
        for tree in (tree_a, tree_b):
            TextField("text", parent=Form("form", parent=tree))
        a.copy_to("/app/form", ("b", "/app/form"))
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert set(a._delta_out) == {
            ("/app/form", ("b", "/app/form")),
            (PATH, ("b", PATH)),
        }
        tree_a.find("form").destroy()
        assert set(a._delta_out) == {(PATH, ("b", PATH))}
        tree_b.find("form").destroy()
        assert set(b._delta_in) == {(("a", PATH), PATH)}

    def test_destroy_drops_entries_of_an_unregistered_instance_too(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        b.registered = False  # the hook's not-coupled early return
        tree_b.destroy()
        assert not b._delta_in

    def test_recreated_widget_starts_with_a_full_push(self, duo):
        session, a, b, tree_a, tree_b = duo
        for tree in (tree_a, tree_b):
            TextField("text", parent=Form("form", parent=tree))
        a.copy_to("/app/form", ("b", "/app/form"))
        session.pump()
        tree_a.find("form").destroy()
        TextField("text", parent=Form("form", parent=tree_a), value="reborn")
        a.copy_to("/app/form", ("b", "/app/form"))
        session.pump()
        assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (2, 0)
        assert b.stats["delta_resyncs"] == 0
        assert tree_b.find("form/text").value == "reborn"

    def test_departed_instance_drops_entries_naming_it(self, duo):
        session, a, b, tree_a, tree_b = duo
        c = session.create_instance("c", user="carol")
        c.add_root(make_tree())
        a.copy_to(PATH, ("b", PATH))
        a.copy_to(PATH, ("c", PATH))
        b.copy_to(PATH, ("a", PATH))
        session.pump()
        assert (("a", PATH), PATH) in b._delta_in
        a.unregister()
        session.pump()
        assert "a" not in b.roster
        # b held an entry per direction; c's stays with b's untouched.
        assert not b._delta_in and not b._delta_out
        assert not c._delta_in
        c.copy_to(PATH, ("b", PATH))
        session.pump()
        assert set(c._delta_out) == {(PATH, ("b", PATH))}
        assert set(b._delta_in) == {(("c", PATH), PATH)}

    def test_adopted_roster_drops_entries_of_the_missing(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        b.copy_to(PATH, ("a", PATH))
        session.pump()
        registry = session.server.registry
        without_a = registry.full_roster()
        without_a["roster"] = [
            record for record in without_a["roster"] if record["instance_id"] != "a"
        ]
        b._adopt_roster(without_a)
        assert not b._delta_in and not b._delta_out
        assert a._delta_in and a._delta_out  # a's roster still has b


class TestDeltaPayloadShape:
    def test_delta_payload_omits_structure_and_unchanged(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "seed")
        payload_full, commit = a._build_push_payload(
            tree_a, ("b", PATH), "strict", None
        )
        assert "structure" in payload_full
        assert payload_full["sync"]["delta"] is False
        a._delta_out[(tree_a.pathname, ("b", PATH))] = commit

        tree_a.find("zoom").set("value", 9)
        payload_delta, _ = a._build_push_payload(
            tree_a, ("b", PATH), "strict", None
        )
        assert "structure" not in payload_delta
        assert payload_delta["sync"]["delta"] is True
        assert payload_delta["sync"]["base"] == payload_full["sync"]["seq"]
        assert payload_delta["state"] == {"zoom": {"value": 9}}

    def test_sequence_numbers_advance(self, duo):
        session, a, b, tree_a, tree_b = duo
        for value in ("one", "two", "three"):
            tree_a.find("field").set("value", value)
            a.copy_to(PATH, ("b", PATH))
        session.pump()
        entry = a._delta_out[(tree_a.pathname, ("b", PATH))]
        assert entry["seq"] == 3
        assert b._delta_in[(("a", PATH), PATH)]["seq"] == 3
