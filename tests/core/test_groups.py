"""Tests for CouplingGroup: named dynamic groups (§2.2 dynamic grouping)."""

import pytest

from repro.core.groups import CouplingGroup
from repro.errors import CouplingError
from repro.session import Session
from repro.toolkit.widgets import Scale, Shell, TextField

FIELD = "/ui/field"
ZOOM = "/ui/zoom"


def build_tree():
    root = Shell("ui")
    TextField("field", parent=root)
    Scale("zoom", parent=root, maximum=100)
    return root


@pytest.fixture
def arena():
    session = Session()
    trees = {}
    for i in range(4):
        inst = session.create_instance(f"i{i}", user=f"u{i}")
        trees[f"i{i}"] = inst.add_root(build_tree())
    coordinator = session.create_instance("coord", user="moderator")
    yield session, coordinator, trees
    session.close()


class TestMembership:
    def test_requires_paths(self, arena):
        _, coordinator, _ = arena
        with pytest.raises(ValueError):
            CouplingGroup(coordinator, "empty", [])

    def test_first_member_is_anchor(self, arena):
        session, coordinator, trees = arena
        group = CouplingGroup(coordinator, "g", [FIELD])
        group.add_member("i0")
        assert group.anchor == "i0"
        assert "i0" in group and len(group) == 1
        # A lone member has no links yet.
        session.pump()
        assert len(session.server.couples) == 0

    def test_duplicate_member_rejected(self, arena):
        _, coordinator, _ = arena
        group = CouplingGroup(coordinator, "g", [FIELD])
        group.add_member("i0")
        with pytest.raises(CouplingError):
            group.add_member("i0")

    def test_remove_unknown_rejected(self, arena):
        _, coordinator, _ = arena
        group = CouplingGroup(coordinator, "g", [FIELD])
        with pytest.raises(CouplingError):
            group.remove_member("ghost")

    def test_star_topology_links(self, arena):
        session, coordinator, trees = arena
        group = CouplingGroup(coordinator, "g", [FIELD, ZOOM])
        for member in ("i0", "i1", "i2"):
            group.add_member(member)
        session.pump()
        # Star: 2 members coupled to the anchor, 2 paths each.
        assert len(session.server.couples) == 4

    def test_events_reach_all_members(self, arena):
        session, coordinator, trees = arena
        group = CouplingGroup(coordinator, "g", [FIELD])
        for member in ("i0", "i1", "i2", "i3"):
            group.add_member(member)
        session.pump()
        trees["i2"].find(FIELD).commit("from the middle")
        session.pump()
        for member in ("i0", "i1", "i3"):
            assert trees[member].find(FIELD).value == "from the middle"

    def test_remove_non_anchor(self, arena):
        session, coordinator, trees = arena
        group = CouplingGroup(coordinator, "g", [FIELD])
        for member in ("i0", "i1", "i2"):
            group.add_member(member)
        session.pump()
        group.remove_member("i1")
        session.pump()
        trees["i0"].find(FIELD).commit("still grouped")
        session.pump()
        assert trees["i2"].find(FIELD).value == "still grouped"
        assert trees["i1"].find(FIELD).value == ""

    def test_anchor_departure_reelects_and_reconnects(self, arena):
        session, coordinator, trees = arena
        group = CouplingGroup(coordinator, "g", [FIELD])
        for member in ("i0", "i1", "i2"):
            group.add_member(member)
        session.pump()
        group.remove_member("i0")  # the anchor leaves
        session.pump()
        assert group.anchor in ("i1", "i2")
        trees["i1"].find(FIELD).commit("survived re-anchoring")
        session.pump()
        assert trees["i2"].find(FIELD).value == "survived re-anchoring"
        assert trees["i0"].find(FIELD).value == ""

    def test_dissolve(self, arena):
        session, coordinator, trees = arena
        group = CouplingGroup(coordinator, "g", [FIELD, ZOOM])
        for member in ("i0", "i1", "i2"):
            group.add_member(member)
        session.pump()
        group.dissolve()
        session.pump()
        assert len(group) == 0
        assert group.anchor is None
        assert len(session.server.couples) == 0

    def test_heterogeneous_path_overrides(self, arena):
        session, coordinator, trees = arena
        other = session.create_instance("odd", user="odd-user")
        odd_tree = Shell("other")
        TextField("entry", parent=odd_tree)
        other.add_root(odd_tree)
        group = CouplingGroup(coordinator, "g", [FIELD])
        group.add_member("i0")
        group.add_member("odd", path_overrides={FIELD: "/other/entry"})
        session.pump()
        trees["i0"].find(FIELD).commit("mapped")
        session.pump()
        assert odd_tree.find("/other/entry").value == "mapped"

    def test_override_for_unknown_path_rejected(self, arena):
        _, coordinator, _ = arena
        group = CouplingGroup(coordinator, "g", [FIELD])
        with pytest.raises(ValueError):
            group.add_member("i0", path_overrides={"/bogus": "/x"})

    def test_coordinator_need_not_be_member(self, arena):
        session, coordinator, trees = arena
        group = CouplingGroup(coordinator, "g", [FIELD])
        group.add_member("i0")
        group.add_member("i1")
        session.pump()
        assert "coord" not in group
        # The coordinator has no widget tree at all — pure third party.
        assert coordinator.roots() == ()
