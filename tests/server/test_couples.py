"""Unit tests for the couple table and its transitive closure."""

import pytest

from repro.errors import NoSuchCoupleError
from repro.server.couples import (
    CoupleLink,
    CoupleTable,
    gid_from_wire,
    gid_to_wire,
    global_id,
)

A1 = global_id("a", "/app/x")
A2 = global_id("a", "/app/y")
B1 = global_id("b", "/app/x")
B2 = global_id("b", "/app/y")
C1 = global_id("c", "/app/x")
C2 = global_id("c", "/app/y")


def link(source, target, creator="a"):
    return CoupleLink(source=source, target=target, creator=creator)


class TestGlobalIds:
    def test_wire_roundtrip(self):
        assert gid_from_wire(gid_to_wire(A1)) == A1

    def test_malformed_wire(self):
        with pytest.raises(ValueError):
            gid_from_wire(["only-one"])

    def test_link_wire_roundtrip(self):
        original = link(A1, B1, creator="x")
        assert CoupleLink.from_wire(original.to_wire()) == original


class TestLinkMutation:
    def test_add_and_contains(self):
        table = CoupleTable()
        assert table.add_link(link(A1, B1))
        assert table.has_link(A1, B1)
        assert len(table) == 1

    def test_duplicate_add_returns_false(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        assert not table.add_link(link(A1, B1))
        assert len(table) == 1

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            CoupleTable().add_link(link(A1, A1))

    def test_remove_directed(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        removed = table.remove_link(A1, B1)
        assert removed[0].endpoints == (A1, B1)
        assert len(table) == 0
        assert not table.is_coupled(A1)

    def test_remove_works_in_reverse(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        removed = table.remove_link(B1, A1)  # reverse direction
        assert removed[0].endpoints == (A1, B1)

    def test_remove_drops_arcs_in_both_directions(self):
        # Each side coupled to the other: decoupling the pair removes both
        # arcs, so the objects are genuinely decoupled afterwards.
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(B1, A1))
        removed = table.remove_link(A1, B1)
        assert len(removed) == 2
        assert not table.is_coupled(A1)
        assert not table.is_coupled(B1)

    def test_remove_missing_raises(self):
        with pytest.raises(NoSuchCoupleError):
            CoupleTable().remove_link(A1, B1)

    def test_same_instance_coupling_allowed(self):
        # The paper allows "two objects coupled within the same application
        # instance" (§3.3).
        table = CoupleTable()
        table.add_link(link(A1, A2))
        assert table.group_of(A1) == frozenset({A1, A2})


class TestTransitiveClosure:
    def test_group_of_uncoupled_is_singleton(self):
        assert CoupleTable().group_of(A1) == frozenset({A1})

    def test_chain_closure(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(B1, C1))
        expected = frozenset({A1, B1, C1})
        assert table.group_of(A1) == expected
        assert table.group_of(C1) == expected

    def test_closure_ignores_direction(self):
        table = CoupleTable()
        table.add_link(link(B1, A1))
        table.add_link(link(B1, C1))
        assert table.group_of(A1) == frozenset({A1, B1, C1})

    def test_coupled_objects_excludes_self(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        assert table.coupled_objects(A1) == frozenset({B1})

    def test_removal_splits_group(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(B1, C1))
        table.remove_link(B1, C1)
        assert table.group_of(A1) == frozenset({A1, B1})
        assert table.group_of(C1) == frozenset({C1})

    def test_removal_keeps_alternate_paths(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(B1, C1))
        table.add_link(link(A1, C1))
        table.remove_link(B1, C1)
        # Still connected through A1.
        assert table.group_of(C1) == frozenset({A1, B1, C1})

    def test_groups_listing(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(A2, C1))
        groups = table.groups()
        assert len(groups) == 2
        assert frozenset({A1, B1}) in groups

    def test_cache_invalidated_on_mutation(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        assert table.group_of(A1) == frozenset({A1, B1})
        table.add_link(link(B1, C1))
        assert table.group_of(A1) == frozenset({A1, B1, C1})


class TestBulkRemoval:
    def test_remove_object(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(A1, C1))
        table.add_link(link(A2, B1))
        removed = table.remove_object(A1)
        assert len(removed) == 2
        assert not table.is_coupled(A1)
        assert table.is_coupled(A2)

    def test_remove_instance(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(A2, C1))
        table.add_link(link(B1, C1))
        removed = table.remove_instance("a")
        assert len(removed) == 2
        assert table.group_of(B1) == frozenset({B1, C1})

    def test_remove_subtree(self):
        table = CoupleTable()
        deep = global_id("a", "/app/x/inner")
        table.add_link(link(deep, B1))
        table.add_link(link(A2, C1))
        removed = table.remove_subtree("a", "/app/x")
        assert len(removed) == 1
        assert table.is_coupled(A2)

    def test_remove_subtree_no_prefix_confusion(self):
        table = CoupleTable()
        similar = global_id("a", "/app/xy")
        table.add_link(link(similar, B1))
        removed = table.remove_subtree("a", "/app/x")
        assert removed == []

    def test_objects_of_instance(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(A2, C1))
        assert table.objects_of_instance("a") == {A1, A2}

    def test_clear(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.clear()
        assert len(table) == 0
        assert table.group_of(A1) == frozenset({A1})

    def test_to_wire_lists_all_links(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(A2, C1))
        wired = table.to_wire_for("a")  # a holds a member of every group
        assert len(wired) == 2
        rebuilt = CoupleTable()
        for entry in wired:
            rebuilt.add_link(CoupleLink.from_wire(entry))
        assert rebuilt.group_of(A1) == table.group_of(A1)

    def test_to_wire_for_is_the_instances_share(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(B1, C1))
        table.add_link(link(A2, B2))
        table.add_link(link(B2, C2))
        table.add_link(link(C2, C1))

        def share(instance_id):
            return {
                CoupleLink.from_wire(entry)
                for entry in table.to_wire_for(instance_id)
            }

        assert share("a") == set(table.links())
        assert len(table.to_wire_for("a")) == 5  # one merged group, once
        assert share("ghost") == set()
        table.remove_link(C2, C1)
        table.remove_link(A2, B2)
        assert share("a") == {link(A1, B1), link(B1, C1)}
        assert share("b") == set(table.links())

    def test_group_has_instance(self):
        table = CoupleTable()
        table.add_link(link(A1, B1))
        table.add_link(link(B2, C2))
        table.add_link(link(C1, A2))
        assert table.group_has_instance(B1, "a")
        assert not table.group_has_instance(B2, "a")
        assert table.group_has_instance(A2, "c")
        assert not table.group_has_instance(A1, "ghost")
        # An uncoupled object is a group of its own.
        free = ("b", "/ui/free")
        assert table.group_has_instance(free, "b")
        assert not table.group_has_instance(free, "a")
        # Either walk (group members, the instance's objects) agrees:
        # a and b now hold more objects than the small groups have members.
        table.add_link(link(B1, B2))
        table.add_link(link(("a", "/app/z"), ("b", "/app/z")))
        for instance_id in "abc":
            for obj in (A1, A2, B1, B2, C1, C2, ("b", "/app/z")):
                assert table.group_has_instance(obj, instance_id) == (
                    instance_id in table.group_instances(obj)
                )
