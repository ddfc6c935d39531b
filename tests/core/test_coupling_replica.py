"""Unit tests for the client-side coupling replica helpers."""

import pytest

from repro.core.coupling import (
    apply_couple_update,
    bootstrap_replica,
    subtree_is_coupled,
)
from repro.server.couples import CoupleLink, CoupleTable, global_id

A = global_id("a", "/ui/x")
B = global_id("b", "/ui/x")
C = global_id("c", "/ui/x")


def update(action, link):
    return {"action": action, "link": link.to_wire()}


class TestApplyCoupleUpdate:
    def test_add_and_remove(self):
        table = CoupleTable()
        link = CoupleLink(source=A, target=B)
        assert apply_couple_update(table, update("add", link)) == link
        assert table.has_link(A, B)
        apply_couple_update(table, update("remove", link))
        assert len(table) == 0

    def test_add_is_idempotent(self):
        table = CoupleTable()
        link = CoupleLink(source=A, target=B)
        apply_couple_update(table, update("add", link))
        apply_couple_update(table, update("add", link))
        assert len(table) == 1

    def test_remove_missing_is_tolerated(self):
        table = CoupleTable()
        link = CoupleLink(source=A, target=B)
        apply_couple_update(table, update("remove", link))  # no raise
        assert len(table) == 0

    def test_noop_update(self):
        table = CoupleTable()
        assert apply_couple_update(table, {"action": "noop", "link": None}) is None

    def test_unknown_action_rejected(self):
        table = CoupleTable()
        link = CoupleLink(source=A, target=B)
        with pytest.raises(ValueError):
            apply_couple_update(table, update("teleport", link))

    def test_joiner_history_absorbed(self):
        table = CoupleTable()
        payload = update("add", CoupleLink(source=C, target=A))
        payload["links"] = [CoupleLink(source=A, target=B).to_wire()]
        apply_couple_update(table, payload, "c")
        assert table.group_of(C) == {A, B, C}


class TestForgetRule:
    """An owned replica keeps only groups holding one of its objects."""

    def test_group_without_own_object_is_forgotten(self):
        table = CoupleTable()
        ab = CoupleLink(source=A, target=B)
        bc = CoupleLink(source=B, target=C)
        apply_couple_update(table, update("add", ab), "a")
        apply_couple_update(table, update("add", bc), "a")
        apply_couple_update(table, update("remove", ab), "a")
        # a left; the b-c remainder is no longer a's business.
        assert table.links() == []
        # The removal a will never hear about cannot leave a phantom.
        apply_couple_update(table, update("add", ab), "a")
        assert table.group_of(A) == {A, B}

    def test_third_party_reply_leaves_nothing(self):
        table = CoupleTable()
        link = CoupleLink(source=A, target=B)
        assert apply_couple_update(table, update("add", link), "c") == link
        assert table.links() == []

    def test_own_groups_survive(self):
        table = CoupleTable()
        other = CoupleLink(source=global_id("a", "/ui/y"), target=C)
        apply_couple_update(table, update("add", other), "a")
        apply_couple_update(
            table, update("add", CoupleLink(source=A, target=B)), "a"
        )
        apply_couple_update(
            table, update("remove", CoupleLink(source=A, target=B)), "a"
        )
        assert table.links() == [other]

    def test_mirror_without_owner_keeps_everything(self):
        table = CoupleTable()
        apply_couple_update(table, update("add", CoupleLink(source=A, target=B)))
        assert len(table) == 1


class TestBootstrap:
    def test_bootstrap_from_wire_dump(self):
        source = CoupleTable()
        source.add_link(CoupleLink(source=A, target=B))
        source.add_link(
            CoupleLink(source=global_id("a", "/ui/y"), target=B)
        )
        replica = CoupleTable()
        assert bootstrap_replica(replica, source.to_wire_for("a")) == 2
        assert replica.group_of(A) == source.group_of(A)

    def test_bootstrap_empty(self):
        assert bootstrap_replica(CoupleTable(), None) == 0
        assert bootstrap_replica(CoupleTable(), []) == 0


class TestSubtreeIsCoupled:
    def test_exact_and_descendant(self):
        table = CoupleTable()
        deep = global_id("a", "/ui/panel/field")
        table.add_link(CoupleLink(source=deep, target=B))
        assert subtree_is_coupled(table, "a", "/ui/panel/field")
        assert subtree_is_coupled(table, "a", "/ui/panel")
        assert subtree_is_coupled(table, "a", "/ui")
        assert not subtree_is_coupled(table, "a", "/ui/other")

    def test_no_prefix_confusion(self):
        table = CoupleTable()
        table.add_link(
            CoupleLink(source=global_id("a", "/ui/panel2"), target=B)
        )
        assert not subtree_is_coupled(table, "a", "/ui/panel")

    def test_other_instance_ignored(self):
        table = CoupleTable()
        table.add_link(CoupleLink(source=A, target=B))
        assert not subtree_is_coupled(table, "c", "/ui/x")
