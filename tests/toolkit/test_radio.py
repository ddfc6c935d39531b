"""Tests for the radio group widget."""

import pytest

from repro.session import Session
from repro.toolkit.events import SELECTION_CHANGED
from repro.toolkit.widgets import RadioButton, RadioGroup, Shell


def build_group(parent=None):
    group = RadioGroup("mode", parent=parent, label="Mode")
    RadioButton("read", parent=group, label="Read only")
    RadioButton("write", parent=group, label="Read/write")
    RadioButton("admin", parent=group, label="Admin")
    return group


class TestExclusiveSelection:
    def test_select_sets_exactly_one(self):
        group = build_group()
        group.select("write")
        assert group.selection == "write"
        flags = [child.get("set") for child in group.children]
        assert flags == [False, True, False]

    def test_reselect_moves_the_mark(self):
        group = build_group()
        group.select("read")
        group.select("admin")
        assert group.child("read").get("set") is False
        assert group.child("admin").get("set") is True

    def test_child_choose_routes_through_group(self):
        group = build_group()
        seen = []
        group.add_callback(SELECTION_CHANGED, lambda w, e: seen.append(
            e.params["selection"]))
        group.child("write").choose()
        assert seen == ["write"]
        assert group.selection == "write"

    def test_unknown_choice_rejected(self):
        group = build_group()
        with pytest.raises(ValueError):
            group.select("ghost")

    def test_chosen_accessor(self):
        group = build_group()
        assert group.chosen is None
        group.select("read")
        assert group.chosen is group.child("read")

    def test_entries(self):
        group = build_group()
        assert group.entries() == ["read", "write", "admin"]

    def test_orphan_radio_button_degrades(self):
        lone = RadioButton("solo")
        lone.choose()
        assert lone.get("set") is True


class TestUndoSemantics:
    def test_rollback_restores_children(self):
        group = build_group()
        group.select("read")
        event = group.fire(SELECTION_CHANGED, selection="admin")
        undo = group.apply_feedback(event)  # re-applies 'admin'
        assert group.child("admin").get("set") is True
        undo.rollback()
        assert group.selection == "admin"  # CAS: value unchanged since write
        # Fresh feedback then rollback: children follow the selection back.
        group.select("read")
        event2 = group.fire(SELECTION_CHANGED, selection="write")
        # The event path applied 'write'; manually roll back via a new
        # feedback application.
        undo2 = group.apply_feedback(
            group.fire(SELECTION_CHANGED, selection="admin")
        )
        undo2.rollback()
        assert group.selection == "admin"

    def test_denied_coupled_selection_rolls_back_cleanly(self):
        session = Session()
        try:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            shell_a = a.add_root(Shell("ui"))
            group_a = build_group(parent=shell_a)
            shell_b = b.add_root(Shell("ui"))
            group_b = build_group(parent=shell_b)
            a.couple(group_a, ("b", "/ui/mode"))
            session.pump()
            group_a.select("write")
            session.pump()
            assert group_b.selection == "write"
            assert group_b.child("write").get("set") is True
            # b races while a holds the floor: denied + rolled back.
            grant = a.acquire_floor(group_a)
            group_b.select("admin")
            assert b.last_execution.lock_denied
            assert group_b.selection == "write"
            assert group_b.child("write").get("set") is True
            assert group_b.child("admin").get("set") is False
            a.release_floor(grant)
        finally:
            session.close()

    def test_coupled_groups_converge(self):
        session = Session()
        try:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            shell_a = a.add_root(Shell("ui"))
            group_a = build_group(parent=shell_a)
            shell_b = b.add_root(Shell("ui"))
            group_b = build_group(parent=shell_b)
            a.couple(group_a, ("b", "/ui/mode"))
            session.pump()
            group_a.select("admin")
            session.pump()
            assert group_b.selection == "admin"
            assert [c.get("set") for c in group_b.children] == [
                False, False, True,
            ]
        finally:
            session.close()
