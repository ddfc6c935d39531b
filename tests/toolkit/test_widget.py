"""Unit tests for the UIObject base class: tree, state, events, destroy."""

import copy

import pytest

from repro.errors import (
    AttributeValidationError,
    DestroyedWidgetError,
    DuplicateChildError,
    PathError,
    UnknownAttributeError,
)
from repro.toolkit.events import (
    ACTIVATE,
    ATTRIBUTE_CHANGED,
    CHILD_ADDED,
    CHILD_REMOVED,
    DESTROYED,
)
from repro.toolkit.widget import UIObject
from repro.toolkit.widgets import Form, PushButton, Shell, TextField, ToggleButton


class TestIdentity:
    def test_name_validation(self):
        with pytest.raises(ValueError):
            UIObject("")
        with pytest.raises(ValueError):
            UIObject("a/b")

    def test_pathname_of_root(self):
        assert UIObject("root").pathname == "/root"

    def test_pathname_nested(self):
        shell = Shell("app")
        form = Form("form", parent=shell)
        button = PushButton("ok", parent=form)
        assert button.pathname == "/app/form/ok"

    def test_root_property(self):
        shell = Shell("app")
        form = Form("form", parent=shell)
        button = PushButton("ok", parent=form)
        assert button.root is shell
        assert shell.root is shell


class TestTreeStructure:
    def test_children_in_insertion_order(self):
        shell = Shell("app")
        names = ["c", "a", "b"]
        for name in names:
            Form(name, parent=shell)
        assert [c.name for c in shell.children] == names

    def test_duplicate_child_rejected(self):
        shell = Shell("app")
        Form("x", parent=shell)
        with pytest.raises(DuplicateChildError):
            Form("x", parent=shell)

    def test_reparenting_rejected(self):
        shell = Shell("app")
        form = Form("x", parent=shell)
        other = Shell("other")
        with pytest.raises(ValueError):
            other.add_child(form)

    def test_remove_child_detaches(self):
        shell = Shell("app")
        form = Form("x", parent=shell)
        shell.remove_child(form)
        assert form.parent is None
        assert shell.children == ()
        assert form.pathname == "/x"

    def test_find_absolute_and_relative(self):
        shell = Shell("app")
        form = Form("form", parent=shell)
        button = PushButton("ok", parent=form)
        assert shell.find("/app/form/ok") is button
        assert shell.find("form/ok") is button
        assert form.find("ok") is button
        assert button.find("/app") is shell  # absolute from anywhere

    def test_find_missing_raises_patherror(self):
        shell = Shell("app")
        with pytest.raises(PathError):
            shell.find("/app/nope")
        with pytest.raises(PathError):
            shell.find("/wrongroot")

    def test_child_accessor(self):
        shell = Shell("app")
        form = Form("form", parent=shell)
        assert shell.child("form") is form
        with pytest.raises(PathError):
            shell.child("ghost")

    def test_walk_preorder(self):
        shell = Shell("app")
        f1 = Form("f1", parent=shell)
        PushButton("b1", parent=f1)
        Form("f2", parent=shell)
        names = [w.name for w in shell.walk()]
        assert names == ["app", "f1", "b1", "f2"]

    def test_child_events_fire(self):
        shell = Shell("app")
        seen = []
        shell.add_callback(CHILD_ADDED, lambda w, e: seen.append(("+", e.params["child"])))
        shell.add_callback(CHILD_REMOVED, lambda w, e: seen.append(("-", e.params["child"])))
        form = Form("x", parent=shell)
        shell.remove_child(form)
        assert seen == [("+", "x"), ("-", "x")]


class TestAttributes:
    def test_get_set(self):
        field = TextField("t")
        field.set("value", "hi")
        assert field.get("value") == "hi"

    def test_unknown_attribute(self):
        field = TextField("t")
        with pytest.raises(UnknownAttributeError):
            field.get("bogus")
        with pytest.raises(UnknownAttributeError):
            field.set("bogus", 1)

    def test_validation_enforced_on_set(self):
        field = TextField("t")
        with pytest.raises(AttributeValidationError):
            field.set("value", 42)

    def test_set_fires_attribute_changed(self):
        field = TextField("t")
        seen = []
        field.add_callback(ATTRIBUTE_CHANGED, lambda w, e: seen.append(e.params))
        field.set("value", "x")
        assert seen == [{"attribute": "value", "value": "x"}]

    def test_set_same_value_is_silent(self):
        field = TextField("t")
        seen = []
        field.add_callback(ATTRIBUTE_CHANGED, lambda w, e: seen.append(1))
        field.set("value", "")
        assert seen == []

    def test_quiet_set_is_silent(self):
        field = TextField("t")
        seen = []
        field.add_callback(ATTRIBUTE_CHANGED, lambda w, e: seen.append(1))
        field.set("value", "x", quiet=True)
        assert seen == []

    def test_state_returns_copy(self):
        field = TextField("t")
        state = field.state()
        state["value"] = "mutated"
        assert field.get("value") == ""

    def test_relevant_state_subset(self):
        field = TextField("t", width=33)
        field.set("value", "shared")
        relevant = field.relevant_state()
        assert relevant == {"value": "shared"}
        assert "width" not in relevant

    def test_set_state_bulk(self):
        field = TextField("t")
        field.set_state({"value": "a", "width": 5})
        assert field.get("value") == "a"
        assert field.get("width") == 5

    def test_constructor_attrs(self):
        field = TextField("t", value="init", width=9)
        assert field.get("value") == "init"
        assert field.get("width") == 9

    def test_every_dict_write_path_is_stamped(self):
        """Delta sync ships what ``changed_since`` reports, so a write
        through any dict method of the state must move its stamp."""
        field = TextField("t")
        state = field._state
        baseline = field.attribute_version("value")
        state.update(value="u")
        assert field.changed_since(baseline) == {"value": "u"}
        baseline = field.attribute_version("value")
        state.setdefault("extra", 1)
        assert field.changed_since(baseline) == {"extra": 1}
        assert state.setdefault("extra", 2) == 1
        assert field.changed_since(baseline) == {"extra": 1}
        state.pop("extra")
        del state["width"]
        assert "extra" not in state.versions and "width" not in state.versions
        state.clear()
        assert state.versions == {}

    def test_an_in_place_union_is_stamped(self):
        field = TextField("t")
        state = field._state
        baseline = field.attribute_version("value")
        state |= {"value": "merged"}
        assert field._state is state
        assert field.changed_since(baseline) == {"value": "merged"}

    def test_popitem_drops_the_popped_version(self):
        field = TextField("t")
        state = field._state
        key, _value = state.popitem()
        assert key not in state.versions
        assert field.changed_since(0) == dict(state)

    def test_a_copy_keeps_its_own_versions(self):
        field = TextField("t")
        field.set("value", "original")
        baseline = field.attribute_version("value")
        duplicate = copy.copy(field._state)
        assert duplicate.versions == field._state.versions
        duplicate["value"] = "copied"
        assert field.changed_since(baseline) == {}
        assert field.get("value") == "original"
        assert duplicate.versions["value"] > baseline


class TestInteractivityAndLocking:
    def test_interactive_by_default(self):
        assert PushButton("b").is_interactive

    def test_insensitive_not_interactive(self):
        button = PushButton("b", sensitive=False)
        assert not button.is_interactive

    def test_floor_lock_disables(self):
        button = PushButton("b")
        button.floor_lock()
        assert button.floor_locked
        assert not button.is_interactive
        button.floor_unlock()
        assert button.is_interactive

    def test_floor_lock_independent_of_sensitive(self):
        button = PushButton("b")
        button.floor_lock()
        assert button.get("sensitive") is True


class TestEventsAndFeedback:
    def test_fire_without_runtime_is_local(self):
        button = PushButton("b")
        calls = []
        button.add_callback(ACTIVATE, lambda w, e: calls.append(e))
        event = button.fire(ACTIVATE, user="u")
        assert calls == [event]
        assert event.user == "u"
        assert event.instance_id == ""

    def test_toggle_feedback_and_undo(self):
        toggle = ToggleButton("t")
        event = toggle.fire(ACTIVATE)
        assert toggle.value is True
        undo = toggle.apply_feedback(event)  # flips again
        assert toggle.value is False
        undo.rollback()
        assert toggle.value is True

    def test_run_callbacks_skips_feedback(self):
        toggle = ToggleButton("t")
        calls = []
        toggle.add_callback(ACTIVATE, lambda w, e: calls.append(1))
        from repro.toolkit.events import Event

        count = toggle.run_callbacks(Event(type=ACTIVATE, source_path="/t"))
        assert count == 1
        assert toggle.value is False  # feedback not applied

    def test_deliver_returns_undo_record(self):
        toggle = ToggleButton("t")
        from repro.toolkit.events import Event

        undo = toggle.deliver(Event(type=ACTIVATE, source_path="/t"))
        assert toggle.value is True
        undo.rollback()
        assert toggle.value is False


class TestDestroy:
    def test_destroy_subtree_bottom_up(self):
        shell = Shell("app")
        form = Form("form", parent=shell)
        button = PushButton("ok", parent=form)
        order = []
        button.add_callback(DESTROYED, lambda w, e: order.append("button"))
        form.add_callback(DESTROYED, lambda w, e: order.append("form"))
        form.destroy()
        assert order == ["button", "form"]
        assert form.destroyed and button.destroyed
        assert shell.children == ()

    def test_destroyed_event_sees_original_pathname(self):
        shell = Shell("app")
        form = Form("form", parent=shell)
        paths = []
        form.add_callback(DESTROYED, lambda w, e: paths.append(e.source_path))
        form.destroy()
        assert paths == ["/app/form"]

    def test_operations_on_destroyed_raise(self):
        button = PushButton("b")
        button.destroy()
        with pytest.raises(DestroyedWidgetError):
            button.set("label", "x")
        with pytest.raises(DestroyedWidgetError):
            button.fire(ACTIVATE)
        with pytest.raises(DestroyedWidgetError):
            Form("f").add_child(button)

    def test_destroy_is_idempotent(self):
        button = PushButton("b")
        button.destroy()
        button.destroy()  # no raise

    def test_get_still_works_after_destroy(self):
        # Reading a destroyed widget's last state is allowed (history needs it).
        button = PushButton("b", label="x")
        button.destroy()
        assert button.get("label") == "x"


class TestRuntimeAttachment:
    def test_attach_runtime_on_non_root_rejected(self):
        shell = Shell("app")
        form = Form("form", parent=shell)
        with pytest.raises(ValueError):
            form.attach_runtime(object())

    def test_runtime_inherited_through_tree(self):
        shell = Shell("app")
        form = Form("form", parent=shell)
        marker = object()
        shell.attach_runtime(marker)
        assert form.runtime is marker


class TestDescribe:
    def test_describe_structure(self):
        shell = Shell("app", title="T")
        form = Form("form", parent=shell)
        TextField("name", parent=form)
        desc = shell.describe()
        assert desc["type"] == "shell"
        assert desc["state"]["title"] == "T"
        assert desc["children"][0]["name"] == "form"
        assert desc["children"][0]["children"][0]["type"] == "textfield"
