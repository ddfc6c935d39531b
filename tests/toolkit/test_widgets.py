"""Per-type behaviour tests for the concrete widgets."""

import pytest

from repro.errors import AttributeValidationError, BuilderError
from repro.toolkit.events import (
    ACTIVATE,
    KEY_PRESS,
    POINTER_MOTION,
    VALUE_CHANGED,
)
from repro.toolkit.widgets import (
    Canvas,
    Form,
    Label,
    ListBox,
    Menu,
    MenuEntry,
    OptionMenu,
    PushButton,
    Scale,
    TextArea,
    TextField,
    ToggleButton,
    known_types,
    widget_class,
)


class TestRegistry:
    def test_all_builtins_registered(self):
        expected = {
            "form", "rowcolumn", "frame", "panedwindow", "shell",
            "pushbutton", "togglebutton", "label", "textfield", "textarea",
            "menu", "menuentry", "optionmenu", "listbox", "scale", "canvas",
        }
        assert expected <= set(known_types())

    def test_widget_class_resolution(self):
        assert widget_class("textfield") is TextField

    def test_unknown_type_raises(self):
        with pytest.raises(BuilderError):
            widget_class("flux-capacitor")


class TestPushButton:
    def test_press_fires_activate(self):
        button = PushButton("b", label="Go")
        seen = []
        button.add_callback(ACTIVATE, lambda w, e: seen.append(e.type))
        button.press(user="u")
        assert seen == [ACTIVATE]

    def test_label_is_relevant(self):
        assert "label" in PushButton.ATTRIBUTES.relevant_names()
        assert "armed" not in PushButton.ATTRIBUTES.relevant_names()


class TestToggleButton:
    def test_toggle_flips(self):
        toggle = ToggleButton("t")
        toggle.toggle()
        assert toggle.value is True
        toggle.toggle()
        assert toggle.value is False

    def test_set_value_explicit(self):
        toggle = ToggleButton("t")
        toggle.set_value(True)
        assert toggle.value is True
        toggle.set_value(False)
        assert toggle.value is False


class TestTextField:
    def test_commit_sets_value_and_cursor(self):
        field = TextField("t")
        field.commit("hello")
        assert field.value == "hello"
        assert field.get("cursor") == 5

    def test_typing_inserts_at_cursor(self):
        field = TextField("t")
        field.type_text("ac")
        field.type_key("Left")
        field.type_key("b")
        assert field.value == "abc"

    def test_backspace_and_delete(self):
        field = TextField("t")
        field.type_text("abc")
        field.type_key("BackSpace")
        assert field.value == "ab"
        field.type_key("Home")
        field.type_key("Delete")
        assert field.value == "b"

    def test_home_end_navigation(self):
        field = TextField("t")
        field.type_text("xy")
        field.type_key("Home")
        assert field.get("cursor") == 0
        field.type_key("End")
        assert field.get("cursor") == 2

    def test_cursor_bounds(self):
        field = TextField("t")
        field.type_key("Left")  # at 0 already
        assert field.get("cursor") == 0
        field.type_text("a")
        field.type_key("Right")  # at end already
        assert field.get("cursor") == 1

    def test_backspace_at_start_is_noop(self):
        field = TextField("t")
        field.type_text("a")
        field.type_key("Home")
        field.type_key("BackSpace")
        assert field.value == "a"

    def test_max_length_enforced(self):
        field = TextField("t", max_length=2)
        field.type_text("abcdef")
        assert field.value == "ab"

    def test_emits_lists_fine_and_coarse(self):
        assert VALUE_CHANGED in TextField.EMITS
        assert KEY_PRESS in TextField.EMITS


class TestTextArea:
    def test_commit_multiline(self):
        area = TextArea("a")
        area.commit("one\ntwo")
        assert area.text == "one\ntwo"
        assert area.get("row") == 1

    def test_return_splits_line(self):
        area = TextArea("a")
        for char in "ab":
            area.fire(KEY_PRESS, key=char)
        area.fire(KEY_PRESS, key="Return")
        area.fire(KEY_PRESS, key="c")
        assert area.text == "ab\nc"

    def test_backspace_joins_lines(self):
        area = TextArea("a")
        area.commit("ab\ncd")
        area.set("row", 1)
        area.set("column", 0)
        area.fire(KEY_PRESS, key="BackSpace")
        assert area.text == "abcd"

    def test_empty_commit_keeps_one_line(self):
        area = TextArea("a")
        area.fire(VALUE_CHANGED, lines=[])
        assert area.get("lines") == [""]


class TestMenus:
    def test_menu_entry_choose(self):
        menu = Menu("m", label="File")
        entry = MenuEntry("open", parent=menu, label="Open…")
        seen = []
        entry.add_callback(ACTIVATE, lambda w, e: seen.append(w.name))
        entry.choose()
        assert seen == ["open"]
        assert menu.entry("open") is entry

    def test_menu_entry_accessor_type_checked(self):
        menu = Menu("m")
        Form("weird", parent=menu)
        with pytest.raises(TypeError):
            menu.entry("weird")

    def test_optionmenu_select(self):
        menu = OptionMenu("op", entries=["eq", "like"], selection="eq")
        menu.select("like")
        assert menu.selection == "like"
        assert menu.entries == ["eq", "like"]

    def test_optionmenu_relevant_attrs(self):
        relevant = set(OptionMenu.ATTRIBUTES.relevant_names())
        assert {"selection", "entries", "label"} <= relevant


class TestListBox:
    def test_replace_items_resets_selection(self):
        box = ListBox("l")
        box.replace_items(["a", "b"])
        box.select_indices([1])
        assert box.selected_items == ["b"]
        box.replace_items(["x"])
        assert box.get("selected") == []

    def test_single_selection_policy_truncates(self):
        box = ListBox("l", items=["a", "b", "c"])
        box.select_indices([0, 2])
        assert box.get("selected") == [0]

    def test_multiple_selection_policy(self):
        box = ListBox("l", items=["a", "b", "c"], selection_policy="multiple")
        box.select_indices([0, 2])
        assert box.selected_items == ["a", "c"]

    def test_out_of_range_indices_dropped(self):
        box = ListBox("l", items=["a"])
        box.select_indices([0, 5, -1])
        assert box.get("selected") == [0]

    def test_items_validator(self):
        with pytest.raises(Exception):
            ListBox("l", items=[1, 2])

    def test_selected_validator_names_the_first_non_int(self):
        box = ListBox("l", items=["a", "b"])
        for bad, found in (("1", "str"), (True, "bool")):
            with pytest.raises(AttributeValidationError, match=f"found {found}"):
                box.set("selected", [0, bad])


class TestScale:
    def test_set_value_clamped(self):
        scale = Scale("s", minimum=0, maximum=10)
        scale.set_value(25)
        assert scale.value == 10
        scale.set_value(-5)
        assert scale.value == 0

    def test_drag_is_fine_grained(self):
        scale = Scale("s")
        event = scale.drag_to(4)
        assert event.type == POINTER_MOTION
        assert scale.value == 4

    def test_bool_value_ignored(self):
        scale = Scale("s")
        scale.set_value(3)
        scale.fire(VALUE_CHANGED, value=True)
        assert scale.value == 3


class TestCanvas:
    def test_draw_appends_stroke(self):
        canvas = Canvas("c")
        canvas.draw_stroke([(0, 0), (1, 2)], color="red", width=2)
        assert canvas.stroke_count == 1
        stroke = canvas.strokes[0]
        assert stroke["color"] == "red"
        assert stroke["points"] == [[0.0, 0.0], [1.0, 2.0]]

    def test_clear_replaces_strokes(self):
        canvas = Canvas("c")
        canvas.draw_stroke([(0, 0)])
        canvas.clear()
        assert canvas.stroke_count == 0

    def test_strokes_returns_copies(self):
        canvas = Canvas("c")
        canvas.draw_stroke([(0, 0)])
        canvas.strokes[0]["color"] = "mutated"
        assert canvas.strokes[0]["color"] == "black"

    def test_feedback_undo_restores_strokes(self):
        canvas = Canvas("c")
        event = canvas.draw_stroke([(0, 0)])
        undo = canvas.apply_feedback(event)  # draws a second copy
        assert canvas.stroke_count == 2
        undo.rollback()
        assert canvas.stroke_count == 1

    def test_stroke_undo_removes_only_its_stroke(self):
        """The DRAW undo is an inverse operation, not a snapshot: a stroke
        appended by someone else in between survives the rollback."""
        canvas = Canvas("c")
        event = canvas.draw_stroke([(0, 0)], color="red")
        undo = canvas.apply_feedback(event)  # optimistic echo (2nd copy)
        # A remote stroke lands while the floor decision is pending.
        remote = dict(points=[[9.0, 9.0]], color="blue", width=1)
        canvas.set(
            "strokes", canvas.strokes + [remote], quiet=True
        )
        undo.rollback()
        colors = [s["color"] for s in canvas.strokes]
        assert colors == ["red", "blue"]  # original + remote, echo removed

    def test_stroke_undo_removes_last_occurrence(self):
        canvas = Canvas("c")
        event = canvas.draw_stroke([(1, 1)])
        undo = canvas.apply_feedback(event)
        assert canvas.stroke_count == 2
        undo.rollback()
        assert canvas.stroke_count == 1
        undo.rollback()  # rolling back twice removes at most once more
        assert canvas.stroke_count == 0

    def test_strokes_validator(self):
        canvas = Canvas("c")
        with pytest.raises(AttributeValidationError, match="must be a dict"):
            canvas.set("strokes", [[0, 0]])
        with pytest.raises(AttributeValidationError, match="needs a 'points' key"):
            canvas.set("strokes", [{"color": "red"}])


class TestLabel:
    def test_text_property(self):
        label = Label("l", text="hello")
        assert label.text == "hello"
        assert "text" in Label.ATTRIBUTES.relevant_names()
