"""Unit tests for the widget-tree utilities."""

import pytest

from repro.errors import PathError
from repro.toolkit.tree import (
    apply_subtree_state,
    format_tree,
    is_ancestor_path,
    join_path,
    overwrite_subtree_state,
    relative_path,
    split_path,
    structure_signature,
    subtree_state,
    subtree_widgets,
    tree_depth,
    tree_size,
)
from repro.toolkit.widgets import Form, Label, PushButton, Shell, TextField


def build_tree():
    shell = Shell("app", title="T")
    form = Form("form", parent=shell)
    TextField("name", parent=form)
    Label("hint", parent=form, text="hi")
    return shell, form


class TestPathAlgebra:
    def test_join_relative(self):
        assert join_path("a", "b/c") == "a/b/c"

    def test_join_absolute(self):
        assert join_path("/a", "b") == "/a/b"

    def test_join_collapses_extra_separators(self):
        assert join_path("/a/", "/b/", "c") == "/a/b/c"

    def test_split(self):
        assert split_path("/a/b/c") == ("a", "b", "c")
        assert split_path("a/b") == ("a", "b")
        assert split_path("/") == ()

    def test_is_ancestor_path(self):
        assert is_ancestor_path("/a/b", "/a/b/c")
        assert is_ancestor_path("/a/b", "/a/b")
        assert not is_ancestor_path("/a/b", "/a/bc")
        assert not is_ancestor_path("/a/b/c", "/a/b")


class TestRelativePaths:
    def test_relative_path(self):
        shell, form = build_tree()
        field = form.child("name")
        assert relative_path(shell, field) == "form/name"
        assert relative_path(form, field) == "name"
        assert relative_path(shell, shell) == ""

    def test_relative_path_outside_raises(self):
        shell, _form = build_tree()
        stranger = Shell("other")
        with pytest.raises(PathError):
            relative_path(shell, stranger)

    def test_subtree_widgets_preorder(self):
        shell, _ = build_tree()
        rels = [rel for rel, _ in subtree_widgets(shell)]
        assert rels == ["", "form", "form/name", "form/hint"]


class TestSubtreeState:
    def test_relevant_only_default(self):
        shell, form = build_tree()
        form.child("name").set("value", "x")
        state = subtree_state(shell)
        assert state["form/name"] == {"value": "x"}
        assert "width" not in state["form/name"]

    def test_full_state(self):
        shell, _ = build_tree()
        state = subtree_state(shell, relevant_only=False)
        assert "width" in state["form/name"]

    def test_apply_roundtrip(self):
        shell_a, form_a = build_tree()
        form_a.child("name").set("value", "copied")
        shell_b, form_b = build_tree()
        applied = apply_subtree_state(shell_b, subtree_state(shell_a))
        assert form_b.child("name").get("value") == "copied"
        assert set(applied) == {"", "form", "form/name", "form/hint"}

    def test_apply_skips_missing_paths(self):
        shell, _ = build_tree()
        applied = apply_subtree_state(shell, {"ghost/path": {"value": "x"}})
        assert applied == []

    def test_apply_strict_raises_on_missing(self):
        shell, _ = build_tree()
        with pytest.raises(PathError):
            apply_subtree_state(
                shell, {"ghost": {"value": "x"}}, strict=True
            )

    def test_overwrite_returns_the_pre_image_of_what_it_wrote(self):
        shell, form = build_tree()
        form.child("name").set("value", "before")
        shell.set("title", "kept")
        overwritten = overwrite_subtree_state(
            shell, {"form/name": {"value": "after"}, "ghost": {"value": "x"}}
        )
        assert overwritten == {"form/name": {"value": "before"}}
        assert form.child("name").get("value") == "after"
        overwrite_subtree_state(shell, overwritten)
        assert form.child("name").get("value") == "before"
        assert shell.get("title") == "kept"


class TestSignaturesAndMetrics:
    def test_signature_ignores_names(self):
        a = Shell("one")
        Form("x", parent=a)
        b = Shell("two")
        Form("y", parent=b)
        assert structure_signature(a) == structure_signature(b)

    def test_signature_sees_type_difference(self):
        a = Shell("one")
        Form("x", parent=a)
        b = Shell("two")
        PushButton("x", parent=b)
        assert structure_signature(a) != structure_signature(b)

    def test_signature_sees_depth_difference(self):
        a = Shell("one")
        Form("x", parent=a)
        b = Shell("two")
        Form("x", parent=Form("mid", parent=b))
        assert structure_signature(a) != structure_signature(b)

    def test_tree_size_and_depth(self):
        shell, _ = build_tree()
        assert tree_size(shell) == 4
        assert tree_depth(shell) == 3
        assert tree_depth(Shell("leaf")) == 1

    def test_format_tree_lists_all(self):
        shell, _ = build_tree()
        text = format_tree(shell)
        for name in ("app", "form", "name", "hint"):
            assert name in text

    def test_format_tree_with_state(self):
        shell, form = build_tree()
        form.child("name").set("value", "visible-state")
        assert "visible-state" in format_tree(shell, show_state=True)
