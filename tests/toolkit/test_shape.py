"""Unit tests for the cached shape record (``repro.toolkit.builder.shape``)."""

import pytest

from repro.toolkit.builder import shape, spec_fingerprint, to_spec
from repro.toolkit.widgets import Form, Label, Shell, TextField

from conftest import strip_state


def make_tree():
    root = Shell("app")
    form = Form("form", parent=root)
    TextField("name", parent=form)
    Label("caption", parent=root)
    return root


class TestShapeRecord:
    def test_matches_a_fresh_derivation(self):
        root = make_tree()
        record = shape(root)
        assert record.fingerprint == spec_fingerprint(to_spec(root))
        assert record.skeleton == strip_state(to_spec(root))
        assert dict(record.types) == {
            "": "shell",
            "form": "form",
            "form/name": "textfield",
            "caption": "label",
        }
        assert record.widgets == (
            ("", root),
            ("form", root.find("form")),
            ("form/name", root.find("form/name")),
            ("caption", root.find("caption")),
        )

    def test_state_writes_do_not_rebuild(self):
        root = make_tree()
        record = shape(root)
        root.find("form/name").set("value", "typed")
        assert shape(root) is record

    def test_skeleton_and_index_are_read_only(self):
        record = shape(make_tree())
        with pytest.raises(TypeError):
            record.skeleton["name"] = "other"
        with pytest.raises(TypeError):
            record.skeleton["children"][0]["type"] = "canvas"
        with pytest.raises(TypeError):
            record.types["form"] = "canvas"

    def test_name_is_read_only(self):
        root = make_tree()
        with pytest.raises(AttributeError):
            root.find("form").name = "renamed"
        assert root.find("form").name == "form"


class TestInvalidation:
    def test_change_invalidates_the_node_and_every_ancestor_only(self):
        root = make_tree()
        form, caption = root.find("form"), root.find("caption")
        name = root.find("form/name")
        before = {w: shape(w) for w in (root, form, caption, name)}
        TextField("extra", parent=form)
        assert shape(root) is not before[root]
        assert shape(form) is not before[form]
        assert shape(caption) is before[caption]
        assert shape(name) is before[name]
        assert "form/extra" in shape(root).types
        assert shape(root).fingerprint == spec_fingerprint(to_spec(root))

    def test_removed_subtree_keeps_its_record_and_is_let_go(self):
        root = make_tree()
        form = root.find("form")
        shape(root)
        detached = shape(form)
        root.remove_child(form)
        # Nothing below the removed node changed ...
        assert shape(form) is detached
        # ... and the old parent's stale record no longer pins it.
        assert root._shape is None
        assert "form" not in shape(root).types

    def test_destroy_of_a_grandchild_reaches_the_root(self):
        root = make_tree()
        before = shape(root)
        root.find("form/name").destroy()
        assert shape(root) is not before
        assert shape(root).fingerprint == spec_fingerprint(to_spec(root))

    def test_same_name_different_type_changes_the_fingerprint(self):
        root = make_tree()
        before = shape(root).fingerprint
        root.find("caption").destroy()
        TextField("caption", parent=root)
        assert shape(root).fingerprint != before
        assert shape(root).types["caption"] == "textfield"


class _AddsASiblingWhenWalked(Form):
    """Runs a callback the first time the shape walk asks for its children."""

    on_walk = None

    @property
    def children(self):
        callback, self.on_walk = self.on_walk, None
        if callback is not None:
            callback()
        return super().children


class TestRaceWithMutation:
    def test_child_added_during_the_walk_is_seen_by_the_next_read(self):
        """A walk on one thread, a mutation on another, in the worst
        order: the change lands in a part the walk has already passed.

        The walk then stores a record that lacks the new child.  With a
        bare "``None`` means invalid" slot that store would come after the
        mutation's reset and be served forever; the stamp read before the
        walk is what makes the record dead on arrival.
        """
        root = Shell("app")
        first = Form("first", parent=root)
        hooked = _AddsASiblingWhenWalked("second", parent=root)
        hooked.on_walk = lambda: TextField("late", parent=first)

        raced = shape(root)  # visits `first`, then `hooked` adds under it
        assert "first/late" not in raced.types

        after = shape(root)
        assert after is not raced
        assert after.types["first/late"] == "textfield"
        assert after.fingerprint == spec_fingerprint(to_spec(root))
        assert shape(first).types == {"": "form", "late": "textfield"}

    def test_readers_on_other_threads_never_leave_a_stale_record(self):
        """Time-bounded stress: one thread edits two levels down while
        three others keep asking for the root's record.  It is the only
        writer, so whatever it is served after one of its own edits must
        describe the tree as that edit left it."""
        import sys
        import threading
        import time

        root = make_tree()
        deep = root.find("form")
        deadline = time.monotonic() + 1.0
        stop = threading.Event()
        failures = []

        def read():
            while not stop.is_set():
                shape(root)

        def check(step):
            record = shape(root)
            if record.fingerprint != spec_fingerprint(to_spec(root)) or (
                "form/flicker" in record.types
            ) != ("flicker" in deep.child_names):
                failures.append(step)

        readers = [threading.Thread(target=read, daemon=True) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            step = 0
            while time.monotonic() < deadline and not failures:
                TextField("flicker", parent=deep)
                check(step)
                deep.child("flicker").destroy()
                check(step)
                step += 1
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=5)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert step > 0 and not failures
