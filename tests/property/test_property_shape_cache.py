"""Property tests for the cached shape record and the copy-free ``to_spec``.

Every way the tree can change shape — ``add_child``, ``remove_child``,
``destroy``, the builder, both merge modes, a different widget type under
a name that was just freed — must leave every live node's cached record
equal to what a fresh derivation yields.  All caches are warm before each
step (the invariant reads every node), so one missed invalidation shows.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.merging import destructive_merge, flexible_match
from repro.errors import AttributeValidationError
from repro.toolkit.builder import build, shape, spec_fingerprint, to_spec
from repro.toolkit.tree import relative_path, subtree_state
from repro.toolkit.widgets import known_types, widget_class

from conftest import strip_state

TYPES = ["form", "textfield", "listbox", "canvas", "label"]
NAMES = ["a", "b", "c", "d"]
MAX_WIDGETS = 16


def reference_to_spec(widget):
    """``to_spec(full_state=False)`` as the parent commit computed it:
    against a fresh deep copy of the defaults."""
    cls = type(widget)
    defaults = cls.ATTRIBUTES.defaults()
    state = {
        name: value
        for name, value in widget.state().items()
        if defaults.get(name) != value
    }
    spec = {"type": cls.TYPE_NAME, "name": widget.name}
    if state:
        spec["state"] = state
    children = [reference_to_spec(child) for child in widget.children]
    if children:
        spec["children"] = children
    return spec


small_specs = st.recursive(
    st.builds(
        lambda t, n: {"type": t, "name": n},
        st.sampled_from(TYPES),
        st.sampled_from(NAMES),
    ),
    lambda children: st.builds(
        lambda n, kids: {"type": "form", "name": n, "children": kids},
        st.sampled_from(NAMES),
        st.lists(children, max_size=3, unique_by=lambda spec: spec["name"]),
    ),
    max_leaves=5,
)


class ShapeCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        #: Roots of every tree still alive: the main one and whatever
        #: ``remove_child`` detached (a detached subtree keeps its records).
        self.roots = [widget_class("form")("root")]

    def live(self):
        return [w for root in self.roots for w in root.walk()]

    def pick(self, data, *, non_root=False):
        candidates = [
            w for w in self.live() if not (non_root and w.parent is None)
        ]
        return data.draw(st.sampled_from(candidates)) if candidates else None

    # -- the ways structure changes ------------------------------------

    @rule(data=st.data(), type_name=st.sampled_from(TYPES), name=st.sampled_from(NAMES))
    def add_child(self, data, type_name, name):
        parent = self.pick(data)
        if name in parent.child_names or len(self.live()) >= MAX_WIDGETS:
            return
        widget_class(type_name)(name, parent=parent)

    @rule(data=st.data())
    def remove_child(self, data):
        child = self.pick(data, non_root=True)
        if child is not None:
            child.parent.remove_child(child)
            self.roots.append(child)

    @rule(data=st.data())
    def reattach(self, data):
        if len(self.roots) < 2:
            return
        child = data.draw(st.sampled_from(self.roots[1:]))
        parent = self.pick(data)
        if parent.root is child or child.name in parent.child_names:
            return
        self.roots.remove(child)
        parent.add_child(child)

    @rule(data=st.data())
    def destroy(self, data):
        victim = self.pick(data, non_root=True)
        if victim is not None:
            victim.destroy()

    @rule(data=st.data(), type_name=st.sampled_from(TYPES))
    def replace_with_other_type(self, data, type_name):
        victim = self.pick(data, non_root=True)
        if victim is None or victim.TYPE_NAME == type_name:
            return
        parent, name = victim.parent, victim.name
        victim.destroy()
        widget_class(type_name)(name, parent=parent)

    @rule(data=st.data(), spec=small_specs)
    def build_under(self, data, spec):
        parent = self.pick(data)
        if spec["name"] in parent.child_names or len(self.live()) >= MAX_WIDGETS:
            return
        build(spec, parent)

    @rule(data=st.data(), spec=small_specs, destructive=st.booleans())
    def merge(self, data, spec, destructive):
        if len(self.live()) >= MAX_WIDGETS:
            return
        target = self.pick(data)
        (destructive_merge if destructive else flexible_match)(target, spec)

    @rule(data=st.data(), value=st.text(max_size=4))
    def write_state(self, data, value):
        widget = self.pick(data)
        if widget.TYPE_NAME == "textfield":
            widget.set("value", value)

    # -- what must hold after every step -------------------------------

    @invariant()
    def every_record_equals_a_fresh_derivation(self):
        for node in self.live():
            record = shape(node)
            spec = to_spec(node)
            assert record.fingerprint == spec_fingerprint(spec)
            assert record.skeleton == strip_state(spec)
            fresh = tuple((relative_path(node, w), w) for w in node.walk())
            assert record.widgets == fresh
            assert record.types == {rel: w.TYPE_NAME for rel, w in fresh}
            assert subtree_state(node) == {
                rel: w.relevant_state() for rel, w in fresh
            }
            assert spec == reference_to_spec(node)


ShapeCacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestShapeCacheMachine = ShapeCacheMachine.TestCase


def _perturbed(default, data):
    """A value near *default* of the same kind (validators may still say no)."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, (int, float)):
        return default + data.draw(st.integers(min_value=-2, max_value=2))
    if isinstance(default, str):
        return default + data.draw(st.sampled_from(["", "x"]))
    if isinstance(default, list):
        return copy.deepcopy(default) + data.draw(st.sampled_from([[], ["x"]]))
    if isinstance(default, dict):
        return dict(copy.deepcopy(default), **data.draw(st.sampled_from([{}, {"k": 1}])))
    return default


class TestToSpecAgainstReference:
    @given(type_name=st.sampled_from(known_types()), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_widget_type(self, type_name, data):
        """Same output as comparing against a deep copy of the defaults,
        on every registered type — equal-but-not-identical lists and
        dicts count as default, and no declared default is ever touched."""
        cls = widget_class(type_name)
        declared = {a.name: copy.deepcopy(a.default) for a in cls.ATTRIBUTES}
        widget = cls("w")
        for attribute in cls.ATTRIBUTES:
            if data.draw(st.booleans()):
                try:
                    widget.set(attribute.name, _perturbed(attribute.default, data))
                except AttributeValidationError:
                    pass
            elif isinstance(attribute.default, list) and data.draw(st.booleans()):
                # In-place edit of the widget's own copy of a list default.
                widget._state[attribute.name].append("x")
        assert to_spec(widget) == reference_to_spec(widget)
        assert to_spec(widget, full_state=True)["state"] == widget.state()
        assert {a.name: a.default for a in cls.ATTRIBUTES} == declared
