"""Property tests for the delta state sync invariant.

The protocol's core claim: applying every incremental delta (attributes
written since the last capture) in order leaves a replica in exactly the
state a single full snapshot would.  These tests drive a random write
workload through the dirty-attribute clock and check replica equality at
every segment boundary — first on bare trees, then through the whole
protocol (CopyTo, CopyFrom, RemoteCopy, edits on either side, structural
changes, dropped messages) against a full-transfer oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compat import CorrespondenceRegistry
from repro.core.state_sync import apply_state_payload, build_state_payload
from repro.errors import ReproError
from repro.session import Session
from repro.toolkit.tree import (
    apply_subtree_state,
    subtree_state,
    subtree_state_since,
)
from repro.toolkit.widget import state_clock
from repro.toolkit.widgets import Label, Scale, Shell, TextField, ToggleButton

#: (relative path, attribute, value strategy) — coupling-relevant
#: attributes of the fixture tree below.
WRITABLE = [
    ("field", "value", st.text(max_size=8)),
    ("zoom", "value", st.integers(min_value=0, max_value=100)),
    ("flag", "set", st.booleans()),
]


def make_tree(name="app"):
    root = Shell(name, title="delta")
    TextField("field", parent=root)
    Scale("zoom", parent=root, maximum=100)
    ToggleButton("flag", parent=root)
    return root


@st.composite
def write_segments(draw):
    """A workload: segments of writes, one delta capture per segment."""
    segments = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        writes = []
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            rel, attr, values = draw(st.sampled_from(WRITABLE))
            writes.append((rel, attr, draw(values)))
        segments.append(writes)
    return segments


class TestDeltaEqualsFull:
    @given(segments=write_segments())
    @settings(max_examples=150)
    def test_applied_deltas_converge_to_full_snapshot(self, segments):
        sender = make_tree("s")
        delta_replica = make_tree("d")
        full_replica = make_tree("f")
        # First contact is always a full snapshot.
        apply_subtree_state(delta_replica, subtree_state(sender))
        baseline = state_clock()
        for writes in segments:
            for rel, attr, value in writes:
                sender.find(rel).set(attr, value)
            delta = subtree_state_since(sender, baseline)
            baseline = state_clock()
            apply_subtree_state(delta_replica, delta)
            # Invariant at every segment boundary, not just the end.
            assert subtree_state(delta_replica) == subtree_state(sender)
        apply_subtree_state(full_replica, subtree_state(sender))
        assert subtree_state(delta_replica) == subtree_state(full_replica)

    @given(segments=write_segments())
    @settings(max_examples=100)
    def test_idle_segments_produce_empty_deltas(self, segments):
        sender = make_tree("s")
        for writes in segments:
            for rel, attr, value in writes:
                sender.find(rel).set(attr, value)
        baseline = state_clock()
        assert subtree_state_since(sender, baseline) == {}

    @given(segments=write_segments())
    @settings(max_examples=100)
    def test_delta_contains_only_touched_widgets(self, segments):
        sender = make_tree("s")
        baseline = state_clock()
        touched = set()
        for writes in segments:
            for rel, attr, value in writes:
                sender.find(rel).set(attr, value)
                touched.add(rel)
        delta = subtree_state_since(sender, baseline)
        assert set(delta) <= touched
        for rel, values in delta.items():
            current = sender.find(rel).relevant_state()
            for attr, value in values.items():
                assert current[attr] == value

    @given(segments=write_segments())
    @settings(max_examples=100)
    def test_deltas_are_replayable_out_of_date_replica(self, segments):
        """A replica that missed nothing can apply deltas cumulatively."""
        sender = make_tree("s")
        replica = make_tree("r")
        apply_subtree_state(replica, subtree_state(sender))
        baseline = state_clock()
        cumulative_baseline = baseline
        for writes in segments:
            for rel, attr, value in writes:
                sender.find(rel).set(attr, value)
        # One cumulative delta covering all segments equals the sum of
        # per-segment deltas: versions are monotonic, never reset.
        delta = subtree_state_since(sender, cumulative_baseline)
        apply_subtree_state(replica, delta)
        assert subtree_state(replica) == subtree_state(sender)


class TestAttributeClock:
    @given(values=st.lists(st.text(max_size=5), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_last_write_wins_in_changed_since(self, values):
        tree = make_tree("s")
        field = tree.find("field")
        baseline = state_clock()
        for value in values:
            field.set("value", value)
        changed = field.changed_since(baseline)
        # set() skips no-op writes, so the attribute is dirty iff some
        # write actually changed the value; when dirty, the recorded value
        # is the current (last effective) one.
        assert field.get("value") == values[-1]
        if "value" in changed:
            assert changed["value"] == values[-1]
        if values[-1] != "":
            assert "value" in changed

    def test_versions_strictly_increase(self):
        tree = make_tree("s")
        field = tree.find("field")
        first = field.attribute_version("value")
        field.set("value", "x")
        second = field.attribute_version("value")
        field.set("value", "y")
        third = field.attribute_version("value")
        assert first < second < third


# ----------------------------------------------------------------------
# The whole protocol against a full-transfer oracle
# ----------------------------------------------------------------------
#
# Source S owns the object, T is the target, C a third party.  A script
# interleaves edits on either side with CopyTo (S pushes), CopyFrom (T
# fetches), RemoteCopy (C asks), renames (a structural change that a
# full transfer still matches) and dropped messages.  The oracle is a
# twin pair of trees no network touches: it gets the same edits, and a
# block-less full transfer whenever a step landed anything on T.  Real
# and twin targets must then be equal — whatever mix of deltas, resyncs
# and re-fetches the step went through, it lands as a full one would.

#: (message kind, addressee) legs of the server's sends a script can cut.
LEGS = [
    ("push_state", "t"),  # the transfer itself (a push, a resync, a RemoteCopy)
    ("state_reply", "t"),  # the answer to T's fetch
    ("state_reply", "s"),  # S's push acknowledgement (T did get the push)
    ("fetch_state", "s"),  # the forwarded fetch
    ("resync_request", "s"),  # T's request for a full snapshot
]

#: The attribute of the target's first child a textfield's value maps to.
TARGET_FIELD = {"homogeneous": "value", "heterogeneous": "text"}


def make_target(kind, name="app"):
    if kind == "homogeneous":
        return make_tree(name)
    root = Shell(name, title="delta")
    Label("field", parent=root)  # textfield.value <-> label.text, declared
    Scale("zoom", parent=root, maximum=100)
    ToggleButton("flag", parent=root)
    return root


def child(tree, rel):
    """The child *rel* named at first — renames keep a child's type."""
    types = {"field": ("textfield", "label"), "zoom": ("scale",)}.get(
        rel, ("togglebutton",)
    )
    return next(c for c in tree.children if c.TYPE_NAME in types)


def correspondences():
    registry = CorrespondenceRegistry()
    registry.declare("textfield", "label", {"value": "text"})
    return registry


@st.composite
def protocol_scripts(draw):
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        what = draw(
            st.sampled_from(
                ["edit", "edit", "copy_to", "copy_from", "remote_copy", "rename", "cut"]
            )
        )
        if what == "edit":
            rel, attr, values = draw(st.sampled_from(WRITABLE))
            side = draw(st.sampled_from("st"))
            steps.append(("edit", side, rel, attr, draw(values)))
        elif what == "rename":
            steps.append(("rename", draw(st.sampled_from("st"))))
        elif what == "cut":
            # Cuts the named leg of the next transfer that uses it.
            steps.append(("cut", draw(st.sampled_from(LEGS))))
        else:
            steps.append((what,))
    return steps


class _Cutter:
    """Drops the next message the server sends on the armed leg."""

    def __init__(self, server):
        self.armed = None
        send = server._send

        def cutting(message):
            if self.armed == (message.kind, message.to):
                self.armed = None
                return
            send(message)

        server._send = cutting


class TestProtocolEqualsFullTransfer:
    @pytest.mark.parametrize("pair", ["homogeneous", "heterogeneous"])
    @given(script=protocol_scripts())
    @settings(max_examples=120, deadline=None)
    def test_whatever_lands_on_the_target_lands_as_a_full_transfer(self, pair, script):
        registry = correspondences()
        session = Session(backend="memory", correspondences=registry)
        try:
            options = {"request_timeout": 0.05}
            s = session.create_instance("s", user="sue", **options)
            t = session.create_instance("t", user="tom", **options)
            c = session.create_instance("c", user="cat", **options)
            real = {"s": s.add_root(make_tree()), "t": t.add_root(make_target(pair))}
            twin = {"s": make_tree(), "t": make_target(pair)}
            cutter = _Cutter(session.server)
            session.pump()
            renames = 0
            for step in script:
                landed = t.stats["states_applied"]
                if step[0] == "edit":
                    _, side, rel, attr, value = step
                    if side == "t" and rel == "field":
                        attr = TARGET_FIELD[pair]
                    for trees in (real, twin):
                        child(trees[side], rel).set(attr, value)
                elif step[0] == "rename":
                    renames += 1
                    for trees in (real, twin):
                        child(trees[step[1]], "zoom").destroy()
                        Scale(f"zoom{renames}", parent=trees[step[1]], maximum=100)
                elif step[0] == "cut":
                    cutter.armed = step[1]
                else:
                    try:
                        if step[0] == "copy_to":
                            s.copy_to("/app", ("t", "/app"))
                        elif step[0] == "copy_from":
                            t.copy_from("/app", ("s", "/app"))
                        else:
                            c.remote_copy(("s", "/app"), ("t", "/app"))
                    except ReproError:
                        pass  # a cut leg: timed out
                    session.pump()
                    cutter.armed = None
                if t.stats["states_applied"] > landed:
                    apply_state_payload(
                        twin["t"],
                        build_state_payload(twin["s"]),
                        correspondences=registry,
                    )
                assert subtree_state(real["t"], relevant_only=True) == subtree_state(
                    twin["t"], relevant_only=True
                ), step
        finally:
            session.close()
