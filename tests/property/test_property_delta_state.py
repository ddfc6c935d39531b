"""Property tests for the delta state sync invariant.

The protocol's core claim: applying every incremental delta (attributes
written since the last capture) in order leaves a replica in exactly the
state a single full snapshot would.  These tests drive a random write
workload through the dirty-attribute clock and check replica equality at
every segment boundary — first on bare trees, then through the whole
protocol (CopyTo, CopyFrom, RemoteCopy, edits on either side, structural
changes, dropped messages) against a full-transfer oracle: as a script,
and as a state machine that also duplicates messages, destroys objects
and lets peers leave.
"""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

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
from repro.toolkit.widgets import Form, Label, Scale, Shell, TextField, ToggleButton

#: (relative path, attribute, value strategy) — coupling-relevant
#: attributes of the fixture tree below.
WRITABLE = [
    ("field", "value", st.text(max_size=8)),
    ("zoom", "value", st.integers(min_value=0, max_value=100)),
    ("flag", "set", st.booleans()),
]


def fill(parent, kind="homogeneous"):
    """The fixture's three children; a heterogeneous target has a label
    where the source has a textfield (value <-> text, declared)."""
    (TextField if kind == "homogeneous" else Label)("field", parent=parent)
    Scale("zoom", parent=parent, maximum=100)
    ToggleButton("flag", parent=parent)
    return parent


def make_tree(name="app"):
    return fill(Shell(name, title="delta"))


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
    return fill(Shell(name, title="delta"), kind)


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
    """Drops the next message the server sends on the armed leg — or the
    next ``times``; with ``copies`` set, sends each that many times."""

    def __init__(self, server):
        self.armed = None
        self.times = 1
        self.copies = 0
        self.fired = 0
        send = server._send

        def cutting(message):
            if self.armed != (message.kind, message.to):
                send(message)
                return
            self.fired += 1
            if self.times > 1:
                self.times -= 1
            else:
                self.armed = None
            for _ in range(self.copies):
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


# ----------------------------------------------------------------------
# The same oracle as a state machine
# ----------------------------------------------------------------------
#
# The stream runs between S's and T's ``/app/form``, so the object can be
# destroyed and re-created under its path.  An armed leg cuts or
# duplicates the next one or two messages on it, whichever transfers send
# them.  Besides T's equality with its twin, every step checks what the
# records say: none names a widget that is gone or an instance off the
# roster, T's seq is never ahead of S's, and after a transfer no fault
# touched, both ends of the stream are at one seq.

FORM = "/app/form"
SIDES = st.sampled_from("st")
PUSH, REPLY, ACK, FETCH, RESYNC = LEGS
#: Writes; all but ``flag=False`` change the fixture's initial values.
EDITS = st.one_of(
    st.tuples(st.just("field"), st.just("value"), st.text(min_size=1, max_size=4)),
    st.tuples(st.just("zoom"), st.just("value"), st.integers(1, 100)),
    st.tuples(st.just("flag"), st.just("set"), st.booleans()),
)


def faults(*legs):
    """None, or (copies, leg, times) armed at a transfer: the next *times*
    messages on one of the legs it uses are cut (0 copies) or duplicated
    (2) — this transfer's, and with 2 the next one's too."""
    return st.none() | st.tuples(
        st.sampled_from((0, 2)), st.sampled_from(legs), st.sampled_from((1, 2))
    )


class DeltaContinuityMachine(RuleBasedStateMachine):
    pair = "homogeneous"

    def __init__(self):
        super().__init__()
        self.registry = correspondences()
        self.session = Session(backend="memory", correspondences=self.registry)
        self.at = {
            name: self.session.create_instance(name, user=name, request_timeout=0.05)
            for name in "stc"
        }
        self.kinds = {"s": "homogeneous", "t": self.pair}
        self.real = {side: self.app(side) for side in "st"}
        self.twin = {side: self.app(side) for side in "st"}
        for side in "st":
            self.at[side].add_root(self.real[side])
        self.faults = _Cutter(self.session.server)
        self.session.pump()
        self.renames = 0
        #: The last step was a transfer no fault touched.
        self.clean = False

    def app(self, side):
        root = Shell("app", title="delta")
        fill(Form("form", parent=root), self.kinds[side])
        return root

    def teardown(self):
        self.session.close()

    def transfer(self, fault, run):
        landed = self.at["t"].stats["states_applied"]
        if fault is not None:
            self.faults.copies, self.faults.armed, self.faults.times = fault
        fired = self.faults.fired
        try:
            run()
        except ReproError:
            pass  # a cut leg: timed out
        self.session.pump()
        self.clean = self.faults.fired == fired
        if self.at["t"].stats["states_applied"] > landed:
            apply_state_payload(
                self.twin["t"].child("form"),
                build_state_payload(self.twin["s"].child("form")),
                correspondences=self.registry,
            )

    @rule(edit=EDITS)
    def edit_source(self, edit):
        self.edit("s", *edit)

    @rule(edit=EDITS)
    def edit_target(self, edit):
        rel, attr, value = edit
        if rel == "field":
            attr = TARGET_FIELD[self.pair]
        self.edit("t", rel, attr, value)

    def edit(self, side, rel, attr, value):
        for trees in (self.real, self.twin):
            child(trees[side].child("form"), rel).set(attr, value)

    @rule(fault=faults(PUSH, ACK, RESYNC), drained=st.booleans())
    def copy_to(self, fault, drained):
        """*drained*: the resync round trip a rejected push provokes lands
        before ``copy_to`` records that push, as the loop thread can make
        it on sockets."""
        s = self.at["s"]
        if drained:
            request = s.request

            def request_then_drain(message, *args, **kwargs):
                reply = request(message, *args, **kwargs)
                self.session.pump()
                return reply

            s.request = request_then_drain
        try:
            self.transfer(fault, lambda: s.copy_to(FORM, ("t", FORM)))
        finally:
            s.__dict__.pop("request", None)

    @rule(fault=faults(REPLY, FETCH))
    def copy_from(self, fault):
        self.transfer(fault, lambda: self.at["t"].copy_from(FORM, ("s", FORM)))

    @rule(fault=faults(PUSH, FETCH, RESYNC))
    def remote_copy(self, fault):
        c = self.at["c"]
        self.transfer(fault, lambda: c.remote_copy(("s", FORM), ("t", FORM)))

    @rule(side=SIDES)
    def restructure(self, side):
        self.renames += 1
        for trees in (self.real, self.twin):
            form = trees[side].child("form")
            child(form, "zoom").destroy()
            Scale(f"zoom{self.renames}", parent=form, maximum=100)

    @rule(side=SIDES)
    def destroy_and_recreate(self, side):
        for tree in (self.real[side], self.twin[side]):
            tree.child("form").destroy()
        self.records_name_live_widgets_and_roster_members()
        for tree in (self.real[side], self.twin[side]):
            fill(Form("form", parent=tree), self.kinds[side])
        self.clean = False

    @rule(side=SIDES)
    def leave_and_rejoin(self, side):
        self.at[side].unregister()
        self.session.pump()
        self.records_name_live_widgets_and_roster_members()
        self.at[side].register()
        self.session.pump()
        self.clean = False

    @invariant()
    def target_equals_its_full_transfer_twin(self):
        real, twin = (trees["t"].child("form") for trees in (self.real, self.twin))
        assert subtree_state(real, relevant_only=True) == subtree_state(
            twin, relevant_only=True
        )

    @invariant()
    def records_name_live_widgets_and_roster_members(self):
        for instance in self.at.values():
            continuity = instance.continuity
            for local, remote in [*continuity.sent, *continuity.received]:
                assert instance.find_widget(local) is not None, (local, remote)
                assert remote[0] in instance.roster, (local, remote)

    @invariant()
    def both_ends_of_the_stream_agree_on_its_seq(self):
        """T's seq is one S sent, and S's seqs are never reused, so T is
        never ahead of S's record; after a transfer no fault touched, the
        two are at the same transfer."""
        sent = self.at["s"].continuity.sent.get((FORM, ("t", FORM)))
        received = self.at["t"].continuity.received.get((FORM, ("s", FORM)))
        if self.clean:
            assert sent is not None and received is not None
            assert sent.seq == received.seq
        elif sent is not None and received is not None:
            assert received.seq <= sent.seq


@pytest.mark.parametrize("pair", ["homogeneous", "heterogeneous"])
def test_the_continuity_machine_matches_full_transfers(pair):
    machine = type(f"{pair}Continuity", (DeltaContinuityMachine,), {"pair": pair})
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=100,
            stateful_step_count=50,
            derandomize=True,
            database=None,
            deadline=None,
        ),
    )
