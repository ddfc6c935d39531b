"""Differential property of the historical UI states (§2.2).

Random local edits on two forms, full and delta CopyTo / CopyFrom, undo
and redo, on the memory backend, against a reference model of the rule
in docs/PROTOCOL.md ("Undo"): a history record is the pre-image of what
its transfer wrote, and undo writes it back over whatever the form holds
then.  So a local write made since the transfer survives the undo when
the transfer did not write that attribute, and is reverted when it did.
With no write in between, the result is also what a record of the whole
form gives: the form as it was before the transfer.  Redo is the same
rule applied to what the undo overwrote.

The model learns what a transfer wrote from the payload its receiver
applied (the sender's side of the protocol), never from the record.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.session import Session
from repro.toolkit.tree import subtree_state
from repro.toolkit.widgets import Scale, Shell, TextField, ToggleButton

PATH = "/app"
SIDES = ("a", "b")

#: (relative path, attribute, value strategy) of the form below.
WRITABLE = [
    ("field", "value", st.sampled_from(["", "x", "y", "z"])),
    ("zoom", "value", st.integers(min_value=0, max_value=3)),
    ("flag", "set", st.booleans()),
    ("", "title", st.sampled_from(["t", "u"])),
]


def make_tree():
    root = Shell("app", title="t")
    TextField("field", parent=root)
    Scale("zoom", parent=root, maximum=100)
    ToggleButton("flag", parent=root)
    return root


@st.composite
def edits(draw, sides=SIDES):
    side = draw(st.sampled_from(sides))
    rel, attr, values = draw(st.sampled_from(WRITABLE))
    return ("edit", side, rel, attr, draw(values))


@st.composite
def rounds(draw):
    """Edits of one form and a transfer onto the other, once or twice
    (the second a delta, as a rule), then undo / redo of the receiver
    with edits of either form between them."""
    source, receiver = draw(st.permutations(SIDES))
    transfer = st.sampled_from([("copy_to", source), ("copy_from", receiver)])
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        ops += draw(st.lists(edits((source,)), max_size=2))
        ops.append(draw(transfer))
    history = st.tuples(st.sampled_from(["undo", "redo"]), st.just(receiver))
    ops += draw(st.lists(st.one_of(edits(), history), max_size=5))
    return ops


operations = st.lists(rounds(), max_size=5).map(
    lambda rounds: [op for ops in rounds for op in ops]
)


def overlay(state, record):
    """*state* with *record* written over it (what an undo produces)."""
    result = {rel: dict(values) for rel, values in state.items()}
    for rel, values in record.items():
        result[rel].update(values)
    return result


def restrict(state, record):
    """*state* at exactly the paths and attributes *record* writes."""
    return {rel: {a: state[rel][a] for a in values} for rel, values in record.items()}


def server_records(session, gid):
    """The server's undo and redo records of *gid*, oldest first."""
    for obj, stacks in session.server.history.export_state()["objects"]:
        if tuple(obj) == gid:
            return {
                name: [entry["state"] for entry in stacks[name]]
                for name in ("undo", "redo")
            }
    return {"undo": [], "redo": []}


def record_applied(instance, log):
    """Append to *log* the ``state`` of each transfer *instance* applies."""
    apply_transfer = instance._apply_transfer

    def recording(widget, payload, *args, **kwargs):
        report = apply_transfer(widget, payload, *args, **kwargs)
        if report is not None:
            log.append(payload.get("state", {}))
        return report

    instance._apply_transfer = recording


def run(ops):
    session = Session(backend="memory")
    try:
        instances = {
            side: session.create_instance(side, user=f"user-{side}") for side in SIDES
        }
        trees = {side: instances[side].add_root(make_tree()) for side in SIDES}
        session.pump()
        applied = {side: [] for side in SIDES}
        for side in SIDES:
            record_applied(instances[side], applied[side])

        # Per side: undo and redo stacks of (record, form before the
        # operation that made it, form right after).
        model = {name: {side: [] for side in SIDES} for name in ("undo", "redo")}

        def form(side):
            return subtree_state(trees[side], relevant_only=True)

        def check_records():
            """The server keeps exactly the model's records."""
            for side in SIDES:
                kept = server_records(session, instances[side].gid(trees[side]))
                for name, stacks in model.items():
                    assert kept[name] == [record for record, _, _ in stacks[side]]

        for op in ops:
            kind, side = op[0], op[1]
            other = "b" if side == "a" else "a"
            if kind == "edit":
                _, _, rel, attr, value = op
                trees[side].find(rel).set(attr, value)
                continue
            if kind in ("copy_to", "copy_from"):
                receiver = other if kind == "copy_to" else side
                before = form(receiver)
                del applied[receiver][:]
                if kind == "copy_to":
                    instances[side].copy_to(PATH, (other, PATH))
                else:
                    instances[side].copy_from(PATH, (other, PATH))
                session.pump()
                after = form(receiver)
                assert after == form(other if receiver == side else side)
                assert len(applied[receiver]) <= 1
                for written in applied[receiver]:
                    record = restrict(before, written)
                    model["undo"][receiver].append((record, before, after))
                    model["redo"][receiver].clear()
                check_records()
                continue
            # undo / redo
            stack = model[kind]
            inverse = model["redo" if kind == "undo" else "undo"]
            current = form(side)
            restored = getattr(instances[side], kind)(PATH)
            session.pump()
            if not stack[side]:
                assert not restored
                assert form(side) == current
                continue
            assert restored
            record, before, after = stack[side].pop()
            expected = overlay(current, record)
            assert form(side) == expected
            if current == after:
                # Nothing written since: a whole-form record's result.
                assert form(side) == before
            inverse[side].append((restrict(current, record), current, expected))
            check_records()
    finally:
        session.close()


@given(ops=operations)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_undo_and_redo_follow_the_pre_image_rule(ops):
    run(ops)


def test_a_later_write_survives_only_where_the_transfer_did_not_write():
    """The rule's two cases, as one fixed scenario of the property."""
    run(
        [
            ("copy_to", "a"),  # full: every attribute
            ("edit", "a", "field", "value", "x"),
            ("copy_to", "a"),  # delta: field only
            ("edit", "b", "field", "value", "y"),  # the transfer wrote it
            ("edit", "b", "zoom", "value", 3),  # the transfer did not
            ("undo", "b"),
            ("edit", "b", "flag", "set", True),  # the undo did not write it
            ("redo", "b"),
            ("undo", "b"),
            ("undo", "b"),
            ("redo", "b"),
        ]
    )
