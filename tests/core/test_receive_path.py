"""What one §3.2 delivery costs, counted structurally.

Every receiver of a fan-out runs ``apply_remote_event``, so whatever it
derives is derived once per delivery: these tests pin that it derives
each thing once — no undo snapshot a receiver never rolls back, one
split per path lookup — that it keeps nothing once it returns, and that
each lookup and the fixed-shape EVENT_ACK it sends answer what the
general path answers: a pathname resolves to the widget a walk of the
tree finds, whatever changed the tree, and the ack is the frame the
general ``Message`` constructor would have built.
"""

import gc
import tracemalloc

import pytest

from repro.core.instance import ApplicationInstance
from repro.errors import CodecError
from repro.net import kinds
from repro.net.codec import get_codec
from repro.net.message import Message
from repro.session import Session
from repro.toolkit.builder import build, to_spec
from repro.toolkit.widget import UndoRecord, state_clock
from repro.toolkit.widgets import TextField

from conftest import make_demo_tree

FIELD = "/app/form/name"


@pytest.fixture
def trio():
    """Three memory-backed instances with their name fields in one group."""
    session = Session()
    instances = [session.create_instance(n, user=f"user-{n}") for n in "abc"]
    trees = [inst.add_root(make_demo_tree()) for inst in instances]
    for other in "bc":
        instances[0].couple(trees[0].find(FIELD), (other, FIELD))
    session.pump()
    yield session, trees
    session.close()


def test_only_the_source_takes_an_undo(trio, monkeypatch):
    session, trees = trio
    takers = []
    init = UndoRecord.__init__

    def counting(self, widget, saved):
        takers.append(widget.runtime.instance_id)
        init(self, widget, saved)

    monkeypatch.setattr(UndoRecord, "__init__", counting)
    trees[0].find(FIELD).commit("once")
    session.pump()
    assert [tree.find(FIELD).value for tree in trees] == ["once"] * 3
    assert takers == ["a"]


def test_each_target_path_is_split_once(trio, monkeypatch):
    session, trees = trio
    lookups, splits = [], []

    class CountedPath(str):
        def split(self, *args, **kwargs):
            splits.append(str(self))
            return super().split(*args, **kwargs)

    find_widget = ApplicationInstance.find_widget

    def counting(self, pathname):
        lookups.append(pathname)
        return find_widget(self, CountedPath(pathname))

    monkeypatch.setattr(ApplicationInstance, "find_widget", counting)
    trees[0].find(FIELD).commit("once")
    session.pump()
    assert lookups == [FIELD, FIELD]  # one target on each receiver
    assert splits == lookups


def test_lookup_serves_the_new_widget_after_destroy_and_re_add(trio):
    session, trees = trio
    b = session.instances["b"]
    old = b.find_widget(FIELD)
    old.destroy()
    assert b.find_widget(FIELD) is None
    new = TextField("name", parent=trees[1].find("/app/form"))
    assert new is not old
    assert b.find_widget(FIELD) is new


def test_lookup_follows_a_reparented_widget(trio):
    session, trees = trio
    b = session.instances["b"]
    field = b.find_widget(FIELD)
    field.parent.remove_child(field)
    trees[1].find("/app/board").add_child(field)
    assert b.find_widget(FIELD) is None
    assert b.find_widget("/app/board/name") is field


def test_lookup_follows_a_replaced_subtree_and_a_new_root(trio):
    session, trees = trio
    b = session.instances["b"]
    form = b.find_widget("/app/form")
    spec = to_spec(form)
    form.destroy()
    assert b.find_widget(FIELD) is None
    rebuilt = build(spec, trees[1])
    assert b.find_widget("/app/form") is rebuilt
    assert b.find_widget(FIELD) is rebuilt.child("name")
    # A root adopted after a miss is found: nothing per instance
    # remembers the miss.
    assert b.find_widget("/other/form/name") is None
    other = b.add_root(make_demo_tree("other"))
    assert b.find_widget("/other/form/name") is other.find("/other/form/name")


@pytest.mark.parametrize(
    ("pathname", "expected"),
    [
        (FIELD, FIELD),
        ("/app//form/name", FIELD),
        ("/app/form/name/", FIELD),
        ("//app/form/name", FIELD),
        ("app/form/name", FIELD),
        ("/app", "/app"),
        ("/app/", "/app"),
        ("/", None),
        ("", None),
        ("/app/form/nope", None),
        ("/nope/form/name", None),
    ],
)
def test_any_spelling_resolves_as_a_walk_of_the_tree(trio, pathname, expected):
    session, trees = trio
    b = session.instances["b"]
    found = b.find_widget(pathname)
    assert found is (None if expected is None else trees[1].find(expected))


def test_acks_on_the_wire_match_the_general_constructor(trio, monkeypatch):
    session, trees = trio
    submit = session.network.submit
    acks = []

    def capture(message):
        if message.kind == kinds.EVENT_ACK:
            acks.append(message)
        submit(message)

    monkeypatch.setattr(session.network, "submit", capture)
    trees[0].find(FIELD).commit("once")
    session.pump()
    assert sorted(ack.sender for ack in acks) == ["b", "c"]
    codec = get_codec("json")
    for ack in acks:
        general = Message(
            kind=kinds.EVENT_ACK,
            sender=ack.sender,
            payload={"owner": list(ack.payload["owner"])},
            trace=ack.trace,
            msg_id=ack.msg_id,
        )
        assert codec.encode(ack) == codec.encode(general)
    assert len(session.server.locks) == 0


@pytest.mark.parametrize("codec", ["json", "binary"])
@pytest.mark.parametrize(
    "trace", [None, ("0123456789abcdef", "span-é")], ids=["untraced", "traced"]
)
@pytest.mark.parametrize(
    "owner_id",
    ["i00", 'say "hi"', "back\\slash", "über-日本", "tab\there"],
    ids=["plain", "quote", "backslash", "non-ascii", "control"],
)
def test_event_ack_frame_is_byte_identical(owner_id, trace, codec):
    ack = Message.event_ack("réceiver", [owner_id, 41], trace=trace)
    general = Message(
        kind=kinds.EVENT_ACK,
        sender="réceiver",
        payload={"owner": [owner_id, 41]},
        trace=trace,
        msg_id=ack.msg_id,
    )
    assert ack == general
    assert ack.wire_body() == general.wire_body()
    assert get_codec(codec).encode(ack) == get_codec(codec).encode(general)


@pytest.mark.parametrize(
    "owner",
    [
        [1, 7],
        ["a", "7"],
        ["a", 7.0],
        ["a", True],
        ["a"],
        ["a", 7, 8],
        "a7",
        None,
        ("a", "7"),
        {"a": 7, "b": 8},
    ],
)
def test_event_ack_rejects_a_malformed_owner(owner):
    with pytest.raises(CodecError):
        Message.event_ack("b", owner)


def test_state_clock_and_versions_increase_on_every_write():
    field = TextField("f")
    before = state_clock()
    field.set("value", "one")
    first = field.attribute_version("value")
    field.set("value", "two")
    second = field.attribute_version("value")
    assert before < first < second == state_clock()


def test_a_delivery_leaves_nothing_behind():
    """Once a delivery returns, nothing it allocated is still referenced.

    An 8-member group's traced memory grows per action only by the
    source's input log (one event, ~465 B).  A receiver that kept each
    delivered event would add ~320 B per delivery, ~2.7 KiB per action
    in all.
    """
    actions = 400
    with Session() as session:
        instances = [session.create_instance(f"m{n}", user=f"u{n}") for n in range(8)]
        trees = [inst.add_root(make_demo_tree()) for inst in instances]
        for n in range(1, 8):
            instances[0].couple(trees[0].find(FIELD), (f"m{n}", FIELD))
        session.pump()
        field = trees[0].find(FIELD)
        for n in range(50):  # warm-up: caches and free lists fill
            field.commit(f"warm-{n}")
            session.pump()
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(actions):
                field.commit(f"v{n}")
                session.pump()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert [tree.find(FIELD).value for tree in trees] == [f"v{actions - 1}"] * 8
        assert retained / actions <= 1024
        assert [len(inst.trace) for inst in instances] == [450] + [0] * 7
