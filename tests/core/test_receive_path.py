"""What one §3.2 delivery costs, counted structurally.

Every receiver of a fan-out runs ``apply_remote_event``, so whatever it
derives is derived once per delivery: these tests pin that it derives
each thing once — no undo snapshot a receiver never rolls back, one
split per path lookup — and that the fixed-shape EVENT_ACK it sends is
the frame the general ``Message`` constructor would have built.
"""

import pytest

from repro.core.instance import ApplicationInstance
from repro.errors import CodecError
from repro.net import kinds
from repro.net.codec import get_codec
from repro.net.message import Message
from repro.session import Session
from repro.toolkit.widget import UndoRecord

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
    [[1, 7], ["a", "7"], ["a", 7.0], ["a", True], ["a"], ["a", 7, 8], "a7", None],
)
def test_event_ack_rejects_a_malformed_owner(owner):
    with pytest.raises(CodecError):
        Message.event_ack("b", owner)
