"""``request_timeout`` at its expiry, on the session's simulated clock.

The requester's reply is held back by wrapping ``network.submit`` and
scheduled to land a hair before or after the request's deadline.
"""

import pytest

from repro.errors import ServerError
from repro.net import kinds
from repro.net.message import Message
from repro.server.couples import gid_to_wire

from conftest import make_demo_tree

FIELD = "/app/form/name"
EPS = 0.01


@pytest.fixture
def trio(session):
    """``a`` owns the source, ``b`` the target, ``c`` asks for a copy."""
    a = session.create_instance("a", user="amy")
    b = session.create_instance("b", user="ben")
    c = session.create_instance("c", user="cat")
    a.add_root(make_demo_tree()).find(FIELD).commit("copied")
    target = b.add_root(make_demo_tree())
    session.pump()
    return session, c, target


def reply_lands_at(session, monkeypatch, requester, when):
    """From now on a reply addressed to *requester* is delivered at
    simulated time ``when()``, every other message as usual."""
    network = session.network
    submit = network.submit

    def delayed(message):
        if message.reply_to is None or message.to != requester:
            submit(message)
            return
        latency = network.base_latency
        network.base_latency = when() - session.clock.now()
        try:
            submit(message)
        finally:
            network.base_latency = latency

    monkeypatch.setattr(network, "submit", delayed)


def remote_copy_request(requester):
    return Message(
        kind=kinds.REMOTE_COPY,
        sender=requester.instance_id,
        payload={
            "source": gid_to_wire(("a", FIELD)),
            "target": gid_to_wire(("b", FIELD)),
            "mode": "strict",
        },
    )


def test_a_reply_just_inside_the_timeout_is_returned(trio, monkeypatch):
    session, c, target = trio
    sent_at = session.clock.now()
    reply_lands_at(
        session, monkeypatch, "c", lambda: sent_at + c.request_timeout - EPS
    )
    reply = c.request(remote_copy_request(c))
    assert reply is not None and reply.kind != kinds.ERROR
    assert session.clock.now() == pytest.approx(sent_at + c.request_timeout - EPS)
    assert c.stats["request_timeouts"] == 0
    assert target.find(FIELD).value == "copied"


def test_a_reply_just_past_the_timeout_is_late(trio, monkeypatch):
    session, c, target = trio
    sent_at = session.clock.now()
    reply_lands_at(
        session, monkeypatch, "c", lambda: sent_at + c.request_timeout + EPS
    )
    assert c.request(remote_copy_request(c)) is None
    assert c.stats["request_timeouts"] == 1
    assert c.stats["late_replies"] == 0
    session.pump()  # the reply still comes, and is counted as late
    assert c.stats["late_replies"] == 1
    assert target.find(FIELD).value == "copied"


def test_remote_copy_raises_when_its_request_times_out(trio, monkeypatch):
    session, c, _ = trio
    sent_at = session.clock.now()
    reply_lands_at(
        session, monkeypatch, "c", lambda: sent_at + c.request_timeout + EPS
    )
    with pytest.raises(ServerError, match="remote_copy timed out"):
        c.remote_copy(("a", FIELD), ("b", FIELD))
    assert c.stats["request_timeouts"] == 1


def test_copy_to_raises_and_its_next_push_is_full(trio, monkeypatch):
    """A push nobody acknowledged in time leaves no delta baseline."""
    session, _, target = trio
    a = session.instances["a"]
    a.copy_to(FIELD, ("b", FIELD))
    session.pump()
    sent_at = session.clock.now()
    reply_lands_at(
        session, monkeypatch, "a", lambda: sent_at + a.request_timeout + EPS
    )
    with pytest.raises(ServerError, match="copy_to timed out"):
        a.copy_to(FIELD, ("b", FIELD))
    session.pump()
    monkeypatch.undo()
    assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (1, 1)
    a.copy_to(FIELD, ("b", FIELD))
    assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (2, 1)
    assert target.find(FIELD).value == "copied"
