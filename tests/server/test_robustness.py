"""Explicit malformed-message handling tests (beyond the fuzz)."""

import pytest

from repro.net import kinds
from repro.net.message import Message
from repro.server.server import SERVER_ID, CosoftServer
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField


class SinkTransport:
    closed = False
    local_id = SERVER_ID

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def drive(self, predicate, timeout=5.0):
        return predicate()

    def close(self):
        pass


@pytest.fixture
def server():
    srv = CosoftServer()
    transport = SinkTransport()
    srv.bind(transport)
    srv.handle_message(
        Message(kind=kinds.REGISTER, sender="a", payload={"user": "u"})
    )
    transport.sent.clear()
    return srv, transport


class TestServerMalformed:
    @pytest.mark.parametrize(
        "kind,payload",
        [
            (kinds.COUPLE, {}),                          # missing endpoints
            (kinds.COUPLE, {"source": "not-a-gid", "target": 3}),
            (kinds.LOCK_REQUEST, {"source": [1]}),       # malformed gid
            (kinds.EVENT, {}),                           # missing event
            (kinds.EVENT, {"event": "not-a-dict"}),
            (kinds.FETCH_STATE, {"object": None}),
            (kinds.PUSH_STATE, {"target": ["only-one"]}),
            (kinds.REMOTE_COPY, {"source": [], "target": []}),
            (kinds.UNDO_REQUEST, {}),
            (kinds.HISTORY_PUSH, {"object": 7}),
            (kinds.PERMISSION_SET, {"rule": {"right": "teleport"}}),
            (kinds.COMMAND, {"targets": "not-a-list"}),
        ],
    )
    def test_garbage_becomes_error_reply(self, server, kind, payload):
        srv, transport = server
        srv.handle_message(Message(kind=kind, sender="a", payload=payload))
        assert transport.sent, f"{kind} with {payload!r} produced no reply"
        assert transport.sent[-1].kind == kinds.ERROR
        assert srv.processed["__rejected__"] >= 1

    def test_server_keeps_working_after_garbage(self, server):
        srv, transport = server
        srv.handle_message(Message(kind=kinds.EVENT, sender="a", payload={}))
        srv.handle_message(
            Message(kind=kinds.REGISTER, sender="b", payload={"user": "v"})
        )
        assert any(m.kind == kinds.REGISTER_ACK for m in transport.sent)
        assert len(srv.registry) == 2

    def test_client_error_for_no_pending_request_is_dropped(self, server):
        """An ERROR from a client answers a forwarded request; one that
        answers nothing pending (late, duplicated) goes nowhere."""
        srv, transport = server
        srv.handle_message(
            Message(
                kind=kinds.ERROR, sender="a", payload={"reason": "x"}, reply_to=999
            )
        )
        assert transport.sent == []
        assert srv.processed[kinds.ERROR] == 1


class TestMalformedEventInLockRequest:
    """A LOCK_REQUEST that carries an event is granted and broadcast in
    one step, so its event is checked before any lock is taken: a bad
    one must not leave a floor nobody will ever release."""

    @pytest.mark.parametrize(
        "event",
        [
            "not-a-dict",
            42,
            {"source_path": "/x"},                          # no type
            {"type": "value_changed"},                      # no source_path
            {"type": 7, "source_path": "/x"},
            {"type": "value_changed", "source_path": "/x", "params": [1, 2]},
        ],
    )
    def test_rejected_before_any_lock_is_taken(self, server, event):
        srv, transport = server
        request = Message(
            kind=kinds.LOCK_REQUEST,
            sender="a",
            payload={"source": ["a", "/x"], "token": 1, "event": event},
        )
        srv.handle_message(request)
        (reply,) = transport.sent
        assert reply.kind == kinds.ERROR and reply.reply_to == request.msg_id
        assert srv.processed["__rejected__"] == 1
        assert len(srv.locks) == 0
        assert srv._floors == {} and srv._pending_acks == {}
        # The server still serves the next, well-formed request.
        transport.sent.clear()
        srv.handle_message(
            Message(
                kind=kinds.LOCK_REQUEST,
                sender="a",
                payload={
                    "source": ["a", "/x"],
                    "token": 2,
                    "event": {"type": "value_changed", "source_path": "/x"},
                },
            )
        )
        (reply,) = transport.sent
        assert reply.kind == kinds.LOCK_REPLY and reply.payload["granted"]
        assert len(srv.locks) == 0  # nobody to wait for: released at once


class TestClientMalformed:
    def test_garbage_broadcast_counted_not_fatal(self):
        session = Session()
        try:
            a = session.create_instance("a", user="u1")
            tree = a.add_root(Shell("ui"))
            TextField("f", parent=tree)
            for payload in (
                {},                                 # no event
                {"event": 42},                      # wrong type
                {"event": {"type": "value_changed", "source_path": "/x"},
                 "targets": 5},                     # bad targets
                {"event": {"no": "type"}},
            ):
                a.handle_message(
                    Message(
                        kind=kinds.EVENT_BROADCAST,
                        sender="server",
                        to="a",
                        payload=payload,
                    )
                )
            assert a.stats["malformed_messages"] == 4
            # The instance still works.
            tree.find("/ui/f").commit("fine")
            assert tree.find("/ui/f").value == "fine"
        finally:
            session.close()

    def test_late_reply_after_timeout_is_dropped(self):
        """A reply arriving after its request timed out must not pile up
        in the pending-replies table."""
        session = Session()
        try:
            a = session.create_instance("a", user="u1")
            a.request_timeout = 0.01
            session.network.partition("server")
            request = Message(
                kind=kinds.FETCH_STATE,
                sender="a",
                payload={"object": ["a", "/x"]},
            )
            assert a.request(request) is None  # times out
            session.network.heal("server")
            # The reply limps in late.
            a.handle_message(
                Message(
                    kind=kinds.STATE_REPLY,
                    sender="server",
                    to="a",
                    payload={"state": {}},
                    reply_to=request.msg_id,
                )
            )
            assert request.msg_id not in a._replies
            assert a.stats["late_replies"] == 1
            assert not a._abandoned  # bookkeeping cleaned up
        finally:
            session.close()

    def test_malformed_reply_still_unblocks_requester(self):
        """Even a garbage-shaped reply must release a blocked request()
        (the reply is stashed before payload parsing)."""
        session = Session()
        try:
            a = session.create_instance("a", user="u1")
            request = Message(
                kind=kinds.FETCH_STATE,
                sender="a",
                payload={"object": ["a", "/nowhere"]},
            )
            # Simulate the server answering with a weird payload.
            a.handle_message(
                Message(
                    kind=kinds.STATE_REPLY,
                    sender="server",
                    to="a",
                    payload={"surprise": True},
                    reply_to=request.msg_id,
                )
            )
            assert request.msg_id in a._replies
        finally:
            session.close()
