"""Protocol-level tests of the sans-I/O central server.

A fake transport collects everything the server sends, so each handler can
be asserted message by message, without a network.
"""

import dataclasses

import pytest

from repro.net import binary, kinds
from repro.net import message as message_module
from repro.net.clock import SimClock
from repro.net.codec import encode
from repro.net.memory import MemoryNetwork
from repro.net.message import Message
from repro.obs import Observability
from repro.server.couples import gid_to_wire, global_id
from repro.server.permissions import AccessControl, PermissionRule
from repro.server.server import SERVER_ID, CosoftServer
from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED
from repro.toolkit.widgets import TextField

from conftest import floor_free, record_executions, settle, two_message_fire


class FakeTransport:
    def __init__(self):
        self.sent = []
        self.closed = False

    @property
    def local_id(self):
        return SERVER_ID

    def send(self, message):
        self.sent.append(message)

    def drive(self, predicate, timeout=5.0):
        return predicate()

    def close(self):
        self.closed = True

    def take(self):
        out, self.sent = self.sent, []
        return out


@pytest.fixture
def server():
    srv = CosoftServer(clock=SimClock())
    transport = FakeTransport()
    srv.bind(transport)
    return srv, transport


def register(srv, transport, instance_id, user=None, app_type=""):
    srv.handle_message(
        Message(
            kind=kinds.REGISTER,
            sender=instance_id,
            payload={"user": user or instance_id, "app_type": app_type},
        )
    )
    return transport.take()


A_OBJ = global_id("a", "/app/x")
B_OBJ = global_id("b", "/app/x")
C_OBJ = global_id("c", "/app/x")


def couple(srv, sender, source, target, kind=kinds.COUPLE):
    msg = Message(
        kind=kind,
        sender=sender,
        payload={"source": gid_to_wire(source), "target": gid_to_wire(target)},
    )
    srv.handle_message(msg)
    return msg


class TestRegistration:
    def test_register_ack_contains_roster_and_couples(self, server):
        srv, transport = server
        out = register(srv, transport, "a", user="alice")
        assert out[0].kind == kinds.REGISTER_ACK
        assert out[0].to == "a"
        assert out[0].payload["roster"][0]["user"] == "alice"
        assert out[0].payload["version"] == 1
        assert out[0].payload["couples"] == []

    def test_second_register_broadcasts_roster(self, server):
        srv, transport = server
        register(srv, transport, "a")
        out = register(srv, transport, "b", user="bob")
        kinds_to = [(m.kind, m.to) for m in out]
        assert (kinds.REGISTER_ACK, "b") in kinds_to
        assert (kinds.INSTANCE_LIST, "a") in kinds_to
        # The joiner is owed the whole roster; a is told the one record.
        ack, delta = out
        assert [r["instance_id"] for r in ack.payload["roster"]] == ["a", "b"]
        assert ack.payload["version"] == 2
        assert delta.payload == {
            "joined": "b",
            "record": {
                "user": "bob",
                "host": "localhost",
                "app_type": "",
                "registered_at": srv.registry.get("b").registered_at,
            },
            "version": 2,
        }

    def test_double_register_errors(self, server):
        srv, transport = server
        register(srv, transport, "a")
        out = register(srv, transport, "a")
        assert out[0].kind == kinds.ERROR

    def test_unregister_cleans_everything(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        couple(srv, "a", A_OBJ, B_OBJ)
        transport.take()
        srv.handle_message(Message(kind=kinds.UNREGISTER, sender="a"))
        out = transport.take()
        # b hears about the removed link and the new roster.
        assert any(
            m.kind == kinds.COUPLE_UPDATE and m.payload["action"] == "remove"
            for m in out
        )
        assert [m.payload for m in out if m.kind == kinds.INSTANCE_LIST] == [
            {"left": "a", "version": 3}
        ]
        assert len(srv.registry) == 1
        assert len(srv.couples) == 0

    def test_unregister_unknown_errors(self, server):
        srv, transport = server
        srv.handle_message(Message(kind=kinds.UNREGISTER, sender="ghost"))
        assert transport.take()[0].kind == kinds.ERROR


class TestCoupling:
    def test_couple_reaches_the_group_only(self, server):
        srv, transport = server
        for inst in ("a", "b", "c"):
            register(srv, transport, inst)
        couple(srv, "a", A_OBJ, B_OBJ)
        out = transport.take()
        updates = [m for m in out if m.kind == kinds.COUPLE_UPDATE]
        # "c" holds no member of the group: not its business (§3.2).
        assert sorted(m.to for m in updates) == ["a", "b"]
        # The requester's copy is a correlated reply.
        requester_copy = [m for m in updates if m.to == "a"][0]
        assert requester_copy.reply_to is not None
        group = requester_copy.payload["group"]
        assert sorted(tuple(g) for g in group) == sorted(
            [tuple(gid_to_wire(A_OBJ)), tuple(gid_to_wire(B_OBJ))]
        )
        # Only there: b computes the closure from the link.
        peer_copy = [m for m in updates if m.to == "b"][0]
        assert "group" not in peer_copy.payload

    def test_couple_to_unregistered_instance_errors(self, server):
        srv, transport = server
        register(srv, transport, "a")
        couple(srv, "a", A_OBJ, global_id("ghost", "/x"))
        assert transport.take()[0].kind == kinds.ERROR
        assert len(srv.couples) == 0

    def test_couple_permission_denied(self, server):
        srv, transport = server
        srv.access = AccessControl(default_allow=False)
        register(srv, transport, "a", user="alice")
        register(srv, transport, "b")
        couple(srv, "a", A_OBJ, B_OBJ)
        out = transport.take()
        assert out[0].kind == kinds.ERROR
        assert "alice" in out[0].payload["reason"]

    def test_remote_couple_by_third_party(self, server):
        srv, transport = server
        for inst in ("a", "b", "c"):
            register(srv, transport, inst)
        couple(srv, "c", A_OBJ, B_OBJ, kind=kinds.REMOTE_COUPLE)
        assert srv.couples.has_link(A_OBJ, B_OBJ)

    def test_decouple_removes_and_broadcasts(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        couple(srv, "a", A_OBJ, B_OBJ)
        transport.take()
        couple(srv, "a", A_OBJ, B_OBJ, kind=kinds.DECOUPLE)
        out = transport.take()
        removals = [
            m
            for m in out
            if m.kind == kinds.COUPLE_UPDATE and m.payload["action"] == "remove"
        ]
        assert {m.to for m in removals} == {"a", "b"}
        assert len(srv.couples) == 0

    def test_decouple_missing_link_errors(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        couple(srv, "a", A_OBJ, B_OBJ, kind=kinds.DECOUPLE)
        assert transport.take()[0].kind == kinds.ERROR

    def test_subtree_decouple_on_destroy(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        inner = global_id("a", "/app/x/deep")
        couple(srv, "a", inner, B_OBJ)
        transport.take()
        srv.handle_message(
            Message(
                kind=kinds.DECOUPLE,
                sender="a",
                payload={"object": gid_to_wire(global_id("a", "/app/x"))},
            )
        )
        assert len(srv.couples) == 0

    def test_subtree_decouple_noop_confirms(self, server):
        srv, transport = server
        register(srv, transport, "a")
        srv.handle_message(
            Message(
                kind=kinds.DECOUPLE,
                sender="a",
                payload={"object": gid_to_wire(A_OBJ)},
            )
        )
        out = transport.take()
        assert out[0].kind == kinds.COUPLE_UPDATE
        assert out[0].payload["action"] == "noop"


class TestFloorControl:
    def _lock(self, srv, sender, obj, token=1):
        srv.handle_message(
            Message(
                kind=kinds.LOCK_REQUEST,
                sender=sender,
                payload={"source": gid_to_wire(obj), "token": token},
            )
        )

    def test_lock_grants_whole_group(self, server):
        srv, transport = server
        for inst in ("a", "b", "c"):
            register(srv, transport, inst)
        couple(srv, "a", A_OBJ, B_OBJ)
        couple(srv, "b", B_OBJ, C_OBJ)
        transport.take()
        self._lock(srv, "a", A_OBJ)
        reply = transport.take()[0]
        assert reply.kind == kinds.LOCK_REPLY
        assert reply.payload["granted"]
        assert len(reply.payload["group"]) == 3
        assert len(srv.locks) == 3

    def test_conflicting_lock_denied_with_conflicts(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        couple(srv, "a", A_OBJ, B_OBJ)
        transport.take()
        self._lock(srv, "a", A_OBJ, token=1)
        transport.take()
        self._lock(srv, "b", B_OBJ, token=1)
        reply = transport.take()[0]
        assert not reply.payload["granted"]
        assert reply.payload["conflicts"]

    def test_unlock_releases_floor(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        couple(srv, "a", A_OBJ, B_OBJ)
        transport.take()
        self._lock(srv, "a", A_OBJ, token=5)
        transport.take()
        srv.handle_message(
            Message(kind=kinds.UNLOCK, sender="a", payload={"token": 5})
        )
        assert len(srv.locks) == 0
        self._lock(srv, "b", B_OBJ)
        assert transport.take()[0].payload["granted"]

    def test_renewal_after_a_shrunk_group_frees_what_it_lost(self, server):
        """A duplicate LOCK_REQUEST after a decouple renews the floor on
        the smaller group; the object that left is unlocked with it, so
        the owner's UNLOCK frees everything."""
        srv, transport = server
        for inst in ("a", "b", "c"):
            register(srv, transport, inst)
        couple(srv, "a", A_OBJ, B_OBJ)
        couple(srv, "a", A_OBJ, C_OBJ)
        self._lock(srv, "a", A_OBJ, token=1)
        srv.handle_message(
            Message(
                kind=kinds.DECOUPLE, sender="a",
                payload={"source": gid_to_wire(A_OBJ), "target": gid_to_wire(C_OBJ)},
            )
        )
        self._lock(srv, "a", A_OBJ, token=1)  # e.g. a network duplicate
        srv.handle_message(
            Message(kind=kinds.UNLOCK, sender="a", payload={"token": 1})
        )
        assert srv.floors == {} and len(srv.locks) == 0
        transport.take()
        self._lock(srv, "c", C_OBJ)
        assert transport.take()[0].payload["granted"]

    def test_unregister_counts_the_floors_it_frees(self, server):
        srv, transport = server
        register(srv, transport, "a")
        self._lock(srv, "a", A_OBJ)
        srv.handle_message(Message(kind=kinds.UNREGISTER, sender="a", payload={}))
        assert srv.floors == {} and len(srv.locks) == 0
        assert srv.stats()["lock_stats"]["releases"] == 1

    def test_a_renewed_floor_keeps_one_span(self, server):
        srv, transport = server
        obs = Observability()
        srv.configure_observability(obs)
        register(srv, transport, "a")
        for kind in (kinds.LOCK_REQUEST, kinds.LOCK_REQUEST, kinds.UNLOCK):
            srv.handle_message(
                Message(
                    kind=kind, sender="a",
                    payload={"source": gid_to_wire(A_OBJ), "token": 1},
                    trace=(obs.spans.new_trace_id(), "client"),
                )
            )
        (held,) = [s for s in obs.spans.spans() if s.name == "server.floor_held"]
        assert held.end is not None

    def test_uncoupled_lock_is_singleton_group(self, server):
        srv, transport = server
        register(srv, transport, "a")
        self._lock(srv, "a", A_OBJ)
        reply = transport.take()[0]
        assert reply.payload["granted"]
        assert len(reply.payload["group"]) == 1


class TestEventBroadcast:
    def _setup_group(self, srv, transport):
        for inst in ("a", "b", "c"):
            register(srv, transport, inst)
        couple(srv, "a", A_OBJ, B_OBJ)
        couple(srv, "a", A_OBJ, C_OBJ)
        transport.take()

    def _send_event(self, srv, token=1, release=True):
        event_wire = {
            "type": "value_changed",
            "source_path": "/app/x",
            "params": {"value": "v"},
            "user": "alice",
            "instance_id": "a",
            "seq": 1,
        }
        srv.handle_message(
            Message(
                kind=kinds.EVENT,
                sender="a",
                payload={"event": event_wire, "token": token, "release": release},
            )
        )

    def test_event_broadcast_to_other_members_only(self, server):
        srv, transport = server
        self._setup_group(srv, transport)
        srv.handle_message(
            Message(
                kind=kinds.LOCK_REQUEST,
                sender="a",
                payload={"source": gid_to_wire(A_OBJ), "token": 1},
            )
        )
        transport.take()
        self._send_event(srv, token=1)
        out = transport.take()
        broadcasts = [m for m in out if m.kind == kinds.EVENT_BROADCAST]
        assert {m.to for m in broadcasts} == {"b", "c"}
        assert broadcasts[0].payload["targets"] == ["/app/x"]
        assert broadcasts[0].payload["owner"] == ["a", 1]
        # The floor is held until every receiver acknowledges (§3.2:
        # unlocked "when the processing of this event is completed").
        assert len(srv.locks) == 3
        srv.handle_message(
            Message(kind=kinds.EVENT_ACK, sender="b", payload={"owner": ["a", 1]})
        )
        assert len(srv.locks) == 3
        srv.handle_message(
            Message(kind=kinds.EVENT_ACK, sender="c", payload={"owner": ["a", 1]})
        )
        assert len(srv.locks) == 0

    def test_event_without_lock_uses_current_group(self, server):
        srv, transport = server
        self._setup_group(srv, transport)
        self._send_event(srv, token=99)
        broadcasts = [
            m for m in transport.take() if m.kind == kinds.EVENT_BROADCAST
        ]
        assert {m.to for m in broadcasts} == {"b", "c"}

    def test_event_with_release_false_keeps_locks(self, server):
        srv, transport = server
        self._setup_group(srv, transport)
        srv.handle_message(
            Message(
                kind=kinds.LOCK_REQUEST,
                sender="a",
                payload={"source": gid_to_wire(A_OBJ), "token": 1},
            )
        )
        transport.take()
        self._send_event(srv, token=1, release=False)
        assert len(srv.locks) == 3


class TestTwoMessageInterop:
    """Clients pack the event into the LOCK_REQUEST; a client that still
    sends LOCK_REQUEST, then EVENT is served by the same fan-out."""

    EVENT_WIRE = {
        "type": "value_changed",
        "source_path": "/app/x",
        "params": {"value": "v"},
        "user": "alice",
        "instance_id": "a",
        "seq": 1,
    }

    def _broadcast_frames(self, *requests):
        """EVENT_BROADCAST frames a fresh 3-member group emits for *requests*."""
        srv = CosoftServer(clock=SimClock())
        transport = FakeTransport()
        srv.bind(transport)
        for inst in ("a", "b", "c"):
            register(srv, transport, inst)
        couple(srv, "a", A_OBJ, B_OBJ)
        couple(srv, "a", A_OBJ, C_OBJ)
        transport.take()
        for kind, payload in requests:
            srv.handle_message(Message(kind=kind, sender="a", payload=payload))
        out = transport.take()
        assert [m.kind for m in out if m.kind != kinds.EVENT_BROADCAST] == [
            kinds.LOCK_REPLY
        ]
        assert len(srv.locks) == 3
        assert {k: f.pending_acks for k, f in srv.floors.items()} == {
            ("a", 1): {"b", "c"}
        }
        for receiver in ("b", "c"):
            srv.handle_message(
                Message(
                    kind=kinds.EVENT_ACK, sender=receiver,
                    payload={"owner": ["a", 1]},
                )
            )
        assert len(srv.locks) == 0 and srv.floors == {}
        # msg_id is a process-wide counter; everything else is the frame.
        return [
            (m.to, encode(dataclasses.replace(m, msg_id=0)))
            for m in out
            if m.kind == kinds.EVENT_BROADCAST
        ]

    def test_broadcast_frames_are_byte_identical(self):
        source = gid_to_wire(A_OBJ)
        two = self._broadcast_frames(
            (kinds.LOCK_REQUEST, {"source": source, "token": 1}),
            (kinds.EVENT, {"event": dict(self.EVENT_WIRE), "token": 1,
                           "release": True}),
        )
        one = self._broadcast_frames(
            (kinds.LOCK_REQUEST,
             {"source": source, "token": 1, "event": dict(self.EVENT_WIRE)}),
        )
        assert [to for to, _ in one] == ["b", "c"]
        assert one == two

    def test_denied_request_broadcasts_nothing(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        couple(srv, "a", A_OBJ, B_OBJ)
        srv.handle_message(
            Message(
                kind=kinds.LOCK_REQUEST, sender="b",
                payload={"source": gid_to_wire(B_OBJ), "token": 9},
            )
        )
        transport.take()
        srv.handle_message(
            Message(
                kind=kinds.LOCK_REQUEST, sender="a",
                payload={
                    "source": gid_to_wire(A_OBJ), "token": 1,
                    "event": dict(self.EVENT_WIRE),
                },
            )
        )
        (reply,) = transport.take()
        assert reply.kind == kinds.LOCK_REPLY and not reply.payload["granted"]
        assert srv.routing.events == 0
        assert list(srv.floors) == [("b", 9)]

    @pytest.mark.parametrize("backend", ["memory", "tcp", "aio"])
    def test_mixed_fleet_in_one_couple_group(self, backend):
        """``new`` commits through the library, ``old`` by hand in two
        messages: each re-executes the other's events, in order, and
        every floor is released."""
        with Session(backend=backend) as session:
            new = session.create_instance("new", user="n")
            old = session.create_instance("old", user="o")
            f_new = new.add_root(TextField("f"))
            f_old = old.add_root(TextField("f"))
            executed = [record_executions(f_new), record_executions(f_old)]
            new.couple(f_new, old.gid(f_old))
            assert settle(session, lambda: old.is_coupled(f_old))
            for i in range(3):
                f_new.commit(f"new-{i}", user="n")
                assert not new.last_execution.lock_denied
                assert settle(session, lambda: f_old.value == f"new-{i}")
                assert two_message_fire(
                    old, f_old, VALUE_CHANGED, user="o", value=f"old-{i}"
                )
                assert settle(session, lambda: f_new.value == f"old-{i}")
            expected = [
                (user, f"{who}-{i}")
                for i in range(3)
                for user, who in (("n", "new"), ("o", "old"))
            ]
            # Both replicas executed the same events (user, seq, params).
            assert executed[0] == executed[1]
            assert [(user, p["value"]) for user, _, p in executed[0]] == expected
            assert floor_free(session)
            assert session.server.floors == {}
            assert session.server.processed[kinds.EVENT] == 3
            assert session.server.processed[kinds.LOCK_REQUEST] == 6


class TestEventFanoutSharing:
    """One §3.2 action pays receiver-independent costs once: receivers
    with equal target lists get one message re-addressed, so they share
    one payload dict and its per-codec encodings."""

    SENDER = "s"
    RECEIVERS = tuple(f"r{i}" for i in range(8))
    EVENT_WIRE = {
        "type": "value_changed",
        "source_path": "/app/x",
        "params": {"value": "v"},
        "user": "alice",
        "instance_id": "s",
        "seq": 1,
    }

    def _couple_all(self, srv, members):
        """Couple s:/app/x with every ``instance -> paths`` of *members*."""
        source = global_id(self.SENDER, "/app/x")
        for instance_id in (self.SENDER, *members):
            srv.handle_message(
                Message(
                    kind=kinds.REGISTER,
                    sender=instance_id,
                    payload={"user": instance_id, "app_type": ""},
                )
            )
        for instance_id, paths in members.items():
            for path in paths:
                couple(srv, self.SENDER, source, global_id(instance_id, path))

    def _fire(self, srv, *, lock=True, trace=None):
        if lock:
            srv.handle_message(
                Message(
                    kind=kinds.LOCK_REQUEST,
                    sender=self.SENDER,
                    payload={
                        "source": gid_to_wire(global_id(self.SENDER, "/app/x")),
                        "token": 7,
                    },
                )
            )
        srv.handle_message(
            Message(
                kind=kinds.EVENT,
                sender=self.SENDER,
                payload={"event": dict(self.EVENT_WIRE), "token": 7},
                trace=trace,
            )
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_equal_target_lists_serialize_once(self, server, monkeypatch, traced):
        srv, transport = server
        if traced:
            srv.configure_observability(Observability())
        self._couple_all(srv, {r: ["/app/x"] for r in self.RECEIVERS})
        transport.take()
        dumped = []
        real_dumps = message_module._dumps

        def spy(value):
            dumped.append(value)
            return real_dumps(value)

        monkeypatch.setattr(message_module, "_dumps", spy)
        self._fire(srv, trace=("t1", "s1") if traced else None)
        broadcasts = [m for m in transport.take() if m.kind == kinds.EVENT_BROADCAST]
        assert sum("targets" in value for value in dumped) == 1
        # What depends on the receiver lives on the Message, not the payload.
        assert [m.to for m in broadcasts] == list(self.RECEIVERS)
        assert len({m.msg_id for m in broadcasts}) == len(self.RECEIVERS)
        for m in broadcasts:
            assert m.payload == {
                "event": self.EVENT_WIRE,
                "targets": ["/app/x"],
                "owner": [self.SENDER, 7],
            }
        traces = {m.trace for m in broadcasts}
        assert len(traces) == 1
        if traced:
            (trace,) = traces
            assert trace[0] == "t1"
        else:
            assert traces == {None}

    @pytest.mark.parametrize("lock", [True, False])
    def test_each_receiver_gets_exactly_its_own_targets(self, server, lock):
        srv, transport = server
        members = {
            "one": ["/app/x"],
            "two": ["/app/x", "/app/y"],
            "other": ["/app/x", "/app/z"],
            "twin": ["/app/x", "/app/y"],
        }
        self._couple_all(srv, members)
        transport.take()
        self._fire(srv, lock=lock)
        by_receiver = {
            m.to: m.payload for m in transport.take() if m.kind == kinds.EVENT_BROADCAST
        }
        assert {to: p["targets"] for to, p in by_receiver.items()} == members
        assert by_receiver["two"] is by_receiver["twin"]
        distinct = {id(p) for p in by_receiver.values()}
        assert len(distinct) == 3

    def test_binary_codec_encodes_the_payload_once(self, monkeypatch):
        """Same count for the binary blob: the memory network prices
        every message by encoding it with the deployment's codec."""
        network = MemoryNetwork(codec="binary")
        srv = CosoftServer(clock=network.clock)
        srv.bind(network.attach(SERVER_ID, srv.handle_message))
        inboxes = {r: [] for r in (self.SENDER, *self.RECEIVERS)}
        for instance_id, inbox in inboxes.items():
            network.attach(instance_id, inbox.append)
        self._couple_all(srv, {r: ["/app/x"] for r in self.RECEIVERS})
        network.pump()
        encoded = []
        real_blob = binary._payload_blob

        def spy(message):
            encoded.append(message.payload)
            return real_blob(message)

        monkeypatch.setattr(binary, "_payload_blob", spy)
        self._fire(srv)
        network.pump()
        encoded = [value for value in encoded if "targets" in value]
        assert len(encoded) == 1
        for r in self.RECEIVERS:
            (broadcast,) = [m for m in inboxes[r] if m.kind == kinds.EVENT_BROADCAST]
            assert broadcast.payload is encoded[0]


class TestStateMediation:
    def test_fetch_state_forwarded_and_reply_routed(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        fetch = Message(
            kind=kinds.FETCH_STATE,
            sender="a",
            payload={"object": gid_to_wire(B_OBJ)},
        )
        srv.handle_message(fetch)
        forwarded = transport.take()[0]
        assert forwarded.kind == kinds.FETCH_STATE
        assert forwarded.to == "b"
        # Owner answers.
        srv.handle_message(
            Message(
                kind=kinds.STATE_REPLY,
                sender="b",
                payload={"state": {"": {"v": 1}}},
                reply_to=forwarded.msg_id,
            )
        )
        routed = transport.take()[0]
        assert routed.kind == kinds.STATE_REPLY
        assert routed.to == "a"
        assert routed.reply_to == fetch.msg_id

    def test_fetch_state_owner_error_routed_back(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        fetch = Message(
            kind=kinds.FETCH_STATE,
            sender="a",
            payload={"object": gid_to_wire(B_OBJ)},
        )
        srv.handle_message(fetch)
        forwarded = transport.take()[0]
        srv.handle_message(
            Message(
                kind=kinds.ERROR,
                sender="b",
                payload={"reason": "no such object"},
                reply_to=forwarded.msg_id,
            )
        )
        routed = transport.take()[0]
        assert routed.kind == kinds.ERROR
        assert routed.to == "a"
        assert routed.reply_to == fetch.msg_id

    def test_pending_fetch_fails_fast_when_owner_leaves(self, server):
        """A forwarded fetch whose owner unregisters is failed back to the
        requester immediately (no leaked route, no requester timeout)."""
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        fetch = Message(
            kind=kinds.FETCH_STATE,
            sender="a",
            payload={"object": gid_to_wire(B_OBJ)},
        )
        srv.handle_message(fetch)
        transport.take()
        srv.handle_message(Message(kind=kinds.UNREGISTER, sender="b"))
        out = transport.take()
        errors = [m for m in out if m.kind == kinds.ERROR]
        assert errors and errors[0].to == "a"
        assert errors[0].reply_to == fetch.msg_id
        assert srv._pending == {}

    def test_fetch_from_unregistered_owner_errors(self, server):
        srv, transport = server
        register(srv, transport, "a")
        srv.handle_message(
            Message(
                kind=kinds.FETCH_STATE,
                sender="a",
                payload={"object": gid_to_wire(global_id("ghost", "/x"))},
            )
        )
        assert transport.take()[0].kind == kinds.ERROR

    def test_fetch_read_permission_enforced(self, server):
        srv, transport = server
        srv.access = AccessControl(default_allow=False)
        register(srv, transport, "a", user="alice")
        register(srv, transport, "b")
        srv.handle_message(
            Message(
                kind=kinds.FETCH_STATE,
                sender="a",
                payload={"object": gid_to_wire(B_OBJ)},
            )
        )
        assert transport.take()[0].kind == kinds.ERROR

    def test_push_state_forwarded_with_ack(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        push = Message(
            kind=kinds.PUSH_STATE,
            sender="a",
            payload={
                "target": gid_to_wire(B_OBJ),
                "state": {"": {"v": 2}},
                "mode": "strict",
            },
        )
        srv.handle_message(push)
        out = transport.take()
        assert out[0].kind == kinds.PUSH_STATE and out[0].to == "b"
        assert out[1].kind == kinds.STATE_REPLY and out[1].reply_to == push.msg_id

    def test_remote_copy_two_hop_flow(self, server):
        srv, transport = server
        for inst in ("a", "b", "c"):
            register(srv, transport, inst)
        remote = Message(
            kind=kinds.REMOTE_COPY,
            sender="c",
            payload={
                "source": gid_to_wire(A_OBJ),
                "target": gid_to_wire(B_OBJ),
                "mode": "merge",
            },
        )
        srv.handle_message(remote)
        fetch = transport.take()[0]
        assert fetch.kind == kinds.FETCH_STATE and fetch.to == "a"
        srv.handle_message(
            Message(
                kind=kinds.STATE_REPLY,
                sender="a",
                payload={"state": {"": {"v": 1}}, "structure": None},
                reply_to=fetch.msg_id,
            )
        )
        out = transport.take()
        push = [m for m in out if m.kind == kinds.PUSH_STATE][0]
        assert push.to == "b"
        assert push.payload["mode"] == "merge"
        assert push.payload["target"] == gid_to_wire(B_OBJ)
        ack = [m for m in out if m.kind == kinds.STATE_REPLY][0]
        assert ack.to == "c" and ack.reply_to == remote.msg_id


class TestHistoryAndUndo:
    def test_history_push_and_undo(self, server):
        srv, transport = server
        register(srv, transport, "a")
        srv.handle_message(
            Message(
                kind=kinds.HISTORY_PUSH,
                sender="a",
                payload={
                    "object": gid_to_wire(A_OBJ),
                    "state": {"": {"v": "old"}},
                    "reason": "push_state",
                },
            )
        )
        undo = Message(
            kind=kinds.UNDO_REQUEST,
            sender="a",
            payload={
                "object": gid_to_wire(A_OBJ),
                "current_state": {"": {"v": "new"}},
            },
        )
        srv.handle_message(undo)
        reply = transport.take()[0]
        assert reply.kind == kinds.UNDO_REPLY
        assert reply.payload["state"] == {"": {"v": "old"}}

    def test_undo_empty_history_errors(self, server):
        srv, transport = server
        register(srv, transport, "a")
        srv.handle_message(
            Message(
                kind=kinds.UNDO_REQUEST,
                sender="a",
                payload={"object": gid_to_wire(A_OBJ)},
            )
        )
        assert transport.take()[0].kind == kinds.ERROR


class TestCommands:
    def test_command_fanout_excludes_sender(self, server):
        srv, transport = server
        for inst in ("a", "b", "c"):
            register(srv, transport, inst)
        srv.handle_message(
            Message(
                kind=kinds.COMMAND,
                sender="a",
                payload={"command": "ping", "data": 1, "targets": []},
            )
        )
        out = transport.take()
        assert {m.to for m in out} == {"b", "c"}
        assert all(m.payload["origin"] == "a" for m in out)

    def test_command_targeted(self, server):
        srv, transport = server
        for inst in ("a", "b", "c"):
            register(srv, transport, inst)
        srv.handle_message(
            Message(
                kind=kinds.COMMAND,
                sender="a",
                payload={"command": "ping", "data": 1, "targets": ["b"]},
            )
        )
        out = transport.take()
        assert [m.to for m in out] == ["b"]

    def test_command_reply_routed_to_origin(self, server):
        srv, transport = server
        register(srv, transport, "a")
        register(srv, transport, "b")
        srv.handle_message(
            Message(
                kind=kinds.COMMAND_REPLY,
                sender="b",
                payload={"data": 42, "origin": "a", "origin_msg_id": 7},
            )
        )
        out = transport.take()[0]
        assert out.to == "a"
        assert out.reply_to == 7
        assert out.payload["responder"] == "b"

    def test_command_to_unknown_target_errors(self, server):
        srv, transport = server
        register(srv, transport, "a")
        srv.handle_message(
            Message(
                kind=kinds.COMMAND,
                sender="a",
                payload={"command": "ping", "targets": ["ghost"]},
            )
        )
        assert transport.take()[0].kind == kinds.ERROR


class TestPermissionManagement:
    def test_own_instance_rules_allowed(self, server):
        srv, transport = server
        register(srv, transport, "a", user="alice")
        rule = PermissionRule("*", "a", "/app", "read")
        srv.handle_message(
            Message(
                kind=kinds.PERMISSION_SET,
                sender="a",
                payload={"rule": rule.to_wire()},
            )
        )
        assert transport.take()[0].kind == kinds.PERMISSION_REPLY
        assert rule in srv.access.rules()

    def test_foreign_instance_rules_rejected(self, server):
        srv, transport = server
        register(srv, transport, "a", user="alice")
        rule = PermissionRule("*", "b", "/app", "read")
        srv.handle_message(
            Message(
                kind=kinds.PERMISSION_SET,
                sender="a",
                payload={"rule": rule.to_wire()},
            )
        )
        assert transport.take()[0].kind == kinds.ERROR

    def test_admin_may_set_anything(self, server):
        srv, transport = server
        srv.admin_users.add("root")
        register(srv, transport, "a", user="root")
        rule = PermissionRule("*", "b", "/app", "read")
        srv.handle_message(
            Message(
                kind=kinds.PERMISSION_SET,
                sender="a",
                payload={"rule": rule.to_wire()},
            )
        )
        assert transport.take()[0].kind == kinds.PERMISSION_REPLY

    def test_remove_action(self, server):
        srv, transport = server
        register(srv, transport, "a", user="alice")
        rule = PermissionRule("*", "a", "/app", "read")
        srv.access.add(rule)
        srv.handle_message(
            Message(
                kind=kinds.PERMISSION_SET,
                sender="a",
                payload={"rule": rule.to_wire(), "action": "remove"},
            )
        )
        transport.take()
        assert rule not in srv.access.rules()


class TestStats:
    def test_stats_shape(self, server):
        srv, transport = server
        register(srv, transport, "a")
        stats = srv.stats()
        assert stats["registered"] == 1
        assert stats["processed"][kinds.REGISTER] == 1
        assert "lock_stats" in stats
