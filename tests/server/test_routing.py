"""Tests for the interest-aware routing layer (docs/PERF.md).

Covers the shared broadcast helper, the RoutingStats counters,
group-scoped COUPLE_UPDATE delivery (each side of a merge hears the
other side's links) and the RESYNC_REQUEST forward path.
"""

from repro.net import kinds
from repro.net.clock import SimClock
from repro.net.message import Message
from repro.server.couples import gid_to_wire, global_id
from repro.server.routing import RoutingStats, broadcast
from repro.server.server import SERVER_ID, CosoftServer


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


def make_server(**kwargs):
    srv = CosoftServer(clock=SimClock(), **kwargs)
    transport = FakeTransport()
    srv.bind(transport)
    return srv, transport


def register(srv, transport, instance_id):
    srv.handle_message(
        Message(
            kind=kinds.REGISTER,
            sender=instance_id,
            payload={"user": instance_id},
        )
    )
    return transport.take()


def couple(srv, sender, source, target):
    srv.handle_message(
        Message(
            kind=kinds.COUPLE,
            sender=sender,
            payload={
                "source": gid_to_wire(source),
                "target": gid_to_wire(target),
            },
        )
    )


def decouple(srv, sender, source, target):
    srv.handle_message(
        Message(
            kind=kinds.DECOUPLE,
            sender=sender,
            payload={
                "source": gid_to_wire(source),
                "target": gid_to_wire(target),
            },
        )
    )


A = global_id("a", "/app/x")
B = global_id("b", "/app/x")
C = global_id("c", "/app/x")


class TestRoutingStats:
    def test_record_and_snapshot(self):
        stats = RoutingStats()
        stats.record_event(3)
        stats.record_event(1)
        snap = stats.snapshot()
        assert snap["events"] == 2
        assert snap["event_receivers"] == 4

    def test_merge_adds_counters(self):
        one, two = RoutingStats(), RoutingStats()
        one.record_event(2)
        two.record_event(5)
        two.suppressed_messages = 7
        one.merge(two)
        assert one.events == 2
        assert one.event_receivers == 7
        assert one.suppressed_messages == 7

    def test_reset(self):
        stats = RoutingStats()
        stats.record_event(9)
        stats.reset()
        assert stats.snapshot() == RoutingStats().snapshot()


class TestBroadcastHelper:
    def collect(self):
        sent = []
        return sent, sent.append

    def test_full_broadcast_hits_everyone_but_excluded(self):
        sent, send = self.collect()
        stats = RoutingStats()
        count = broadcast(
            send, ["a", "b", "c"], kinds.INSTANCE_LIST, {},
            exclude=("b",), stats=stats,
        )
        assert count == 2
        assert sorted(m.to for m in sent) == ["a", "c"]
        assert stats.broadcasts == 1
        assert stats.broadcast_messages == 2
        assert stats.suppressed_messages == 0

    def test_audience_scopes_and_counts_suppressed(self):
        sent, send = self.collect()
        stats = RoutingStats()
        count = broadcast(
            send, ["a", "b", "c", "d"], kinds.COUPLE_UPDATE, {},
            audience={"a", "c"}, stats=stats,
        )
        assert count == 2
        assert [m.to for m in sent] == ["a", "c"]  # sorted, deterministic
        assert stats.interest_casts == 1
        assert stats.interest_messages == 2
        assert stats.suppressed_messages == 2

    def test_unregistered_audience_members_skipped(self):
        sent, send = self.collect()
        broadcast(
            send, ["a", "b"], kinds.COUPLE_UPDATE, {},
            audience={"a", "ghost"},
        )
        assert [m.to for m in sent] == ["a"]

    def test_exclude_applies_inside_audience(self):
        sent, send = self.collect()
        stats = RoutingStats()
        broadcast(
            send, ["a", "b", "c"], kinds.COUPLE_UPDATE, {},
            audience={"a", "b"}, exclude=("a",), stats=stats,
        )
        assert [m.to for m in sent] == ["b"]
        # Population net of exclude is 2; one delivered, one suppressed.
        assert stats.suppressed_messages == 1

    def test_payload_for_overrides_per_recipient(self):
        sent, send = self.collect()
        stats = RoutingStats()
        broadcast(
            send, ["a", "b", "c"], kinds.COUPLE_UPDATE, {"n": 0},
            audience={"a", "b"}, payload_for={"b": {"n": 1}, "c": {"n": 2}},
            stats=stats,
        )
        assert [(m.to, m.payload["n"]) for m in sent] == [("a", 0), ("b", 1)]
        assert stats.interest_casts == 1
        assert stats.suppressed_messages == 1


class TestCoupleScopeGroup:
    def test_scoped_update_reaches_only_group_audience(self):
        srv, transport = make_server()
        for instance in ("a", "b", "c", "d"):
            register(srv, transport, instance)
        couple(srv, "a", A, B)
        updates = [
            m.to for m in transport.take() if m.kind == kinds.COUPLE_UPDATE
        ]
        assert sorted(updates) == ["a", "b"]
        assert srv.routing.suppressed_messages >= 2

    def test_update_never_reaches_instances_outside_the_group(self):
        """Group-only delivery is the server's one behaviour: a bystander
        hears neither the couple nor the decouple, and both are counted
        as suppressed copies (population minus audience)."""
        srv, transport = make_server()
        for instance in ("a", "b", "c", "d"):
            register(srv, transport, instance)
        couple(srv, "a", A, B)
        decouple(srv, "a", A, B)
        updates = [m for m in transport.take() if m.kind == kinds.COUPLE_UPDATE]
        assert [(m.to, m.payload["action"]) for m in updates] == [
            ("a", "add"), ("b", "add"), ("a", "remove"), ("b", "remove"),
        ]
        # Per cast: 3 instances net of the requester, 1 in the audience.
        assert srv.routing.suppressed_messages == 4

    def test_third_party_requester_gets_reply_without_membership(self):
        srv, transport = make_server()
        for instance in ("a", "b", "c"):
            register(srv, transport, instance)
        srv.handle_message(
            Message(
                kind=kinds.REMOTE_COUPLE,
                sender="c",
                payload={"source": gid_to_wire(A), "target": gid_to_wire(B)},
            )
        )
        updates = [m for m in transport.take() if m.kind == kinds.COUPLE_UPDATE]
        assert sorted(m.to for m in updates) == ["a", "b", "c"]
        reply = [m for m in updates if m.to == "c"][0]
        assert reply.reply_to is not None
        assert "links" not in reply.payload
        # c holds no replica of the group: its reply alone names the closure.
        assert sorted(map(tuple, reply.payload["group"])) == sorted([A, B])
        assert all("group" not in m.payload for m in updates if m.to != "c")

    def test_merge_sends_each_side_only_the_other_sides_links(self):
        """Groups of 3 (a, b, both) and 2 (c, both) merge: each side gets
        exactly the other side's pre-merge links, the instance on both
        sides gets none, and there are three distinct payload objects
        plus the requester's reply, the only copy with the closure."""
        srv, transport = make_server()
        for instance in ("a", "b", "c", "both"):
            register(srv, transport, instance)
        left_both = global_id("both", "/app/left")
        right_both = global_id("both", "/app/right")
        couple(srv, "a", A, B)
        couple(srv, "a", A, left_both)
        couple(srv, "c", C, right_both)
        transport.take()
        couple(srv, "b", B, C)
        updates = {
            m.to: m for m in transport.take() if m.kind == kinds.COUPLE_UPDATE
        }
        assert sorted(updates) == ["a", "b", "both", "c"]

        def history(instance):
            return {
                (tuple(l["source"]), tuple(l["target"]))
                for l in updates[instance].payload.get("links", ())
            }

        left = {(A, B), (A, left_both)}
        right = {(C, right_both)}
        assert history("a") == history("b") == right
        assert history("c") == left
        assert "links" not in updates["both"].payload
        assert len({id(m.payload) for m in updates.values()}) == 4
        assert updates["b"].reply_to is not None
        reply = dict(updates["b"].payload)
        assert len(reply.pop("group")) == 5
        assert reply == updates["a"].payload
        assert all("group" not in updates[i].payload for i in ("a", "both", "c"))

    def test_link_inside_one_group_carries_no_history(self):
        srv, transport = make_server()
        for instance in ("a", "b", "c"):
            register(srv, transport, instance)
        couple(srv, "a", A, B)
        couple(srv, "b", B, C)
        transport.take()
        couple(srv, "c", C, A)
        updates = [m for m in transport.take() if m.kind == kinds.COUPLE_UPDATE]
        assert sorted(m.to for m in updates) == ["a", "b", "c"]
        assert all("links" not in m.payload for m in updates)

    def test_scoped_add_carries_merged_group_links(self):
        """A joiner must learn the group's pre-existing internal links."""
        srv, transport = make_server()
        for instance in ("a", "b", "c"):
            register(srv, transport, instance)
        couple(srv, "a", A, B)
        transport.take()
        couple(srv, "c", C, A)
        updates = [
            m for m in transport.take() if m.kind == kinds.COUPLE_UPDATE
        ]
        to_c = [m for m in updates if m.to == "c"]
        assert to_c, "joining instance must receive the update"
        wired = to_c[0].payload.get("links", [])
        endpoints = {
            (tuple(l["source"]), tuple(l["target"])) for l in wired
        }
        assert endpoints == {(tuple(A), tuple(B))}
        # The members it joins already hold those links.
        assert all("links" not in m.payload for m in updates if m.to != "c")

    def test_decouple_audience_computed_before_removal(self):
        """Departing members still hear about the link removal."""
        srv, transport = make_server()
        for instance in ("a", "b", "c"):
            register(srv, transport, instance)
        couple(srv, "a", A, B)
        couple(srv, "b", B, C)
        transport.take()
        decouple(srv, "a", A, B)
        removals = [
            m.to
            for m in transport.take()
            if m.kind == kinds.COUPLE_UPDATE
            and m.payload.get("action") == "remove"
        ]
        # 'a' leaves the group but is told; 'b' and 'c' remain.
        assert sorted(set(removals)) == ["a", "b", "c"]

    def test_stats_expose_routing_and_closure(self):
        srv, transport = make_server()
        register(srv, transport, "a")
        register(srv, transport, "b")
        couple(srv, "a", A, B)
        stats = srv.stats()
        assert "routing" in stats and "closure" in stats
        assert stats["closure"]["unions"] >= 1


class TestEventInterestRouting:
    def _event(self, srv, source, seq=1):
        srv.handle_message(
            Message(
                kind=kinds.EVENT,
                sender=source[0],
                payload={
                    "event": {
                        "seq": seq,
                        "source_path": source[1],
                        "instance_id": source[0],
                        "type": "value-changed",
                        "params": {"value": "v"},
                        "user": source[0],
                    },
                    "object": gid_to_wire(source),
                },
            )
        )

    def test_event_fans_out_to_group_only(self):
        srv, transport = make_server()
        for instance in ("a", "b", "c", "d"):
            register(srv, transport, instance)
        couple(srv, "a", A, B)
        transport.take()
        self._event(srv, A)
        receivers = [
            m.to for m in transport.take() if m.kind == kinds.EVENT_BROADCAST
        ]
        assert receivers == ["b"]
        assert srv.routing.events == 1
        assert srv.routing.event_receivers == 1

    def test_uncoupled_event_reaches_no_one(self):
        srv, transport = make_server()
        register(srv, transport, "a")
        register(srv, transport, "b")
        self._event(srv, A)
        receivers = [
            m.to for m in transport.take() if m.kind == kinds.EVENT_BROADCAST
        ]
        assert receivers == []


class TestResyncForward:
    def test_forwarded_to_object_owner(self):
        srv, transport = make_server()
        register(srv, transport, "a")
        register(srv, transport, "b")
        srv.handle_message(
            Message(
                kind=kinds.RESYNC_REQUEST,
                sender="b",
                payload={
                    "object": gid_to_wire(A),
                    "target": gid_to_wire(B),
                },
            )
        )
        out = transport.take()
        forwarded = [m for m in out if m.kind == kinds.RESYNC_REQUEST]
        assert len(forwarded) == 1
        assert forwarded[0].to == "a"
        assert forwarded[0].payload["requester"] == "b"

    def test_unknown_owner_rejected(self):
        srv, transport = make_server()
        register(srv, transport, "b")
        srv.handle_message(
            Message(
                kind=kinds.RESYNC_REQUEST,
                sender="b",
                payload={
                    "object": gid_to_wire(A),
                    "target": gid_to_wire(B),
                },
            )
        )
        out = transport.take()
        assert any(m.kind == kinds.ERROR for m in out)

    def test_unregistered_sender_rejected(self):
        srv, transport = make_server()
        register(srv, transport, "a")
        srv.handle_message(
            Message(
                kind=kinds.RESYNC_REQUEST,
                sender="ghost",
                payload={
                    "object": gid_to_wire(A),
                    "target": gid_to_wire(B),
                },
            )
        )
        out = transport.take()
        assert any(m.kind == kinds.ERROR for m in out)
