"""Tests of the ApplicationInstance runtime against a simulated session."""

import pytest

from repro.errors import NotRegisteredError, PathError, ServerError
from repro.net import kinds
from repro.net.message import Message
from repro.server.permissions import PermissionRule
from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED
from repro.toolkit.widgets import Form, Shell, TextField

from conftest import make_demo_tree, record_executions, settle


class TestLifecycle:
    def test_register_populates_roster(self, pair):
        session, a, b = pair
        registry = session.server.registry
        # a got the roster of one in its ack and b's record as a delta;
        # b got both in its ack.
        assert settle(session, lambda: a.roster_version == registry.version)
        assert set(a.roster) == set(b.roster) == {"a", "b"}
        assert a.roster == b.roster == {
            record.instance_id: record for record in registry.records()
        }
        assert a.roster_version == b.roster_version == registry.version == 2
        assert a.stats["roster_resyncs"] == b.stats["roster_resyncs"] == 0

    def test_leave_removes_the_record(self, pair):
        session, a, b = pair
        b.unregister()
        assert settle(session, lambda: a.roster_version == 3)
        assert set(a.roster) == {"a"}
        assert session.server.registry.version == 3

    def test_reregistering_replaces_the_record(self, pair):
        session, a, b = pair
        b.unregister()
        b.user = "barbara"
        b.register()
        registry = session.server.registry
        assert settle(session, lambda: a.roster_version == registry.version)
        assert a.roster["b"].user == "barbara"
        assert a.roster["b"] == b.roster["b"] == registry.get("b")
        # Leave and join again are two changes; b starts over from its ack.
        assert a.roster_version == b.roster_version == registry.version == 4
        assert a.stats["roster_resyncs"] == 0

    def test_register_bootstraps_couple_replica(self, session):
        a = session.create_instance("a", user="u1")
        a.add_root(make_demo_tree())
        b = session.create_instance("b", user="u2")
        b.add_root(make_demo_tree())
        a.couple(a.widget("/app/form/name"), ("b", "/app/form/name"))
        session.pump()
        # The dump is scoped like every later update: a third instance
        # registering late holds no member of the a-b group, so its
        # replica starts (and stays) empty.
        c = session.create_instance("c", user="u3")
        session.pump()
        assert len(c.replica) == 0
        assert len(a.replica) == len(b.replica) == 1

    def test_invalid_instance_id(self):
        from repro.core.instance import ApplicationInstance

        with pytest.raises(ValueError):
            ApplicationInstance("", user="x")
        with pytest.raises(ValueError):
            ApplicationInstance("server", user="x")

    def test_unregister_clears_replica_and_server(self, coupled_pair):
        session, a, b, tree_a, tree_b = coupled_pair
        a.unregister()
        session.pump()
        assert len(session.server.couples) == 0
        assert len(a.replica) == 0
        # b learned about the removal too.
        assert len(b.replica) == 0

    def test_operations_without_transport_raise(self):
        from repro.core.instance import ApplicationInstance

        inst = ApplicationInstance("x", user="u")
        with pytest.raises(NotRegisteredError):
            inst.register()

    @pytest.mark.parametrize("backend", ["memory", "tcp", "aio"])
    def test_a_send_on_a_closed_transport_is_not_registered(self, backend):
        """The transport refuses the send; the instance says why."""
        with Session(backend=backend) as session:
            a = session.create_instance("a", user="alice")
            a.transport.close()
            with pytest.raises(NotRegisteredError):
                a.send(Message(kind=kinds.COMMAND, sender="a", payload={}))
            with pytest.raises(NotRegisteredError):
                a.send_command("ping")

    def test_close_is_idempotent(self, pair):
        _, a, _ = pair
        a.close()
        a.close()


class TestWidgetManagement:
    def test_add_root_and_find(self, pair):
        _, a, _ = pair
        tree = a.add_root(make_demo_tree())
        assert a.find_widget("/app/form/name") is tree.find("/app/form/name")
        assert a.find_widget("/ghost/x") is None
        assert a.find_widget("") is None

    def test_widget_raises_on_missing(self, pair):
        _, a, _ = pair
        with pytest.raises(PathError):
            a.widget("/nope")

    def test_add_root_rejects_non_root(self, pair):
        _, a, _ = pair
        shell = Shell("app")
        form = Form("form", parent=shell)
        with pytest.raises(ValueError):
            a.add_root(form)

    def test_duplicate_root_name_rejected(self, pair):
        _, a, _ = pair
        a.add_root(Shell("app"))
        with pytest.raises(ValueError):
            a.add_root(Shell("app"))

    def test_gid(self, pair):
        _, a, _ = pair
        tree = a.add_root(make_demo_tree())
        widget = tree.find("/app/form/name")
        assert a.gid(widget) == ("a", "/app/form/name")
        assert a.gid("/app/form/name") == ("a", "/app/form/name")


class TestLocalVsCoupledEvents:
    def test_uncoupled_events_stay_local(self, pair):
        session, a, _ = pair
        tree = a.add_root(make_demo_tree())
        before = session.traffic()["messages"]
        tree.find("/app/form/name").commit("local only")
        assert session.traffic()["messages"] == before
        assert a.stats["events_local"] == 1
        assert a.last_execution.local_only

    def test_coupled_event_propagates(self, coupled_pair):
        session, a, b, tree_a, tree_b = coupled_pair
        tree_a.find("/app/form/name").commit("shared")
        session.pump()
        assert tree_b.find("/app/form/name").value == "shared"
        assert b.stats["events_remote"] == 1

    def test_callbacks_run_on_both_sides(self, coupled_pair):
        session, a, b, tree_a, tree_b = coupled_pair
        calls = []
        tree_a.find("/app/form/name").add_callback(
            VALUE_CHANGED, lambda w, e: calls.append(("a", e.params["value"]))
        )
        tree_b.find("/app/form/name").add_callback(
            VALUE_CHANGED, lambda w, e: calls.append(("b", e.params["value"]))
        )
        tree_a.find("/app/form/name").commit("x")
        session.pump()
        assert ("a", "x") in calls and ("b", "x") in calls

    def test_both_ends_execute_only_the_source_traces(self, coupled_pair):
        """The trace is the user's input log: the receiver re-executes
        the event (its callbacks run) but does not record it."""
        session, a, b, tree_a, tree_b = coupled_pair
        executed = [
            record_executions(tree.find("/app/form/name")) for tree in (tree_a, tree_b)
        ]
        tree_a.find("/app/form/name").commit("x")
        session.pump()
        (event,) = a.trace.events(VALUE_CHANGED)
        assert executed[0] == executed[1] == [("", event.seq, {"value": "x"})]
        assert b.trace.events() == []

    def test_same_instance_coupling(self, pair):
        """Two objects coupled within the same application instance (§3.3)."""
        session, a, _ = pair
        tree = a.add_root(make_demo_tree())
        other = Shell("mirror")
        TextField("copy", parent=other)
        a.add_root(other)
        a.couple(tree.find("/app/form/name"), ("a", "/mirror/copy"))
        session.pump()
        tree.find("/app/form/name").commit("twice")
        session.pump()
        assert other.find("/mirror/copy").value == "twice"


WELL_FORMED_EVENT = {
    "type": VALUE_CHANGED,
    "source_path": "/app/form/name",
    "params": {"value": "x"},
    "instance_id": "a",
    "seq": 10_000,
}


def _broadcast(event_wire, targets):
    return Message(
        kind=kinds.EVENT_BROADCAST,
        sender="server",
        to="b",
        payload={"event": event_wire, "targets": targets, "owner": ["a", 1]},
    )


class TestMalformedBroadcast:
    """The receiver validates a broadcast once, in ``Event.from_wire`` and
    beside it for the targets; what fails there is counted, never raised,
    and uses up nothing: the origin's event stream does not move and the
    receiver executes nothing."""

    @pytest.mark.parametrize(
        ("event_wire", "targets"),
        [
            (
                {
                    "type": VALUE_CHANGED,
                    "source_path": "/app/form/name",
                    "params": {1: "non-string key"},
                    "instance_id": "a",
                    "seq": 10_000,
                },
                ["/app/form/name"],
            ),
            (
                {"source_path": "/app/form/name", "params": {"value": "x"}},
                ["/app/form/name"],
            ),
            (WELL_FORMED_EVENT, "/app/form/name"),
            (WELL_FORMED_EVENT, [5]),
        ],
        ids=["non-string-param-key", "missing-type", "targets-string", "targets-int"],
    )
    def test_counted_and_receiver_stays_alive(self, coupled_pair, event_wire, targets):
        session, a, b, tree_a, tree_b = coupled_pair
        executed = record_executions(tree_b.find("/app/form/name"))
        b.handle_message(_broadcast(event_wire, targets))
        assert b.stats["malformed_messages"] == 1
        assert b.stats["events_remote"] == 0
        assert executed == []
        assert tree_b.find("/app/form/name").value == ""
        tree_a.find("/app/form/name").commit("still alive")
        session.pump()
        assert tree_b.find("/app/form/name").value == "still alive"
        assert [params for _, _, params in executed] == [{"value": "still alive"}]
        assert b.stats["malformed_messages"] == 1

    @pytest.mark.parametrize(
        "targets", ["/app/form/name", [5]], ids=["targets-string", "targets-int"]
    )
    def test_a_well_formed_redelivery_then_executes(self, coupled_pair, targets):
        session, a, b, tree_a, tree_b = coupled_pair
        executed = record_executions(tree_b.find("/app/form/name"))
        b.handle_message(_broadcast(WELL_FORMED_EVENT, targets))
        b.handle_message(_broadcast(WELL_FORMED_EVENT, ["/app/form/name"]))
        assert b.stats["malformed_messages"] == 1
        assert b.stats["duplicate_events"] == 0
        assert b.stats["events_remote"] == 1
        assert tree_b.find("/app/form/name").value == "x"
        assert executed == [("", 10_000, {"value": "x"})]
        # Both deliveries were acknowledged, the malformed one included.
        acks = session.network.stats.by_kind[kinds.EVENT_ACK]
        assert acks == 2


class TestCoupleApi:
    def test_coupled_objects_uses_replica(self, coupled_pair):
        session, a, b, tree_a, _ = coupled_pair
        assert a.coupled_objects("/app/form/name") == (("b", "/app/form/name"),)
        assert a.is_coupled("/app/form/name")
        assert not a.is_coupled("/app/form/ok")

    def test_decouple(self, coupled_pair):
        session, a, b, tree_a, tree_b = coupled_pair
        a.decouple(tree_a.find("/app/form/name"), ("b", "/app/form/name"))
        session.pump()
        assert not a.is_coupled("/app/form/name")
        tree_a.find("/app/form/name").commit("alone")
        session.pump()
        assert tree_b.find("/app/form/name").value == ""

    def test_remote_couple_by_third_party(self, session):
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        c = session.create_instance("c", user="u3")
        a.add_root(make_demo_tree())
        b.add_root(make_demo_tree())
        c.remote_couple(("a", "/app/form/name"), ("b", "/app/form/name"))
        session.pump()
        assert a.is_coupled("/app/form/name")
        a.widget("/app/form/name").commit("via c")
        session.pump()
        assert b.widget("/app/form/name").value == "via c"
        c.remote_decouple(("a", "/app/form/name"), ("b", "/app/form/name"))
        session.pump()
        assert not a.is_coupled("/app/form/name")

    def test_couple_unknown_instance_raises(self, pair):
        session, a, _ = pair
        tree = a.add_root(make_demo_tree())
        with pytest.raises(ServerError):
            a.couple(tree.find("/app/form/name"), ("ghost", "/x"))

    def test_destroy_auto_decouples(self, coupled_pair):
        session, a, b, tree_a, tree_b = coupled_pair
        tree_a.find("/app/form/name").destroy()
        session.pump()
        assert len(session.server.couples) == 0
        assert not b.is_coupled("/app/form/name")

    def test_destroying_ancestor_decouples_subtree(self, coupled_pair):
        session, a, b, tree_a, _ = coupled_pair
        tree_a.find("/app/form").destroy()
        session.pump()
        assert len(session.server.couples) == 0


class TestStateSyncApi:
    def test_copy_from(self, pair):
        session, a, b = pair
        tree_a = a.add_root(make_demo_tree())
        tree_b = b.add_root(make_demo_tree())
        tree_b.find("/app/form/name").commit("bob's work")
        report = a.copy_from(
            tree_a.find("/app/form"), ("b", "/app/form")
        )
        assert tree_a.find("/app/form/name").value == "bob's work"
        assert report.applied_paths

    def test_copy_to(self, pair):
        session, a, b = pair
        tree_a = a.add_root(make_demo_tree())
        tree_b = b.add_root(make_demo_tree())
        tree_a.find("/app/form/name").commit("alice's work")
        a.copy_to(tree_a.find("/app/form"), ("b", "/app/form"))
        session.pump()
        assert tree_b.find("/app/form/name").value == "alice's work"

    def test_remote_copy(self, session):
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        c = session.create_instance("c", user="u3")
        tree_a = a.add_root(make_demo_tree())
        tree_b = b.add_root(make_demo_tree())
        tree_a.find("/app/form/name").commit("original")
        c.remote_copy(("a", "/app/form"), ("b", "/app/form"))
        session.pump()
        assert tree_b.find("/app/form/name").value == "original"

    def test_copy_from_missing_object_raises(self, pair):
        session, a, b = pair
        tree_a = a.add_root(make_demo_tree())
        b.add_root(make_demo_tree())
        with pytest.raises(ServerError):
            a.copy_from(tree_a.find("/app/form"), ("b", "/ghost"))

    def test_undo_redo_roundtrip(self, pair):
        session, a, b = pair
        tree_a = a.add_root(make_demo_tree())
        tree_b = b.add_root(make_demo_tree())
        field_a = tree_a.find("/app/form/name")
        field_a.commit("mine")
        tree_b.find("/app/form/name").commit("theirs")
        a.copy_from(tree_a.find("/app/form"), ("b", "/app/form"))
        assert field_a.value == "theirs"
        assert a.undo(tree_a.find("/app/form"))
        assert field_a.value == "mine"
        assert a.redo(tree_a.find("/app/form"))
        assert field_a.value == "theirs"

    def test_undo_without_history_returns_false(self, pair):
        session, a, _ = pair
        tree = a.add_root(make_demo_tree())
        assert not a.undo(tree.find("/app/form"))

    def test_fetch_state_returns_payload_without_applying(self, pair):
        session, a, b = pair
        tree_a = a.add_root(make_demo_tree())
        tree_b = b.add_root(make_demo_tree())
        tree_b.find("/app/form/name").commit("inspect me")
        payload = a.fetch_state(("b", "/app/form"))
        assert payload["structure"]["type"] == "form"
        assert payload["state"]["name"] == {"value": "inspect me"}
        # Nothing was applied locally.
        assert tree_a.find("/app/form/name").value == ""

    def test_export_import_ui_roundtrip(self, pair):
        session, a, b = pair
        tree_a = a.add_root(make_demo_tree())
        tree_a.find("/app/form/name").commit("persisted")
        tree_a.find("/app/board/zoom").set_value(7)
        exported = a.export_ui()
        roots = b.import_ui(exported)
        assert len(roots) == 1
        restored = b.widget("/app/form/name")
        assert restored.value == "persisted"
        assert b.widget("/app/board/zoom").value == 7
        # The rebuilt tree is live: events route through b's runtime.
        restored.commit("edited in b")
        assert b.stats["events_local"] >= 1

    def test_semantic_data_travels_with_copy(self, pair):
        session, a, b = pair
        tree_a = a.add_root(make_demo_tree())
        tree_b = b.add_root(make_demo_tree())
        payload_b = {"rows": [1, 2]}
        b.semantics.register(
            "/app/form", lambda: payload_b, lambda d: None
        )
        landed = {}
        a.semantics.register("/app/form", lambda: None, landed.update)
        a.copy_from(tree_a.find("/app/form"), ("b", "/app/form"))
        assert landed == {"rows": [1, 2]}


class TestCommandsApi:
    def test_targeted_command_with_reply(self, pair):
        session, a, b = pair
        b.on_command("add", lambda data, sender: data["x"] + data["y"])
        result = a.send_command(
            "add", {"x": 2, "y": 3}, targets=["b"], want_reply=True
        )
        assert result == 5

    def test_broadcast_command(self, session):
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        c = session.create_instance("c", user="u3")
        seen = []
        b.on_command("note", lambda d, s: seen.append(("b", d)))
        c.on_command("note", lambda d, s: seen.append(("c", d)))
        a.send_command("note", "hello")
        session.pump()
        assert ("b", "hello") in seen and ("c", "hello") in seen

    def test_unknown_command_counted_not_fatal(self, pair):
        session, a, b = pair
        a.send_command("mystery", 1, targets=["b"])
        session.pump()
        assert b.stats["command_failures"] == 1


class TestPermissionsApi:
    def test_write_permission_blocks_copy_to(self, session):
        a = session.create_instance("a", user="alice")
        b = session.create_instance("b", user="bob")
        tree_a = a.add_root(make_demo_tree())
        b.add_root(make_demo_tree())
        # b denies writes to its form for everyone.
        b.set_permission(
            PermissionRule("*", "b", "/app/form", "write", allow=False)
        )
        with pytest.raises(ServerError):
            a.copy_to(tree_a.find("/app/form"), ("b", "/app/form"))

    def test_read_permission_blocks_copy_from(self, session):
        a = session.create_instance("a", user="alice")
        b = session.create_instance("b", user="bob")
        tree_a = a.add_root(make_demo_tree())
        b.add_root(make_demo_tree())
        b.set_permission(
            PermissionRule("alice", "b", "", "read", allow=False)
        )
        with pytest.raises(ServerError):
            a.copy_from(tree_a.find("/app/form"), ("b", "/app/form"))


class TestFloorApi:
    def test_explicit_floor_blocks_peer(self, coupled_pair):
        session, a, b, tree_a, tree_b = coupled_pair
        grant = a.acquire_floor(tree_a.find("/app/form/name"))
        assert grant is not None
        assert len(grant.group) == 2
        # b's event is denied while a holds the floor.
        tree_b.find("/app/form/name").commit("denied")
        assert b.last_execution.lock_denied
        assert tree_b.find("/app/form/name").value == ""  # feedback undone
        a.release_floor(grant)
        session.pump()
        tree_b.find("/app/form/name").commit("granted")
        session.pump()
        assert tree_a.find("/app/form/name").value == "granted"

    def test_denied_action_does_not_run_callbacks(self, coupled_pair):
        session, a, b, tree_a, tree_b = coupled_pair
        calls = []
        tree_b.find("/app/form/name").add_callback(
            VALUE_CHANGED, lambda w, e: calls.append(1)
        )
        grant = a.acquire_floor(tree_a.find("/app/form/name"))
        tree_b.find("/app/form/name").commit("denied")
        assert calls == []
        a.release_floor(grant)
