"""End-to-end tests of the delta state sync protocol (docs/PERF.md).

CopyTo ships a full snapshot on first contact, then only the attributes
written since the last acknowledged transfer; continuity is guarded by
sequence numbers and structure fingerprints, with RESYNC_REQUEST as the
recovery path.
"""

import contextlib
import json
from collections.abc import Mapping

import pytest

from conftest import settle
from repro.core import compat
from repro.core.state_sync import build_state_payload
from repro.errors import ServerError
from repro.net import kinds
from repro.net.message import Message
from repro.net.transport import SERVER_ID
from repro.server.couples import gid_to_wire
from repro.session import Session
from repro.toolkit.builder import shape
from repro.toolkit.tree import subtree_state
from repro.toolkit.widgets import Form, Label, Scale, Shell, TextField, ToggleButton

PATH = "/app"


def make_tree():
    root = Shell("app", title="delta")
    TextField("field", parent=root)
    Scale("zoom", parent=root, maximum=100)
    ToggleButton("flag", parent=root)
    return root


def assert_synced(tree_a, tree_b):
    assert tree_b.find("field").value == tree_a.find("field").value
    assert tree_b.find("zoom").value == tree_a.find("zoom").value
    assert tree_b.find("flag").get("set") == tree_a.find("flag").get("set")


@contextlib.contextmanager
def deployment(backend, names="ab", **instance_options):
    """Registered instances, one ``make_tree()`` each, on *backend*."""
    session = Session(backend=backend)
    try:
        instances = [
            session.create_instance(name, user=f"user-{name}", **instance_options)
            for name in names
        ]
        trees = [instance.add_root(make_tree()) for instance in instances]
        session.pump()
        yield (session, *instances, *trees)
    finally:
        session.close()


@pytest.fixture
def duo():
    with deployment("memory") as parts:
        yield parts


def tap(instance, drop=lambda message: False):
    """Record what *instance*'s handlers send (replies, resync pushes —
    not its blocking requests); messages *drop* holds for go nowhere."""
    sent = []
    send = instance.send

    def tapped(message):
        sent.append(message)
        if not drop(message):
            send(message)

    instance.send = tapped
    return sent


def replies(sent):
    return [m.payload for m in sent if m.kind == kinds.STATE_REPLY]


def rename_field(tree):
    """Another structure (and fingerprint) of the same shape: a full
    transfer still matches it, a cached mapping does not."""
    tree.find("field").destroy()
    TextField("field2", parent=tree)


class TestDeltaProtocol:
    def test_first_push_is_full_then_delta(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "one")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["full_pushes"] == 1
        assert a.stats["delta_pushes"] == 0
        assert_synced(tree_a, tree_b)

        tree_a.find("field").set("value", "two")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["delta_pushes"] == 1
        assert b.stats["deltas_applied"] == 1
        assert_synced(tree_a, tree_b)

    def test_a_resync_entry_outlives_the_push_it_replaced(self, duo):
        """On sockets the loop thread can answer the resync a rejected
        push provoked before ``copy_to`` records that push.  The resync's
        entry is the newer one and must stay: the next push is a delta
        from it, not a second continuity loss."""
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        request = a.request

        def request_then_drain(message, *args, **kwargs):
            reply = request(message, *args, **kwargs)
            session.pump()  # the resync round trip lands first
            return reply

        a.request = request_then_drain
        tree_b.find("zoom").set("value", 77)  # the next delta is rejected
        a.copy_to(PATH, ("b", PATH))
        assert (b.stats["delta_resyncs"], a.stats["resync_pushes"]) == (1, 1)
        tree_a.find("field").set("value", "two")
        a.copy_to(PATH, ("b", PATH))
        assert (b.stats["delta_resyncs"], b.stats["deltas_applied"]) == (1, 1)
        assert_synced(tree_a, tree_b)

    def test_idle_delta_is_empty_and_harmless(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("zoom").set("value", 42)
        a.copy_to(PATH, ("b", PATH))
        a.copy_to(PATH, ("b", PATH))  # nothing changed in between
        session.pump()
        assert a.stats["delta_pushes"] == 1
        assert_synced(tree_a, tree_b)

    def test_delta_applies_only_changed_attributes(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "keep")
        tree_a.find("zoom").set("value", 7)
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        attributes = (("field", "value"), ("zoom", "value"), ("flag", "set"))

        def stamps():
            return [tree_b.find(n).attribute_version(attr) for n, attr in attributes]

        before = stamps()
        tree_a.find("flag").set("set", True)
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert b.stats["deltas_applied"] == 1
        assert tree_b.find("flag").get("set") is True
        # Only the attribute in the payload was written on the receiver.
        after = stamps()
        assert after[:2] == before[:2] and after[2] > before[2]

    def test_same_value_recommit_on_the_target_costs_one_full_transfer(self, duo):
        """The coverage check's one false positive (docs/PERF.md §3):
        built-in feedback stamps the clock even for the value already
        there, so the delta is refused — a cost, never a divergence."""
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").commit("same")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        tree_b.find("field").commit("same")
        tree_a.find("zoom").set("value", 3)
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert (b.stats["delta_resyncs"], a.stats["resync_pushes"]) == (1, 1)
        assert_synced(tree_a, tree_b)

    def test_structure_change_falls_back_to_full(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        TextField("extra", parent=tree_a)
        TextField("extra", parent=tree_b)
        tree_a.find("extra").set("value", "new")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["full_pushes"] == 2
        assert a.stats["delta_pushes"] == 0
        assert tree_b.find("extra").value == "new"

    def test_nested_structure_change_falls_back_to_full(self, duo):
        """The change is a grandchild two levels below the transferred
        root: the root's fingerprint must still move."""
        session, a, b, tree_a, tree_b = duo
        for tree in (tree_a, tree_b):
            Form("inner", parent=Form("outer", parent=tree))
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        tree_a.find("field").set("value", "still a delta")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (1, 1)

        TextField("deep", parent=tree_a.find("outer/inner"))
        TextField("deep", parent=tree_b.find("outer/inner"))
        tree_a.find("outer/inner/deep").set("value", "new")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (2, 1)
        assert b.stats["delta_resyncs"] == 0
        assert tree_b.find("outer/inner/deep").value == "new"

    def test_receiver_continuity_loss_triggers_resync(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "v1")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        # Simulate a receiver that lost its continuity baseline (e.g. a
        # restart): the next delta cannot be applied and must trigger a
        # full resync from the sender.
        b.continuity.received.clear()
        tree_a.find("field").set("value", "v2")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert b.stats["delta_resyncs"] == 1
        assert a.stats["resync_pushes"] == 1
        # The resync's full snapshot brings the receiver up to date.
        assert tree_b.find("field").value == "v2"

    def test_receiver_structure_change_triggers_resync(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        # Rename-equivalent change on the receiver: same shape, so a full
        # resync can still match structurally, but the receiver's local
        # fingerprint changed and the cached mapping is stale.
        tree_b.find("field").destroy()
        TextField("field2", parent=tree_b)
        tree_a.find("field").set("value", "after")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert b.stats["delta_resyncs"] == 1
        assert tree_b.find("field2").value == "after"

    def test_receiver_nested_structure_change_triggers_resync(self, duo):
        session, a, b, tree_a, tree_b = duo
        for tree in (tree_a, tree_b):
            TextField("deep", parent=Form("inner", parent=Form("outer", parent=tree)))
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        # Two levels below the transferred root, on the receiver only:
        # same shape under another name, so the resync still matches.
        tree_b.find("outer/inner/deep").destroy()
        TextField("deep2", parent=tree_b.find("outer/inner"))
        tree_a.find("outer/inner/deep").set("value", "after")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert b.stats["delta_resyncs"] == 1
        assert a.stats["resync_pushes"] == 1
        assert tree_b.find("outer/inner/deep2").value == "after"

    def test_merge_that_rebuilt_a_child_is_followed_by_a_full_push(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_b.find("field").destroy()
        Label("field", parent=tree_b)  # conflicts with a's textfield
        a.copy_to(PATH, ("b", PATH), mode="merge")
        session.pump()
        assert tree_b.find("field").TYPE_NAME == "textfield"  # rebuilt
        tree_a.find("field").set("value", "strict again")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (1, 0)
        assert tree_b.find("field").value == "strict again"
        # The baseline the full push left describes the rebuilt tree:
        # the next delta applies without a resync.
        tree_a.find("zoom").set("value", 5)
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["delta_pushes"] == 1
        assert (b.stats["deltas_applied"], b.stats["delta_resyncs"]) == (1, 0)
        assert tree_b.find("zoom").value == 5

    def test_merge_mode_invalidates_delta_chain(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        a.copy_to(PATH, ("b", PATH), mode="merge")
        session.pump()
        # The MERGE transfer dropped continuity: next STRICT is full again.
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.stats["full_pushes"] == 2
        assert a.stats["delta_pushes"] == 0

    def test_predefined_mapping_bypasses_delta(self, duo):
        session, a, b, tree_a, tree_b = duo
        identity = {
            "": "",
            "field": "field",
            "zoom": "zoom",
            "flag": "flag",
        }
        a.copy_to(PATH, ("b", PATH), predefined=identity)
        session.pump()
        assert a.stats["full_pushes"] == 0
        assert a.stats["delta_pushes"] == 0
        assert "a" not in {remote[0] for _local, remote in b.continuity.received}

    def test_history_still_pushed_for_deltas(self, duo):
        """Delta application still records the overwritten state, so the
        server's historical UI states (undo) keep working."""
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "first")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        tree_a.find("field").set("value", "second")
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert tree_b.find("field").value == "second"
        assert b.undo(PATH)
        session.pump()
        assert tree_b.find("field").value == "first"

    def test_unregister_clears_delta_caches(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.continuity.sent
        a.unregister()
        session.pump()
        assert not a.continuity.sent
        assert not a.continuity.received

    def test_destroyed_widget_drops_its_entries_on_both_sides(self, duo):
        session, a, b, tree_a, tree_b = duo
        for tree in (tree_a, tree_b):
            TextField("text", parent=Form("form", parent=tree))
        a.copy_to("/app/form", ("b", "/app/form"))
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert set(a.continuity.sent) == {
            ("/app/form", ("b", "/app/form")),
            (PATH, ("b", PATH)),
        }
        tree_a.find("form").destroy()
        assert set(a.continuity.sent) == {(PATH, ("b", PATH))}
        tree_b.find("form").destroy()
        assert set(b.continuity.received) == {(PATH, ("a", PATH))}

    def test_destroy_drops_entries_of_an_unregistered_instance_too(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        session.pump()
        b.registered = False  # the hook's not-coupled early return
        tree_b.destroy()
        assert not b.continuity.received

    def test_recreated_widget_starts_with_a_full_push(self, duo):
        session, a, b, tree_a, tree_b = duo
        for tree in (tree_a, tree_b):
            TextField("text", parent=Form("form", parent=tree))
        a.copy_to("/app/form", ("b", "/app/form"))
        session.pump()
        tree_a.find("form").destroy()
        TextField("text", parent=Form("form", parent=tree_a), value="reborn")
        a.copy_to("/app/form", ("b", "/app/form"))
        session.pump()
        assert (a.stats["full_pushes"], a.stats["delta_pushes"]) == (2, 0)
        assert b.stats["delta_resyncs"] == 0
        assert tree_b.find("form/text").value == "reborn"

    def test_departed_instance_drops_entries_naming_it(self, duo):
        session, a, b, tree_a, tree_b = duo
        c = session.create_instance("c", user="carol")
        c.add_root(make_tree())
        a.copy_to(PATH, ("b", PATH))
        a.copy_to(PATH, ("c", PATH))
        b.copy_to(PATH, ("a", PATH))
        session.pump()
        assert (PATH, ("a", PATH)) in b.continuity.received
        a.unregister()
        session.pump()
        assert "a" not in b.roster
        # b held an entry per direction; c's stays with b's untouched.
        assert not b.continuity.received and not b.continuity.sent
        assert not c.continuity.received
        c.copy_to(PATH, ("b", PATH))
        session.pump()
        assert set(c.continuity.sent) == {(PATH, ("b", PATH))}
        assert set(b.continuity.received) == {(PATH, ("c", PATH))}

    def test_adopted_roster_drops_entries_of_the_missing(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_to(PATH, ("b", PATH))
        b.copy_to(PATH, ("a", PATH))
        session.pump()
        registry = session.server.registry
        without_a = registry.full_roster()
        without_a["roster"] = [
            record for record in without_a["roster"] if record["instance_id"] != "a"
        ]
        b.handle_message(Message(kinds.INSTANCE_LIST, SERVER_ID, payload=without_a))
        assert not b.continuity.received and not b.continuity.sent
        assert a.continuity.received and a.continuity.sent  # a's roster still has b


class TestDeltaPayloadShape:
    def test_delta_payload_omits_structure_and_unchanged(self, duo):
        session, a, b, tree_a, tree_b = duo
        tree_a.find("field").set("value", "seed")
        payload_full, commit = a._build_push_payload(
            tree_a, ("b", PATH), "strict", None, None
        )
        assert "structure" in payload_full
        assert payload_full["sync"]["delta"] is False

        tree_a.find("zoom").set("value", 9)
        payload_delta, _ = a._build_push_payload(
            tree_a, ("b", PATH), "strict", None, commit
        )
        assert "structure" not in payload_delta
        assert payload_delta["sync"]["delta"] is True
        assert payload_delta["sync"]["base"] == payload_full["sync"]["seq"]
        assert payload_delta["state"] == {"zoom": {"value": 9}}

    def test_sequence_numbers_advance(self, duo):
        session, a, b, tree_a, tree_b = duo
        for value in ("one", "two", "three"):
            tree_a.find("field").set("value", value)
            a.copy_to(PATH, ("b", PATH))
        session.pump()
        assert a.continuity.sent[(tree_a.pathname, ("b", PATH))].seq == 3
        assert b.continuity.received[(PATH, ("a", PATH))].seq == 3


@pytest.fixture(params=["memory", "aio"])
def backend(request):
    return request.param


class TestDeltaFetch:
    """CopyFrom and RemoteCopy under the delta protocol: the STATE_REPLY
    (RemoteCopy: the PUSH_STATE made from it) is the push its target
    asked for — docs/PROTOCOL.md, "State transfer"."""

    def test_first_fetch_is_full_then_delta_with_the_edited_field(self, backend):
        with deployment(backend) as (session, a, b, tree_a, tree_b):
            sent = tap(b)
            tree_b.find("field").set("value", "one")
            first = a.copy_from(PATH, ("b", PATH))
            assert (b.stats["full_fetches"], b.stats["delta_fetches"]) == (1, 0)
            assert "structure" in replies(sent)[0]
            assert replies(sent)[0]["sync"]["delta"] is False
            assert_synced(tree_b, tree_a)

            tree_b.find("zoom").set("value", 42)
            before = subtree_state(tree_a, relevant_only=True)
            second = a.copy_from(PATH, ("b", PATH))
            assert (b.stats["full_fetches"], b.stats["delta_fetches"]) == (1, 1)
            assert (a.stats["deltas_applied"], a.stats["delta_resyncs"]) == (1, 0)
            reply = replies(sent)[1]
            assert "structure" not in reply
            assert reply["state"] == {"zoom": {"value": 42}}
            assert reply["sync"]["base"] == replies(sent)[0]["sync"]["seq"]
            assert_synced(tree_b, tree_a)
            # The delta path fills the report like the full one.
            assert second.applied_paths == ["zoom"]
            assert second.old_state == before
            assert second.mapping == first.mapping
            assert second.mapping_size == first.mapping_size == 4
            assert b.stats["full_pushes"] + b.stats["delta_pushes"] == 0

    def test_history_reason_stays_copy_from_on_a_delta(self, backend):
        with deployment(backend) as (session, a, b, tree_a, tree_b):
            a.copy_from(PATH, ("b", PATH))
            tree_b.find("field").set("value", "theirs")
            a.copy_from(PATH, ("b", PATH))
            assert a.stats["deltas_applied"] == 1
            assert settle(
                session, lambda: session.server.processed["history_push"] == 2
            )
            history = session.server.history
            assert history.depth(("a", PATH)) == (2, 0)
            assert history.peek(("a", PATH)).reason == "copy_from"

    @pytest.mark.parametrize(
        "lost", ["owner_entry", "owner_rejoined", "requester_rejoined"]
    )
    def test_a_lost_entry_costs_one_full_round_trip(self, backend, lost):
        with deployment(backend) as (session, a, b, tree_a, tree_b):
            a.copy_from(PATH, ("b", PATH))
            if lost == "owner_entry":
                b.continuity.sent.clear()
            else:
                gone = b if lost == "owner_rejoined" else a
                gone.unregister()
                session.pump()
                gone.register()
                session.pump()
                assert not b.continuity.sent
            tree_b.find("field").set("value", "after")
            round_trips = a.stats["rx_state_reply"]
            a.copy_from(PATH, ("b", PATH))
            assert a.stats["rx_state_reply"] == round_trips + 1
            assert (b.stats["full_fetches"], b.stats["delta_fetches"]) == (2, 0)
            assert a.stats["delta_resyncs"] == 0
            assert_synced(tree_b, tree_a)

    @pytest.mark.parametrize("side", ["owner", "requester"])
    def test_a_structural_change_on_either_side_is_answered_in_full(
        self, backend, side
    ):
        with deployment(backend) as (session, a, b, tree_a, tree_b):
            a.copy_from(PATH, ("b", PATH))
            rename_field(tree_b if side == "owner" else tree_a)
            tree_b.find("zoom").set("value", 9)
            round_trips = a.stats["rx_state_reply"]
            a.copy_from(PATH, ("b", PATH))
            assert a.stats["rx_state_reply"] == round_trips + 1
            assert (b.stats["full_fetches"], b.stats["delta_fetches"]) == (2, 0)
            assert tree_a.find("zoom").value == 9
            # The new baseline describes the new structure: delta again.
            tree_b.find("zoom").set("value", 10)
            a.copy_from(PATH, ("b", PATH))
            assert (b.stats["delta_fetches"], a.stats["delta_resyncs"]) == (1, 0)
            assert tree_a.find("zoom").value == 10

    def test_dropped_replies_then_the_next_fetch_converges(self, backend):
        with deployment(backend, request_timeout=0.5) as (
            session, a, b, tree_a, tree_b,
        ):
            a.copy_from(PATH, ("b", PATH))
            dropping = [True]
            tap(b, lambda m: dropping[0] and m.kind == kinds.STATE_REPLY)
            # Two in a row: the second lost reply is a *full* one, whose
            # sequence number must not collide with the entry the
            # requester still holds from the first transfer.
            for value in ("lost", "lost again"):
                tree_b.find("field").set("value", value)
                with pytest.raises(ServerError, match="timed out"):
                    a.copy_from(PATH, ("b", PATH))
            assert tree_a.find("field").value == ""
            dropping[0] = False
            tree_b.find("zoom").set("value", 3)
            a.copy_from(PATH, ("b", PATH))
            assert_synced(tree_b, tree_a)
            assert b.stats["full_fetches"] == 3
            tree_b.find("flag").set("set", True)
            a.copy_from(PATH, ("b", PATH))
            assert (b.stats["delta_fetches"], a.stats["deltas_applied"]) == (2, 1)
            assert_synced(tree_b, tree_a)

    def test_requester_side_edit_between_two_fetches_is_overwritten(self, backend):
        """CopyFrom "updates its own state" (§3.1): the delta returns
        what the owner wrote, not what the requester wrote, so the call
        fetches once more — and still returns applied."""
        with deployment(backend) as (session, a, b, tree_a, tree_b):
            tree_b.find("field").set("value", "one")
            a.copy_from(PATH, ("b", PATH))
            tree_a.find("zoom").set("value", 77)
            tree_b.find("field").set("value", "two")
            report = a.copy_from(PATH, ("b", PATH))
            assert a.stats["delta_resyncs"] == 1
            assert (b.stats["full_fetches"], b.stats["delta_fetches"]) == (2, 1)
            assert tree_a.find("zoom").value == 0
            assert "zoom" in report.applied_paths
            assert_synced(tree_b, tree_a)
            # An edit the delta does return costs nothing.
            tree_a.find("field").set("value", "mine")
            tree_b.find("field").set("value", "three")
            a.copy_from(PATH, ("b", PATH))
            assert (a.stats["delta_resyncs"], a.stats["deltas_applied"]) == (1, 1)
            assert_synced(tree_b, tree_a)

    def test_target_side_edit_does_not_survive_a_delta_push(self, backend):
        """§3.1 CopyTo shows the target the sender's work: an edit made
        on the target that the delta does not overwrite is a continuity
        loss like any other, and the full snapshot makes both ends equal."""
        with deployment(backend) as (session, a, b, tree_a, tree_b):
            tree_a.find("field").set("value", "one")
            a.copy_to(PATH, ("b", PATH))
            assert settle(session, lambda: tree_b.find("field").value == "one")
            tree_b.find("zoom").set("value", 77)
            a.copy_to(PATH, ("b", PATH))
            assert settle(session, lambda: tree_b.find("zoom").value == 0)
            assert (b.stats["delta_resyncs"], a.stats["resync_pushes"]) == (1, 1)
            assert_synced(tree_a, tree_b)
            # An edit the delta does return costs nothing.
            tree_b.find("field").set("value", "theirs")
            tree_a.find("field").set("value", "two")
            a.copy_to(PATH, ("b", PATH))
            assert settle(session, lambda: tree_b.find("field").value == "two")
            assert (b.stats["delta_resyncs"], b.stats["deltas_applied"]) == (1, 1)

    def test_remote_copy_twice_is_a_delta_and_a_changed_target_resyncs(
        self, backend
    ):
        with deployment(backend, "abc") as (session, a, b, c, tree_a, tree_b, _):
            tree_a.find("field").set("value", "one")
            c.remote_copy(("a", PATH), ("b", PATH))
            assert settle(session, lambda: tree_b.find("field").value == "one")
            assert (a.stats["full_fetches"], b.stats["deltas_applied"]) == (1, 0)
            assert (PATH, ("a", PATH)) in b.continuity.received

            tree_a.find("zoom").set("value", 5)
            c.remote_copy(("a", PATH), ("b", PATH))
            assert settle(session, lambda: tree_b.find("zoom").value == 5)
            assert (a.stats["delta_fetches"], b.stats["deltas_applied"]) == (1, 1)

            rename_field(tree_b)
            tree_a.find("field").set("value", "two")
            c.remote_copy(("a", PATH), ("b", PATH))
            assert settle(session, lambda: tree_b.find("field2").value == "two")
            assert (b.stats["delta_resyncs"], a.stats["resync_pushes"]) == (1, 1)
            # The resync is the owner's own push, and continues the stream.
            tree_a.find("zoom").set("value", 6)
            a.copy_to(PATH, ("b", PATH))
            assert settle(session, lambda: tree_b.find("zoom").value == 6)
            assert (a.stats["delta_pushes"], b.stats["deltas_applied"]) == (1, 2)

    def test_remote_copy_is_full_where_the_owner_may_not_push_itself(self, backend):
        """A lost delta is recovered by the owner's own PUSH_STATE; where
        the server would refuse that, RemoteCopy stays a full transfer."""
        from repro.server.permissions import WRITE, PermissionRule

        with deployment(backend, "abc") as (session, a, b, c, tree_a, tree_b, _):
            session.server.access.add(
                PermissionRule("user-a", "b", "/", WRITE, allow=False)
            )
            for value in ("one", "two"):
                tree_a.find("field").set("value", value)
                c.remote_copy(("a", PATH), ("b", PATH))
                assert settle(session, lambda: tree_b.find("field").value == value)
            assert a.stats["full_fetches"] + a.stats["delta_fetches"] == 0
            assert not a.continuity.sent and not b.continuity.received

    def test_a_fetch_without_the_block_gets_the_full_payload(self, backend):
        """Mixed fleet, old requester: ``fetch_state()`` is one."""
        with deployment(backend) as (session, a, b, tree_a, tree_b):
            tree_b.find("field").set("value", "inspect me")
            a.copy_from(PATH, ("b", PATH))  # an entry exists; it must not matter
            payload = a.fetch_state(("b", PATH))
            expected = build_state_payload(tree_b, b.semantics)
            expected["object"] = gid_to_wire(("b", PATH))
            assert payload == json.loads(json.dumps(expected))
            assert list(b.continuity.sent) == [(PATH, ("a", PATH))]
            assert b.stats["full_fetches"] == 1

    def test_a_reply_without_the_block_is_applied_as_before(self, backend):
        """Mixed fleet, old server or owner: the block is not forwarded,
        the owner answers in full, and no continuity is established."""
        with deployment(backend) as (session, a, b, tree_a, tree_b):
            forward = session.server._forward_fetch
            session.server._forward_fetch = lambda obj, route, sync=None: forward(
                obj, route
            )
            for value in ("one", "two"):
                tree_b.find("field").set("value", value)
                report = a.copy_from(PATH, ("b", PATH))
                assert "field" in report.applied_paths
                assert_synced(tree_b, tree_a)
            assert not a.continuity.received and not b.continuity.sent
            assert b.stats["full_fetches"] + b.stats["delta_fetches"] == 0

    def test_a_block_naming_someone_elses_object_is_refused(self, backend):
        with deployment(backend, "abc") as (session, a, b, c, *_):
            from repro.net.message import Message

            with pytest.raises(ServerError, match="sync block"):
                c.request(
                    Message(
                        kind=kinds.FETCH_STATE,
                        sender="c",
                        payload={
                            "object": gid_to_wire(("b", PATH)),
                            "sync": {"target": gid_to_wire(("a", PATH)), "seq": 0},
                        },
                    )
                )
            assert not b.continuity.sent


class TestFetchCreatedEntries:
    """Owner-side ``continuity.sent`` records are created by whoever fetches;
    they end with what they describe, like the ones pushes create."""

    def test_a_hundred_fetches_leave_one_entry(self, duo):
        session, a, b, tree_a, tree_b = duo
        for index in range(100):
            tree_b.find("zoom").set("value", index % 100)
            a.copy_from(PATH, ("b", PATH))
        assert list(b.continuity.sent) == [(PATH, ("a", PATH))]
        assert list(a.continuity.received) == [(PATH, ("b", PATH))]
        assert (b.stats["full_fetches"], b.stats["delta_fetches"]) == (1, 99)

    def test_destroyed_widget_drops_its_fetch_created_entries(self, duo):
        session, a, b, tree_a, tree_b = duo
        for tree in (tree_a, tree_b):
            TextField("text", parent=Form("form", parent=tree))
        a.copy_from("/app/form", ("b", "/app/form"))
        a.copy_from(PATH, ("b", PATH))
        assert set(b.continuity.sent) == {
            ("/app/form", ("a", "/app/form")),
            (PATH, ("a", PATH)),
        }
        tree_b.find("form").destroy()
        assert set(b.continuity.sent) == {(PATH, ("a", PATH))}
        tree_a.find("form").destroy()
        assert set(a.continuity.received) == {(PATH, ("b", PATH))}

    def test_departed_requester_drops_the_entries_it_created(self, duo):
        session, a, b, tree_a, tree_b = duo
        c = session.create_instance("c", user="carol")
        c.add_root(make_tree())
        a.copy_from(PATH, ("b", PATH))
        c.copy_from(PATH, ("b", PATH))
        assert set(b.continuity.sent) == {(PATH, ("a", PATH)), (PATH, ("c", PATH))}
        a.unregister()
        session.pump()
        assert set(b.continuity.sent) == {(PATH, ("c", PATH))}

    def test_adopted_roster_drops_fetch_created_entries_of_the_missing(self, duo):
        session, a, b, tree_a, tree_b = duo
        a.copy_from(PATH, ("b", PATH))
        without_a = session.server.registry.full_roster()
        without_a["roster"] = [
            record for record in without_a["roster"] if record["instance_id"] != "a"
        ]
        b.handle_message(Message(kinds.INSTANCE_LIST, SERVER_ID, payload=without_a))
        assert not b.continuity.sent


class TestDeltaCost:
    """A delta pays for the widgets it carries: a repeat STRICT CopyTo and
    CopyFrom between two 25-field forms walk no structure spec on either
    end, because the receiver keeps the sender's path -> type table from
    the full snapshot that started each stream."""

    FIELDS = 25

    def make_form(self):
        form = Form("form")
        for index in range(self.FIELDS):
            TextField(f"f{index:02d}", parent=form)
        return form

    def test_a_repeat_transfer_walks_no_structure_spec(self, monkeypatch):
        session = Session(backend="memory")
        try:
            a = session.create_instance("a", user="alice")
            b = session.create_instance("b", user="bob")
            form_a = a.add_root(self.make_form())
            form_b = b.add_root(self.make_form())
            session.pump()
            a.copy_to(form_a, b.gid(form_b))
            a.copy_from(form_a, b.gid(form_b))
            types = dict(shape(form_a).types)
            for receiver, sender in ((b, "a"), (a, "b")):
                entry = receiver.continuity.received[("/form", (sender, "/form"))]
                assert entry.types == types
                assert not any(
                    isinstance(value, Mapping) and "children" in value
                    for value in vars(entry).values()
                )

            walks = []
            spec_types = compat.spec_types

            def counted(*args):
                walks.append(args)
                return spec_types(*args)

            monkeypatch.setattr(compat, "spec_types", counted)
            for value in ("one", "two", "three"):
                form_a.find("f07").commit(value)
                a.copy_to(form_a, b.gid(form_b))
                a.copy_from(form_a, b.gid(form_b))
                assert form_b.find("f07").value == value
            assert walks == []
            assert (a.stats["delta_pushes"], b.stats["delta_fetches"]) == (3, 3)
            assert (a.stats["deltas_applied"], b.stats["deltas_applied"]) == (3, 3)
        finally:
            session.close()
