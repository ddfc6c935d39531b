"""End-to-end scenarios exercising the full coupling life cycle."""

import pytest

from repro.session import Session
from repro.toolkit.widgets import Shell, TextField

from conftest import make_demo_tree, record_executions, settle


@pytest.fixture
def trio():
    session = Session()
    instances = []
    trees = []
    for name in ("a", "b", "c"):
        inst = session.create_instance(name, user=f"user-{name}")
        tree = inst.add_root(make_demo_tree())
        instances.append(inst)
        trees.append(tree)
    yield session, instances, trees
    session.close()


FIELD = "/app/form/name"


class TestGroupDynamics:
    def test_chain_coupling_creates_one_group(self, trio):
        session, (a, b, c), (ta, tb, tc) = trio
        a.couple(ta.find(FIELD), ("b", FIELD))
        b.couple(tb.find(FIELD), ("c", FIELD))
        session.pump()
        ta.find(FIELD).commit("everyone")
        session.pump()
        assert tb.find(FIELD).value == "everyone"
        assert tc.find(FIELD).value == "everyone"
        # Replicated coupling info agrees at all sites.
        for inst in (a, b, c):
            assert len(inst.coupled_objects(FIELD)) == 2

    def test_event_from_middle_of_chain(self, trio):
        session, (a, b, c), (ta, tb, tc) = trio
        a.couple(ta.find(FIELD), ("b", FIELD))
        b.couple(tb.find(FIELD), ("c", FIELD))
        session.pump()
        tb.find(FIELD).commit("from b")
        session.pump()
        assert ta.find(FIELD).value == "from b"
        assert tc.find(FIELD).value == "from b"

    def test_late_joiner_state_then_action(self, trio):
        """The §3.1 protocol: copy state first, then couple for actions."""
        session, (a, b, c), (ta, tb, tc) = trio
        a.couple(ta.find(FIELD), ("b", FIELD))
        session.pump()
        ta.find(FIELD).commit("history")
        session.pump()
        # c joins late: synchronize by state, then couple.
        c.copy_from(tc.find(FIELD), ("a", FIELD))
        c.couple(tc.find(FIELD), ("a", FIELD))
        session.pump()
        assert tc.find(FIELD).value == "history"
        tb.find(FIELD).commit("now live")
        session.pump()
        assert tc.find(FIELD).value == "now live"

    def test_decoupling_splits_group(self, trio):
        session, (a, b, c), (ta, tb, tc) = trio
        a.couple(ta.find(FIELD), ("b", FIELD))
        b.couple(tb.find(FIELD), ("c", FIELD))
        session.pump()
        b.decouple(tb.find(FIELD), ("c", FIELD))
        session.pump()
        ta.find(FIELD).commit("ab only")
        session.pump()
        assert tb.find(FIELD).value == "ab only"
        assert tc.find(FIELD).value == ""

    def test_decoupled_object_survives(self, trio):
        """Unlike shared-window systems, a decoupled object keeps existing
        and keeps its content (§2.2)."""
        session, (a, b, c), (ta, tb, _) = trio
        a.couple(ta.find(FIELD), ("b", FIELD))
        session.pump()
        ta.find(FIELD).commit("keep me")
        session.pump()
        a.decouple(ta.find(FIELD), ("b", FIELD))
        session.pump()
        assert tb.find(FIELD).value == "keep me"
        assert not tb.find(FIELD).destroyed

    def test_instance_departure_decouples_automatically(self, trio):
        session, (a, b, c), (ta, tb, tc) = trio
        a.couple(ta.find(FIELD), ("b", FIELD))
        b.couple(tb.find(FIELD), ("c", FIELD))
        session.pump()
        b.close()
        session.pump()
        # b's links vanished; a-c were only connected through b.
        assert not a.is_coupled(FIELD)
        assert not c.is_coupled(FIELD)

    def test_multiple_groups_are_independent(self, trio):
        session, (a, b, c), (ta, tb, tc) = trio
        a.couple(ta.find(FIELD), ("b", FIELD))
        a.couple(ta.find("/app/board/zoom"), ("c", "/app/board/zoom"))
        session.pump()
        ta.find(FIELD).commit("text group")
        ta.find("/app/board/zoom").set_value(7)
        session.pump()
        assert tb.find(FIELD).value == "text group"
        assert tc.find(FIELD).value == ""
        assert tc.find("/app/board/zoom").value == 7
        assert tb.find("/app/board/zoom").value == 0


class TestOrderingGuarantees:
    def test_events_apply_in_origin_order(self, trio):
        session, (a, b, _), (ta, tb, _) = trio
        a.couple(ta.find(FIELD), ("b", FIELD))
        session.pump()
        executed = record_executions(tb.find(FIELD))
        for i in range(10):
            ta.find(FIELD).commit(f"v{i}")
        session.pump()
        assert tb.find(FIELD).value == "v9"
        assert [params["value"] for _, _, params in executed] == [
            f"v{i}" for i in range(10)
        ]
        seqs = [seq for _, seq, _ in executed]
        assert seqs == sorted(seqs)

    def test_alternating_writers_converge(self, trio):
        session, (a, b, _), (ta, tb, _) = trio
        a.couple(ta.find(FIELD), ("b", FIELD))
        session.pump()
        for i in range(6):
            writer_tree = ta if i % 2 == 0 else tb
            writer_tree.find(FIELD).commit(f"turn{i}")
            session.pump()
        assert ta.find(FIELD).value == "turn5"
        assert tb.find(FIELD).value == "turn5"


class TestHeterogeneousTreeShapes:
    def test_coupling_different_pathnames(self, trio):
        session, (a, b, _), (ta, _, _) = trio
        other = Shell("different")
        TextField("entry", parent=other)
        b.add_root(other)
        a.couple(ta.find(FIELD), ("b", "/different/entry"))
        session.pump()
        ta.find(FIELD).commit("cross-shape")
        session.pump()
        assert other.find("/different/entry").value == "cross-shape"

    def test_reverse_direction_too(self, trio):
        session, (a, b, _), (ta, _, _) = trio
        other = Shell("different")
        TextField("entry", parent=other)
        b.add_root(other)
        a.couple(ta.find(FIELD), ("b", "/different/entry"))
        session.pump()
        other.find("/different/entry").commit("upstream")
        session.pump()
        assert ta.find(FIELD).value == "upstream"


class TestScopedReplica:
    """A COUPLE_UPDATE reaches the affected group only, so a replica must
    forget a group the moment it leaves it (docs/PERF.md §1)."""

    @pytest.mark.parametrize("backend", ["memory", "aio"])
    def test_no_phantom_member_after_leaving_and_rejoining(self, backend):
        """a leaves the a-b-c chain, b-c splits without a hearing of it,
        a re-couples to b: a's CO must be the server's {b}, not {b, c}."""
        with Session(backend=backend) as session:
            instances, fields = {}, {}
            for name in ("a", "b", "c"):
                instances[name] = session.create_instance(name, user=name)
                fields[name] = instances[name].add_root(TextField("field"))
            a, b, c = (instances[n] for n in "abc")

            def gid(name):
                return instances[name].gid(fields[name])

            def settled(predicate):
                return settle(session, predicate, timeout=10.0)

            a.couple(fields["a"], gid("b"))
            b.couple(fields["b"], gid("c"))
            assert settled(lambda: len(a.coupled_objects(fields["a"])) == 2)
            a.decouple(fields["a"], gid("b"))
            b.decouple(fields["b"], gid("c"))
            assert settled(lambda: not c.is_coupled(fields["c"]))
            assert len(a.replica) == 0
            a.couple(fields["a"], gid("b"))
            assert settled(lambda: b.is_coupled(fields["b"]))

            assert a.coupled_objects(fields["a"]) == (gid("b"),)
            assert session.server.couples.group_of(gid("a")) == {
                gid("a"), gid("b"),
            }
            assert not c.is_coupled(fields["c"])
