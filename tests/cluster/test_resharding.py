"""Live resharding on the embedded cluster: add/remove shards on a
running ring.

Acceptance bar (docs/CLUSTER.md): ``add_shard`` moves **only** the
stateful groups whose consistent-hash ownership the new node takes over
(asserted via ring ownership diff), ``remove_shard`` drains everything
off the leaving shard, and a workload running across a reshard loses and
reorders nothing.
"""

import pytest

from repro.cluster.hashring import HashRing
from repro.net import kinds
from repro.net.message import Message
from repro.session import Session
from repro.toolkit.widgets import Canvas, Shell, TextField


def build_tree(root="ui"):
    shell = Shell(root)
    Canvas("board", parent=shell, width=20, height=10)
    TextField("title", parent=shell)
    return shell


def make_cluster_session(shards=2, **kwargs):
    return Session(backend="memory", shards=shards, **kwargs)


def seed_groups(session, n_pairs=6):
    """n_pairs coupled pairs across two instances, each pair a group."""
    a = session.create_instance("a", user="amy")
    b = session.create_instance("b", user="ben")
    ta = a.add_root(build_tree())
    tb = b.add_root(build_tree())
    for i in range(n_pairs):
        sa = TextField(f"f{i}", parent=ta.find("/ui"))
        TextField(f"f{i}", parent=tb.find("/ui"))
        a.couple(sa, ("b", f"/ui/f{i}"))
    session.pump()
    return a, b, ta, tb


class TestAddShard:
    def test_moves_only_groups_the_new_node_owns(self):
        session = make_cluster_session(shards=2)
        try:
            cluster = session.cluster
            seed_groups(session)
            old_ring = HashRing(cluster.shard_ids)
            new_id = cluster.add_shard()
            session.pump()
            new_ring = cluster.ring
            assert new_ring.nodes() == old_ring.nodes() + (new_id,)
            moved = cluster.last_reshard["moved"]
            # Ring ownership diff: every moved group's key must have
            # changed owner *to the new shard*; no other group may move.
            for group in moved:
                gid = min(tuple(g) for g in group)
                key = f"{gid[0]}:{gid[1]}"
                assert old_ring.node_for(key) != new_id
                assert new_ring.node_for(key) == new_id
            # And everything that moved now actually lives there.
            for group in moved:
                for gid in group:
                    assert cluster.shard_of(tuple(gid)) == new_id
        finally:
            session.close()

    def test_workload_survives_reshard_with_zero_lost_events(self):
        session = make_cluster_session(shards=2)
        try:
            cluster = session.cluster
            a, b, ta, tb = seed_groups(session, n_pairs=2)
            board_a = ta.find("/ui/board")
            board_b = tb.find("/ui/board")
            a.couple(board_a, ("b", "/ui/board"))
            session.pump()
            for i in range(3):
                board_a.draw_stroke([(i, 0), (i, 1)], color="red", user="amy")
                session.pump()
            cluster.add_shard()
            session.pump()
            for i in range(3):
                board_b.draw_stroke([(0, i), (1, i)], color="blue", user="ben")
                session.pump()
            # Zero lost, zero reordered: both replicas hold all 6 strokes
            # in the same order.
            assert len(board_a.strokes) == 6
            assert board_a.strokes == board_b.strokes
        finally:
            session.close()

    def test_duplicate_shard_id_rejected(self):
        session = make_cluster_session(shards=2)
        try:
            with pytest.raises(ValueError):
                session.cluster.add_shard("shard-0")
        finally:
            session.close()

    def test_new_shard_enforces_bootstrapped_acls(self):
        # A rule committed before the reshard must hold on the new shard:
        # the router ships its ACL mirror with SHARD_SYNC at add time.
        from repro.server.permissions import PermissionRule

        session = make_cluster_session(shards=1, default_allow=True)
        try:
            a = session.create_instance("a", user="amy")
            session.create_instance("b", user="ben")
            a.add_root(build_tree())
            a.set_permission(
                PermissionRule(
                    user="ben", instance_id="a", path_prefix="/ui/title",
                    right="couple", allow=False,
                )
            )
            session.pump()
            cluster = session.cluster
            new_id = cluster.add_shard()
            session.pump()
            shard = cluster.shards[new_id]
            assert not shard.access.check("ben", ("a", "/ui/title"), "couple")
        finally:
            session.close()


class TestRemoveShard:
    def test_drains_everything_off_the_leaving_shard(self):
        session = make_cluster_session(shards=3)
        try:
            cluster = session.cluster
            seed_groups(session)
            victim = cluster.shard_ids[0]
            moved = cluster.remove_shard(victim)
            session.pump()
            assert victim not in cluster.shard_ids
            assert victim not in cluster.shards
            # Everything that lived on the victim is homed elsewhere now.
            for group in moved:
                for gid in group:
                    assert cluster.shard_of(tuple(gid)) != victim
            assert not any(
                home == victim for home in cluster._home.values()
            )
        finally:
            session.close()

    def test_traffic_keeps_flowing_after_removal(self):
        session = make_cluster_session(shards=3)
        try:
            cluster = session.cluster
            a, b, ta, tb = seed_groups(session, n_pairs=2)
            cluster.remove_shard(cluster.shard_ids[-1])
            session.pump()
            ta.find("/ui/f0").commit("after-remove")
            session.pump()
            assert tb.find("/ui/f0").value == "after-remove"
        finally:
            session.close()

    def test_last_shard_cannot_be_removed(self):
        from repro.errors import ReproError

        session = make_cluster_session(shards=1)
        try:
            with pytest.raises(ReproError):
                session.cluster.remove_shard("shard-0")
        finally:
            session.close()

    def test_unknown_shard_rejected(self):
        session = make_cluster_session(shards=2)
        try:
            with pytest.raises(ValueError):
                session.cluster.remove_shard("shard-99")
        finally:
            session.close()


class TestAdminKinds:
    def test_cluster_status_reply(self):
        session = make_cluster_session(shards=2)
        try:
            cluster = session.cluster
            replies = []
            original = cluster._transport.send
            cluster._transport.send = lambda m: replies.append(m)
            try:
                cluster.handle_message(
                    Message(
                        kind=kinds.CLUSTER_STATUS, sender="ops", payload={}
                    )
                )
            finally:
                cluster._transport.send = original
            (reply,) = [
                m for m in replies
                if m.kind == kinds.CLUSTER_STATUS_REPLY
            ]
            assert reply.payload["shards"] == list(cluster.shard_ids)
        finally:
            session.close()

    def test_cluster_reshard_add_and_remove(self):
        session = make_cluster_session(shards=2)
        try:
            cluster = session.cluster
            replies = []
            original = cluster._transport.send
            cluster._transport.send = lambda m: replies.append(m)
            try:
                cluster.handle_message(
                    Message(
                        kind=kinds.CLUSTER_RESHARD,
                        sender="ops",
                        payload={"action": "add"},
                    )
                )
                added = replies[-1]
                assert added.kind == kinds.CLUSTER_RESHARD_REPLY
                new_id = added.payload["shard"]
                assert new_id in cluster.shard_ids
                cluster.handle_message(
                    Message(
                        kind=kinds.CLUSTER_RESHARD,
                        sender="ops",
                        payload={"action": "remove", "shard": new_id},
                    )
                )
                removed = replies[-1]
                assert removed.kind == kinds.CLUSTER_RESHARD_REPLY
                assert new_id not in cluster.shard_ids
            finally:
                cluster._transport.send = original
        finally:
            session.close()

    def test_unknown_action_is_an_error_reply(self):
        session = make_cluster_session(shards=2)
        try:
            cluster = session.cluster
            replies = []
            original = cluster._transport.send
            cluster._transport.send = lambda m: replies.append(m)
            try:
                cluster.handle_message(
                    Message(
                        kind=kinds.CLUSTER_RESHARD,
                        sender="ops",
                        payload={"action": "explode"},
                    )
                )
            finally:
                cluster._transport.send = original
            assert replies[-1].kind == kinds.ERROR
        finally:
            session.close()
