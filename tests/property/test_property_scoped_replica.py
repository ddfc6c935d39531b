"""Property: a scoped replica is exactly the server's view of its groups.

COUPLE_UPDATE reaches only the instances holding a member of the affected
group, so a replica must (a) learn a group's history when it joins and
(b) forget a group when it leaves.  Over random couple / decouple /
subtree-decouple / remote_couple / unregister / re-register scripts, at
quiescence every instance's replica holds the server's links restricted
to the groups containing one of its objects — no phantom, nothing
missing — and answers ``coupled_objects`` like the server would.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.session import Session
from repro.toolkit.widgets import Form, Shell, TextField

from test_property_couples_incremental import bfs_components

#: Coupleable objects of every instance; ``/app/sub`` is the subtree a
#: ``decouple_object`` on the parent withdraws in one go.
PATHS = ("/app/x", "/app/sub/y", "/app/sub/z")
SUBTREES = PATHS + ("/app/sub", "/app")
MAX_INSTANCES = 6

actor = st.integers(0, MAX_INSTANCES - 1)
path = st.sampled_from(PATHS)
gid = st.tuples(actor, path)

#: Every operation starts with the index of the instance issuing it.
couple_op = st.tuples(st.just("couple"), actor, path, gid)
operations = st.one_of(
    couple_op,
    couple_op,  # weight: groups must form before they can split
    st.tuples(st.just("decouple"), actor, path, gid),
    st.tuples(st.just("decouple_known"), actor, path, st.integers(0, 7)),
    st.tuples(st.just("decouple_object"), actor, st.sampled_from(SUBTREES)),
    st.tuples(st.just("remote_couple"), actor, gid, gid),
    st.tuples(st.just("unregister"), actor),
    st.tuples(st.just("register"), actor),
)


def build_tree():
    root = Shell("app")
    TextField("x", parent=root)
    sub = Form("sub", parent=root)
    TextField("y", parent=sub)
    TextField("z", parent=sub)
    return root


def check_replicas(session, instances):
    links = session.server.couples.links()
    # The oracle shares no code with the union-find table under test.
    group = {
        member: component
        for component in bfs_components(links)
        for member in component
    }
    for instance in instances:
        own = instance.instance_id
        expected = {
            link
            for link in links
            if instance.registered
            and any(member[0] == own for member in group[link.source])
        }
        assert set(instance.replica.links()) == expected, own
        if not instance.registered:
            continue
        for path in PATHS:
            obj = (own, path)
            assert set(instance.coupled_objects(path)) == (
                group.get(obj, frozenset({obj})) - {obj}
            ), obj


def run_script(n_instances, script):
    with Session(backend="memory") as session:
        instances = []
        for index in range(n_instances):
            instance = session.create_instance(f"i{index}", user=f"u{index}")
            instance.add_root(build_tree())
            instances.append(instance)
        session.pump()
        couples = session.server.couples

        def wire(gid):
            return (f"i{gid[0] % n_instances}", gid[1])

        for op, who, *args in script:
            actor = instances[who % n_instances]
            try:
                if op == "register":
                    if not actor.registered:
                        actor.register()
                elif not actor.registered:
                    continue
                elif op == "couple":
                    actor.couple(args[0], wire(args[1]))
                elif op == "decouple":
                    actor.decouple(args[0], wire(args[1]))
                elif op == "decouple_known":
                    # A link that exists, so removals really split groups
                    # instead of mostly answering "no such link".
                    own = actor.gid(args[0])
                    direct = [
                        peer
                        for peer in actor.coupled_objects(args[0])
                        if couples.has_link(own, peer)
                        or couples.has_link(peer, own)
                    ]
                    if direct:
                        actor.decouple(args[0], direct[args[1] % len(direct)])
                elif op == "decouple_object":
                    actor.decouple_object(args[0])
                elif op == "remote_couple":
                    actor.remote_couple(wire(args[0]), wire(args[1]))
                elif op == "unregister":
                    actor.unregister()
            except ReproError:
                pass  # refused by the server (unregistered peer, no link, ...)
            session.pump()
            check_replicas(session, instances)


@settings(max_examples=250, deadline=None)
@given(
    n_instances=st.integers(4, MAX_INSTANCES),
    script=st.lists(operations, min_size=1, max_size=16),
)
def test_replica_equals_server_view_of_own_groups(n_instances, script):
    run_script(n_instances, script)
