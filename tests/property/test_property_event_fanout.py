"""Property: the shared-payload event fan-out targets what a per-recipient
construction would.

The server sends one EVENT_BROADCAST payload per *distinct* target list
(receivers with equal lists share the dict).  The oracle below is the
construction it replaced — one target list per receiving instance, built
from the couple group with no sharing — and every instance must
re-execute the event on exactly the objects the oracle names for it, for
any group shape, any actor, any value.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED
from repro.toolkit.widgets import Shell, TextField

N_INSTANCES = 5
FIELDS = ("/ui/f0", "/ui/f1", "/ui/f2")

#: Per instance, which of its three fields join the one couple group:
#: 1–3 coupled objects each, so target lists repeat across some
#: receivers and differ across others.
memberships = st.lists(
    st.sets(st.sampled_from(FIELDS), min_size=1, max_size=3),
    min_size=2,
    max_size=N_INSTANCES,
)

edits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_INSTANCES - 1),  # actor
        st.sampled_from(FIELDS),
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=6,
)


def oracle_targets(server, source):
    """Per-recipient construction: instance id -> its own target paths."""
    targets = {}
    for instance_id, path in sorted(server.couples.group_of(source) - {source}):
        targets.setdefault(instance_id, []).append(path)
    return targets


class TestEventFanoutTargets:
    @given(membership=memberships, script=edits)
    @settings(max_examples=40, deadline=None)
    def test_receivers_reexecute_on_exactly_their_own_objects(self, membership, script):
        executed = []
        with Session(backend="memory") as session:
            trees = {}
            for i in range(len(membership)):
                instance = session.create_instance(f"i{i}", user=f"u{i}")
                root = Shell("ui")
                for path in FIELDS:
                    field = TextField(path.rsplit("/", 1)[1], parent=root)
                    field.add_callback(
                        VALUE_CHANGED,
                        lambda widget, event, who=f"i{i}": executed.append(
                            (who, widget.pathname)
                        ),
                    )
                trees[f"i{i}"] = instance.add_root(root)
            session.pump()
            members = sorted(
                (f"i{i}", path) for i, paths in enumerate(membership) for path in paths
            )
            hub = members[0]
            for member in members[1:]:
                session.instances[hub[0]].couple(trees[hub[0]].find(hub[1]), member)
            session.pump()

            model = {(who, path): "" for who in trees for path in FIELDS}
            for actor, path, value in script:
                source = (f"i{actor % len(membership)}", path)
                expected = oracle_targets(session.server, source)
                del executed[:]
                trees[source[0]].find(path).commit(value)
                session.pump()
                observed = {}
                for who, where in executed:
                    if (who, where) != source:
                        observed.setdefault(who, []).append(where)
                assert {k: sorted(v) for k, v in observed.items()} == expected
                # Final UI state: the group took the value, nobody outside
                # it heard of the edit.
                for gid in session.server.couples.group_of(source) | {source}:
                    model[gid] = value
                shown = {
                    (instance_id, field_path): tree.find(field_path).get("value")
                    for instance_id, tree in trees.items()
                    for field_path in FIELDS
                }
                assert shown == model
            assert len(session.server.locks) == 0
