"""The one-message action equals the two-message one, replica by replica.

Clients send one LOCK_REQUEST that carries the event; the server grants
and broadcasts under the same floor.  Before, they sent LOCK_REQUEST,
waited for the grant, then sent EVENT.  The paper's serialization (§3.2)
must not be able to tell the two apart: for any multi-writer script over
overlapping couple groups — writers racing a held floor and being denied
included — every replica executes the same events in the same order and
ends in the same UI state as under an oracle that drives the same script
through the two-message form by hand.
"""

import string

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED
from repro.toolkit.widgets import Scale, Shell, TextField

from conftest import floor_free, settle, two_message_fire

PATHS = {"field": "/ui/field", "scale": "/ui/scale"}
MAX_INSTANCES = 5


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=MAX_INSTANCES))
    member = st.integers(min_value=0, max_value=n - 1)
    links = draw(
        st.lists(
            st.tuples(member, member, st.sampled_from(sorted(PATHS))).filter(
                lambda link: link[0] != link[1]
            ),
            min_size=1,
            max_size=6,
        )
    )
    # (writer, widget, value, quiesce): without *quiesce* the next step
    # starts while this one's broadcast and acks are in flight, so a
    # different writer on the same group finds the floor held.
    script = draw(
        st.lists(
            st.tuples(
                member,
                st.sampled_from(sorted(PATHS)),
                st.one_of(
                    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4),
                    st.integers(min_value=0, max_value=100),
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return n, links, script


def one_message(instance, widget, **params):
    widget.fire(VALUE_CHANGED, user=instance.user, **params)
    return not instance.last_execution.lock_denied


def two_message(instance, widget, **params):
    return two_message_fire(
        instance, widget, VALUE_CHANGED, user=instance.user, **params
    )


def run(backend, fire, scenario, *, race):
    """Drive *scenario* with *fire*; returns what a replica can observe.

    With *race* the script's unquiesced steps really overlap (memory
    backend: deterministic).  Without, every step settles first.
    """
    n, links, script = scenario
    with Session(backend=backend) as session:
        instances, trees = [], []
        for i in range(n):
            instances.append(session.create_instance(f"i{i}", user=f"u{i}"))
            root = Shell("ui")
            TextField("field", parent=root)
            Scale("scale", parent=root, maximum=100)
            trees.append(instances[i].add_root(root))
        for source, target, kind in links:
            path = PATHS[kind]
            instances[source].couple(trees[source].find(path), (f"i{target}", path))
        # couple() returns once the server committed; the other members'
        # COUPLE_UPDATEs may still be in flight.
        assert settle(
            session,
            lambda: all(
                instance.replica.group_of(gid) == session.server.couples.group_of(gid)
                for instance in instances
                for gid in ((instance.instance_id, path) for path in PATHS.values())
            ),
        )
        granted = []
        for writer, kind, value, quiesce in script:
            widget = trees[writer].find(PATHS[kind])
            if kind == "field":
                params = {"value": str(value)}
            else:
                params = {"value": value if isinstance(value, int) else len(value)}
            granted.append(fire(instances[writer], widget, **params))
            if quiesce or not race:
                assert settle(session, lambda: True)
        assert settle(session, lambda: True)
        assert floor_free(session) and session.server.floors == {}
        order = [
            [
                (e.instance_id, e.source_path, dict(e.params))
                for e in instance.trace.events(VALUE_CHANGED)
            ]
            for instance in instances
        ]
        state = [
            {w.pathname: w.relevant_state() for w in tree.walk()} for tree in trees
        ]
        return granted, order, state


#: i1 writes while i0's acks are in flight: denied under either form.
RACE = (2, [(0, 1, "field")], [(0, "field", "a", False), (1, "field", "b", True)])


class TestOneMessageEqualsTwoMessage:
    def test_the_race_really_denies(self):
        """Guard: unquiesced steps do put a writer against a held floor."""
        granted, order, _ = run("memory", one_message, RACE, race=True)
        assert granted == [True, False]
        assert [value["value"] for _, _, value in order[1]] == ["b", "a"]

    @given(scenario=scenarios())
    @example(scenario=RACE)
    @settings(max_examples=60, deadline=None)
    def test_memory_with_racing_writers(self, scenario):
        assert run("memory", one_message, scenario, race=True) == run(
            "memory", two_message, scenario, race=True
        )

    @pytest.mark.parametrize("backend", ["tcp", "aio"])
    @given(scenario=scenarios())
    @settings(max_examples=6, deadline=None)
    def test_sockets_step_by_step(self, backend, scenario):
        """Socket timing cannot stage a race deterministically; each step
        settles (values *and* floor) before the next."""
        assert run(backend, one_message, scenario, race=False) == run(
            "memory", two_message, scenario, race=False
        )
