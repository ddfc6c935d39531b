"""Property-based tests for the couple table's closure invariants."""

from hypothesis import given, settings, strategies as st

from repro.server.couples import CoupleLink, CoupleTable, global_id

# A small universe of objects so links collide and form interesting groups.
objects = st.tuples(
    st.sampled_from(["a", "b", "c", "d"]),
    st.sampled_from(["/x", "/y", "/z"]),
).map(lambda t: global_id(*t))

link_pairs = st.tuples(objects, objects).filter(lambda p: p[0] != p[1])


@st.composite
def link_scripts(draw):
    """A sequence of add/remove operations over the object universe."""
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        action = draw(st.sampled_from(["add", "remove"]))
        source, target = draw(link_pairs)
        ops.append((action, source, target))
    return ops


def apply_script(ops):
    table = CoupleTable()
    live = set()
    for action, source, target in ops:
        if action == "add":
            table.add_link(CoupleLink(source=source, target=target))
            live.add(frozenset((source, target)))
        else:
            try:
                table.remove_link(source, target)
                live.discard(frozenset((source, target)))
            except Exception:
                pass
    return table, live


def reference_components(live):
    """Brute-force connected components from the surviving link set."""
    adjacency = {}
    for pair in live:
        a, b = tuple(pair)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    components = []
    seen = set()
    for node in adjacency:
        if node in seen:
            continue
        stack, comp = [node], set()
        while stack:
            current = stack.pop()
            if current in comp:
                continue
            comp.add(current)
            stack.extend(adjacency.get(current, ()))
        seen |= comp
        components.append(frozenset(comp))
    return components


class TestClosureProperties:
    @given(ops=link_scripts())
    @settings(max_examples=200)
    def test_group_matches_brute_force_components(self, ops):
        table, live = apply_script(ops)
        expected = reference_components(live)
        for component in expected:
            for member in component:
                assert table.group_of(member) == component

    @given(ops=link_scripts())
    @settings(max_examples=100)
    def test_group_membership_symmetric(self, ops):
        table, _ = apply_script(ops)
        for link in table.links():
            assert table.group_of(link.source) == table.group_of(link.target)

    @given(ops=link_scripts())
    @settings(max_examples=100)
    def test_co_never_contains_self(self, ops):
        table, _ = apply_script(ops)
        for link in table.links():
            for obj in link.endpoints:
                assert obj not in table.coupled_objects(obj)

    @given(ops=link_scripts())
    @settings(max_examples=100)
    def test_groups_partition_coupled_objects(self, ops):
        table, _ = apply_script(ops)
        groups = table.groups()
        assert table.group_count() == len(groups)
        seen = set()
        for group in groups:
            assert len(group) >= 2
            assert not (group & seen)
            seen |= group

    @given(ops=link_scripts())
    @settings(max_examples=100)
    def test_remove_instance_leaves_no_trace(self, ops):
        table, _ = apply_script(ops)
        table.remove_instance("a")
        for link in table.links():
            assert "a" not in (link.source[0], link.target[0])
        assert not table.objects_of_instance("a")

    @given(ops=link_scripts())
    @settings(max_examples=100)
    def test_wire_roundtrip_preserves_groups(self, ops):
        table, _ = apply_script(ops)
        rebuilt = CoupleTable()
        for link in table.links():
            rebuilt.add_link(CoupleLink.from_wire(link.to_wire()))
        for link in table.links():
            assert rebuilt.group_of(link.source) == table.group_of(link.source)
