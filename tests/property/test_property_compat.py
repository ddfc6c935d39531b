"""Property-based tests for structural compatibility (§3.3)."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import compat

LEAF_TYPES = ["textfield", "pushbutton", "label", "scale"]


@st.composite
def tree_specs(draw, depth=3, max_children=3, name_prefix="n"):
    """Random widget-spec trees."""
    counter = [0]

    def node(level):
        counter[0] += 1
        name = f"{name_prefix}{counter[0]}"
        if level == 0 or draw(st.booleans()):
            return {"type": draw(st.sampled_from(LEAF_TYPES)), "name": name}
        n_children = draw(st.integers(min_value=0, max_value=max_children))
        spec = {"type": "form", "name": name}
        if n_children:
            spec["children"] = [node(level - 1) for _ in range(n_children)]
        return spec

    return node(depth)


def shuffle_children(spec, rng):
    """A structurally identical spec with children permuted and renamed."""
    out = {"type": spec["type"], "name": spec["name"] + "x"}
    children = list(spec.get("children", []))
    rng.shuffle(children)
    if children:
        out["children"] = [shuffle_children(c, rng) for c in children]
    return out


def count_nodes(spec):
    return 1 + sum(count_nodes(c) for c in spec.get("children", []))


class TestMatcherProperties:
    @given(spec=tree_specs(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=100)
    def test_self_compatibility_exhaustive(self, spec, seed):
        """Every tree is s-compatible with a shuffled copy of itself."""
        shuffled = shuffle_children(spec, random.Random(seed))
        result = compat.structurally_compatible(
            spec, shuffled, strategy=compat.EXHAUSTIVE
        )
        assert result.compatible
        assert len(result.mapping) == count_nodes(spec)

    @given(spec=tree_specs())
    @settings(max_examples=100)
    def test_identity_heuristic(self, spec):
        """The heuristic always solves the identity case."""
        result = compat.structurally_compatible(
            spec, spec, strategy=compat.HEURISTIC
        )
        assert result.compatible
        assert all(a == b for a, b in result.mapping.items())

    @given(spec=tree_specs(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=100)
    def test_mapping_is_bijective(self, spec, seed):
        shuffled = shuffle_children(spec, random.Random(seed))
        result = compat.structurally_compatible(spec, shuffled)
        assert result.compatible
        values = list(result.mapping.values())
        assert len(values) == len(set(values))

    @given(spec=tree_specs(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60)
    def test_mapping_type_compatible_per_node(self, spec, seed):
        shuffled = shuffle_children(spec, random.Random(seed))
        result = compat.structurally_compatible(spec, shuffled)
        types_a = compat.spec_types(spec)
        types_b = compat.spec_types(shuffled)
        for rel_a, rel_b in result.mapping.items():
            assert types_a[rel_a] == types_b[rel_b]

    @given(spec=tree_specs())
    @settings(max_examples=60)
    def test_extra_child_breaks_compatibility(self, spec):
        import copy

        bigger = copy.deepcopy(spec)
        bigger.setdefault("children", []).append(
            {"type": "canvas", "name": "intruder"}
        )
        if bigger["type"] != "form":
            bigger = {"type": "form", "name": "wrap", "children": [bigger]}
            spec = {"type": "form", "name": "wrap2", "children": [spec]}
        result = compat.structurally_compatible(spec, bigger)
        assert not result.compatible

    @given(spec=tree_specs(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60)
    def test_predefined_accepts_discovered_mapping(self, spec, seed):
        """A mapping found by the exhaustive matcher always validates as a
        predefined mapping."""
        shuffled = shuffle_children(spec, random.Random(seed))
        found = compat.structurally_compatible(spec, shuffled).mapping
        result = compat.structurally_compatible(
            spec, shuffled, strategy=compat.PREDEFINED, predefined=found
        )
        assert result.compatible
