"""Unit tests for the compatibility model (§3.3)."""

import pytest

from repro.core import compat
from repro.errors import IncompatibleObjectsError
from repro.toolkit.builder import shape, to_spec
from repro.toolkit.widgets import Form, Label, Shell, TextField


def spec(type_name, name, children=()):
    node = {"type": type_name, "name": name}
    if children:
        node["children"] = list(children)
    return node


@pytest.fixture
def corr():
    registry = compat.CorrespondenceRegistry()
    registry.declare("label", "textfield", {"text": "value"})
    return registry


class TestCorrespondences:
    def test_declared_lookup_both_directions(self, corr):
        assert corr.lookup("label", "textfield") == {"text": "value"}
        assert corr.lookup("textfield", "label") == {"value": "text"}

    def test_must_cover_relevant_attributes(self):
        registry = compat.CorrespondenceRegistry()
        with pytest.raises(ValueError):
            registry.declare("optionmenu", "textfield", {"selection": "value"})

    def test_unknown_attribute_rejected(self):
        registry = compat.CorrespondenceRegistry()
        with pytest.raises(ValueError):
            registry.declare("label", "textfield", {"text": "bogus"})

    def test_pairs_listing(self, corr):
        assert ("label", "textfield") in corr.pairs()
        assert len(corr) == 2


class TestDirectCompatibility:
    def test_same_type_identity_mapping(self):
        mapping = compat.attribute_mapping("textfield", "textfield")
        assert mapping == {"value": "value"}

    def test_different_types_need_declaration(self, corr):
        assert not compat.directly_compatible("label", "textfield")
        assert compat.directly_compatible("label", "textfield", corr)

    def test_mapping_via_correspondence(self, corr):
        assert compat.attribute_mapping("label", "textfield", corr) == {
            "text": "value"
        }


class TestStructuralCompatibility:
    def test_identical_structures(self):
        a = spec("form", "f", [spec("textfield", "x"), spec("pushbutton", "b")])
        b = spec("form", "g", [spec("textfield", "y"), spec("pushbutton", "c")])
        result = compat.structurally_compatible(a, b)
        assert result.compatible
        assert result.mapping[""] == ""
        assert result.mapping["x"] == "y"
        assert result.mapping["b"] == "c"

    def test_different_child_counts_incompatible(self):
        a = spec("form", "f", [spec("textfield", "x")])
        b = spec("form", "g", [])
        assert not compat.structurally_compatible(a, b).compatible

    def test_type_mismatch_incompatible(self):
        a = spec("form", "f", [spec("textfield", "x")])
        b = spec("form", "g", [spec("canvas", "x")])
        assert not compat.structurally_compatible(a, b).compatible

    def test_permuted_children_matched(self):
        a = spec("form", "f", [spec("textfield", "x"), spec("canvas", "c")])
        b = spec("form", "g", [spec("canvas", "d"), spec("textfield", "y")])
        result = compat.structurally_compatible(a, b)
        assert result.compatible
        assert result.mapping["x"] == "y"
        assert result.mapping["c"] == "d"

    def test_nested_matching(self):
        a = spec(
            "shell",
            "s1",
            [spec("form", "f", [spec("textfield", "deep")])],
        )
        b = spec(
            "shell",
            "s2",
            [spec("form", "g", [spec("textfield", "down")])],
        )
        result = compat.structurally_compatible(a, b)
        assert result.mapping["f/deep"] == "g/down"

    def test_heterogeneous_with_correspondence(self, corr):
        a = spec("form", "f", [spec("label", "caption")])
        b = spec("form", "g", [spec("textfield", "input")])
        assert not compat.structurally_compatible(a, b).compatible
        result = compat.structurally_compatible(a, b, correspondences=corr)
        assert result.compatible
        assert result.mapping["caption"] == "input"

    def test_ambiguous_bijection_backtracks(self):
        # Two same-typed children whose subtrees differ force backtracking:
        # a greedy first pairing of x1->y1 fails and must be revised.
        a = spec(
            "form",
            "f",
            [
                spec("form", "x1", [spec("textfield", "t")]),
                spec("form", "x2", [spec("canvas", "c")]),
            ],
        )
        b = spec(
            "form",
            "g",
            [
                spec("form", "y1", [spec("canvas", "c2")]),
                spec("form", "y2", [spec("textfield", "t2")]),
            ],
        )
        result = compat.structurally_compatible(a, b, strategy=compat.EXHAUSTIVE)
        assert result.compatible
        assert result.mapping["x1"] == "y2"
        assert result.mapping["x2"] == "y1"

    def test_heuristic_handles_type_permutation(self):
        a = spec("form", "f", [spec("textfield", "x"), spec("canvas", "c")])
        b = spec("form", "g", [spec("canvas", "d"), spec("textfield", "y")])
        result = compat.structurally_compatible(a, b, strategy=compat.HEURISTIC)
        assert result.compatible

    def test_heuristic_misses_exotic_case_exhaustive_finds(self):
        # Same-name-same-type pairs with incompatible subtrees: the greedy
        # matcher pins x->x by name and fails; exhaustive finds the cross
        # mapping.  Documents the heuristic's known limitation.
        a = spec(
            "form",
            "f",
            [
                spec("form", "x", [spec("textfield", "t")]),
                spec("form", "y", [spec("canvas", "c")]),
            ],
        )
        b = spec(
            "form",
            "g",
            [
                spec("form", "x", [spec("canvas", "c")]),
                spec("form", "y", [spec("textfield", "t")]),
            ],
        )
        heuristic = compat.structurally_compatible(a, b, strategy=compat.HEURISTIC)
        exhaustive = compat.structurally_compatible(a, b, strategy=compat.EXHAUSTIVE)
        assert not heuristic.compatible
        assert exhaustive.compatible

    def test_exhaustive_takes_back_a_child_match_the_rest_cannot_follow(self):
        # A label corresponds to a textfield and to a scale; a textfield
        # and a scale do not correspond.  x->p is tried first and matches,
        # leaves y only q, and is taken back for x->q, y->p.
        registry = compat.CorrespondenceRegistry()
        registry.declare("label", "textfield", {"text": "value"})
        registry.declare("label", "scale", {"text": "value"})
        a = spec("form", "f", [spec("label", "x"), spec("textfield", "y")])
        b = spec("form", "g", [spec("textfield", "p"), spec("scale", "q")])
        result = compat.structurally_compatible(
            a, b, strategy=compat.EXHAUSTIVE, correspondences=registry
        )
        assert result.compatible
        assert result.mapping == {"": "", "x": "q", "y": "p"}
        assert result.stats.backtracks == 2

    def test_node_budget_enforced(self):
        def wide(name, fanout, depth):
            if depth == 0:
                return spec("textfield", name)
            return spec(
                "form",
                name,
                [wide(f"{name}{i}", fanout, depth - 1) for i in range(fanout)],
            )

        # Mirror-ordered children at every level maximize backtracking.
        a = wide("a", 5, 3)
        b = wide("b", 5, 3)
        b["children"] = list(reversed(b["children"]))
        with pytest.raises(IncompatibleObjectsError):
            compat.structurally_compatible(a, b, node_budget=10)

    def test_stats_count_comparisons(self):
        a = spec("form", "f", [spec("textfield", "x")])
        b = spec("form", "g", [spec("textfield", "y")])
        result = compat.structurally_compatible(a, b)
        assert result.stats.nodes_compared >= 2

    def test_unknown_strategy_rejected(self):
        a = spec("form", "f")
        with pytest.raises(ValueError):
            compat.structurally_compatible(a, a, strategy="magic")


class TestPredefinedMapping:
    def test_valid_predefined_accepted(self):
        a = spec("form", "f", [spec("textfield", "x")])
        b = spec("form", "g", [spec("textfield", "y")])
        result = compat.structurally_compatible(
            a, b, strategy=compat.PREDEFINED, predefined={"": "", "x": "y"}
        )
        assert result.compatible

    def test_incomplete_predefined_rejected(self):
        a = spec("form", "f", [spec("textfield", "x")])
        b = spec("form", "g", [spec("textfield", "y")])
        result = compat.structurally_compatible(
            a, b, strategy=compat.PREDEFINED, predefined={"": ""}
        )
        assert not result.compatible

    def test_type_clash_in_predefined_rejected(self):
        a = spec("form", "f", [spec("textfield", "x")])
        b = spec("form", "g", [spec("canvas", "y")])
        result = compat.structurally_compatible(
            a, b, strategy=compat.PREDEFINED, predefined={"": "", "x": "y"}
        )
        assert not result.compatible

    def test_predefined_requires_mapping_argument(self):
        a = spec("form", "f")
        with pytest.raises(ValueError):
            compat.structurally_compatible(a, a, strategy=compat.PREDEFINED)


class TestEnsureCompatible:
    def test_raises_with_context(self):
        a = spec("form", "f", [spec("textfield", "x")])
        b = spec("canvas", "g")
        with pytest.raises(IncompatibleObjectsError):
            compat.ensure_compatible(a, b)

    def test_returns_mapping(self):
        a = spec("form", "f")
        b = spec("form", "g")
        assert compat.ensure_compatible(a, b) == {"": ""}


class TestTranslateState:
    def test_translates_paths_and_attributes(self, corr):
        source_root = Shell("s")
        Label("caption", parent=Form("f", parent=source_root), text="shown")
        target_root = Shell("t")
        TextField("input", parent=Form("g", parent=target_root))
        source_spec = to_spec(source_root)
        target_spec = to_spec(target_root)
        mapping = compat.ensure_compatible(
            source_spec, target_spec, correspondences=corr
        )
        from repro.toolkit.tree import subtree_state

        translated = compat.translate_state(
            subtree_state(source_root),
            compat.spec_types(source_spec),
            shape(target_root).types,
            mapping,
            corr,
        )
        assert translated["g/input"] == {"value": "shown"}

    def test_missing_mapping_entries_skipped(self):
        a = spec("form", "f")
        out = compat.translate_state(
            {"ghost": {"value": 1}}, compat.spec_types(a), {"": "form"}, {"": ""}
        )
        assert out == {}
