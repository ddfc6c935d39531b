"""Tests for spec fingerprints and the structural-mapping cache (§3.3)."""


from repro.core import compat, state_sync
from repro.core.compat import (
    CorrespondenceRegistry,
    MappingCache,
    mapping_cache_key,
    spec_fingerprint,
)
from repro.toolkit.builder import shape, to_spec
from repro.toolkit.widgets import Form, Shell, TextField


def make_tree(root="app", field="name"):
    shell = Shell(root, title="t")
    form = Form("form", parent=shell)
    TextField(field, parent=form)
    return shell


class TestSpecFingerprint:
    def test_ignores_state_values(self):
        one, two = make_tree(), make_tree()
        two.find("form/name").set("value", "completely different")
        assert spec_fingerprint(to_spec(one)) == spec_fingerprint(to_spec(two))

    def test_sensitive_to_names(self):
        assert spec_fingerprint(to_spec(make_tree())) != spec_fingerprint(
            to_spec(make_tree(field="other"))
        )

    def test_sensitive_to_types_and_nesting(self):
        flat = Shell("app", title="t")
        TextField("name", parent=flat)
        assert spec_fingerprint(to_spec(make_tree())) != spec_fingerprint(
            to_spec(flat)
        )

    def test_stable_across_serialization(self):
        spec = to_spec(make_tree())
        assert spec_fingerprint(spec) == spec_fingerprint(dict(spec))

    def test_one_function_under_both_names(self):
        from repro.toolkit import builder

        assert compat.spec_fingerprint is builder.spec_fingerprint


class TestMappingCache:
    def test_miss_then_hit(self):
        cache = MappingCache()
        key = ("fa", "fb", "auto", 0, None)
        assert cache.lookup(key) is None
        cache.store(key, {"": ""})
        assert cache.lookup(key) == {"": ""}
        assert cache.hits == 1 and cache.misses == 1

    def test_lookup_returns_a_copy(self):
        cache = MappingCache()
        key = ("fa", "fb", "auto", 0, None)
        cache.store(key, {"": ""})
        cache.lookup(key)["corrupted"] = "x"
        assert cache.lookup(key) == {"": ""}

    def test_eviction_respects_maxsize(self):
        cache = MappingCache(maxsize=2)
        for i in range(5):
            cache.store((i,), {"": ""})
        assert len(cache) <= 2

    def test_clear_resets_counters(self):
        cache = MappingCache()
        cache.store(("k",), {})
        cache.lookup(("k",))
        cache.clear()
        assert cache.snapshot() == {"hits": 0, "misses": 0, "size": 0}


class TestCacheKey:
    @staticmethod
    def spec_and_fingerprint():
        """A received spec and the local side's already-known fingerprint."""
        tree = make_tree()
        return to_spec(tree), shape(tree).fingerprint

    def test_epoch_invalidates_on_declare(self):
        registry = CorrespondenceRegistry()
        spec, fp = self.spec_and_fingerprint()
        before = mapping_cache_key(spec, fp, "auto", registry)
        registry.declare(
            "label", "textfield", {"text": "value", "visible": "visible"}
        )
        after = mapping_cache_key(spec, fp, "auto", registry)
        assert before != after

    def test_predefined_mapping_part_of_key(self):
        spec, fp = self.spec_and_fingerprint()
        plain = mapping_cache_key(spec, fp, "auto", None)
        predefined = mapping_cache_key(spec, fp, "auto", None, {"": ""})
        assert plain != predefined

    def test_strategy_part_of_key(self):
        spec, fp = self.spec_and_fingerprint()
        assert mapping_cache_key(spec, fp, "auto", None) != mapping_cache_key(
            spec, fp, "exhaustive", None
        )

    def test_local_fingerprint_part_of_key(self):
        spec, fp = self.spec_and_fingerprint()
        other = Shell("app")
        TextField("only", parent=other)
        assert mapping_cache_key(spec, fp, "auto", None) != mapping_cache_key(
            spec, shape(other).fingerprint, "auto", None
        )


class TestResolveMappingUsesCache:
    def test_repeat_apply_hits_cache(self):
        cache = compat.DEFAULT_MAPPING_CACHE
        cache.clear()
        source_payload = state_sync.build_state_payload(make_tree("src"))
        target = make_tree("dst")
        state_sync.apply_state_payload(target, source_payload)
        assert cache.misses >= 1 and cache.hits == 0
        misses_after_first = cache.misses
        state_sync.apply_state_payload(target, source_payload)
        assert cache.hits >= 1
        assert cache.misses == misses_after_first

    def test_cached_mapping_produces_same_result(self):
        compat.DEFAULT_MAPPING_CACHE.clear()
        source = make_tree("src")
        source.find("form/name").set("value", "first")
        target = make_tree("dst")
        first = state_sync.apply_state_payload(
            target, state_sync.build_state_payload(source)
        )
        source.find("form/name").set("value", "second")
        second = state_sync.apply_state_payload(
            target, state_sync.build_state_payload(source)
        )
        assert first.mapping == second.mapping
        assert target.find("form/name").value == "second"

    def test_report_exposes_mapping(self):
        target = make_tree("dst")
        report = state_sync.apply_state_payload(
            target, state_sync.build_state_payload(make_tree("src"))
        )
        assert report.mapping is not None
        assert set(report.mapping) == {"", "form", "form/name"}


class TestIdentityMappingMemo:
    def test_same_type_identity(self):
        mapping = compat.attribute_mapping("textfield", "textfield")
        assert mapping["value"] == "value"

    def test_returns_fresh_copy(self):
        one = compat.attribute_mapping("textfield", "textfield")
        one["tainted"] = "x"
        assert "tainted" not in compat.attribute_mapping(
            "textfield", "textfield"
        )
