"""Unit tests for state-payload building and application (§3.1)."""

import pytest

from repro.core import compat, state_sync
from repro.core.semantic import SemanticHookRegistry
from repro.errors import IncompatibleObjectsError
from repro.toolkit.widgets import Canvas, Form, Label, Shell, TextField


def source():
    root = Shell("src", title="Source")
    form = Form("form", parent=root)
    field = TextField("name", parent=form)
    field.set("value", "shipped")
    return root


def matching_target():
    root = Shell("dst", title="Target")
    form = Form("form", parent=root)
    TextField("name", parent=form)
    return root


class TestBuildPayload:
    def test_contains_state_and_structure(self):
        payload = state_sync.build_state_payload(source())
        assert payload["structure"]["type"] == "shell"
        assert payload["state"]["form/name"] == {"value": "shipped"}

    def test_structure_optional(self):
        payload = state_sync.build_state_payload(
            source(), include_structure=False
        )
        assert "structure" not in payload

    def test_semantics_included_when_present(self):
        reg = SemanticHookRegistry()
        root = source()
        reg.register("/src/form", lambda: {"n": 1}, lambda d: None)
        payload = state_sync.build_state_payload(root, reg)
        assert payload["semantic"] == {"form": {"n": 1}}

    def test_no_semantic_key_when_empty(self):
        payload = state_sync.build_state_payload(source(), SemanticHookRegistry())
        assert "semantic" not in payload


class TestStrictMode:
    def test_apply_homogeneous(self):
        payload = state_sync.build_state_payload(source())
        target = matching_target()
        report = state_sync.apply_state_payload(target, payload)
        assert target.find("form/name").get("value") == "shipped"
        assert report.mode == state_sync.STRICT
        assert report.mapping_size == 3  # shell, form, field

    def test_old_state_captured_for_history(self):
        payload = state_sync.build_state_payload(source())
        target = matching_target()
        target.find("form/name").set("value", "previous")
        report = state_sync.apply_state_payload(target, payload)
        assert report.old_state["form/name"] == {"value": "previous"}

    def test_structureless_fast_path(self):
        payload = state_sync.build_state_payload(
            source(), include_structure=False
        )
        target = matching_target()
        state_sync.apply_state_payload(target, payload)
        assert target.find("form/name").get("value") == "shipped"

    def test_incompatible_raises(self):
        payload = state_sync.build_state_payload(source())
        target = Shell("dst")
        Canvas("other", parent=target)
        with pytest.raises(IncompatibleObjectsError):
            state_sync.apply_state_payload(target, payload)

    def test_differently_named_components_translated(self):
        payload = state_sync.build_state_payload(source())
        target = Shell("dst")
        form = Form("panel", parent=target)
        TextField("input", parent=form)
        report = state_sync.apply_state_payload(target, payload)
        assert target.find("panel/input").get("value") == "shipped"
        assert "panel/input" in report.applied_paths

    def test_heterogeneous_via_correspondence(self):
        corr = compat.CorrespondenceRegistry()
        corr.declare("textfield", "label", {"value": "text"})
        payload = state_sync.build_state_payload(source())
        target = Shell("dst")
        form = Form("form", parent=target)
        Label("name", parent=form)
        state_sync.apply_state_payload(target, payload, correspondences=corr)
        assert target.find("form/name").get("text") == "shipped"

    def test_predefined_mapping_used(self):
        payload = state_sync.build_state_payload(source())
        target = matching_target()
        mapping = {"": "", "form": "form", "form/name": "form/name"}
        report = state_sync.apply_state_payload(
            target, payload, predefined=mapping
        )
        assert report.mapping_size == 3

    def test_strategy_auto_falls_back_to_exhaustive(self):
        # A case the greedy matcher cannot solve (cross-typed same names).
        src = Shell("src")
        fa = Form("x", parent=src)
        TextField("t", parent=fa)
        fb = Form("y", parent=src)
        Canvas("c", parent=fb)
        payload = state_sync.build_state_payload(src)
        dst = Shell("dst")
        ga = Form("x", parent=dst)
        Canvas("c", parent=ga)
        gb = Form("y", parent=dst)
        TextField("t", parent=gb)
        report = state_sync.apply_state_payload(dst, payload)
        assert report.mapping_size == 5


class TestMergeMode:
    def test_destructive_merge_invoked(self):
        payload = state_sync.build_state_payload(source())
        target = Shell("dst")  # empty: everything must be created
        report = state_sync.apply_state_payload(
            target, payload, mode=state_sync.MERGE
        )
        assert report.merge is not None
        assert target.find("form/name").get("value") == "shipped"

    def test_merge_requires_structure(self):
        payload = state_sync.build_state_payload(
            source(), include_structure=False
        )
        with pytest.raises(IncompatibleObjectsError):
            state_sync.apply_state_payload(
                Shell("dst"), payload, mode=state_sync.MERGE
            )


class TestFlexibleMode:
    def test_flexible_conserves_extras(self):
        payload = state_sync.build_state_payload(source())
        target = matching_target()
        TextField("extra", parent=target.find("form"))
        report = state_sync.apply_state_payload(
            target, payload, mode=state_sync.FLEXIBLE
        )
        assert not target.find("form/extra").destroyed
        assert target.find("form/name").get("value") == "shipped"
        assert "form/extra" in report.merge.conserved

    def test_flexible_requires_structure(self):
        payload = state_sync.build_state_payload(
            source(), include_structure=False
        )
        with pytest.raises(IncompatibleObjectsError):
            state_sync.apply_state_payload(
                Shell("dst"), payload, mode=state_sync.FLEXIBLE
            )


class TestSemanticsOnApply:
    def test_load_hooks_invoked(self):
        src_reg = SemanticHookRegistry()
        root = source()
        src_reg.register("/src/form", lambda: {"rows": [1]}, lambda d: None)
        payload = state_sync.build_state_payload(root, src_reg)

        dst_reg = SemanticHookRegistry()
        target = matching_target()
        landed = {}
        dst_reg.register("/dst/form", lambda: None, landed.update)
        report = state_sync.apply_state_payload(
            target, payload, semantics=dst_reg
        )
        assert landed == {"rows": [1]}
        assert report.semantic_loaded == ["form"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            state_sync.apply_state_payload(Shell("x"), {}, mode="telepathy")


class TestStructureDerivedOncePerChange:
    """What a steady-state transfer derives from structure (docs/PERF.md
    §11): with both forms' shape records warm, only what goes on or comes
    off the wire is walked or hashed."""

    FIELDS = 25

    def make_form(self):
        form = Form("form")
        for index in range(self.FIELDS):
            TextField(f"f{index:02d}", parent=form)
        return form

    @staticmethod
    def count_calls(monkeypatch, function, modules):
        calls = []

        def counted(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, function.__name__, counted)
        return calls

    def test_copy_to_and_copy_from_counts(self, monkeypatch):
        from repro.session import Session
        from repro.toolkit import builder

        session = Session(backend="memory")
        try:
            a = session.create_instance("a", user="alice")
            b = session.create_instance("b", user="bob")
            form_a = a.add_root(self.make_form())
            form_b = b.add_root(self.make_form())
            target = b.gid(form_b)
            a.copy_to(form_a, target)
            a.copy_from(form_a, target)
            session.pump()

            # Top-level walks only: the recursion inside to_spec goes
            # through builder's own global, which stays unwrapped.
            walks = self.count_calls(monkeypatch, builder.to_spec, [state_sync])
            hashes = self.count_calls(
                monkeypatch, builder.spec_fingerprint, [builder, compat]
            )

            form_a.find("f07").set("value", "edited")
            a.copy_to(form_a, target)
            session.pump()
            assert a.stats["delta_pushes"] == 1 and b.stats["deltas_applied"] == 1
            assert (len(walks), len(hashes)) == (0, 0)

            form_b.find("f11").set("value", "theirs")
            a.copy_from(form_a, target)
            session.pump()
            assert form_a.find("f11").value == "theirs"
            # The reply is a delta too: no `structure` on the wire, so
            # nothing to walk at the owner or to hash on arrival.
            assert b.stats["delta_fetches"] == 1 and a.stats["deltas_applied"] == 1
            assert (len(walks), len(hashes)) == (0, 0)

            # Outside the delta protocol the STATE_REPLY still carries
            # `structure`: one walk, and its hash on arrival.
            a.copy_from(form_a, target, strategy=compat.EXHAUSTIVE)
            assert (len(walks), len(hashes)) == (1, 1)
        finally:
            session.close()

    def test_wire_fingerprints_are_the_parent_commits_strings(self):
        """`sync.fp` / `local_fp` come from the shape record now; mixed
        fleets compare them with ones hashed from a full spec."""
        from repro.core.compat import spec_fingerprint
        from repro.session import Session
        from repro.toolkit.builder import to_spec

        session = Session(backend="memory")
        try:
            a = session.create_instance("a", user="alice")
            b = session.create_instance("b", user="bob")
            form_a = a.add_root(self.make_form())
            form_b = b.add_root(Shell("other"))
            Form("inner", parent=form_b)
            for index in range(self.FIELDS):
                TextField(f"g{index:02d}", parent=form_b.find("inner"))
            payload, _commit = a._build_push_payload(
                form_a, b.gid("/other/inner"), state_sync.STRICT, None, None
            )
            assert payload["sync"]["fp"] == spec_fingerprint(to_spec(form_a))
            assert payload["structure"] == to_spec(form_a)
            a.copy_to(form_a, b.gid("/other/inner"))
            session.pump()
            entry = b.continuity.received[("/other/inner", ("a", "/form"))]
            assert entry.fp == spec_fingerprint(to_spec(form_a))
            assert entry.local_fp == spec_fingerprint(
                to_spec(form_b.find("inner"))
            )
        finally:
            session.close()
