"""Synchronization by UI state (§3.1): payload building and application.

The transfer unit is a *state payload* describing one (possibly complex) UI
object:

* ``structure`` — the builder spec of the subtree (types, names, nesting);
* ``state`` — relative path -> relevant attribute values;
* ``semantic`` — relative path -> data produced by the store hooks.

The owner side builds the payload (:func:`build_state_payload`); the
receiver applies it (:func:`apply_state_payload`) under one of three modes:

* :data:`STRICT` — requires structural compatibility; state is translated
  along the component mapping (heterogeneous types use declared attribute
  correspondences) and applied; nothing is created or destroyed.
* :data:`MERGE` — destructive merging for structurally different objects.
* :data:`FLEXIBLE` — flexible matching: shared substructures synchronized,
  differing ones conserved/merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.core import compat
from repro.core.merging import MergeReport, destructive_merge, flexible_match
from repro.core.semantic import SemanticHookRegistry
from repro.errors import IncompatibleObjectsError
from repro.toolkit.builder import Shape, shape, to_spec
from repro.toolkit.tree import (
    overwrite_subtree_state,
    subtree_state,
    subtree_state_since,
)
from repro.toolkit.widget import UIObject

STRICT = "strict"
MERGE = "merge"
FLEXIBLE = "flexible"
MODES = (STRICT, MERGE, FLEXIBLE)

#: Matching strategy used by STRICT mode: the cheap heuristic first, the
#: exhaustive search only as a fallback (§3.3's advice to avoid
#: combinatorial explosion on the common path).
AUTO = "auto"


def build_state_payload(
    widget: UIObject,
    semantics: Optional[SemanticHookRegistry] = None,
    *,
    include_structure: bool = True,
    since: Optional[int] = None,
) -> Dict[str, Any]:
    """Serialize *widget*'s subtree for a state transfer.

    Invoked in the dominating instance; runs the store hooks (§3.1
    "Synchronizing semantic state").  *since* — a
    :func:`~repro.toolkit.widget.state_clock` value — restricts ``state``
    to the relevant attributes written after it: the body of a delta
    transfer.
    """
    payload: Dict[str, Any] = {
        "state": (
            subtree_state(widget, relevant_only=True)
            if since is None
            else subtree_state_since(widget, since)
        ),
    }
    if include_structure:
        payload["structure"] = to_spec(widget, full_state=False)
    if semantics is not None:
        stored = semantics.store_subtree(widget)
        if stored:
            payload["semantic"] = stored
    return payload


@dataclass
class ApplyReport:
    """Outcome of applying a state payload to a local object."""

    mode: str
    applied_paths: List[str] = field(default_factory=list)
    merge: Optional[MergeReport] = None
    mapping_size: int = 0
    semantic_loaded: List[str] = field(default_factory=list)
    old_state: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: The resolved component mapping and the sender's relative path ->
    #: type table (STRICT with structure only); the delta sync protocol
    #: keeps both for translating later delta payloads without re-running
    #: the structural matcher or walking the sender's structure again.
    mapping: Optional[compat.ComponentMapping] = None
    source_types: Optional[Dict[str, str]] = None


def apply_state_payload(
    widget: UIObject,
    payload: Mapping[str, Any],
    *,
    mode: str = STRICT,
    strategy: str = AUTO,
    semantics: Optional[SemanticHookRegistry] = None,
    correspondences: Optional[compat.CorrespondenceRegistry] = None,
    predefined: Optional[compat.ComponentMapping] = None,
) -> ApplyReport:
    """Apply a received state payload onto *widget* (the dominated object).

    Returns an :class:`ApplyReport` whose ``old_state`` is the transfer's
    pre-image — the caller ships it to the server's historical UI states
    (§2.2).  STRICT writes a known set of attributes, so the pre-image
    holds exactly those, as they were before the write.  MERGE and
    FLEXIBLE may rewrite anything in the subtree, so theirs is the whole
    relevant subtree state.
    """
    if mode not in MODES:
        raise ValueError(f"unknown synchronization mode {mode!r}")
    report = ApplyReport(mode=mode)
    source_state: Mapping[str, Mapping[str, Any]] = payload.get("state", {})
    source_spec = payload.get("structure")

    if mode == STRICT:
        if source_spec is not None:
            local = shape(widget)
            mapping = _resolve_mapping(
                source_spec, local, strategy, correspondences, predefined
            )
            report.mapping_size = len(mapping)
            report.mapping = dict(mapping)
            report.source_types = compat.spec_types(source_spec)
            source_state = compat.translate_state(
                source_state,
                report.source_types,
                local.types,
                mapping,
                correspondences,
            )
        # Applied by relative path: the sender's own for a structure-less
        # payload (homogeneous fast path), else the mapped local ones.
        report.old_state = overwrite_subtree_state(widget, source_state)
        report.applied_paths = list(report.old_state)
    else:
        if source_spec is None:
            raise IncompatibleObjectsError(
                "<payload>", widget.pathname, f"{mode} mode requires structure"
            )
        report.old_state = subtree_state(widget, relevant_only=True)
        if mode == MERGE:
            report.merge = destructive_merge(widget, source_spec, source_state)
        else:  # FLEXIBLE
            report.merge = flexible_match(widget, source_spec, source_state)
        report.applied_paths = list(report.merge.updated)

    if semantics is not None and "semantic" in payload:
        report.semantic_loaded = semantics.load_subtree(
            widget, dict(payload["semantic"])
        )
    return report


def _resolve_mapping(
    source_spec: Mapping[str, Any],
    local: Shape,
    strategy: str,
    correspondences: Optional[compat.CorrespondenceRegistry],
    predefined: Optional[compat.ComponentMapping],
    cache: Optional[compat.MappingCache] = None,
) -> compat.ComponentMapping:
    mapping_cache = cache if cache is not None else compat.DEFAULT_MAPPING_CACHE
    key = compat.mapping_cache_key(
        source_spec, local.fingerprint, strategy, correspondences, predefined
    )
    cached = mapping_cache.lookup(key)
    if cached is not None:
        return cached
    mapping = _compute_mapping(
        source_spec, local.skeleton, strategy, correspondences, predefined
    )
    mapping_cache.store(key, mapping)
    return mapping


def _compute_mapping(
    source_spec: Mapping[str, Any],
    target_spec: Mapping[str, Any],
    strategy: str,
    correspondences: Optional[compat.CorrespondenceRegistry],
    predefined: Optional[compat.ComponentMapping],
) -> compat.ComponentMapping:
    if predefined is not None:
        return compat.ensure_compatible(
            source_spec,
            target_spec,
            strategy=compat.PREDEFINED,
            correspondences=correspondences,
            predefined=predefined,
        )
    if strategy == AUTO:
        result = compat.structurally_compatible(
            source_spec,
            target_spec,
            strategy=compat.HEURISTIC,
            correspondences=correspondences,
        )
        if result.mapping is not None:
            return result.mapping
        return compat.ensure_compatible(
            source_spec,
            target_spec,
            strategy=compat.EXHAUSTIVE,
            correspondences=correspondences,
        )
    return compat.ensure_compatible(
        source_spec,
        target_spec,
        strategy=strategy,
        correspondences=correspondences,
    )
