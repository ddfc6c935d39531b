"""Compatibility of UI objects (§3.3).

The paper couples not only identical objects:

* **Primitive objects** are compatible "if they are of the same type or if a
  correspondence relation is declared for their relevant attributes (i.e.
  each relevant attribute of O1 has a corresponding attribute of O2 that can
  be used for copying or coupling)."
* **Complex objects** O1 and O2 are *structurally compatible*
  (s-compatible) "iff there is a one-to-one mapping a between O1 and O2 so
  that: for any o in O1, a(o) is either directly compatible with o (in case
  o is primitive), or a(o) is s-compatible with o."
* "Calculating a over several levels of nesting may be costly in practice.
  Sometimes it can be pre-defined, or certain heuristics have to be used to
  avoid combinatorial explosion."  Experiment E7 measures exactly this:
  :data:`EXHAUSTIVE` backtracking vs the :data:`HEURISTIC` greedy matcher
  vs a :data:`PREDEFINED` mapping.

Structures are compared on *specs* (the dicts produced by
:func:`repro.toolkit.builder.to_spec` / ``UIObject.describe``), so the
check works on wire payloads without materializing widgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import IncompatibleObjectsError
from repro.toolkit.builder import spec_fingerprint
from repro.toolkit.widgets.registry import widget_class

# Matching strategies
EXHAUSTIVE = "exhaustive"
HEURISTIC = "heuristic"
PREDEFINED = "predefined"
STRATEGIES = (EXHAUSTIVE, HEURISTIC, PREDEFINED)

AttributeMapping = Dict[str, str]
#: relative-path-in-source -> relative-path-in-target
ComponentMapping = Dict[str, str]


class CorrespondenceRegistry:
    """Declared correspondence relations between widget types.

    A correspondence maps each relevant attribute of type A onto an
    attribute of type B (e.g. a ``label.text`` corresponds to a
    ``textfield.value``, letting a teacher's read-only display couple with a
    student's input field).  Registration installs the inverse direction
    automatically.
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, str], AttributeMapping] = {}
        #: Bumped on every declaration; cached structural mappings embed the
        #: epoch in their key, so declaring a new correspondence naturally
        #: invalidates every mapping computed under the old table.
        self.epoch = 0

    def declare(
        self, type_a: str, type_b: str, mapping: Mapping[str, str]
    ) -> None:
        """Declare that *type_a* corresponds to *type_b* via *mapping*.

        *mapping* must cover every relevant attribute of *type_a* and map
        into existing attributes of *type_b*; otherwise ``ValueError``.
        """
        cls_a = widget_class(type_a)
        cls_b = widget_class(type_b)
        relevant_a = set(cls_a.ATTRIBUTES.relevant_names())
        missing = relevant_a - set(mapping)
        if missing:
            raise ValueError(
                f"correspondence {type_a}->{type_b} misses relevant "
                f"attributes {sorted(missing)}"
            )
        for attr_a, attr_b in mapping.items():
            if attr_a not in cls_a.ATTRIBUTES:
                raise ValueError(f"{type_a!r} has no attribute {attr_a!r}")
            if attr_b not in cls_b.ATTRIBUTES:
                raise ValueError(f"{type_b!r} has no attribute {attr_b!r}")
        self._table[(type_a, type_b)] = dict(mapping)
        inverse = {v: k for k, v in mapping.items()}
        self._table.setdefault((type_b, type_a), inverse)
        self.epoch += 1

    def lookup(self, type_a: str, type_b: str) -> Optional[AttributeMapping]:
        return self._table.get((type_a, type_b))

    def pairs(self) -> List[Tuple[str, str]]:
        return list(self._table)

    def __len__(self) -> int:
        return len(self._table)


#: Process-wide default registry; instances may carry their own.
DEFAULT_CORRESPONDENCES = CorrespondenceRegistry()


class MappingCache:
    """Memoized structural-compatibility mappings (§3.3 hot path).

    "Calculating a over several levels of nesting may be costly in
    practice" — and the coupling/copy hot path recomputes the *same*
    mapping on every transfer between a stable pair of objects.  The cache
    keys on the two structure fingerprints, the matching strategy and the
    correspondence-registry epoch, so any input that could change the
    result changes the key.  Only successful mappings are stored; failures
    stay uncached (they raise, and are rare on the hot path).
    """

    def __init__(self, maxsize: int = 1024) -> None:
        self.maxsize = maxsize
        self._entries: Dict[Tuple, ComponentMapping] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Tuple) -> Optional[ComponentMapping]:
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(cached)

    def store(self, key: Tuple, mapping: ComponentMapping) -> None:
        if len(self._entries) >= self.maxsize and key not in self._entries:
            # Simple FIFO eviction: drop the oldest insertion.  The cache
            # is a perf aid, not a correctness requirement.
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = dict(mapping)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}

    def register_into(self, registry, **labels: str) -> None:
        """Expose hit/miss/size counters through an obs metrics registry."""
        from repro.obs.metrics import Sample

        base = tuple(sorted(labels.items()))

        def collect():
            yield Sample(
                "repro_compat_cache_hits_total", "counter",
                "Mapping cache hits", base, self.hits,
            )
            yield Sample(
                "repro_compat_cache_misses_total", "counter",
                "Mapping cache misses", base, self.misses,
            )
            yield Sample(
                "repro_compat_cache_size", "gauge",
                "Mappings currently cached", base, len(self._entries),
            )

        registry.register_collector(collect)


#: Process-wide default mapping cache, shared by every instance that does
#: not carry its own (mirrors DEFAULT_CORRESPONDENCES).
DEFAULT_MAPPING_CACHE = MappingCache()


def mapping_cache_key(
    source_spec: Mapping[str, Any],
    target_fingerprint: str,
    strategy: str,
    correspondences: Optional["CorrespondenceRegistry"] = None,
    predefined: Optional[ComponentMapping] = None,
) -> Tuple:
    """The memoization key for a structural-mapping computation.

    *source_spec* is what arrived from outside and is hashed here;
    the local side's fingerprint is already known from its shape record
    (:func:`repro.toolkit.builder.shape`).
    """
    registry = (
        correspondences if correspondences is not None else DEFAULT_CORRESPONDENCES
    )
    return (
        spec_fingerprint(source_spec),
        target_fingerprint,
        strategy,
        registry.epoch,
        tuple(sorted(predefined.items())) if predefined is not None else None,
    )


def _value_kind(value: Any) -> str:
    """Coarse value category used by correspondence inference."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "text"
    if isinstance(value, list):
        return "list"
    return "other"


def infer_correspondence(
    type_a: str, type_b: str
) -> Optional[AttributeMapping]:
    """Heuristically derive an attribute correspondence between two types.

    Implements the paper's future-work item (§5): "initialization
    procedures for making complex, hierarchically nested UI objects
    compatible will have to be refined".  Each relevant attribute of
    *type_a* is matched to a distinct attribute of *type_b*, preferring
    (1) an identically-named relevant attribute, then (2) any
    identically-named attribute, then (3) a relevant attribute whose
    default value has the same coarse kind (text/number/bool/list), then
    (4) any same-kind attribute.  Returns ``None`` when some relevant
    attribute cannot be matched — inference refuses to guess across
    kinds.
    """
    cls_a = widget_class(type_a)
    cls_b = widget_class(type_b)
    relevant_b = list(cls_b.ATTRIBUTES.relevant_names())
    all_b = {attr.name: attr for attr in cls_b.ATTRIBUTES}
    used: set = set()
    mapping: AttributeMapping = {}
    for name_a in cls_a.ATTRIBUTES.relevant_names():
        attr_a = cls_a.ATTRIBUTES.get(name_a, type_a)
        kind_a = _value_kind(attr_a.default)
        candidates = []
        if name_a in all_b and name_a in relevant_b:
            candidates.append(name_a)
        if name_a in all_b:
            candidates.append(name_a)
        candidates.extend(
            name_b
            for name_b in relevant_b
            if _value_kind(all_b[name_b].default) == kind_a
        )
        candidates.extend(
            name_b
            for name_b, attr_b in all_b.items()
            if _value_kind(attr_b.default) == kind_a
        )
        choice = next((c for c in candidates if c not in used), None)
        if choice is None:
            return None
        used.add(choice)
        mapping[name_a] = choice
    return mapping


def declare_inferred(
    type_a: str,
    type_b: str,
    registry: Optional[CorrespondenceRegistry] = None,
) -> AttributeMapping:
    """Infer a correspondence and install it (both directions).

    Raises :class:`IncompatibleObjectsError` when inference fails.
    """
    mapping = infer_correspondence(type_a, type_b)
    if mapping is None:
        raise IncompatibleObjectsError(
            type_a, type_b, "no attribute correspondence could be inferred"
        )
    # NB: `registry or DEFAULT` would mis-route an *empty* registry, which
    # is falsy through __len__.
    target = registry if registry is not None else DEFAULT_CORRESPONDENCES
    target.declare(type_a, type_b, mapping)
    return mapping


#: type class -> identity attribute mapping; widget ATTRIBUTES are
#: class-level constants, so this never goes stale for a given class.
_IDENTITY_MAPPINGS: Dict[type, AttributeMapping] = {}


def attribute_mapping(
    type_a: str,
    type_b: str,
    correspondences: Optional[CorrespondenceRegistry] = None,
) -> Optional[AttributeMapping]:
    """How relevant attributes of *type_a* translate to *type_b*.

    Same type -> identity over the relevant attributes.  Different types ->
    the declared correspondence, or ``None`` (incompatible).
    """
    if type_a == type_b:
        cls = widget_class(type_a)
        # Memoized per widget *class* (not name) so re-registering a type
        # name with a different class cannot serve a stale identity map.
        cached = _IDENTITY_MAPPINGS.get(cls)
        if cached is None:
            cached = {name: name for name in cls.ATTRIBUTES.relevant_names()}
            _IDENTITY_MAPPINGS[cls] = cached
        return dict(cached)
    registry = (
        correspondences if correspondences is not None else DEFAULT_CORRESPONDENCES
    )
    return registry.lookup(type_a, type_b)


def directly_compatible(
    type_a: str,
    type_b: str,
    correspondences: Optional[CorrespondenceRegistry] = None,
) -> bool:
    """Primitive-object compatibility (§3.3)."""
    return attribute_mapping(type_a, type_b, correspondences) is not None


@dataclass
class MatchStats:
    """Cost counters of one structural-compatibility computation (E7)."""

    nodes_compared: int = 0
    backtracks: int = 0
    #: Completed matching computations folded in (aggregate use only).
    matches: int = 0

    def bump(self) -> None:
        self.nodes_compared += 1

    def merge(self, other: "MatchStats") -> "MatchStats":
        self.nodes_compared += other.nodes_compared
        self.backtracks += other.backtracks
        self.matches += other.matches or 1
        return self

    def register_into(self, registry, **labels: str) -> None:
        """Expose these counters through an obs metrics registry."""
        from repro.obs.metrics import Sample

        base = tuple(sorted(labels.items()))

        def collect():
            yield Sample(
                "repro_compat_matches_total", "counter",
                "Structural-compatibility computations", base, self.matches,
            )
            yield Sample(
                "repro_compat_nodes_compared_total", "counter",
                "Pairwise node comparisons", base, self.nodes_compared,
            )
            yield Sample(
                "repro_compat_backtracks_total", "counter",
                "Matcher backtracks", base, self.backtracks,
            )

        registry.register_collector(collect)


#: Process-wide aggregate of every matching computation, so enabling
#: observability surfaces compat cost without threading a registry into
#: the matchers.  :func:`structurally_compatible` folds each per-call
#: :class:`MatchStats` in here.
GLOBAL_MATCH_STATS = MatchStats()


@dataclass
class MatchResult:
    """Outcome of a structural compatibility check."""

    mapping: Optional[ComponentMapping]
    stats: MatchStats = field(default_factory=MatchStats)

    @property
    def compatible(self) -> bool:
        return self.mapping is not None


def structurally_compatible(
    spec_a: Mapping[str, Any],
    spec_b: Mapping[str, Any],
    *,
    strategy: str = EXHAUSTIVE,
    correspondences: Optional[CorrespondenceRegistry] = None,
    predefined: Optional[ComponentMapping] = None,
    node_budget: int = 1_000_000,
) -> MatchResult:
    """Find a one-to-one component mapping between two complex objects.

    Returns a :class:`MatchResult` whose ``mapping`` maps every relative
    path of *spec_a*'s tree onto a relative path of *spec_b*'s tree (the
    roots map as ``"" -> ""``), or ``None`` when the objects are not
    s-compatible under the chosen *strategy*.

    *node_budget* bounds the number of pairwise node comparisons; the
    exhaustive matcher raises :class:`IncompatibleObjectsError` when
    exceeded (the paper's "combinatorial explosion").
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown matching strategy {strategy!r}")
    stats = MatchStats()
    if strategy == PREDEFINED:
        if predefined is None:
            raise ValueError("PREDEFINED strategy requires a predefined mapping")
        ok = _verify_predefined(spec_a, spec_b, predefined, correspondences, stats)
        GLOBAL_MATCH_STATS.merge(stats)
        return MatchResult(dict(predefined) if ok else None, stats)
    mapping: ComponentMapping = {}
    matcher = _match_exhaustive if strategy == EXHAUSTIVE else _match_heuristic
    ok = matcher(
        spec_a, spec_b, "", "", mapping, correspondences, stats, node_budget
    )
    GLOBAL_MATCH_STATS.merge(stats)
    return MatchResult(mapping if ok else None, stats)


def ensure_compatible(
    spec_a: Mapping[str, Any],
    spec_b: Mapping[str, Any],
    *,
    strategy: str = EXHAUSTIVE,
    correspondences: Optional[CorrespondenceRegistry] = None,
    predefined: Optional[ComponentMapping] = None,
) -> ComponentMapping:
    """Like :func:`structurally_compatible` but raising on failure."""
    result = structurally_compatible(
        spec_a,
        spec_b,
        strategy=strategy,
        correspondences=correspondences,
        predefined=predefined,
    )
    if result.mapping is None:
        raise IncompatibleObjectsError(
            spec_a.get("name", "?"),
            spec_b.get("name", "?"),
            "objects are not structurally compatible",
        )
    return result.mapping


# ---------------------------------------------------------------------------
# Matchers
# ---------------------------------------------------------------------------

def _children(spec: Mapping[str, Any]) -> List[Mapping[str, Any]]:
    return list(spec.get("children", []))


def _join(prefix: str, name: str) -> str:
    return f"{prefix}/{name}" if prefix else name


def _match_exhaustive(
    spec_a: Mapping[str, Any],
    spec_b: Mapping[str, Any],
    path_a: str,
    path_b: str,
    mapping: ComponentMapping,
    correspondences: Optional[CorrespondenceRegistry],
    stats: MatchStats,
    node_budget: int,
) -> bool:
    """Backtracking search for a full bijection (worst-case factorial)."""
    stats.bump()
    if stats.nodes_compared > node_budget:
        raise IncompatibleObjectsError(
            spec_a.get("name", "?"),
            spec_b.get("name", "?"),
            f"matching exceeded node budget of {node_budget}",
        )
    if not directly_compatible(spec_a["type"], spec_b["type"], correspondences):
        return False
    kids_a, kids_b = _children(spec_a), _children(spec_b)
    if len(kids_a) != len(kids_b):
        return False
    mapping[path_a] = path_b
    if not kids_a:
        return True
    used = [False] * len(kids_b)

    def assign(index: int) -> bool:
        if index == len(kids_a):
            return True
        child_a = kids_a[index]
        for j, child_b in enumerate(kids_b):
            if used[j]:
                continue
            checkpoint = dict(mapping)
            if _match_exhaustive(
                child_a,
                child_b,
                _join(path_a, child_a["name"]),
                _join(path_b, child_b["name"]),
                mapping,
                correspondences,
                stats,
                node_budget,
            ):
                used[j] = True
                if assign(index + 1):
                    return True
                used[j] = False
            stats.backtracks += 1
            mapping.clear()
            mapping.update(checkpoint)
        return False

    if assign(0):
        return True
    del mapping[path_a]
    return False


def _match_heuristic(
    spec_a: Mapping[str, Any],
    spec_b: Mapping[str, Any],
    path_a: str,
    path_b: str,
    mapping: ComponentMapping,
    correspondences: Optional[CorrespondenceRegistry],
    stats: MatchStats,
    node_budget: int,
) -> bool:
    """Greedy matcher: pair children preferring equal names, then equal
    types, in order.  Linear-ish; may miss exotic bijections the exhaustive
    search would find (tests document one such case)."""
    stats.bump()
    if stats.nodes_compared > node_budget:
        raise IncompatibleObjectsError(
            spec_a.get("name", "?"),
            spec_b.get("name", "?"),
            f"matching exceeded node budget of {node_budget}",
        )
    if not directly_compatible(spec_a["type"], spec_b["type"], correspondences):
        return False
    kids_a, kids_b = _children(spec_a), _children(spec_b)
    if len(kids_a) != len(kids_b):
        return False
    mapping[path_a] = path_b
    remaining = list(range(len(kids_b)))

    def pick(child_a: Mapping[str, Any]) -> Optional[int]:
        # First preference: same name and type.
        for j in remaining:
            if (
                kids_b[j]["name"] == child_a["name"]
                and kids_b[j]["type"] == child_a["type"]
            ):
                return j
        # Second: same type.
        for j in remaining:
            if kids_b[j]["type"] == child_a["type"]:
                return j
        # Last: any directly compatible type.
        for j in remaining:
            if directly_compatible(
                child_a["type"], kids_b[j]["type"], correspondences
            ):
                return j
        return None

    for child_a in kids_a:
        j = pick(child_a)
        if j is None:
            return False
        child_b = kids_b[j]
        if not _match_heuristic(
            child_a,
            child_b,
            _join(path_a, child_a["name"]),
            _join(path_b, child_b["name"]),
            mapping,
            correspondences,
            stats,
            node_budget,
        ):
            return False
        remaining.remove(j)
    return True


def _verify_predefined(
    spec_a: Mapping[str, Any],
    spec_b: Mapping[str, Any],
    predefined: ComponentMapping,
    correspondences: Optional[CorrespondenceRegistry],
    stats: MatchStats,
) -> bool:
    """Check a user-supplied mapping: bijective and type-compatible."""
    index_a = _index_by_path(spec_a)
    index_b = _index_by_path(spec_b)
    if set(predefined) != set(index_a):
        return False
    if sorted(predefined.values()) != sorted(index_b):
        return False
    for rel_a, rel_b in predefined.items():
        stats.bump()
        if rel_b not in index_b:
            return False
        if not directly_compatible(
            index_a[rel_a]["type"], index_b[rel_b]["type"], correspondences
        ):
            return False
    return True


def _index_by_path(
    spec: Mapping[str, Any], prefix: str = ""
) -> Dict[str, Mapping[str, Any]]:
    """relative path -> node spec for a whole spec tree."""
    index: Dict[str, Mapping[str, Any]] = {prefix: spec}
    for child in _children(spec):
        index.update(_index_by_path(child, _join(prefix, child["name"])))
    return index


def translate_state(
    source_state: Mapping[str, Mapping[str, Any]],
    source_spec: Mapping[str, Any],
    target_types: Mapping[str, str],
    mapping: ComponentMapping,
    correspondences: Optional[CorrespondenceRegistry] = None,
) -> Dict[str, Dict[str, Any]]:
    """Translate a subtree state along a component mapping.

    *source_state* maps source relative paths to relevant-attribute dicts;
    the result maps *target* relative paths to attribute dicts with names
    translated through the per-type attribute correspondences.  The
    target side is given as its relative path -> type name index, which
    the local object's shape record already holds (``shape(w).types``).
    """
    index_a = _index_by_path(source_spec)
    translated: Dict[str, Dict[str, Any]] = {}
    for rel_a, values in source_state.items():
        rel_b = mapping.get(rel_a)
        if rel_b is None or rel_a not in index_a or rel_b not in target_types:
            continue
        attr_map = attribute_mapping(
            index_a[rel_a]["type"], target_types[rel_b], correspondences
        )
        if attr_map is None:
            continue
        translated[rel_b] = {
            attr_map[name]: value
            for name, value in values.items()
            if name in attr_map
        }
    return translated
