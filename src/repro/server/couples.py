"""The couple relation: links, transitive closure, couple groups.

From the paper (§3): "A couple link is a directed arc from the source UI
object to destination UI object, labeled with the application instance
identifier which creates the link.  The couple relation C consists of all
pairs of UI objects connected by a couple link.  To compute the set of
objects CO(o) connected to or coupled with a given object o, we use the
transitive closure of C."

Link creation replicates coupling info: "objects already connected to O2
are added to the list of targets, and objects already connected to O1 are
added to the source, thus computing the complete transitive closure"
(§3.2) — i.e. a couple *group* is the connected component of the link
graph, treating links as bidirectional for closure purposes.

This table is used twice: authoritatively on the server, and as each
application instance's replica of the groups its own objects belong to
(updated and pruned by :func:`repro.core.coupling.apply_couple_update`)
so each client can compute CO(o) of its objects locally.

The closure is maintained *incrementally*: a union–find forest merges
components in near-constant time on :meth:`add_link`, links are indexed by
unordered endpoint pair so decoupling never scans the whole relation, and
removals rebuild only the affected component instead of clearing every
cached group.  The table also keeps a per-group *audience* index
(instance id -> coupled pathnames) that the server's interest-aware
routing reads on every event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.errors import NoSuchCoupleError

#: The paper's global object identifier: ``<instance-id, pathname>``.
GlobalId = Tuple[str, str]


def global_id(instance_id: str, pathname: str) -> GlobalId:
    """Normalize a global object id."""
    return (str(instance_id), str(pathname))


def gid_to_wire(gid: GlobalId) -> List[str]:
    return [gid[0], gid[1]]


def gid_from_wire(data: Iterable[str]) -> GlobalId:
    items = list(data)
    if len(items) != 2:
        raise ValueError(f"malformed global id {items!r}")
    return (str(items[0]), str(items[1]))


def _pair(a: GlobalId, b: GlobalId) -> FrozenSet[GlobalId]:
    return frozenset((a, b))


@dataclass(frozen=True)
class CoupleLink:
    """A directed couple arc, labeled with its creating instance."""

    source: GlobalId
    target: GlobalId
    creator: str = ""

    def to_wire(self) -> Dict[str, object]:
        return {
            "source": gid_to_wire(self.source),
            "target": gid_to_wire(self.target),
            "creator": self.creator,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, object]) -> "CoupleLink":
        return cls(
            source=gid_from_wire(data["source"]),  # type: ignore[arg-type]
            target=gid_from_wire(data["target"]),  # type: ignore[arg-type]
            creator=str(data.get("creator", "")),
        )

    @property
    def endpoints(self) -> Tuple[GlobalId, GlobalId]:
        return (self.source, self.target)


class CoupleTable:
    """All current couple links plus the derived group structure.

    Groups (connected components) live in a union–find forest: additions
    merge two components in O(α); removals rebuild only the component the
    removed arcs belonged to.  Per-group caches (the frozen member set and
    the instance -> pathnames audience index) are invalidated per
    component, never globally.
    """

    def __init__(self) -> None:
        self._links: Set[CoupleLink] = set()
        #: Unordered endpoint pair -> the arcs between the two objects.
        self._links_by_pair: Dict[FrozenSet[GlobalId], Set[CoupleLink]] = {}
        #: Undirected multigraph: object -> neighbour -> arc count.
        self._adjacency: Dict[GlobalId, Dict[GlobalId, int]] = {}
        #: Coupled objects per instance (mirror of the adjacency key set).
        self._by_instance: Dict[str, Set[GlobalId]] = {}
        # Union–find forest over the coupled objects.
        self._parent: Dict[GlobalId, GlobalId] = {}
        self._size: Dict[GlobalId, int] = {}
        #: root -> live member set (merged small-into-large on union).
        self._members: Dict[GlobalId, Set[GlobalId]] = {}
        #: root -> frozen group snapshot handed out by :meth:`group_of`.
        self._group_cache: Dict[GlobalId, FrozenSet[GlobalId]] = {}
        #: root -> {instance id -> sorted pathnames} audience index.
        self._audience_cache: Dict[GlobalId, Dict[str, Tuple[str, ...]]] = {}
        #: Closure maintenance counters (see docs/PERF.md).
        self.stats: Dict[str, int] = {
            "unions": 0,
            "component_rebuilds": 0,
            "rebuild_members": 0,
        }

    # ------------------------------------------------------------------
    # Union–find internals
    # ------------------------------------------------------------------

    def _find(self, obj: GlobalId) -> GlobalId:
        parent = self._parent
        root = obj
        while parent[root] != root:
            root = parent[root]
        while parent[obj] != root:  # path compression
            parent[obj], obj = root, parent[obj]
        return root

    def _ensure_node(self, obj: GlobalId) -> None:
        if obj in self._parent:
            return
        self._parent[obj] = obj
        self._size[obj] = 1
        self._members[obj] = {obj}
        self._by_instance.setdefault(obj[0], set()).add(obj)

    def _union(self, a: GlobalId, b: GlobalId) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size.pop(rb)
        self._members[ra].update(self._members.pop(rb))
        self._group_cache.pop(ra, None)
        self._group_cache.pop(rb, None)
        self._audience_cache.pop(ra, None)
        self._audience_cache.pop(rb, None)
        self.stats["unions"] += 1

    def _drop_node(self, obj: GlobalId) -> None:
        """Remove an object that lost its last arc from the forest."""
        instance_objects = self._by_instance.get(obj[0])
        if instance_objects is not None:
            instance_objects.discard(obj)
            if not instance_objects:
                del self._by_instance[obj[0]]

    def _rebuild_component(self, members: Set[GlobalId]) -> None:
        """Recompute the union–find structure of one (former) component.

        Called after removals: the component may have split into several,
        and members without remaining arcs leave the forest entirely.
        Work is confined to ``len(members)`` — the rest of the relation is
        untouched.
        """
        for member in members:
            root = self._parent.pop(member, None)
            if root is None:
                continue
            self._size.pop(member, None)
            self._members.pop(member, None)
            self._group_cache.pop(member, None)
            self._audience_cache.pop(member, None)
        for member in members:
            if member in self._adjacency:
                self._parent[member] = member
                self._size[member] = 1
                self._members[member] = {member}
            else:
                self._drop_node(member)
        for member in members:
            if member not in self._adjacency:
                continue
            for neighbour in self._adjacency[member]:
                self._union(member, neighbour)
        self.stats["component_rebuilds"] += 1
        self.stats["rebuild_members"] += len(members)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_link(self, link: CoupleLink) -> bool:
        """Insert *link*; returns False if it already existed.

        Self-links (object coupled with itself) are rejected; the paper
        allows coupling two *different* objects within one instance, which
        is fine (same instance id, different pathnames).
        """
        if link.source == link.target:
            raise ValueError(f"cannot couple object {link.source} with itself")
        if link in self._links:
            return False
        self._links.add(link)
        pair = _pair(link.source, link.target)
        self._links_by_pair.setdefault(pair, set()).add(link)
        for here, there in (
            (link.source, link.target),
            (link.target, link.source),
        ):
            neighbours = self._adjacency.setdefault(here, {})
            neighbours[there] = neighbours.get(there, 0) + 1
        self._ensure_node(link.source)
        self._ensure_node(link.target)
        self._union(link.source, link.target)
        return True

    def remove_link(self, source: GlobalId, target: GlobalId) -> List[CoupleLink]:
        """Decouple *source* and *target*: remove every arc between them.

        Arcs may exist in both directions (each side may have coupled to
        the other); decoupling the pair removes them all, so the two
        objects are no longer directly coupled afterwards.  The pair index
        makes this O(arcs between the pair), not O(|links|).
        """
        matches = list(self._links_by_pair.get(_pair(source, target), ()))
        if not matches:
            raise NoSuchCoupleError(
                f"no couple link between {source} and {target}"
            )
        self._remove_links(matches)
        return matches

    def _remove_links(self, links: Iterable[CoupleLink]) -> None:
        """Physically remove *links*, then rebuild each affected component."""
        affected: Dict[GlobalId, Set[GlobalId]] = {}
        unique = [l for l in dict.fromkeys(links) if l in self._links]
        for link in unique:
            root = self._find(link.source)
            if root not in affected:
                affected[root] = set(self._members[root])
        for link in unique:
            self._links.discard(link)
            pair = _pair(link.source, link.target)
            bucket = self._links_by_pair.get(pair)
            if bucket is not None:
                bucket.discard(link)
                if not bucket:
                    del self._links_by_pair[pair]
            for here, there in (
                (link.source, link.target),
                (link.target, link.source),
            ):
                neighbours = self._adjacency.get(here)
                if neighbours is None:
                    continue
                count = neighbours.get(there, 0) - 1
                if count > 0:
                    neighbours[there] = count
                else:
                    neighbours.pop(there, None)
                if not neighbours:
                    del self._adjacency[here]
        for members in affected.values():
            self._rebuild_component(members)

    def _links_of_object(self, obj: GlobalId) -> List[CoupleLink]:
        found: List[CoupleLink] = []
        for neighbour in self._adjacency.get(obj, ()):
            found.extend(self._links_by_pair.get(_pair(obj, neighbour), ()))
        return found

    def remove_object(self, obj: GlobalId) -> List[CoupleLink]:
        """Drop every link touching *obj* (widget destroyed, §3.2)."""
        removed = self._links_of_object(obj)
        self._remove_links(removed)
        return removed

    def remove_instance(self, instance_id: str) -> List[CoupleLink]:
        """Drop every link touching any object of *instance_id*
        (application instance terminated, §3.2)."""
        removed: List[CoupleLink] = []
        seen: Set[CoupleLink] = set()
        for obj in list(self._by_instance.get(instance_id, ())):
            for link in self._links_of_object(obj):
                if link not in seen:
                    seen.add(link)
                    removed.append(link)
        self._remove_links(removed)
        return removed

    def remove_subtree(self, instance_id: str, path_prefix: str) -> List[CoupleLink]:
        """Drop links of every object at or below *path_prefix*."""
        prefix = path_prefix.rstrip("/") + "/"

        def below(gid: GlobalId) -> bool:
            return gid[1] == path_prefix or gid[1].startswith(prefix)

        removed: List[CoupleLink] = []
        seen: Set[CoupleLink] = set()
        for obj in list(self._by_instance.get(instance_id, ())):
            if not below(obj):
                continue
            for link in self._links_of_object(obj):
                if link not in seen:
                    seen.add(link)
                    removed.append(link)
        self._remove_links(removed)
        return removed

    def extract_objects(self, objects: Iterable[GlobalId]) -> List[CoupleLink]:
        """Remove and return every link touching any of *objects*.

        Used by shard migration: the extracted links are re-installed on
        the receiving shard via :meth:`add_link`.
        """
        removed: List[CoupleLink] = []
        seen: Set[CoupleLink] = set()
        for obj in objects:
            for link in self._links_of_object(obj):
                if link not in seen:
                    seen.add(link)
                    removed.append(link)
        self._remove_links(removed)
        return removed

    def clear(self) -> None:
        self._links.clear()
        self._links_by_pair.clear()
        self._adjacency.clear()
        self._by_instance.clear()
        self._parent.clear()
        self._size.clear()
        self._members.clear()
        self._group_cache.clear()
        self._audience_cache.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def links(self) -> List[CoupleLink]:
        return list(self._links)

    def __len__(self) -> int:
        return len(self._links)

    def has_link(self, source: GlobalId, target: GlobalId) -> bool:
        return any(
            l.endpoints == (source, target)
            for l in self._links_by_pair.get(_pair(source, target), ())
        )

    def is_coupled(self, obj: GlobalId) -> bool:
        """Whether *obj* participates in any couple link."""
        return obj in self._adjacency

    def group_of(self, obj: GlobalId) -> FrozenSet[GlobalId]:
        """The couple group of *obj*: ``{obj} ∪ CO(obj)``.

        Returns ``frozenset({obj})`` for an uncoupled object.
        """
        if obj not in self._parent:
            return frozenset({obj})
        root = self._find(obj)
        cached = self._group_cache.get(root)
        if cached is None:
            cached = frozenset(self._members[root])
            self._group_cache[root] = cached
        return cached

    def coupled_objects(self, obj: GlobalId) -> FrozenSet[GlobalId]:
        """The paper's ``CO(o)``: the group of *obj* excluding *obj* itself."""
        return self.group_of(obj) - {obj}

    def groups(self) -> List[FrozenSet[GlobalId]]:
        """All couple groups with at least two members."""
        return [self.group_of(root) for root in list(self._members)]

    def audience_of(self, obj: GlobalId) -> Dict[str, Tuple[str, ...]]:
        """The interest index entry for *obj*'s couple group.

        Maps each application instance holding a member of the group to
        the sorted pathnames it holds there.  Cached per component and
        invalidated only when that component changes — this is the lookup
        the interest-aware routing layer performs per event.
        """
        if obj not in self._parent:
            return {obj[0]: (obj[1],)}
        root = self._find(obj)
        cached = self._audience_cache.get(root)
        if cached is None:
            by_instance: Dict[str, List[str]] = {}
            for member in self._members[root]:
                by_instance.setdefault(member[0], []).append(member[1])
            cached = {
                instance: tuple(sorted(paths))
                for instance, paths in by_instance.items()
            }
            self._audience_cache[root] = cached
        return cached

    def group_instances(self, obj: GlobalId) -> FrozenSet[str]:
        """The instance ids holding any member of *obj*'s couple group."""
        return frozenset(self.audience_of(obj))

    def group_has_instance(self, obj: GlobalId, instance_id: str) -> bool:
        """Whether *instance_id* holds a member of *obj*'s couple group.

        Walks the smaller of the group and the instance's coupled
        objects, and builds no index: a replica asks this after every
        update, when the cached ones have just been invalidated.
        """
        if obj not in self._parent:
            return obj[0] == instance_id
        root = self._find(obj)
        own = self._by_instance.get(instance_id, ())
        members = self._members[root]
        if len(own) <= len(members):
            return any(self._find(held) == root for held in own)
        return any(member[0] == instance_id for member in members)

    def links_of_group(self, obj: GlobalId) -> List[CoupleLink]:
        """Every link inside *obj*'s couple group (deduplicated).

        What an instance joining the group has never seen: sent to the
        other side of a merging "add" update.
        """
        if obj not in self._parent:
            return []
        root = self._find(obj)
        found: List[CoupleLink] = []
        seen: Set[CoupleLink] = set()
        for member in self._members[root]:
            for link in self._links_of_object(member):
                if link not in seen:
                    seen.add(link)
                    found.append(link)
        return found

    def objects_of_instance(self, instance_id: str) -> Set[GlobalId]:
        """All coupled objects belonging to one application instance."""
        return set(self._by_instance.get(instance_id, ()))

    def to_wire_for(self, instance_id: str) -> List[Dict[str, object]]:
        """Wire form of *instance_id*'s share of the table — the links of
        every group holding one of its objects, i.e. what its replica
        holds (sent to newly registered instances)."""
        roots = {self._find(obj) for obj in self._by_instance.get(instance_id, ())}
        return [
            link.to_wire() for root in roots for link in self.links_of_group(root)
        ]
