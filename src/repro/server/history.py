"""Historical UI states — undo/redo support of the server database.

"The historical UI states backup the UI states which have been overwritten
when synchronizing by state was applied, and provide the possibility of
undoing/redoing user's actions" (§2.2).

Whenever a synchronization-by-state overwrites a UI object's state, the
receiving instance pushes the transfer's *pre-image* here
(``HISTORY_PUSH``): relative path -> the values of the attributes the
transfer wrote, as they were before it.  A STRICT transfer, full or
delta, writes a known set of attributes, so its record holds exactly
those; destructive merging and flexible matching may rewrite anything in
the subtree, so theirs is the whole relevant subtree state.  Undo writes
the record back, so a write made since the transfer survives the undo
unless the transfer wrote that attribute too.  A whole-form record is
the pre-image of every attribute, so records of that form (older
clients, journals, snapshots) stay valid.

:meth:`HistoryStore.undo` pops the newest record; of the state current
at undo time, only the paths and attributes that record restores go onto
the redo stack — the pre-image of what the undo writes.
:meth:`HistoryStore.redo` is its mirror image.

The store has one wire form, ``{"objects", "forgotten"}``, written by
:meth:`HistoryStore.export_state` and added by
:meth:`HistoryStore.import_state`.  A terminated instance is tombstoned
in ``forgotten`` until it registers again and keeps no history, pushed
or imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import HistoryError
from repro.server.couples import GlobalId


@dataclass(frozen=True)
class HistoricalState:
    """One backed-up UI state of one object."""

    obj: GlobalId
    state: Mapping[str, Any]
    timestamp: float = 0.0
    reason: str = ""        # e.g. "copy_to", "copy_from", "destructive_merge"
    by_user: str = ""

    def to_wire(self) -> Dict[str, Any]:
        return {
            "obj": [self.obj[0], self.obj[1]],
            "state": dict(self.state),
            "timestamp": self.timestamp,
            "reason": self.reason,
            "by_user": self.by_user,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "HistoricalState":
        obj = data["obj"]
        return cls(
            obj=(str(obj[0]), str(obj[1])),
            state=dict(data.get("state", {})),
            timestamp=float(data.get("timestamp", 0.0)),
            reason=str(data.get("reason", "")),
            by_user=str(data.get("by_user", "")),
        )


#: What an empty stack says, by the move that found it empty.
_NOTHING_TO = {"undo": "no historical state for", "redo": "nothing to redo for"}


class HistoryStore:
    """Bounded per-object undo and redo stacks."""

    def __init__(self, max_depth: int = 100):
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self._max_depth = max_depth
        self._undo: Dict[GlobalId, List[HistoricalState]] = {}
        self._redo: Dict[GlobalId, List[HistoricalState]] = {}
        #: Instances whose history was dropped by :meth:`forget_instance`.
        #: An export taken before the forget must not resurface through
        #: :meth:`import_state` (e.g. a migration in flight while the
        #: instance terminated); cleared when the instance re-registers.
        self._forgotten: Set[str] = set()

    def push(self, entry: HistoricalState) -> None:
        """Record an overwritten state; clears the object's redo stack.
        Dropped for an object of a tombstoned instance."""
        if entry.obj[0] in self._forgotten:
            return
        self._append(self._undo, entry)
        self._redo.pop(entry.obj, None)

    def undo(
        self, obj: GlobalId, current_state: Optional[Mapping[str, Any]] = None
    ) -> HistoricalState:
        """Pop the newest backup of *obj*.

        If *current_state* is given, its part at the paths and attributes
        the popped backup restores is pushed onto the redo stack, so the
        undo itself can be undone.
        """
        return self._move(obj, current_state, self._undo, self._redo, "undo")

    def redo(
        self, obj: GlobalId, current_state: Optional[Mapping[str, Any]] = None
    ) -> HistoricalState:
        """Pop the newest redo entry of *obj* (inverse of :meth:`undo`)."""
        return self._move(obj, current_state, self._redo, self._undo, "redo")

    def _move(
        self,
        obj: GlobalId,
        current_state: Optional[Mapping[str, Any]],
        source: Dict[GlobalId, List[HistoricalState]],
        target: Dict[GlobalId, List[HistoricalState]],
        reason: str,
    ) -> HistoricalState:
        """Pop *obj*'s newest entry of *source*; push the part of
        *current_state* it restores onto *target* (undo and redo are
        this one move in opposite directions)."""
        stack = source.get(obj)
        if not stack:
            raise HistoryError(f"{_NOTHING_TO[reason]} {obj}")
        entry = stack.pop()
        if not stack:
            del source[obj]
        if current_state is not None:
            self._append(
                target,
                HistoricalState(
                    obj=obj,
                    state=_restored_part(current_state, entry.state),
                    timestamp=entry.timestamp,
                    reason=reason,
                ),
            )
        return entry

    def _append(
        self, table: Dict[GlobalId, List[HistoricalState]], entry: HistoricalState
    ) -> None:
        """Push *entry* onto its object's stack in *table*, dropping the
        oldest entry past the depth bound."""
        stack = table.setdefault(entry.obj, [])
        stack.append(entry)
        if len(stack) > self._max_depth:
            del stack[0]

    def depth(self, obj: GlobalId) -> Tuple[int, int]:
        """(undo depth, redo depth) for *obj*."""
        return (
            len(self._undo.get(obj, ())),
            len(self._redo.get(obj, ())),
        )

    def peek(self, obj: GlobalId) -> Optional[HistoricalState]:
        stack = self._undo.get(obj)
        return stack[-1] if stack else None

    def forget_instance(self, instance_id: str) -> int:
        """Drop all history of a terminated instance; returns entry count.

        The instance is also tombstoned so exports taken before the
        forget cannot resurface through :meth:`import_state`.
        """
        dropped = 0
        for table in (self._undo, self._redo):
            for obj in [o for o in table if o[0] == instance_id]:
                dropped += len(table[obj])
                del table[obj]
        self._forgotten.add(instance_id)
        return dropped

    def revive_instance(self, instance_id: str) -> None:
        """Clear the tombstone of a re-registering instance."""
        self._forgotten.discard(instance_id)

    def forgotten_instances(self) -> List[str]:
        """Currently tombstoned instance ids (persistence snapshots)."""
        return sorted(self._forgotten)

    # ------------------------------------------------------------------
    # Wire form (snapshots, group migration, shard bootstrap)
    # ------------------------------------------------------------------

    def export_state(
        self, objects: Optional[Iterable[GlobalId]] = None
    ) -> Dict[str, Any]:
        """The whole store in wire form, left as it is (a snapshot); or
        the stacks of *objects*, which leave it, and no tombstones (a
        group migration: every shard holds the tombstones)."""
        exported = []
        for obj in self.objects() if objects is None else sorted(set(objects)):
            undo, redo = self._undo.get(obj, ()), self._redo.get(obj, ())
            if objects is not None:
                self._undo.pop(obj, None)
                self._redo.pop(obj, None)
            if undo or redo:
                stacks = {
                    "undo": [entry.to_wire() for entry in undo],
                    "redo": [entry.to_wire() for entry in redo],
                }
                exported.append([[obj[0], obj[1]], stacks])
        forgotten = self.forgotten_instances() if objects is None else []
        return {"objects": exported, "forgotten": forgotten}

    def import_state(self, data: Mapping[str, Any]) -> None:
        """Add an :meth:`export_state` dump: its tombstones, then the
        stacks (each kept to ``max_depth``) of every object whose
        instance is not tombstoned.  The decoupling-on-terminate contract
        (§3.2) says a dead instance's history is gone, and a migration in
        flight across its UNREGISTER must not resurrect it.
        """
        self._forgotten.update(str(i) for i in data.get("forgotten", ()))
        for obj_wire, stacks in data.get("objects", ()):
            obj = (str(obj_wire[0]), str(obj_wire[1]))
            if obj[0] in self._forgotten:
                continue
            for table, key in ((self._undo, "undo"), (self._redo, "redo")):
                entries = [HistoricalState.from_wire(e) for e in stacks.get(key, ())]
                if entries:
                    stack = table.setdefault(obj, [])
                    stack.extend(entries)
                    del stack[: -self._max_depth]

    def objects(self) -> List[GlobalId]:
        """Objects holding an undo or a redo stack."""
        return sorted(set(self._undo) | set(self._redo))

    def __len__(self) -> int:
        return sum(map(len, self._undo.values()))


def _restored_part(
    current: Mapping[str, Any], restored: Mapping[str, Any]
) -> Dict[str, Any]:
    """The entries of *current* that writing *restored* overwrites: its
    paths and, where both sides hold attribute dicts, only the attributes
    *restored* writes."""
    part: Dict[str, Any] = {}
    for rel, values in restored.items():
        if rel not in current:
            continue
        now = current[rel]
        if isinstance(values, Mapping) and isinstance(now, Mapping):
            now = {name: now[name] for name in values if name in now}
        part[rel] = now
    return part
