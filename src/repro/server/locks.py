"""The lock table: floor control over couple groups.

"The lock table guarantees that actions occur serially within each group of
coupled objects" (§2.2).  The multiple-execution algorithm (§3.2) acquires
the lock of every object in ``CO(o)`` before an event is broadcast, with
rollback of partial acquisitions on conflict — mirrored here by
:meth:`LockTable.acquire_all`.  A granted acquisition is a
:class:`Floor`: it stays held until every receiver acknowledged the
event broadcast under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.server.couples import GlobalId, gid_from_wire


@dataclass(frozen=True)
class LockOwner:
    """Identifies who holds a lock: the instance and its event sequence."""

    instance_id: str
    token: int = 0

    def to_wire(self) -> List[object]:
        return [self.instance_id, self.token]

    @classmethod
    def from_wire(cls, data: Sequence[object]) -> "LockOwner":
        return cls(instance_id=str(data[0]), token=int(data[1]))


@dataclass
class Floor:
    """One granted floor: what its owner locked, when, and who must still
    acknowledge the event broadcast under it (§3.2).

    A floor with no pending acks is *bare*: its owner has yet to send
    the EVENT or UNLOCK.  :meth:`to_wire` is the one form a floor takes
    outside the server — in snapshots and in ``migrate_state`` alike.
    """

    owner: LockOwner
    objects: Tuple[GlobalId, ...]
    granted_at: float
    pending_acks: Set[str] = field(default_factory=set)
    #: Open ``server.floor_held`` span (tracing only; never on the wire).
    span: Any = None

    @property
    def key(self) -> Tuple[str, int]:
        return (self.owner.instance_id, self.owner.token)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "owner": self.owner.to_wire(),
            "objects": [[g[0], g[1]] for g in self.objects],
            "granted_at": self.granted_at,
            "pending_acks": sorted(self.pending_acks),
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "Floor":
        return cls(
            owner=LockOwner.from_wire(data["owner"]),
            objects=tuple(gid_from_wire(g) for g in data.get("objects", ())),
            granted_at=float(data.get("granted_at", 0.0)),
            pending_acks={str(i) for i in data.get("pending_acks", ())},
        )


@dataclass
class LockTableStats:
    """Counters the experiments report (E5, E10)."""

    acquisitions: int = 0
    denials: int = 0
    releases: int = 0

    @property
    def denial_rate(self) -> float:
        attempts = self.acquisitions + self.denials
        return self.denials / attempts if attempts else 0.0

    def register_into(self, registry, **labels: str) -> None:
        """Expose these counters through an obs metrics registry."""
        from repro.obs.metrics import Sample

        base = tuple(sorted(labels.items()))

        def collect():
            yield Sample(
                "repro_locks_acquisitions_total", "counter",
                "Group lock acquisitions granted", base, self.acquisitions,
            )
            yield Sample(
                "repro_locks_denials_total", "counter",
                "Group lock acquisitions denied", base, self.denials,
            )
            yield Sample(
                "repro_locks_releases_total", "counter",
                "Group lock releases", base, self.releases,
            )
            yield Sample(
                "repro_locks_denial_rate", "gauge",
                "Denied fraction of lock attempts", base, self.denial_rate,
            )

        registry.register_collector(collect)


class LockTable:
    """Per-object locks with all-or-nothing group acquisition."""

    def __init__(self) -> None:
        self._locks: Dict[GlobalId, LockOwner] = {}
        self.stats = LockTableStats()

    def holder(self, obj: GlobalId) -> Optional[LockOwner]:
        """Current lock holder of *obj*, if any."""
        return self._locks.get(obj)

    def is_locked(self, obj: GlobalId) -> bool:
        return obj in self._locks

    def acquire(self, obj: GlobalId, owner: LockOwner) -> bool:
        """Lock one object.

        Re-acquisition by the same owner succeeds, and a *newer token of
        the same instance* takes the lock over (lock transfer): an
        instance's own events are FIFO-ordered end to end, so its next
        event may start while receivers still process the previous one —
        only *other* instances must wait for the floor.
        """
        current = self._locks.get(obj)
        if current is None or current.instance_id == owner.instance_id:
            self._locks[obj] = owner
            return True
        return False

    def release(self, obj: GlobalId, owner: LockOwner) -> bool:
        """Unlock one object if held by *owner*; returns whether released."""
        if self._locks.get(obj) == owner:
            del self._locks[obj]
            return True
        return False

    def acquire_all(
        self, objects: Iterable[GlobalId], owner: LockOwner
    ) -> Tuple[bool, List[GlobalId]]:
        """Attempt to lock every object in *objects* for *owner*.

        Implements the paper's loop: objects are locked one by one; on the
        first conflict all locks taken so far are undone ("undo locking",
        §3.2).  Returns ``(granted, conflicts)`` where *conflicts* lists the
        objects already locked by someone else (non-empty iff denied).
        """
        taken: List[Tuple[GlobalId, Optional[LockOwner]]] = []
        for obj in objects:
            current = self._locks.get(obj)
            if current is not None and current.instance_id != owner.instance_id:
                # Lock failed: undo the partial acquisition (restoring any
                # transferred locks to their previous owner).
                for locked, previous in taken:
                    if previous is None:
                        self._locks.pop(locked, None)
                    else:
                        self._locks[locked] = previous
                self.stats.denials += 1
                return False, [obj]
            if current != owner:
                self._locks[obj] = owner
                taken.append((obj, current))
        self.stats.acquisitions += 1
        return True, []

    def release_all(self, objects: Iterable[GlobalId], owner: LockOwner) -> int:
        """Release every listed object held by *owner*; returns the count."""
        released = 0
        for obj in objects:
            if self.release(obj, owner):
                released += 1
        if released:
            self.stats.releases += 1
        return released

    def release_owner(self, owner: LockOwner) -> int:
        """Release everything held by *owner* (crash cleanup)."""
        objects = [obj for obj, holder in self._locks.items() if holder == owner]
        for obj in objects:
            del self._locks[obj]
        if objects:
            self.stats.releases += 1
        return len(objects)

    def release_instance(self, instance_id: str) -> int:
        """Release every lock held by any owner of *instance_id*
        (instance terminated while holding the floor)."""
        objects = [
            obj
            for obj, holder in self._locks.items()
            if holder.instance_id == instance_id
        ]
        for obj in objects:
            del self._locks[obj]
        return len(objects)

    def transfer_out(
        self, objects: Iterable[GlobalId]
    ) -> List[Tuple[GlobalId, LockOwner]]:
        """Remove and return the lock entries of *objects* (migration).

        Unlike :meth:`release_all` this bypasses the stats counters: a
        shard migration moves locks, it neither grants nor releases them.
        """
        moved: List[Tuple[GlobalId, LockOwner]] = []
        for obj in objects:
            owner = self._locks.pop(obj, None)
            if owner is not None:
                moved.append((obj, owner))
        return moved

    def install(self, entries: Iterable[Tuple[GlobalId, LockOwner]]) -> None:
        """Install lock entries produced by :meth:`transfer_out`."""
        for obj, owner in entries:
            self._locks[obj] = owner

    def locked_objects(self) -> List[GlobalId]:
        return list(self._locks)

    def __len__(self) -> int:
        return len(self._locks)
