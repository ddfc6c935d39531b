"""The lock table: floor control over couple groups, sans-I/O.

"The lock table guarantees that actions occur serially within each group of
coupled objects" (§2.2).  The multiple-execution algorithm (§3.2) acquires
the lock of every object in ``CO(o)`` before an event is broadcast, with
rollback of partial acquisitions on conflict — mirrored here by
:meth:`LockTable.acquire_all`.  A granted acquisition is a
:class:`Floor`: it stays held until every receiver acknowledged the
event broadcast under it ("unlocked when the processing of this event is
completed", §3.2), until its owner's UNLOCK, its lease or its owner's
departure.

:class:`LockTable` alone writes lock and floor state, keeping one rule:
every lock belongs to a floor of its owner that lists the object, so
``floor_lease`` bounds every lock.  Each call that frees floors returns
them; the server, which does the I/O, closes their spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.server.couples import GlobalId, gid_from_wire, gid_to_wire


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
    """Per-object locks and the floors that hold them (read-only outside)."""

    def __init__(self) -> None:
        self._locks: Dict[GlobalId, LockOwner] = {}
        #: Granted floors, keyed ``(owner instance, token)``.
        self.floors: Dict[Tuple[str, int], Floor] = {}
        self.stats = LockTableStats()

    def holder(self, obj: GlobalId) -> Optional[LockOwner]:
        """Current lock holder of *obj*, if any."""
        return self._locks.get(obj)

    def locked_objects(self) -> List[GlobalId]:
        return list(self._locks)

    def __len__(self) -> int:
        return len(self._locks)

    # -- grant and release ----------------------------------------------

    def acquire_all(
        self, objects: Iterable[GlobalId], owner: LockOwner, now: float
    ) -> Tuple[Optional[Floor], List[GlobalId]]:
        """Grant or deny *owner* the floor on *objects*.

        Implements the paper's loop: objects are locked one by one; on the
        first conflict all locks taken so far are undone ("undo locking",
        §3.2), so a denial changes nothing.  A *newer token of the same
        instance* takes a lock over (lock transfer): an instance's own
        events are FIFO-ordered end to end, so only *other* instances must
        wait for the floor.  Returns ``(floor, [])`` or ``(None,
        conflicts)``.  A repeated grant of one token renews its floor: its
        awaited acks still count, and the objects the old grant took that
        the new group lacks are released.
        """
        group = tuple(objects)
        locks = self._locks
        instance_id, token = key = (owner.instance_id, owner.token)
        taken: List[Tuple[GlobalId, Optional[LockOwner]]] = []
        # Owners compare by their fields here, not by ``LockOwner.__eq__``
        # (a Python call per object): the same test, made in C.
        for obj in group:
            current = locks.get(obj)
            if current is not None and current.instance_id != instance_id:
                # Lock failed: undo the partial acquisition (restoring any
                # transferred locks to their previous owner).
                for locked, previous in taken:
                    if previous is None:
                        del locks[locked]
                    else:
                        locks[locked] = previous
                self.stats.denials += 1
                return None, [obj]
            if current is None or current.token != token:
                locks[obj] = owner
                taken.append((obj, current))
        self.stats.acquisitions += 1
        floor = self.floors.get(key)
        if floor is None:
            floor = self.floors[key] = Floor(owner, group, now)
        else:
            for obj in floor.objects:
                holder = locks.get(obj)
                if (
                    obj not in group
                    and holder is not None
                    and (holder.instance_id, holder.token) == key
                ):
                    del locks[obj]
            floor.objects, floor.granted_at = group, now
        return floor, []

    def release_all(self, objects: Iterable[GlobalId], owner: LockOwner) -> int:
        """Release every listed object held by *owner* (for :meth:`_drop`)."""
        locks = self._locks
        key = (owner.instance_id, owner.token)
        released = 0
        for obj in objects:
            holder = locks.get(obj)
            if holder is not None and (holder.instance_id, holder.token) == key:
                del locks[obj]
                released += 1
        if released:
            self.stats.releases += 1
        return released

    def _drop(self, floor: Floor) -> Floor:
        """Remove *floor* and the locks it still holds."""
        del self.floors[floor.key]
        self.release_all(floor.objects, floor.owner)
        return floor

    def broadcast(self, floor: Floor, receivers: Sequence[str]) -> Optional[Floor]:
        """*floor*'s event went to *receivers*: await their acks, or, with
        none to wait for, release the floor now and return it."""
        if receivers:
            floor.pending_acks = set(receivers)
            return None
        return self._drop(floor)

    def ack(self, key: Tuple[str, int], receiver: str) -> Optional[Floor]:
        """*receiver* re-executed the event of floor *key*; returns the
        floor if that was the last ack it awaited."""
        floor = self.floors.get(key)
        if floor is None or not floor.pending_acks:
            return None  # a late ack, or one for a bare floor
        pending = floor.pending_acks
        pending.discard(receiver)
        return None if pending else self._drop(floor)

    def unlock(self, key: Tuple[str, int]) -> Optional[Floor]:
        """The owner's UNLOCK: release floor *key*, if held."""
        floor = self.floors.get(key)
        return None if floor is None else self._drop(floor)

    def expire(self, now: float, lease: float) -> List[Floor]:
        """Lease expiry: release the floors granted more than *lease*
        before *now* (their acks never arrived)."""
        expired = [f for f in self.floors.values() if now - f.granted_at > lease]
        for floor in expired:
            self._drop(floor)
        return expired

    def release_instance(self, instance_id: str) -> List[Floor]:
        """Forget a departing instance: release its floors; take its
        objects, which are gone, and their locks out of every other
        floor; and, as it can no longer acknowledge anything, drop it
        from every floor's pending acks.  A floor left holding nothing,
        or awaiting nothing more, is released."""
        released = [
            f for f in self.floors.values() if f.owner.instance_id == instance_id
        ]
        for floor in released:
            self._drop(floor)
        for floor in list(self.floors.values()):
            gone = [g for g in floor.objects if g[0] == instance_id]
            if gone:
                self.release_all(gone, floor.owner)
                floor.objects = tuple(g for g in floor.objects if g[0] != instance_id)
            pending = floor.pending_acks
            drained = pending == {instance_id}
            pending.discard(instance_id)
            if drained or not floor.objects:
                released.append(self._drop(floor))
        return released

    # -- migration and snapshots ----------------------------------------

    def transfer_out(
        self, objects: Iterable[GlobalId]
    ) -> Tuple[Dict[str, List[Any]], List[Floor]]:
        """Remove *objects*' locks and floors for a shard migration.

        Returns the ``migrate_state`` ``locks`` and ``floors`` and the
        floors that left whole.  A floor that also lists objects staying
        is split: each side keeps its objects (so its locks) and the
        awaited acks.  Moving locks neither grants nor releases them.
        """
        moving = set(objects)
        locks: List[Any] = []
        for obj in sorted(moving):
            owner = self._locks.pop(obj, None)
            if owner is not None:
                locks.append([gid_to_wire(obj), owner.to_wire()])
        floors: List[Dict[str, Any]] = []
        gone: List[Floor] = []
        for floor in list(self.floors.values()):
            leaving = tuple(g for g in floor.objects if g in moving)
            if not leaving:
                continue
            staying = tuple(g for g in floor.objects if g not in moving)
            if staying:
                floor.objects = staying
                floor = Floor(
                    floor.owner, leaving, floor.granted_at, set(floor.pending_acks)
                )
            else:
                del self.floors[floor.key]
                gone.append(floor)
            floors.append(floor.to_wire())
        return {"locks": locks, "floors": floors}, gone

    def install(self, data: Mapping[str, Any]) -> None:
        """Install the ``locks`` and ``floors`` of a ``migrate_state`` or
        a snapshot.  The parts of a split floor merge; an ack is still
        awaited only if both parts await it.
        """
        for obj, owner in data.get("locks", ()):
            self._locks[gid_from_wire(obj)] = LockOwner.from_wire(owner)
        for floor in map(Floor.from_wire, data.get("floors", ())):
            held = self.floors.setdefault(floor.key, floor)
            if held is floor:
                continue
            held.objects = tuple(sorted(set(held.objects).union(floor.objects)))
            if held.pending_acks and floor.pending_acks:
                held.pending_acks &= floor.pending_acks
            else:
                held.pending_acks |= floor.pending_acks

    def to_wire(self) -> Dict[str, List[Any]]:
        """The snapshot form: ``locks`` and ``floors``, canonically ordered."""
        return {
            "locks": sorted(
                [gid_to_wire(obj), owner.to_wire()]
                for obj, owner in self._locks.items()
            ),
            "floors": [self.floors[key].to_wire() for key in sorted(self.floors)],
        }
