"""Snapshots of the server database, with a stable state fingerprint.

:func:`capture_state` serializes everything the paper calls the central
database — the four categories (registration records, access
permissions, historical UI states, lock table) plus the couple table,
the held floors with their pending-ack sets, and the history tombstones
— into one canonical JSON-safe dict.  :func:`restore_state` installs
such a dict into a fresh server.  Both are duck-typed against the
``CosoftServer`` attribute surface, so this module never imports the
server (no cycles) and a shard restores exactly like a standalone
server.

:func:`state_fingerprint` hashes the canonical form, giving the
identity recovery is checked against: two servers with equal
fingerprints hold byte-identical databases, whatever path (live
traffic, replay, migration) produced them.  Volatile operational data —
processed counters, routing stats, in-flight request routes — is
deliberately *outside* the fingerprint: it does not survive a crash and
must not block a recovered server from comparing equal to a live one.

:class:`SnapshotStore` persists snapshots as atomically-renamed,
CRC-guarded JSON files ``snapshot-<seq>.json``; :class:`MemorySnapshotStore`
keeps them in RAM for ephemeral persistence.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from typing import Any, Dict, List, Optional

from repro.errors import PersistenceError

#: Snapshot file format version, bumped on incompatible layout changes.
FORMAT_VERSION = 1

_SNAP_PREFIX = "snapshot-"
_SNAP_SUFFIX = ".json"


def _canonical(data: Any) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


# ---------------------------------------------------------------------------
# State capture / restore
# ---------------------------------------------------------------------------


def capture_state(server: Any) -> Dict[str, Any]:
    """The server's durable database categories, canonically ordered."""
    floors = [server.floors[key].to_wire() for key in sorted(server.floors)]
    locks = sorted(
        (
            [[obj[0], obj[1]], server.locks.holder(obj).to_wire()]
            for obj in server.locks.locked_objects()
        ),
    )
    links = sorted(
        (link.to_wire() for link in server.couples.links()),
        key=_canonical,
    )
    return {
        "registry": sorted(
            (r.to_wire() for r in server.registry.records()),
            key=lambda r: r["instance_id"],
        ),
        "registry_version": server.registry.version,
        "couples": links,
        "locks": locks,
        "floors": floors,
        "history": server.history.export_state(),
        "access": server.access.export_state(),
    }


def restore_state(server: Any, state: Dict[str, Any]) -> None:
    """Install a :func:`capture_state` dict into a (fresh) server."""
    from repro.server.couples import CoupleLink
    from repro.server.locks import Floor, LockOwner
    from repro.server.registry import RegistrationRecord

    # The version is restored, never re-counted from the records: clients
    # that outlive the crash hold it, and the next delta must be theirs + 1.
    server.registry.restore(
        map(RegistrationRecord.from_wire, state.get("registry", ())),
        int(state.get("registry_version", 0)),
    )
    for link_wire in state.get("couples", ()):
        server.couples.add_link(CoupleLink.from_wire(dict(link_wire)))
    server.locks.install(
        ((str(obj[0]), str(obj[1])), LockOwner.from_wire(owner))
        for obj, owner in state.get("locks", ())
    )
    floors = map(Floor.from_wire, state.get("floors", ()))
    server.floors.update((floor.key, floor) for floor in floors)
    server.history.import_state(state.get("history", {}))
    server.access.import_state(state.get("access", {}))


def state_fingerprint(state: Dict[str, Any]) -> str:
    """SHA-1 over the canonical JSON of a :func:`capture_state` dict."""
    return hashlib.sha1(_canonical(state).encode("utf-8")).hexdigest()


def server_fingerprint(server: Any) -> str:
    """Convenience: fingerprint a live server's current database."""
    return state_fingerprint(capture_state(server))


def build_snapshot(server: Any, seq: int, epoch: int) -> Dict[str, Any]:
    """Wrap a state capture with its log position and identity."""
    state = capture_state(server)
    return {
        "version": FORMAT_VERSION,
        "seq": seq,
        "epoch": epoch,
        "clock": server.clock.now(),
        "fingerprint": state_fingerprint(state),
        "state": state,
    }


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


class SnapshotStore:
    """Snapshots as CRC-guarded JSON files in a directory."""

    def __init__(self, directory: str, *, keep: int = 2):
        self.directory = directory
        self.keep = keep
        os.makedirs(directory, exist_ok=True)

    def _path(self, seq: int) -> str:
        return os.path.join(self.directory, f"{_SNAP_PREFIX}{seq:012d}{_SNAP_SUFFIX}")

    def seqs(self) -> List[int]:
        """Sequence numbers of stored snapshots, ascending."""
        found = []
        for name in os.listdir(self.directory):
            if name.startswith(_SNAP_PREFIX) and name.endswith(_SNAP_SUFFIX):
                try:
                    found.append(int(name[len(_SNAP_PREFIX):-len(_SNAP_SUFFIX)]))
                except ValueError:
                    continue
        return sorted(found)

    def save(self, snapshot: Dict[str, Any]) -> int:
        """Persist one snapshot atomically; returns its byte size."""
        body = _canonical(snapshot)
        document = _canonical({"crc": zlib.crc32(body.encode("utf-8")), "snapshot": snapshot})
        path = self._path(int(snapshot["seq"]))
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(document)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.prune(self.keep)
        return len(document)

    def load(self, seq: int) -> Dict[str, Any]:
        path = self._path(seq)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, ValueError) as exc:
            raise PersistenceError(f"unreadable snapshot {path}: {exc}") from exc
        snapshot = document.get("snapshot")
        body = _canonical(snapshot)
        if zlib.crc32(body.encode("utf-8")) != document.get("crc"):
            raise PersistenceError(f"snapshot {path} fails its CRC")
        return snapshot

    def load_latest(self, max_seq: Optional[int] = None) -> Optional[Dict[str, Any]]:
        """The newest snapshot (optionally at or below *max_seq*), or None."""
        candidates = [
            s for s in self.seqs() if max_seq is None or s <= max_seq
        ]
        if not candidates:
            return None
        return self.load(candidates[-1])

    def prune(self, keep: int) -> int:
        """Drop all but the newest *keep* snapshots (``<= 0`` keeps all)."""
        if keep <= 0:
            return 0
        removed = 0
        for seq in self.seqs()[:-keep]:
            os.remove(self._path(seq))
            removed += 1
        return removed


class MemorySnapshotStore:
    """The snapshot-store interface over a dict — no filesystem; keeps
    two generations, like :class:`SnapshotStore` by default."""

    def __init__(self) -> None:
        self._snapshots: Dict[int, Dict[str, Any]] = {}

    def seqs(self) -> List[int]:
        return sorted(self._snapshots)

    def save(self, snapshot: Dict[str, Any]) -> int:
        seq = int(snapshot["seq"])
        self._snapshots[seq] = json.loads(_canonical(snapshot))
        self.prune(2)
        return len(_canonical(snapshot))

    def load(self, seq: int) -> Dict[str, Any]:
        try:
            return json.loads(_canonical(self._snapshots[seq]))
        except KeyError:
            raise PersistenceError(f"no snapshot at seq {seq}") from None

    def load_latest(self, max_seq: Optional[int] = None) -> Optional[Dict[str, Any]]:
        candidates = [s for s in self.seqs() if max_seq is None or s <= max_seq]
        return self.load(candidates[-1]) if candidates else None

    def prune(self, keep: int) -> int:
        if keep <= 0:
            return 0
        removed = 0
        for seq in self.seqs()[:-keep]:
            del self._snapshots[seq]
            removed += 1
        return removed
