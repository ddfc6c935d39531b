"""Registration records — one of the four categories of the server database.

"Registration records store the application instance as well as participant
information such as application instance identifier, host name, and user
name, etc." (§2.2, COSOFT architecture).
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.errors import AlreadyRegisteredError, NotRegisteredError


@dataclass(frozen=True)
class RegistrationRecord:
    """One registered application instance."""

    instance_id: str
    user: str
    host: str = "localhost"
    app_type: str = ""
    registered_at: float = 0.0

    def to_wire(self) -> Dict[str, object]:
        return {
            "instance_id": self.instance_id,
            "user": self.user,
            "host": self.host,
            "app_type": self.app_type,
            "registered_at": self.registered_at,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, object]) -> "RegistrationRecord":
        # Interned: every replica of the roster holds the same few names.
        return cls(
            instance_id=intern(str(data["instance_id"])),
            user=intern(str(data.get("user", ""))),
            host=intern(str(data.get("host", "localhost"))),
            app_type=intern(str(data.get("app_type", ""))),
            registered_at=float(data.get("registered_at", 0.0)),
        )


def record_from_delta(payload: Mapping[str, object]) -> RegistrationRecord:
    """The record a :meth:`Registry.joined_delta` payload announces."""
    return RegistrationRecord.from_wire(
        {**payload["record"], "instance_id": payload["joined"]}
    )


class Registry:
    """The server's table of registered application instances.

    Clients hold the table as an event-sourced replica: the full roster
    once (:meth:`full_roster`, in REGISTER_ACK or as a resync answer),
    then one :meth:`joined_delta` / :meth:`left_delta` per change.
    :attr:`version` numbers the changes so a replica can tell a
    duplicate (``<=`` what it holds) from the next change (``+ 1``) from
    a gap (anything later) — the rule of :mod:`repro.core.receiver`.
    """

    def __init__(self) -> None:
        self._records: Dict[str, RegistrationRecord] = {}
        #: Count of changes ever made, bumped by :meth:`add` and
        #: :meth:`remove`.  Registry state like the records: recovery
        #: puts it back with :meth:`restore`, because surviving clients
        #: hold the number and would drop a restarted chain as
        #: duplicates.
        self.version = 0

    def add(self, record: RegistrationRecord) -> None:
        if record.instance_id in self._records:
            raise AlreadyRegisteredError(
                f"instance {record.instance_id!r} is already registered"
            )
        self._records[record.instance_id] = record
        self.version += 1

    def remove(self, instance_id: str) -> RegistrationRecord:
        try:
            record = self._records.pop(instance_id)
        except KeyError:
            raise NotRegisteredError(instance_id) from None
        self.version += 1
        return record

    def restore(
        self, records: Iterable[RegistrationRecord], version: int
    ) -> None:
        """Install recovered *records* and resume the chain at *version*.

        Not a sequence of :meth:`add` calls: the version a snapshot, a
        shard bootstrap or a surviving shard recorded is the one clients
        hold.  Records already present are kept.
        """
        for record in records:
            self._records.setdefault(record.instance_id, record)
        self.version = version

    def get(self, instance_id: str) -> RegistrationRecord:
        try:
            return self._records[instance_id]
        except KeyError:
            raise NotRegisteredError(instance_id) from None

    def __contains__(self, instance_id: object) -> bool:
        return instance_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def instance_ids(self) -> Tuple[str, ...]:
        return tuple(self._records)

    def records(self) -> List[RegistrationRecord]:
        return list(self._records.values())

    def by_user(self, user: str) -> List[RegistrationRecord]:
        """All instances registered by *user*."""
        return [r for r in self._records.values() if r.user == user]

    def by_app_type(self, app_type: str) -> List[RegistrationRecord]:
        """All instances of one application type (homogeneous set)."""
        return [r for r in self._records.values() if r.app_type == app_type]

    def roster(self) -> List[Dict[str, object]]:
        """Wire form of all records."""
        return [r.to_wire() for r in self._records.values()]

    # Roster messages.  Each stamps the current version, so build the
    # delta right after the change it announces.

    def full_roster(self) -> Dict[str, object]:
        """Every record: what a joiner or a replica with a gap is owed."""
        return {"roster": self.roster(), "version": self.version}

    def joined_delta(self, record: RegistrationRecord) -> Dict[str, object]:
        fields = record.to_wire()
        # Said once: ``joined`` is the id (:func:`record_from_delta`).
        return {
            "joined": fields.pop("instance_id"),
            "record": fields,
            "version": self.version,
        }

    def left_delta(self, instance_id: str) -> Dict[str, object]:
        return {"left": instance_id, "version": self.version}
