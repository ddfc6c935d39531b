"""Event-sourced persistence for the central server database.

The paper's four-category database (permissions, registration, history,
locks) lives purely in memory; this package makes it durable as an
**append-only log of commutative operations** plus periodic snapshots
("Commutative Event Sourcing vs. Triple Graph Grammars", PAPERS.md):

* :mod:`repro.persist.oplog` — length-prefixed, CRC-checked entries in
  rotating segment files (or an in-memory list for tests);
* :mod:`repro.persist.snapshot` — canonical serialization of the server's
  DB categories (plus couple table, floors and routing epoch) with a
  stable state fingerprint;
* :mod:`repro.persist.journal` — the :class:`Persistence` coordinator a
  server journals through (fsync policy, snapshot cadence, metrics);
* :mod:`repro.persist.recovery` — crash recovery (latest snapshot + log
  suffix replay), also as of a past sequence number (time travel).

Everything is off by default and costs one attribute check on the hot
path; see docs/PERSISTENCE.md.
"""

from repro.persist.journal import Persistence, PersistenceConfig
from repro.persist.oplog import MemoryOpLog, OpLog
from repro.persist.recovery import (
    DiscardTransport,
    recover_cluster,
    recover_server,
)
from repro.persist.snapshot import (
    MemorySnapshotStore,
    SnapshotStore,
    capture_state,
    restore_state,
    state_fingerprint,
)

__all__ = [
    "DiscardTransport",
    "MemoryOpLog",
    "MemorySnapshotStore",
    "OpLog",
    "Persistence",
    "PersistenceConfig",
    "SnapshotStore",
    "capture_state",
    "recover_cluster",
    "recover_server",
    "restore_state",
    "state_fingerprint",
]
