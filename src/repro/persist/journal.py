"""The persistence coordinator a server journals its operations through.

:class:`Persistence` ties together one op log and one snapshot store
behind the two calls the server makes on its hot path:

* :meth:`Persistence.record` — append the just-applied operation (wire
  form plus the server-clock time it executed at, so replay can
  reproduce clock-derived state exactly);
* an automatic snapshot every ``snapshot_every`` appends, bounding
  recovery time to one snapshot load plus a short log-suffix replay.

:class:`PersistenceConfig` is the declarative knob surface exposed on
``SessionConfig(persistence=...)``.  ``directory=None`` selects the
in-memory backends — durable for the lifetime of the process, which is
exactly what property tests need.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.persist.oplog import MemoryOpLog, OpLog, frame_entry
from repro.persist.snapshot import (
    MemorySnapshotStore,
    SnapshotStore,
    build_snapshot,
)


@dataclass(frozen=True)
class PersistenceConfig:
    """Declarative persistence settings (see docs/PERSISTENCE.md).

    directory:
        Root for op-log segments and snapshot files; ``None`` keeps
        everything in memory (tests, ephemeral sessions).
    fsync:
        Op-log durability policy: ``"always"`` | ``"batch"``.
    segment_bytes:
        Op-log segment rotation threshold.
    snapshot_every:
        Take a snapshot after this many journaled operations
        (``0`` disables automatic snapshots).

    The two newest snapshot generations are kept.
    """

    directory: Optional[str] = None
    fsync: str = "batch"
    segment_bytes: int = 1 << 20
    snapshot_every: int = 500

    def for_shard(self, shard_id: str) -> "PersistenceConfig":
        """The same settings homed in a per-shard subdirectory."""
        if self.directory is None:
            return self
        return replace(self, directory=os.path.join(self.directory, shard_id))

    def build(self) -> "Persistence":
        return Persistence(self)


class Persistence:
    """One server's journal: op log + snapshot store + counters."""

    def __init__(self, config: PersistenceConfig):
        self.config = config
        if config.directory is None:
            self.log: Any = MemoryOpLog()
            self.snapshots: Any = MemorySnapshotStore()
        else:
            self.log = OpLog(
                os.path.join(config.directory, "oplog"),
                segment_bytes=config.segment_bytes,
                fsync=config.fsync,
            )
            self.snapshots = SnapshotStore(
                os.path.join(config.directory, "snapshots")
            )
        #: Routing epoch stamped into snapshots (set by the cluster).
        self.epoch = 0
        self.appends = 0
        self.append_bytes = 0
        self.snapshots_taken = 0
        self.snapshot_bytes = 0
        self.replayed_ops = 0
        self._since_snapshot = 0
        self._fsync_hist: Any = None    # histogram child once obs is wired

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def record(self, server: Any, message: Any, **extra: Any) -> int:
        """Journal one just-applied operation; returns its sequence number.

        Called by the server *after* a handler succeeded, so the log
        holds exactly the operations that mutated state, in the order
        they were applied.  *extra* keys ride along in the entry —
        a multi-process shard worker stores the router's delivery id and
        the outputs the op produced, making ack-plus-replay exactly-once
        (docs/CLUSTER.md); replay ignores unknown keys.
        """
        entry = {"t": server.clock.now(), "msg": message.to_wire()}
        if extra:
            entry.update(extra)
        # Time appends under "batch" too, not just "always": the batch
        # policy's durability latency (buffered appends plus the periodic
        # sync() folds into the same histogram) would otherwise be
        # invisible to the obs layer.
        timed = self._fsync_hist is not None
        started = time.perf_counter() if timed else 0.0
        seq = self.log.append(entry)
        if timed:
            self._fsync_hist.observe(time.perf_counter() - started)
        self.appends += 1
        self.append_bytes += len(frame_entry(dict(entry, seq=seq)))
        self._since_snapshot += 1
        if (
            self.config.snapshot_every > 0
            and self._since_snapshot >= self.config.snapshot_every
        ):
            self.snapshot(server)
        return seq

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self, server: Any) -> Dict[str, Any]:
        """Checkpoint the server's database at the current log position."""
        self.sync()     # the log must be durable up to the seq we claim
        snap = build_snapshot(server, self.log.last_seq, self.epoch)
        self.snapshot_bytes += self.snapshots.save(snap)
        self.snapshots_taken += 1
        self._since_snapshot = 0
        return snap

    def sync(self) -> None:
        """Force the op log durable, timing the fsync when observed."""
        if self._fsync_hist is not None:
            started = time.perf_counter()
            self.log.sync()
            self._fsync_hist.observe(time.perf_counter() - started)
        else:
            self.log.sync()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "appends": self.appends,
            "append_bytes": self.append_bytes,
            "fsyncs": self.log.fsyncs,
            "last_seq": self.log.last_seq,
            "snapshots": self.snapshots_taken,
            "snapshot_bytes": self.snapshot_bytes,
            "replayed_ops": self.replayed_ops,
        }

    def register_into(self, registry: Any, **labels: str) -> None:
        """Expose journal counters and fsync latency through obs.

        Counters are pull-time collectors (no hot-path cost); the fsync
        histogram is a live family child observed as syncs happen.
        """
        from repro.obs.metrics import Sample

        base = tuple(sorted(labels.items()))
        self._fsync_hist = registry.histogram(
            "repro_persist_fsync_seconds",
            "Op-log fsync latency",
            labelnames=tuple(k for k, _ in base),
        ).labels(*(v for _, v in base))

        help_of = {
            "appends": ("repro_persist_appends_total",
                        "Operations appended to the op log"),
            "append_bytes": ("repro_persist_append_bytes_total",
                             "Bytes appended to the op log"),
            "fsyncs": ("repro_persist_fsyncs_total",
                       "fsync calls issued by the op log"),
            "snapshots": ("repro_persist_snapshots_total",
                          "Snapshots written"),
            "snapshot_bytes": ("repro_persist_snapshot_bytes_total",
                               "Bytes written as snapshots"),
            "replayed_ops": ("repro_persist_replayed_ops_total",
                             "Operations replayed during recovery"),
        }

        def collect():
            stats = self.stats()
            for key, (name, help_text) in help_of.items():
                yield Sample(name, "counter", help_text, base, stats[key])
            yield Sample(
                "repro_persist_last_seq", "gauge",
                "Newest journaled sequence number", base, stats["last_seq"],
            )

        registry.register_collector(collect)

    def close(self) -> None:
        self.log.close()
