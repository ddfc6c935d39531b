"""Cross-process metric transfer: serialize, diff and merge samples.

The multi-process cluster (:mod:`repro.cluster.proc`) hosts the real
shard servers in worker subprocesses, so their registries are invisible
to the supervisor's :class:`~repro.obs.metrics.MetricsRegistry`.  This
module moves samples over the router↔worker admin link:

* :func:`sample_to_wire` / :func:`sample_from_wire` — a JSON-safe
  encoding of :class:`~repro.obs.metrics.Sample` (histogram snapshots
  included) that survives any negotiated link codec.
* :class:`SampleDiffer` — worker side.  Tracks what the supervisor has
  already seen (keyed by an *epoch* token that changes on process
  restart) and answers each pull with only the samples whose values
  changed, falling back to a full set when the epochs disagree.
* :class:`ShardSampleCache` — supervisor side.  Holds the merged view of
  one worker, re-labels every sample with ``shard=<id>``, and exposes it
  as a registry collector so ``Session.metrics_text()`` covers the
  whole fleet.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import Sample

#: Label appended by the supervisor to every worker-sourced sample.
SHARD_LABEL = "shard"


def sample_to_wire(sample: Sample) -> List[Any]:
    """Encode one sample as a JSON-safe list."""
    value = sample.value
    if isinstance(value, dict) and "buckets" in value:
        value = {
            "buckets": [[bound, count] for bound, count in value["buckets"]],
            "count": value["count"],
            "sum": value["sum"],
        }
    return [
        sample.name,
        sample.kind,
        sample.help,
        [[k, v] for k, v in sample.labels],
        value,
    ]


def sample_from_wire(data: Sequence[Any]) -> Sample:
    """Decode :func:`sample_to_wire` output back into a :class:`Sample`."""
    name, kind, help_, labels, value = data
    if isinstance(value, dict) and "buckets" in value:
        value = {
            "buckets": [
                (str(bound), count) for bound, count in value["buckets"]
            ],
            "count": value["count"],
            "sum": value["sum"],
        }
    return Sample(
        name,
        kind,
        help_,
        tuple((str(k), str(v)) for k, v in labels),
        value,
    )


def _sample_key(
    name: str, labels: Iterable[Tuple[str, str]]
) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    return (name, tuple(labels))


class SampleDiffer:
    """Worker-side delta cache: ship only samples that changed.

    Each worker process owns one differ.  The *epoch* token is unique per
    process incarnation, so a supervisor that talked to the previous
    incarnation (before a crash/respawn) automatically receives a full
    snapshot instead of a bogus delta.
    """

    def __init__(self, epoch: Optional[str] = None):
        self.epoch = epoch or f"{os.getpid()}-{time.time_ns()}"
        self._last: Dict[Any, Any] = {}
        self._lock = threading.Lock()

    def diff(
        self, samples: Iterable[Sample], since: Optional[str]
    ) -> Tuple[str, bool, List[List[Any]]]:
        """``(epoch, full, wire_samples)`` for one pull.

        *since* is the epoch the puller last saw (``None``/mismatch →
        full snapshot).  Histogram values compare by snapshot dict, so a
        single new observation marks the whole family sample changed —
        exactly the granularity the supervisor caches at.
        """
        with self._lock:
            full = since != self.epoch
            if full:
                self._last.clear()
            out: List[List[Any]] = []
            for sample in samples:
                key = _sample_key(sample.name, sample.labels)
                if full or self._last.get(key) != sample.value:
                    self._last[key] = sample.value
                    out.append(sample_to_wire(sample))
            return self.epoch, full, out


class ShardSampleCache:
    """Supervisor-side merged view of one worker's samples."""

    def __init__(self, shard_id: str):
        self.shard_id = str(shard_id)
        self.epoch: Optional[str] = None
        self._samples: Dict[Any, Sample] = {}
        self._lock = threading.Lock()
        self.pulls = 0
        self.full_pulls = 0
        self.samples_received = 0

    def apply(
        self, epoch: str, full: bool, wire_samples: Sequence[Sequence[Any]]
    ) -> int:
        """Merge one OBS reply; returns the number of samples applied."""
        with self._lock:
            if full or epoch != self.epoch:
                self._samples.clear()
                self.full_pulls += 1
            self.epoch = epoch
            self.pulls += 1
            applied = 0
            for data in wire_samples:
                sample = sample_from_wire(data)
                self._samples[_sample_key(sample.name, sample.labels)] = sample
                applied += 1
            self.samples_received += applied
            return applied

    def collect(self) -> List[Sample]:
        """Cached worker samples, re-labeled with ``shard=<id>``.

        A worker sample that already carries a ``shard`` label (none do
        today) is passed through unchanged rather than double-labeled.
        """
        with self._lock:
            cached = list(self._samples.values())
        out: List[Sample] = []
        for sample in cached:
            labels = sample.labels
            if not any(k == SHARD_LABEL for k, _ in labels):
                labels = labels + ((SHARD_LABEL, self.shard_id),)
            out.append(sample._replace(labels=labels))
        return out
