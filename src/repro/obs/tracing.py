"""Causal tracing: spans over the multiple-execution message path.

A *trace* follows one user action through the deployment: the client
emits an event (root span) and waits for the floor; the server takes the
LOCK_REQUEST that carries the event, grants the floor, fans the event
out to the coupled audience, and each remote instance re-executes it
(paper §3.2, Figure 4).  Each hop records a :class:`Span`
— ``(trace_id, span_id, parent_id, name, endpoint, start, end, attrs)``
— into a bounded ring buffer, so end-to-end synchronization latency
decomposes into queue / lock / route / apply segments.

Span identifiers are deterministic (``t1``, ``s1``, ``s2`` … from
per-recorder counters): two identical runs on different backends produce
identical span *trees*, which the parity tests rely on.  Timestamps come
from :func:`time.perf_counter` — one monotonic timebase shared by every
endpoint of an in-process deployment, so cross-endpoint durations are
meaningful.

The trace context travels on the wire as ``Message.trace``, a
``(trace_id, parent_span_id)`` pair (see :mod:`repro.net.message`); it is
absent (``None``) unless observability is enabled, keeping the encoded
frames byte-identical to an uninstrumented run.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: Canonical span names, in causal order along the §3.2 path.
CLIENT_EMIT = "client.emit"          # root: user action enters the toolkit
CLIENT_LOCK_WAIT = "client.lock_wait"  # blocking floor-request round trip
SERVER_LOCK = "server.lock_wait"     # server handles LOCK_REQUEST (+ event)
SERVER_FLOOR = "server.floor_held"   # grant .. release of the floor
SERVER_RECEIVE = "server.receive"    # server handles a two-message EVENT
SERVER_BROADCAST = "server.broadcast"  # fan-out to the coupled audience
CLUSTER_ROUTE = "cluster.route"      # front-end router -> owning shard
CLUSTER_FORWARD = "cluster.forward"  # supervisor -> worker process hop
WORKER_APPLY = "worker.apply"        # worker process applies a forward
REMOTE_APPLY = "remote.apply"        # remote instance re-executes
SERVER_ACK = "server.ack"            # server handles an EVENT_ACK


@dataclass
class Span:
    """One timed hop of a trace."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    endpoint: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "endpoint": self.endpoint,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """Bounded ring buffer of spans, shared by one deployment.

    All endpoints of a Session (instances, server, cluster router) write
    into a single recorder, so one dump shows complete causal trees.  The
    buffer holds the most recent *maxlen* spans; evictions are counted,
    never silently hidden.
    """

    def __init__(
        self,
        maxlen: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
        id_prefix: str = "",
    ):
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self._spans: Deque[Span] = deque(maxlen=maxlen)
        self._maxlen = maxlen
        self._clock = clock
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        #: Prepended to generated ids so recorders in different processes
        #: (e.g. shard workers) mint globally-unique span ids that can be
        #: merged into one supervisor-side buffer without collisions.
        self.id_prefix = id_prefix
        self.evicted = 0
        # Ship/ingest bookkeeping for cross-process span transfer.
        self._shipped: Dict[str, bool] = {}      # span_id -> finished at ship
        self._ingest_index: Dict[str, Span] = {}  # span_id -> buffered span

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def new_trace_id(self) -> str:
        return f"{self.id_prefix}t{next(self._trace_ids)}"

    def start(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        endpoint: str = "",
        **attrs: Any,
    ) -> Span:
        """Open a span (a fresh trace if *trace_id* is None) and buffer it."""
        if trace_id is None:
            trace_id = self.new_trace_id()
        span = Span(
            trace_id=trace_id,
            span_id=f"{self.id_prefix}s{next(self._span_ids)}",
            parent_id=parent_id,
            name=name,
            endpoint=endpoint,
            start=self._clock(),
            attrs=attrs,
        )
        if len(self._spans) == self._maxlen:
            self.evicted += 1
        self._spans.append(span)
        return span

    def finish(self, span: Span, **attrs: Any) -> Span:
        if span.end is None:
            span.end = self._clock()
        if attrs:
            span.attrs.update(attrs)
        return span

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        if trace_id is None:
            return list(self._spans)
        return [s for s in self._spans if s.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids currently buffered, oldest first."""
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def tree(self, trace_id: str) -> List[Dict[str, Any]]:
        """The trace as nested dicts (children sorted by start time)."""
        spans = self.spans(trace_id)
        by_id = {s.span_id: s.to_dict() for s in spans}
        for node in by_id.values():
            node["children"] = []
        roots: List[Dict[str, Any]] = []
        for span in spans:
            node = by_id[span.span_id]
            parent = by_id.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        for node in by_id.values():
            node["children"].sort(key=lambda c: (c["start"], c["span_id"]))
        return roots

    def canonical_tree(self, trace_id: str) -> Tuple:
        """A timestamp-free shape of the trace: nested (name, children)
        tuples with children sorted by name.  Two runs of the same
        workload yield equal canonical trees regardless of backend,
        shard count or timing — the parity tests compare these."""

        def strip(node: Dict[str, Any]) -> Tuple:
            children = tuple(
                sorted(strip(child) for child in node["children"])
            )
            return (node["name"], children)

        return tuple(sorted(strip(root) for root in self.tree(trace_id)))

    def stats(self) -> Dict[str, Any]:
        spans = list(self._spans)
        return {
            "spans": len(spans),
            "maxlen": self._maxlen,
            "evicted": self.evicted,
            "open": sum(1 for s in spans if not s.finished),
            "traces": len(self.trace_ids()),
        }

    # ------------------------------------------------------------------
    # Cross-process transfer
    # ------------------------------------------------------------------

    def drain(self) -> List[Dict[str, Any]]:
        """Spans new or newly finished since the last :meth:`drain`.

        Used by shard workers answering an OBS pull: each call ships only
        the delta.  Open spans are re-shipped on a later drain once they
        finish, so the receiving side eventually sees final timestamps.
        """
        out: List[Dict[str, Any]] = []
        live = set()
        for span in self._spans:
            live.add(span.span_id)
            prev = self._shipped.get(span.span_id)
            if prev is None or (prev is False and span.finished):
                out.append(span.to_dict())
                self._shipped[span.span_id] = span.finished
        # Forget ship-state for spans evicted from the ring.
        if len(self._shipped) > len(live):
            for span_id in list(self._shipped):
                if span_id not in live:
                    del self._shipped[span_id]
        return out

    def ingest(self, span_dicts: List[Dict[str, Any]]) -> int:
        """Merge span dicts from another recorder (upsert by span_id).

        A span already buffered from an earlier ingest is updated in
        place (it may have been open then and finished now); unseen spans
        are appended.  Returns the number of spans applied.
        """
        applied = 0
        for data in span_dicts:
            span_id = data.get("span_id")
            if not span_id:
                continue
            existing = self._ingest_index.get(span_id)
            if existing is not None and existing in self._spans:
                existing.end = data.get("end")
                attrs = data.get("attrs")
                if attrs:
                    existing.attrs.update(attrs)
                applied += 1
                continue
            span = Span(
                trace_id=data.get("trace_id", ""),
                span_id=span_id,
                parent_id=data.get("parent_id"),
                name=data.get("name", ""),
                endpoint=data.get("endpoint", ""),
                start=data.get("start", 0.0),
                end=data.get("end"),
                attrs=dict(data.get("attrs") or {}),
            )
            if len(self._spans) == self._maxlen:
                self.evicted += 1
            self._spans.append(span)
            self._ingest_index[span_id] = span
            applied += 1
        if len(self._ingest_index) > 2 * self._maxlen:
            buffered = {s.span_id for s in self._spans}
            for span_id in list(self._ingest_index):
                if span_id not in buffered:
                    del self._ingest_index[span_id]
        return applied

    def clear(self) -> None:
        self._spans.clear()
        self.evicted = 0
        self._shipped.clear()
        self._ingest_index.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self):
        return iter(list(self._spans))


@contextlib.contextmanager
def hop(obs, name: str, message, **attrs: Any):
    """Run a block as one forwarding hop of *message*'s trace.

    Yields the message to pass on: re-stamped, so whoever handles it
    next parents its spans under this hop's — or *message* itself when
    tracing is off or it carries no trace context.
    """
    if not (obs.tracing and message.trace is not None):
        yield message
        return
    span = obs.spans.start(
        name, trace_id=message.trace[0], parent_id=message.trace[1], **attrs
    )
    try:
        yield message.with_trace((message.trace[0], span.span_id))
    finally:
        obs.spans.finish(span)


#: Latency histogram segments derived from span names, for
#: :func:`observe_latencies`.  ``queue`` is the server handling the
#: message that carries an action: the LOCK_REQUEST, or the EVENT of a
#: two-message client.
_SEGMENT_OF = {
    CLIENT_EMIT: "e2e",
    CLIENT_LOCK_WAIT: "lock",
    SERVER_LOCK: "queue",
    SERVER_FLOOR: "floor_held",
    SERVER_RECEIVE: "queue",
    SERVER_BROADCAST: "route",
    CLUSTER_ROUTE: "route_shard",
    CLUSTER_FORWARD: "forward",
    WORKER_APPLY: "worker_apply",
    REMOTE_APPLY: "apply",
    SERVER_ACK: "ack",
}


def observe_latencies(recorder: SpanRecorder, registry, seen=None) -> int:
    """Fold finished span durations into per-segment latency histograms.

    Each span name maps to a segment label of the
    ``repro_sync_latency_seconds`` histogram family, decomposing
    end-to-end sync latency (the root ``client.emit`` span) into
    queue / lock / route / apply parts.  Returns the number of spans
    observed.

    With a *seen* set the fold is incremental: spans whose ids are in
    the set are skipped and newly folded ids are added, so the caller
    can re-fold on every export without double counting.
    """
    family = registry.histogram(
        "repro_sync_latency_seconds",
        help="Per-segment synchronization latency from trace spans",
        labelnames=("segment",),
    )
    observed = 0
    for span in recorder.spans():
        duration = span.duration
        if duration is None:
            continue
        if seen is not None:
            if span.span_id in seen:
                continue
            seen.add(span.span_id)
        segment = _SEGMENT_OF.get(span.name, span.name)
        family.labels(segment).observe(duration)
        observed += 1
    return observed
