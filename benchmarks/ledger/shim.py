"""Per-layer tracing from outside the program.

The ledger touches nothing under ``src/``: a traced repetition replaces a
fixed table of public entry points (:data:`ENTRY_POINTS`) with a shim
that records name, thread, start, end and parent span in memory.  A
layer's *self time* is its span's duration minus the part its child
spans cover (:func:`self_times`); spans on one thread nest properly
because every wrapped function is synchronous.

Module-level functions are replaced in every loaded ``repro`` module
that holds a reference (``from x import f`` aliases included), and the
self-tests require every entry point to be hit by some workload, so a
silent patch miss fails loudly.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped function and the cost bucket its time is charged to."""

    bucket: str
    module: str
    path: str
    #: Time spent here is *waiting* for other threads or processes: it is
    #: reported, but overlaps their busy time and is left out of the sum
    #: that ``bench.residual_us_per_action`` completes.
    wait: bool = False
    #: Only reached by a non-default setting at this commit (``codec`` is
    #: json, ``wire_batching`` off), so no workload is required to hit it;
    #: it wakes up by itself when the default flips.
    dormant: bool = False
    #: Extracts a per-call weight (e.g. messages in a batch) from the
    #: call's positional arguments.
    weigh: Optional[Callable[..., int]] = None

    @property
    def name(self) -> str:
        return f"{self.module}:{self.path}"


def _batch_len(_codec: Any, messages: Sequence[Any]) -> int:
    return len(messages)


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    # toolkit
    EntryPoint("toolkit.feedback", "repro.toolkit.widget", "UIObject.apply_feedback"),
    EntryPoint("toolkit.feedback", "repro.toolkit.widget", "UIObject.run_callbacks"),
    EntryPoint("toolkit.feedback", "repro.toolkit.widget", "UIObject.set_state"),
    # core
    EntryPoint(
        "core.emit", "repro.core.instance", "ApplicationInstance.process_local_event"
    ),
    EntryPoint("core.lock_wait", "repro.core.action_sync", "request_floor", wait=True),
    EntryPoint("core.apply", "repro.core.action_sync", "apply_remote_event"),
    EntryPoint(
        "core.dispatch", "repro.core.instance", "ApplicationInstance.handle_message"
    ),
    EntryPoint("core.state_build", "repro.core.state_sync", "build_state_payload"),
    EntryPoint("core.state_apply", "repro.core.state_sync", "apply_state_payload"),
    # net.codec
    EntryPoint("net.codec.encode", "repro.net.codec", "JsonCodec.encode"),
    EntryPoint(
        "net.codec.encode", "repro.net.binary", "BinaryCodec.encode", dormant=True
    ),
    EntryPoint(
        "net.codec.encode_batch",
        "repro.net.codec",
        "JsonCodec.encode_batch",
        dormant=True,
        weigh=_batch_len,
    ),
    EntryPoint(
        "net.codec.encode_batch",
        "repro.net.binary",
        "BinaryCodec.encode_batch",
        dormant=True,
        weigh=_batch_len,
    ),
    EntryPoint("net.codec.decode", "repro.net.codec", "JsonCodec.decode_body"),
    EntryPoint(
        "net.codec.decode", "repro.net.binary", "BinaryCodec.decode_body", dormant=True
    ),
    EntryPoint("net.codec.feed", "repro.net.codec", "StreamDecoder.feed"),
    # net.transport
    EntryPoint("net.transport.send", "repro.net.aio", "AioHostTransport.send"),
    EntryPoint("net.transport.send", "repro.net.aio", "AioClientTransport.send"),
    EntryPoint("net.transport.send", "repro.net.tcp", "TcpHostTransport.send"),
    EntryPoint("net.transport.send", "repro.net.tcp", "TcpClientTransport.send"),
    EntryPoint("net.transport.send", "repro.net.memory", "MemoryTransport.send"),
    # server
    EntryPoint("server.handle", "repro.server.server", "CosoftServer.handle_message"),
    EntryPoint("server.lock", "repro.server.locks", "LockTable.acquire_all"),
    EntryPoint("server.lock", "repro.server.locks", "LockTable.release_all"),
    EntryPoint("server.route", "repro.server.routing", "broadcast"),
    EntryPoint("server.closure", "repro.server.couples", "CoupleTable.add_link"),
    EntryPoint("server.closure", "repro.server.couples", "CoupleTable.remove_link"),
    EntryPoint("server.closure", "repro.server.couples", "CoupleTable.group_of"),
    # cluster
    EntryPoint(
        "cluster.route", "repro.cluster.router", "ShardedCosoftCluster.handle_message"
    ),
    EntryPoint(
        "cluster.forward_wait", "repro.cluster.proc", "ProcShardHandle.call", wait=True
    ),
    # persist (reached in the driver process only by the in-process twin)
    EntryPoint("persist.record", "repro.persist.journal", "Persistence.record"),
    EntryPoint("persist.sync", "repro.persist.oplog", "OpLog.sync"),
)


#: One recorded call: [entry index, start, end, parent index or -1, weight].
Span = List[Any]


class Tracer:
    """Records spans per thread; install once, before the session is built."""

    def __init__(self, entries: Sequence[EntryPoint] = ENTRY_POINTS):
        self.entries = tuple(entries)
        self.threads: Dict[int, List[Span]] = {}
        self._local = threading.local()
        self._registry_lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _thread_state(self) -> Tuple[List[Span], List[int]]:
        state = (spans, _stack) = ([], [])
        self._local.state = state
        with self._registry_lock:
            self.threads[threading.get_ident()] = spans
        return state

    def wrap(self, index: int, function: Callable, weigh=None) -> Callable:
        local = self._local
        new_state = self._thread_state

        @functools.wraps(function)
        def shim(*args, **kwargs):
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = new_state()
            span = [
                index,
                perf_counter(),
                0.0,
                stack[-1] if stack else -1,
                weigh(*args) if weigh is not None else 1,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return shim

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Replace every entry point; raises if one cannot be resolved."""
        for index, entry in enumerate(self.entries):
            module = importlib.import_module(entry.module)
            owner: Any = module
            *parents, attr = entry.path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if parents else getattr(owner, attr)
            shim = self.wrap(index, original, entry.weigh)
            if parents:
                self._set(owner, attr, shim)
            else:
                self._replace_everywhere(original, shim)
            if getattr(owner, attr) is not shim:
                raise RuntimeError(f"patch of {entry.name} did not take")

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original: Any, shim: Any) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, shim)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- export ---------------------------------------------------------------

    def dump(self, path: str, origin: float) -> None:
        """Write every span (times relative to *origin*) as one JSON file."""
        document = {
            "columns": ["entry", "start_s", "end_s", "parent", "weight"],
            "entries": [entry.name for entry in self.entries],
            "threads": {
                str(tid): [
                    [s[0], round(s[1] - origin, 7), round(s[2] - origin, 7), s[3], s[4]]
                    for s in spans
                ]
                for tid, spans in self.threads.items()
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


@dataclass
class Cost:
    """What one entry point (or bucket) cost inside a window."""

    calls: int = 0
    self_s: float = 0.0
    weight: int = 0

    def add(self, other: "Cost") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.weight += other.weight


Window = Tuple[float, float]


def _own_spans(spans: List[Span], windows: Sequence[Window]):
    """``(entry, self seconds, weight)`` of each closed span that *starts*
    inside one of the sorted, disjoint *windows*.

    A span's self time is its duration minus the durations of its direct
    children on the same thread.  Spans still open (end 0.0) are skipped.
    """
    begins = [begin for begin, _end in windows]
    children = [0.0] * len(spans)
    for _entry, start, stop, parent, _weight in spans:
        if stop and parent >= 0:
            children[parent] += stop - start
    for position, (entry, start, stop, _parent, weight) in enumerate(spans):
        slot = bisect.bisect_right(begins, start) - 1
        if stop and slot >= 0 and start < windows[slot][1]:
            yield entry, (stop - start) - children[position], weight


def self_times(
    threads: Dict[int, List[Span]], windows: Sequence[Window]
) -> Dict[int, Cost]:
    """Calls, self time and weight per entry index inside *windows*."""
    costs: Dict[int, Cost] = {}
    for spans in threads.values():
        for entry, self_s, weight in _own_spans(spans, windows):
            cost = costs.setdefault(entry, Cost())
            cost.calls += 1
            cost.self_s += self_s
            cost.weight += weight
    return costs


def busy_per_thread(
    threads: Dict[int, List[Span]],
    windows: Sequence[Window],
    idle: Sequence[int] = (),
) -> Dict[int, float]:
    """Self seconds per thread inside *windows*, entries in *idle* left out.

    No thread can be busy for longer than the windows last: a larger
    value means spans were counted twice.
    """
    return {
        thread: sum(
            self_s
            for entry, self_s, _weight in _own_spans(spans, windows)
            if entry not in idle
        )
        for thread, spans in threads.items()
    }


def by_bucket(
    entries: Sequence[EntryPoint], costs: Dict[int, Cost]
) -> Dict[str, Cost]:
    """Fold per-entry costs into their buckets (every bucket present)."""
    buckets: Dict[str, Cost] = {entry.bucket: Cost() for entry in entries}
    for index, cost in costs.items():
        buckets[entries[index].bucket].add(cost)
    return buckets
