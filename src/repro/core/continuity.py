"""Delta continuity: both ends' records of every stream of transfers.

A STRICT CopyTo, CopyFrom or RemoteCopy from O onto T is one stream per
pair (O, T) (docs/PROTOCOL.md, "State transfer"); each end records its
last transfer, keyed ``(local pathname, remote gid)``.  Here are the
two rules: which one is sent (``entry_for``, ``commit_if_current``) and
whether a delta applies (``accept``).  Sans-I/O, with no lock of its
own: handlers call it under the transport guard, other callers take it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.compat import ComponentMapping, CorrespondenceRegistry, translate_state
from repro.server.couples import GlobalId
from repro.toolkit.builder import shape
from repro.toolkit.tree import subtree_state_since
from repro.toolkit.widget import UIObject, state_clock

Key = Tuple[str, GlobalId]
State = Mapping[str, Mapping[str, Any]]


@dataclass
class Sent:
    """The sender's record: sequence number, the state clock read before
    any state (a delta ships what was written after it), and the
    structure and semantic-blob fingerprints."""

    seq: int
    baseline: int
    fp: str
    sem_fp: Optional[str]


@dataclass
class Received:
    """The receiver's record: sequence number, the sender's and our own
    structure fingerprints, the sender's relative path -> type table and
    the mapping deltas are translated along (both derived once, from the
    full snapshot that started the stream), and the state clock after
    the apply."""

    seq: int
    fp: Optional[str]
    local_fp: str
    types: Optional[Mapping[str, str]]
    mapping: Optional[ComponentMapping]
    clock: int


class Continuity:
    def __init__(self) -> None:
        self.sent: Dict[Key, Sent] = {}
        self.received: Dict[Key, Received] = {}
        #: Never reused, so a record that outlived a lost full snapshot
        #: cannot match the chain begun after it.
        self._seqs = itertools.count(1)

    def next_seq(self) -> int:
        return next(self._seqs)

    def entry_for(
        self, key: Key, requester: Optional[Tuple[int, Optional[str]]] = None
    ) -> Optional[Sent]:
        """The record a transfer at *key* continues from (``None``: a full
        snapshot).  A record the fetch's *requester* ``(seq, fp)`` does
        not confirm is dropped, and the reply is full."""
        entry = self.sent.get(key)
        if entry is not None and requester not in (None, (entry.seq, entry.fp)):
            del self.sent[key]
            return None
        return entry

    def commit_if_current(
        self, key: Key, base: Optional[Sent], commit: Optional[Sent]
    ) -> None:
        """Keep *commit* (``None``: no record) for *key*, unless *base*,
        the record it continued from, was replaced meanwhile: a resync
        answered while this transfer was in flight is newer, and stays."""
        if self.sent.get(key) is not base:
            return
        if commit is None:
            self.sent.pop(key, None)
        else:
            self.sent[key] = commit

    def known(self, key: Key, widget: UIObject) -> Tuple[int, Optional[str]]:
        """``(seq, fp)`` of the last transfer applied at *key*; ``(0,
        None)`` when there is none or *widget*'s structure changed."""
        entry = self.received.get(key)
        if entry is None or entry.local_fp != shape(widget).fingerprint:
            return (0, None)
        return (entry.seq, entry.fp)

    def accept(
        self,
        key: Key,
        widget: UIObject,
        sync: Mapping[str, Any],
        state: State,
        correspondences: Optional[CorrespondenceRegistry],
    ) -> Optional[State]:
        """The delta *state* translated for *widget*, or ``None`` (and the
        record dropped) when continuity is lost.  It holds when ``base``
        is the last transfer applied here, neither end's structure
        changed, and the delta overwrites all written here since: an edit
        of ours it does not return would stand, where a full one would not."""
        entry = self.received.get(key)
        local = shape(widget)
        if (
            entry is None
            or (entry.seq, entry.fp) != (sync.get("base"), sync.get("fp"))
            or entry.local_fp != local.fingerprint
        ):
            self.received.pop(key, None)
            return None
        if entry.mapping is not None and entry.types is not None:
            state = translate_state(
                state, entry.types, local.types, entry.mapping, correspondences
            )
        for rel, names in subtree_state_since(widget, entry.clock).items():
            if not all(name in state.get(rel, ()) for name in names):
                del self.received[key]
                return None
        return state

    def advance(self, key: Key, seq: int, **snapshot: Any) -> None:
        """Transfer *seq* was applied at *key*: a full snapshot's record
        (*snapshot*: ``fp``, ``local_fp``, ``types``, ``mapping``) replaces
        the held one, a delta moves that one on."""
        if snapshot:
            self.received[key] = Received(seq, clock=state_clock(), **snapshot)
        else:
            entry = self.received[key]
            entry.seq, entry.clock = seq, state_clock()

    def forget(self, gone: Callable[[str, GlobalId], bool]) -> None:
        """Drop every record whose ``(local pathname, remote gid)`` *gone*
        holds for: the widget was destroyed or the peer left.  A later
        transfer under the same names starts full (sender) or asks for a
        full one (receiver)."""
        for table in (self.sent, self.received):
            for key in [key for key in table if gone(*key)]:
                del table[key]

    def clear(self) -> None:
        self.sent.clear()
        self.received.clear()
