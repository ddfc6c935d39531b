"""The append-only operation log: length-prefixed, CRC-checked, rotating.

One entry is one journaled server operation::

    {"seq": 17, "t": 0.042, "msg": {<wire message>}}

framed on disk as ``[u32 body length][u32 crc32(body)][body]`` with the
body in the codec's canonical JSON form (sorted keys, compact
separators).  Entries append to the active segment file
``oplog-<firstseq>.log``; when it exceeds ``segment_bytes`` a new segment
starts, so compaction can drop whole files below a snapshot's sequence
number without rewriting anything.

Reads verify every CRC.  A torn write at the very tail of the *last*
segment (the crash case fsync policies allow) is truncated silently;
corruption anywhere else raises :class:`~repro.errors.PersistenceError`
— an operator runs ``python -m repro.tools.persist verify-crc`` to
locate it.

:class:`MemoryOpLog` offers the same interface without a filesystem —
used by tests and by ephemeral sessions.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import PersistenceError

#: One frame header: big-endian u32 body length, u32 CRC32 of the body.
_HEADER = struct.Struct(">II")

#: Hard ceiling on one entry's body, protecting readers from a corrupt
#: length field claiming gigabytes.
MAX_ENTRY_SIZE = 64 * 1024 * 1024

_SEGMENT_PREFIX = "oplog-"
_SEGMENT_SUFFIX = ".log"


def _dumps(entry: Dict[str, Any]) -> bytes:
    return json.dumps(entry, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(name: str) -> Optional[int]:
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    try:
        return int(digits)
    except ValueError:
        return None


def frame_entry(entry: Dict[str, Any]) -> bytes:
    """Serialize one entry to its on-disk frame (header + body)."""
    body = _dumps(entry)
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _read_frames(
    data: bytes, *, tolerate_torn_tail: bool
) -> Tuple[List[Dict[str, Any]], Optional[str]]:
    """Decode consecutive frames from *data*.

    Returns ``(entries, problem)`` where *problem* is ``None`` on a clean
    read, or a description of the defect that stopped it.  With
    *tolerate_torn_tail* an incomplete or CRC-failing *final* frame is
    reported but not fatal — the caller decides.
    """
    entries: List[Dict[str, Any]] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            return entries, f"truncated header at byte {offset}"
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_ENTRY_SIZE:
            return entries, f"implausible entry length {length} at byte {offset}"
        start = offset + _HEADER.size
        end = start + length
        if end > size:
            return entries, f"truncated body at byte {offset}"
        body = data[start:end]
        if zlib.crc32(body) != crc:
            return entries, f"CRC mismatch at byte {offset}"
        try:
            entry = json.loads(body)
        except ValueError:
            return entries, f"unparseable entry at byte {offset}"
        entries.append(entry)
        offset = end
    return entries, None


class OpLog:
    """File-backed append-only op log with segment rotation.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.
    segment_bytes:
        Rotation threshold for the active segment.
    fsync:
        ``"always"`` fsyncs after every append, ``"batch"`` only on
        :meth:`sync` / :meth:`close` (the default — the journal
        coordinator syncs at snapshot boundaries).
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_bytes: int = 1 << 20,
        fsync: str = "batch",
    ):
        if fsync not in ("always", "batch"):
            raise ValueError(f"unknown fsync policy {fsync!r}")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        os.makedirs(directory, exist_ok=True)
        self._active: Optional[Any] = None      # open file handle
        self._active_first = 0                  # first seq of active segment
        self._active_size = 0
        self._last_seq = 0
        self._first_seq = 0                     # oldest retained seq (0 = none)
        self.fsyncs = 0
        self._recover_tail()

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def _segments(self) -> List[Tuple[int, str]]:
        """(first_seq, path) of every segment, oldest first."""
        found = []
        for name in os.listdir(self.directory):
            first = _segment_first_seq(name)
            if first is not None:
                found.append((first, os.path.join(self.directory, name)))
        found.sort()
        return found

    def _recover_tail(self) -> None:
        """Find the last valid seq; truncate a torn tail frame in place."""
        segments = self._segments()
        if not segments:
            return
        self._first_seq = segments[0][0]
        last_first, last_path = segments[-1]
        with open(last_path, "rb") as fh:
            data = fh.read()
        entries, problem = _read_frames(data, tolerate_torn_tail=True)
        if problem is not None:
            # A crash mid-append leaves a torn frame at the tail: cut it
            # off so appends resume from the last durable entry.  Damage
            # that still leaves undecodable bytes is real corruption.
            good = sum(len(frame_entry(e)) for e in entries)
            with open(last_path, "r+b") as fh:
                fh.truncate(good)
        if entries:
            self._last_seq = int(entries[-1]["seq"])
        elif len(segments) > 1:
            prev_entries = self._read_segment(segments[-2][1])
            self._last_seq = int(prev_entries[-1]["seq"]) if prev_entries else 0
        self._active_first = last_first
        self._active_size = os.path.getsize(last_path)
        self._active = open(last_path, "ab")

    def _read_segment(self, path: str) -> List[Dict[str, Any]]:
        with open(path, "rb") as fh:
            data = fh.read()
        entries, problem = _read_frames(data, tolerate_torn_tail=False)
        if problem is not None:
            raise PersistenceError(f"{path}: {problem}")
        return entries

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest entry (0 when empty)."""
        return self._last_seq

    @property
    def first_seq(self) -> int:
        """Sequence number the oldest retained segment starts at (0 = none)."""
        return self._first_seq

    def append(self, payload: Dict[str, Any]) -> int:
        """Append one entry; assigns and returns the next sequence number."""
        seq = self._last_seq + 1
        entry = dict(payload)
        entry["seq"] = seq
        self.append_entry(entry)
        return seq

    def append_entry(self, entry: Dict[str, Any]) -> None:
        """Append a fully-formed entry; its seq must follow the last one."""
        seq = int(entry["seq"])
        if seq <= self._last_seq:
            raise PersistenceError(
                f"out-of-order append: seq {seq} after {self._last_seq}"
            )
        if self._active is None or (
            self._active_size >= self.segment_bytes and self._active_size > 0
        ):
            self._rotate(seq)
        frame = frame_entry(entry)
        self._active.write(frame)
        self._active_size += len(frame)
        self._last_seq = seq
        if self._first_seq == 0:
            self._first_seq = seq
        if self.fsync == "always":
            self.sync()
        else:
            self._active.flush()

    def _rotate(self, first_seq: int) -> None:
        if self._active is not None:
            self.sync()
            self._active.close()
        path = os.path.join(self.directory, _segment_name(first_seq))
        self._active = open(path, "ab")
        self._active_first = first_seq
        self._active_size = os.path.getsize(path)

    def sync(self) -> None:
        """Flush and fsync the active segment."""
        if self._active is None:
            return
        self._active.flush()
        os.fsync(self._active.fileno())
        self.fsyncs += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def read(self, after_seq: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield entries with ``seq > after_seq`` in order."""
        if self._active is not None:
            self._active.flush()
        for first, path in self._segments():
            entries = self._read_segment(path)
            if entries and int(entries[-1]["seq"]) <= after_seq:
                continue
            for entry in entries:
                if int(entry["seq"]) > after_seq:
                    yield entry

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self, upto_seq: int) -> int:
        """Drop whole segments whose entries are all ``<= upto_seq``.

        Only safe below a durable snapshot's sequence number.  Returns
        the number of segments removed; the active segment never goes.
        """
        removed = 0
        segments = self._segments()
        for index, (first, path) in enumerate(segments):
            if path == getattr(self._active, "name", None):
                break
            # A segment's entries end where the next one begins.
            next_first = (
                segments[index + 1][0] if index + 1 < len(segments) else None
            )
            if next_first is None or next_first - 1 > upto_seq:
                break
            os.remove(path)
            removed += 1
            self._first_seq = next_first
        return removed

    def verify(self) -> Dict[str, Any]:
        """CRC-check every segment; returns a structured report."""
        report: Dict[str, Any] = {
            "segments": [],
            "entries": 0,
            "corrupt": 0,
            "first_seq": None,
            "last_seq": None,
        }
        if self._active is not None:
            self._active.flush()
        for first, path in self._segments():
            with open(path, "rb") as fh:
                data = fh.read()
            entries, problem = _read_frames(data, tolerate_torn_tail=True)
            report["segments"].append(
                {
                    "path": os.path.basename(path),
                    "entries": len(entries),
                    "bytes": len(data),
                    "problem": problem,
                }
            )
            report["entries"] += len(entries)
            if problem is not None:
                report["corrupt"] += 1
            if entries:
                if report["first_seq"] is None:
                    report["first_seq"] = int(entries[0]["seq"])
                report["last_seq"] = int(entries[-1]["seq"])
        return report

    def close(self) -> None:
        if self._active is not None:
            self.sync()
            self._active.close()
            self._active = None


class MemoryOpLog:
    """The op-log interface over a plain list — no filesystem.

    Backs ephemeral persistence (property tests, in-memory sessions).
    """

    def __init__(self) -> None:
        self._entries: List[Dict[str, Any]] = []
        self.fsyncs = 0

    @property
    def last_seq(self) -> int:
        return len(self._entries)

    def append(self, payload: Dict[str, Any]) -> int:
        seq = len(self._entries) + 1
        entry = dict(payload)
        entry["seq"] = seq
        self._entries.append(entry)
        return seq

    def sync(self) -> None:
        pass

    def read(self, after_seq: int = 0) -> Iterator[Dict[str, Any]]:
        for entry in self._entries:
            if int(entry["seq"]) > after_seq:
                # Deep copy: callers hand entries to replay, which must
                # not be able to mutate the journal through them.
                yield json.loads(_dumps(entry))

    def verify(self) -> Dict[str, Any]:
        return {
            "segments": [],
            "entries": len(self._entries),
            "corrupt": 0,
            "first_seq": 1 if self._entries else None,
            "last_seq": self.last_seq or None,
        }

    def close(self) -> None:
        pass
