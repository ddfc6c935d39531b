"""Tests for the append-only op log: framing, rotation, recovery."""

import os

import pytest

from repro.errors import PersistenceError
from repro.persist import MemoryOpLog, OpLog
from repro.persist.oplog import _read_frames, frame_entry


def entry(seq, kind="event"):
    return {"seq": seq, "t": seq * 0.1, "msg": {"kind": kind, "sender": "a"}}


class TestFraming:
    def test_round_trip(self):
        frames = b"".join(frame_entry(entry(i)) for i in range(1, 4))
        entries, problem = _read_frames(frames, tolerate_torn_tail=False)
        assert problem is None
        assert [e["seq"] for e in entries] == [1, 2, 3]

    def test_truncated_tail_reported(self):
        frames = frame_entry(entry(1)) + frame_entry(entry(2))[:-3]
        entries, problem = _read_frames(frames, tolerate_torn_tail=True)
        assert [e["seq"] for e in entries] == [1]
        assert "truncated" in problem

    def test_crc_mismatch_reported(self):
        frame = bytearray(frame_entry(entry(1)))
        frame[-1] ^= 0xFF
        entries, problem = _read_frames(bytes(frame), tolerate_torn_tail=False)
        assert entries == []
        assert "CRC mismatch" in problem


class TestAppendRead:
    def test_append_assigns_sequence(self, tmp_path):
        log = OpLog(str(tmp_path))
        assert log.append({"t": 0.0, "msg": {}}) == 1
        assert log.append({"t": 0.1, "msg": {}}) == 2
        assert log.last_seq == 2
        assert [e["seq"] for e in log.read()] == [1, 2]
        assert [e["seq"] for e in log.read(after_seq=1)] == [2]
        log.close()

    def test_append_entry_rejects_out_of_order(self, tmp_path):
        log = OpLog(str(tmp_path))
        log.append_entry(entry(5))
        with pytest.raises(PersistenceError):
            log.append_entry(entry(5))
        with pytest.raises(PersistenceError):
            log.append_entry(entry(3))
        log.close()

    def test_reopen_resumes_from_last_seq(self, tmp_path):
        log = OpLog(str(tmp_path))
        for _ in range(3):
            log.append({"t": 0.0, "msg": {}})
        log.close()
        reopened = OpLog(str(tmp_path))
        assert reopened.last_seq == 3
        assert reopened.append({"t": 0.3, "msg": {}}) == 4
        assert [e["seq"] for e in reopened.read()] == [1, 2, 3, 4]
        reopened.close()


class TestRotationCompaction:
    def test_small_segments_rotate(self, tmp_path):
        log = OpLog(str(tmp_path), segment_bytes=1)
        for i in range(1, 5):
            log.append(entry(i))
        segments = [n for n in os.listdir(tmp_path) if n.endswith(".log")]
        assert len(segments) == 4
        assert [e["seq"] for e in log.read()] == [1, 2, 3, 4]
        log.close()

    def test_compact_drops_whole_segments_only(self, tmp_path):
        log = OpLog(str(tmp_path), segment_bytes=1)
        for i in range(1, 5):
            log.append(entry(i))
        removed = log.compact(2)
        assert removed == 2
        assert log.first_seq == 3
        assert [e["seq"] for e in log.read()] == [3, 4]
        log.close()

    def test_compact_never_touches_active_segment(self, tmp_path):
        log = OpLog(str(tmp_path))  # everything in one (active) segment
        for i in range(1, 4):
            log.append(entry(i))
        assert log.compact(3) == 0
        assert [e["seq"] for e in log.read()] == [1, 2, 3]
        log.close()


class TestCrashRecovery:
    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        log = OpLog(str(tmp_path))
        log.append(entry(1))
        log.append(entry(2))
        log.close()
        (path,) = [
            os.path.join(tmp_path, n)
            for n in os.listdir(tmp_path)
            if n.endswith(".log")
        ]
        with open(path, "ab") as fh:
            fh.write(frame_entry(entry(3))[:-5])  # crash mid-append
        recovered = OpLog(str(tmp_path))
        assert recovered.last_seq == 2
        assert recovered.append({"t": 0.3, "msg": {}}) == 3
        assert [e["seq"] for e in recovered.read()] == [1, 2, 3]
        recovered.close()

    def test_corruption_mid_log_raises_on_read(self, tmp_path):
        log = OpLog(str(tmp_path), segment_bytes=1)
        for i in range(1, 4):
            log.append(entry(i))
        log.close()
        first = sorted(
            n for n in os.listdir(tmp_path) if n.endswith(".log")
        )[0]
        path = os.path.join(tmp_path, first)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        reopened = OpLog(str(tmp_path))
        with pytest.raises(PersistenceError):
            list(reopened.read())
        report = reopened.verify()
        assert report["corrupt"] == 1
        reopened.close()

    def test_fsync_always_counts(self, tmp_path):
        log = OpLog(str(tmp_path), fsync="always")
        log.append(entry(1))
        log.append(entry(2))
        assert log.fsyncs == 2
        log.close()


class TestVerify:
    def test_clean_report(self, tmp_path):
        log = OpLog(str(tmp_path), segment_bytes=1)
        for i in range(1, 4):
            log.append(entry(i))
        report = log.verify()
        assert report["entries"] == 3
        assert report["corrupt"] == 0
        assert report["first_seq"] == 1
        assert report["last_seq"] == 3
        assert all(s["problem"] is None for s in report["segments"])
        log.close()


class TestMemoryOpLog:
    def test_same_interface(self):
        log = MemoryOpLog()
        assert log.append({"t": 0.0, "msg": {}}) == 1
        assert log.append({"t": 0.1, "msg": {}}) == 2
        assert log.last_seq == 2
        assert [e["seq"] for e in log.read(after_seq=1)] == [2]
        assert log.verify()["entries"] == 2

    def test_read_returns_copies(self):
        log = MemoryOpLog()
        log.append({"t": 0.0, "msg": {"kind": "event"}})
        first = next(log.read())
        first["msg"]["kind"] = "mutated"
        assert next(log.read())["msg"]["kind"] == "event"
