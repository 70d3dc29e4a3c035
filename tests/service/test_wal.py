"""Write-ahead log: framing, durability, rotation, acks, repair."""

from __future__ import annotations

import hashlib
import struct
import threading
import time

import pytest

from repro.errors import WalError
from repro.service.wal import WalEntry, WriteAheadLog


def payloads(wal: WriteAheadLog) -> list:
    return [entry.payload for entry in wal.replay()]


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        first = wal.append(b"one")
        second = wal.append(b"two")
        assert isinstance(first, WalEntry)
        assert first.entry_id != second.entry_id
        assert payloads(wal) == [b"one", b"two"]
        wal.close()

    def test_replay_survives_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(b"alpha")
            wal.append(b"beta")
        reopened = WriteAheadLog(tmp_path / "wal")
        assert payloads(reopened) == [b"alpha", b"beta"]
        reopened.close()

    def test_ack_removes_from_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        first = wal.append(b"one")
        wal.append(b"two")
        wal.ack(first)
        assert payloads(wal) == [b"two"]
        assert wal.lag() == 1
        wal.close()

    def test_acks_survive_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            first = wal.append(b"one")
            wal.append(b"two")
            wal.ack(first)
        reopened = WriteAheadLog(tmp_path / "wal")
        assert payloads(reopened) == [b"two"]
        reopened.close()

    def test_double_ack_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        entry = wal.append(b"one")
        wal.ack(entry)
        wal.ack(entry)
        assert wal.lag() == 0
        assert wal.stats()["acked_total"] == 1
        wal.close()

    def test_ack_unknown_record_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(WalError):
            wal.ack("00000001:000099")
        wal.close()

    def test_empty_payload_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(WalError):
            wal.append(b"")
        wal.close()


class TestRotation:
    def test_rotates_past_size_cap(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=64)
        for i in range(6):
            wal.append(f"record-{i}".encode() * 4)
        assert wal.stats()["segments"] >= 2
        assert [p.decode()[:7] for p in payloads(wal)] == [
            "record-"] * 6
        wal.close()

    def test_fully_acked_segment_deleted(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=64)
        entries = [wal.append(f"record-{i}".encode() * 4)
                   for i in range(6)]
        for entry in entries:
            wal.ack(entry)
        assert wal.lag() == 0
        # Only the active segment survives full acknowledgement.
        remaining = list((tmp_path / "wal").glob("segment-*.wal"))
        assert len(remaining) == 1
        wal.close()


class TestRetirement:
    """Once fully acked, the active segment is retired: after a drain
    the WAL holds no acked frame."""

    def test_drained_wal_holds_no_frame(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=64)
        entries = [wal.append(f"record-{i}".encode() * 4)
                   for i in range(6)]
        entries.append(wal.append(b"tail"))
        for entry in entries:
            wal.ack(entry)
        directory = tmp_path / "wal"
        segments = list(directory.glob("segment-*.wal"))
        assert [path.stat().st_size for path in segments] == [0]
        assert list(directory.glob("segment-*.ack")) == []
        assert payloads(wal) == []
        wal.close()

    def test_partial_ack_keeps_the_active_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        first = wal.append(b"one")
        wal.append(b"two")
        wal.ack(first)
        assert wal.stats()["active_segment"] == 1
        assert payloads(wal) == [b"two"]
        wal.close()

    def test_appends_resume_in_the_next_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.ack(wal.append(b"one"))
        entry = wal.append(b"two")
        assert (entry.segment, entry.index) == (2, 0)
        assert payloads(wal) == [b"two"]
        wal.close()

    def test_double_ack_of_retired_record_is_a_noop(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        entry = wal.append(b"one")
        wal.ack(entry)
        wal.ack(entry)
        wal.ack(entry.entry_id)
        assert wal.stats()["acked_total"] == 1
        assert wal.lag() == 0
        with pytest.raises(WalError):
            wal.ack("00000002:000000")  # Never appended.
        wal.close()

    def test_crash_before_the_unlinks_is_finished_on_open(
        self, tmp_path, monkeypatch,
    ):
        # A crash after the rotation's directory fsync, before its
        # unlinks: the retired segment is fully acked but still there.
        with WriteAheadLog(tmp_path / "wal") as wal:
            monkeypatch.setattr(wal, "_cleanup_locked", lambda _seg: None)
            wal.ack(wal.append(b"one"))
        directory = tmp_path / "wal"
        assert sorted(p.name for p in directory.iterdir()) == [
            "segment-00000001.ack", "segment-00000001.wal",
            "segment-00000002.wal",
        ]
        reopened = WriteAheadLog(directory)
        assert sorted(p.name for p in directory.iterdir()) == [
            "segment-00000002.wal",
        ]
        assert reopened.replay() == []
        assert reopened.lag() == 0
        reopened.close()


class TestWaitAcked:
    """``wait_acked`` waits for the records appended before the call."""

    def test_nothing_pending_returns_at_once(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.ack(wal.append(b"done"))
        started = time.monotonic()
        assert wal.wait_acked(timeout=5.0)
        assert time.monotonic() - started < 1.0

    def test_waits_for_an_ack_from_another_thread(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        entry = wal.append(b"pending")
        acker = threading.Timer(0.1, wal.ack, args=(entry,))
        acker.start()
        try:
            assert wal.wait_acked(timeout=5.0)
            assert wal.lag() == 0
        finally:
            acker.join()

    def test_later_appends_are_not_waited_for(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        first = wal.append(b"first")

        def ack_first_then_append() -> None:
            time.sleep(0.1)
            wal.append(b"later")  # Stays unacked.
            wal.ack(first)

        writer = threading.Thread(target=ack_first_then_append)
        writer.start()
        try:
            assert wal.wait_acked(timeout=5.0)
            assert wal.lag() == 1
        finally:
            writer.join()

    def test_times_out_and_close_wakes_the_waiter(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(b"never acked")
        assert not wal.wait_acked(timeout=0.05)
        closer = threading.Timer(0.1, wal.close)
        closer.start()
        started = time.monotonic()
        try:
            assert not wal.wait_acked(timeout=30.0)
            assert time.monotonic() - started < 10.0
        finally:
            closer.join()


class TestCrashRepair:
    def test_torn_tail_is_truncated(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(b"whole-record")
        segment = next((tmp_path / "wal").glob("segment-*.wal"))
        good = segment.read_bytes()
        # A crash mid-append leaves a half-written frame at the tail.
        segment.write_bytes(good + b"GWAL\x00\x00\x00\x63partial")
        reopened = WriteAheadLog(tmp_path / "wal")
        assert payloads(reopened) == [b"whole-record"]
        assert segment.read_bytes() == good  # repaired in place
        # Appends continue cleanly after the repair.
        reopened.append(b"after-crash")
        assert payloads(reopened) == [b"whole-record", b"after-crash"]
        reopened.close()

    def test_corrupt_checksum_is_skipped_and_counted(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(b"first")
            wal.append(b"second")
        segment = next((tmp_path / "wal").glob("segment-*.wal"))
        data = bytearray(segment.read_bytes())
        # Flip one payload byte of the first record (header is
        # magic(4) + length(4) + sha256(32) = 40 bytes).
        data[40] ^= 0xFF
        segment.write_bytes(bytes(data))
        reopened = WriteAheadLog(tmp_path / "wal")
        assert payloads(reopened) == [b"second"]
        assert reopened.stats()["corrupt_total"] == 1
        reopened.close()

    def test_zero_byte_newest_segment_is_clean(self, tmp_path):
        # A crash between segment creation and the first append leaves
        # a 0-byte newest segment.  That is a clean-empty file, not a
        # torn tail: reopening must not count corruption, and appends
        # resume into that segment at index 0.
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(b"survivor")
        empty = tmp_path / "wal" / "segment-00000002.wal"
        empty.touch()
        reopened = WriteAheadLog(tmp_path / "wal")
        assert payloads(reopened) == [b"survivor"]
        assert reopened.stats()["corrupt_total"] == 0
        assert reopened.lag() == 1
        entry = reopened.append(b"after-crash")
        assert entry.segment == 2
        assert entry.index == 0
        assert payloads(reopened) == [b"survivor", b"after-crash"]
        reopened.close()

    def test_frame_checksum_matches_payload(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(b"check-me")
        segment = next((tmp_path / "wal").glob("segment-*.wal"))
        data = segment.read_bytes()
        magic, length, digest = struct.unpack(">4sI32s", data[:40])
        assert magic == b"GWAL"
        assert length == len(b"check-me")
        assert digest == hashlib.sha256(b"check-me").digest()

    def test_closed_wal_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.close()
        with pytest.raises(WalError):
            wal.append(b"late")


class TestFaultHook:
    def test_append_hook_failure_keeps_wal_consistent(self, tmp_path):
        calls = {"n": 0}

        def hook():
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError(28, "injected: disk full")

        wal = WriteAheadLog(tmp_path / "wal", append_hook=hook)
        wal.append(b"before")
        with pytest.raises(OSError):
            wal.append(b"during")
        wal.append(b"after")
        assert payloads(wal) == [b"before", b"after"]
        assert wal.stats()["appended_total"] == 2
        wal.close()
