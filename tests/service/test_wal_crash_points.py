"""Crash points of the write-ahead log.

For every crashable call of a burst that opens a seeded WAL, appends,
rotates by size, acks records of an old and of the active segment and
retires both, a power cut followed by a reopen must replay every record
whose append returned and whose ack did not exactly once, never a record
whose ack returned, and leave a log that a writer carries on with: its
later acks hold across reopens, and it drains to one empty segment.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.service import wal as wal_module
from repro.service.wal import WriteAheadLog
from tests.crashpoints import Crash, crash_at

#: Three ~70-byte frames fill a segment; the fourth append rotates.
SEGMENT_BYTES = 200

SEED_APPENDS = ("s0", "s1", "s2")
SEED_ACKS = ("s0",)

#: ("append" | "ack", record); see the module docstring for the path.
BURST = (
    ("append", "r0"),   # rotates: segment 1 is full
    ("ack", "s1"),      # a record of the old segment
    ("append", "r1"),
    ("ack", "r0"),
    ("ack", "s2"),      # segment 1 fully acked: deleted
    ("append", "r2"),
    ("ack", "r1"),
    ("ack", "r2"),      # the active segment fully acked: retired
    ("append", "r3"),
    ("append", "r4"),
    ("ack", "r3"),
)


def payload(record: str) -> bytes:
    return f"record {record} ".encode() * 2


def seed(directory: Path) -> dict:
    entries = {}
    with WriteAheadLog(directory, max_segment_bytes=SEGMENT_BYTES) as wal:
        for record in SEED_APPENDS:
            entries[record] = wal.append(payload(record)).entry_id
        for record in SEED_ACKS:
            wal.ack(entries[record])
    return entries


def run_burst(directory: Path, entries: dict, returned: list) -> None:
    wal = WriteAheadLog(directory, max_segment_bytes=SEGMENT_BYTES)
    for op, record in BURST:
        if op == "append":
            entries[record] = wal.append(payload(record)).entry_id
        else:
            wal.ack(entries[record])
        returned.append((op, record))
    wal.close()


def test_every_wal_crash_point_replays_each_record_exactly_once(tmp_path):
    template = tmp_path / "template"
    seeded = seed(template)

    clean = tmp_path / "clean"
    shutil.copytree(template, clean)
    with crash_at(0, wal_module) as calls:
        run_burst(clean, dict(seeded), [])
    total = calls[0]
    assert WriteAheadLog(clean).replay()[0].payload == payload("r4")
    assert total > 30

    for n in range(1, total + 1):
        directory = tmp_path / f"crash-{n}"
        shutil.copytree(template, directory)
        entries = dict(seeded)
        returned: list = []
        with pytest.raises(Crash), crash_at(n, wal_module):
            run_burst(directory, entries, returned)

        appended = set(SEED_APPENDS) | {r for op, r in returned
                                        if op == "append"}
        acked = set(SEED_ACKS) | {r for op, r in returned if op == "ack"}
        interrupted = BURST[len(returned)][1] if len(returned) < len(
            BURST) else None

        reopened = WriteAheadLog(directory, max_segment_bytes=SEGMENT_BYTES)
        replayed = [entry.payload for entry in reopened.replay()]
        assert len(replayed) == len(set(replayed)), n
        known = {payload(r): r for r in appended | {interrupted} if r}
        assert set(replayed) <= set(known), n
        replayed_records = {known[p] for p in replayed}
        assert replayed_records - {interrupted} == appended - acked - {
            interrupted}, n
        assert not replayed_records & acked - {interrupted}, n
        assert reopened.stats()["corrupt_total"] == 0, n

        # A writer carries on, and drains the log one ack per reopen.
        pending = [entry.entry_id for entry in reopened.replay()]
        pending.append(reopened.append(payload("after")).entry_id)
        wal = reopened
        while pending:
            wal.ack(pending.pop(0))
            wal.close()
            wal = WriteAheadLog(directory, max_segment_bytes=SEGMENT_BYTES)
            assert [e.entry_id for e in wal.replay()] == pending, n
        wal.close()
        files = sorted(path.name for path in directory.iterdir())
        assert len(files) == 1 and files[0].endswith(".wal"), (n, files)
        shutil.rmtree(directory)
