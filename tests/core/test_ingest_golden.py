"""Cross-commit byte identity of the ingest path.

One literal log, its crash-truncated prefix and a damaged variant
(duplicates, skew reordering, an orphaned subtree, a malformed line, a
foreign-job record, an end without a start) go through every feeder of
the operation tree — strict build, salvage, live snapshots.  The
checksums below were computed at commit 9be3405, *before* salvage and
live were re-based onto ``RecordColumns``, so the column scans are held
to the bytes the record-object path wrote.
"""

import json

import pytest

from repro.core.archive.builder import build_archive
from repro.core.archive.serialize import archive_to_document
from repro.core.monitor.live import LiveMonitor
from repro.core.monitor.records import EnvSample
from repro.core.monitor.salvage import salvage_archive
from tests.conftest import columns_run

LOG = [
    "GRANULA ts=0.0 job=golden event=start uid=j actor=Client "
    "mission=GoldenJob parent=-",
    "INFO platform noise, not a GRANULA line",
    "GRANULA ts=0.5 job=golden event=start uid=load actor=Master "
    "mission=LoadGraph parent=j",
    "GRANULA ts=1.0 job=golden event=start uid=load-1 actor=Worker-1 "
    "mission=LocalLoad parent=load",
    "GRANULA ts=2.0 job=golden event=info uid=load-1 name=BytesRead "
    "value=4096",
    "GRANULA ts=2.5 job=golden event=end uid=load-1",
    "GRANULA ts=3.0 job=golden event=end uid=load",
    "GRANULA ts=3.0 job=golden event=start uid=step-0 actor=Master "
    "mission=Superstep-0 parent=j",
    "GRANULA ts=4.5 job=golden event=info uid=step-0 name=Note "
    "value=50%25%20done",
    "GRANULA ts=5.0 job=golden event=end uid=step-0",
    "GRANULA ts=6.0 job=golden event=info uid=j name=Vertices value=1.5e3",
    "GRANULA ts=6.0 job=golden event=end uid=j",
]

#: The job crashed right after Superstep-0 started.
TRUNCATED = LOG[:8]

#: Retransmitted lines, an end that overtook its start by 2 s, garbage,
#: another job's record, a subtree whose parent line was lost, and an
#: end whose start was lost.
DAMAGED = LOG[:5] + [
    LOG[4],
    LOG[2],
    LOG[9],
    "GRANULA ts=zzz job=golden event=end uid=step-0 actor=Worker-3",
    "GRANULA ts=1.0 job=other event=end uid=x",
] + LOG[5:9] + [
    "GRANULA ts=3.5 job=golden event=start uid=lost-1 actor=Worker-2 "
    "mission=Compute-0 parent=lost",
    "GRANULA ts=4.0 job=golden event=end uid=lost-1",
    "GRANULA ts=4.2 job=golden event=end uid=never-started",
] + LOG[10:]

BUILD = "1ef0f141de24d7889c1cba389fe894c7079a898ea5de1a88181e8b8281ac669f"
SALVAGE = {
    "clean": (
        LOG,
        "d5866a6b3488d15f4dd43a86db24448a39d56650f44db29c7e9929b7d18ebec6",
    ),
    "truncated": (
        TRUNCATED,
        "bd3e7dc8310380980495229672df93a60c615685cb3248f1810564cd26c107e2",
    ),
    "damaged": (
        DAMAGED,
        "fa616ccbd0b3354e5fa9b5666bc2bf98c41f6d1ea8d27a27421500c575378579",
    ),
}
LIVE_DAMAGED = (
    "b2283f496dd8ef5854cc9b99d42fec481e5242749e27716ba5150dab8c010cf4")
LIVE_TRUNCATED = (
    "dcfb7dcc6c16d8d167e17c9543763fdbc522a650c3e19e2dfa7f06687bea41dc")


def checksum(archive):
    return archive_to_document(archive)["integrity"]["checksum"]


def test_strict_build_bytes():
    run = columns_run(LOG, job_id="golden", env_samples=[
        EnvSample(0.0, "n1", 2.0), EnvSample(1.0, "n1", 3.5)])
    archive, _report = build_archive(run)
    assert checksum(archive) == BUILD


@pytest.mark.parametrize("variant", sorted(SALVAGE))
def test_salvage_bytes(variant):
    lines, expected = SALVAGE[variant]
    archive, _report = salvage_archive(lines, platform="Golden")
    assert checksum(archive) == expected


def test_last_partial_live_snapshot_bytes():
    monitor = LiveMonitor("golden", platform="Golden")
    for offset in range(0, len(DAMAGED), 5):
        monitor.feed(DAMAGED[offset:offset + 5],
                     [EnvSample(float(offset), "n1", 1.0)])
        snapshot = monitor.snapshot()
    assert (snapshot.seq, snapshot.records) == (4, 14)
    assert json.loads(snapshot.body)["integrity"]["checksum"] == LIVE_DAMAGED


def test_live_snapshot_of_a_crashed_job_bytes():
    monitor = LiveMonitor("golden", platform="Golden")
    monitor.feed(TRUNCATED)
    body = monitor.snapshot().body
    assert json.loads(body)["integrity"]["checksum"] == LIVE_TRUNCATED
