"""Tests for live monitoring: incremental snapshots and SSE framing."""

import io
import json
import threading

from repro import logformat
from repro.core.archive.archive import PROVENANCE_INFERRED
from repro.core.archive.serialize import archive_from_json, archive_to_json
from repro.core.monitor.live import (
    LiveJobRegistry,
    LiveMonitor,
    complete_payload,
    iter_sse_events,
    sse_comment,
    sse_event,
)
from repro.core.monitor.records import EnvSample
from repro.core.monitor.salvage import salvage_archive


def line(ts, event, uid, job="job-1", **extra):
    fields = {"ts": str(ts), "job": job, "event": event, "uid": uid}
    fields.update({k: str(v) for k, v in extra.items()})
    return logformat.format_line(fields)


def full_log(job="job-1"):
    """A well-formed three-operation log."""
    return [
        line(0.0, "start", "j", job, parent="-", mission="GiraphJob",
             actor="GiraphClient"),
        line(1.0, "start", "a", job, parent="j", mission="Startup",
             actor="Master"),
        line(5.0, "end", "a", job),
        line(5.0, "start", "b", job, parent="j", mission="LoadGraph",
             actor="Worker-1"),
        line(9.0, "end", "b", job),
        line(10.0, "end", "j", job),
    ]


class TestLiveMonitor:
    def test_no_snapshot_before_records(self):
        monitor = LiveMonitor("job-1")
        assert monitor.snapshot() is None
        monitor.feed(["garbage that is not a granula line"])
        assert monitor.snapshot() is None

    def test_partial_snapshot_has_inferred_ends(self):
        monitor = LiveMonitor("job-1", platform="Giraph")
        monitor.feed(full_log()[:2])  # two starts, no ends yet
        snap = monitor.snapshot()
        assert snap is not None
        assert not snap.complete
        assert snap.inferred_ends == 2
        archive = archive_from_json(snap.body.decode("utf-8"))
        assert archive.metadata["live"]["partial"] is True
        assert all(
            op.provenance == PROVENANCE_INFERRED for op in archive.walk()
        )

    def test_seq_monotonic_and_stable_without_feeds(self):
        monitor = LiveMonitor("job-1")
        log = full_log()
        monitor.feed(log[:2])
        first = monitor.snapshot()
        again = monitor.snapshot()
        assert again is first  # no feed -> identical snapshot object
        monitor.feed(log[2:4])
        second = monitor.snapshot()
        assert second.seq == first.seq + 1
        monitor.feed([])  # empty feed does not dirty the monitor
        assert monitor.snapshot() is second

    def test_every_snapshot_is_a_valid_archive(self):
        monitor = LiveMonitor("job-1", platform="Giraph")
        log = full_log()
        bodies = []
        for i in range(len(log)):
            monitor.feed([log[i]])
            snap = monitor.snapshot()
            if snap is not None:
                bodies.append(snap.body)
        assert bodies
        for body in bodies:
            archive = archive_from_json(body.decode("utf-8"))
            assert archive.job_id == "job-1"
            assert archive.root.mission == "GiraphJob"

    def test_open_operation_closes_in_later_snapshot(self):
        monitor = LiveMonitor("job-1")
        log = full_log()
        monitor.feed(log[:2])
        early = archive_from_json(monitor.snapshot().body.decode("utf-8"))
        startup = early.root.children[0]
        assert startup.provenance == PROVENANCE_INFERRED
        monitor.feed(log[2:])
        late = archive_from_json(monitor.snapshot().body.decode("utf-8"))
        startup = late.root.children[0]
        assert startup.provenance != PROVENANCE_INFERRED
        assert startup.end_time == 5.0

    def test_final_snapshot_is_byte_identical_to_store_format(self):
        log = full_log()
        archive, _report = salvage_archive(log, platform="Giraph")
        monitor = LiveMonitor("job-1", platform="Giraph")
        monitor.feed(log)
        final = monitor.complete(archive)
        assert final.complete
        assert final.body == archive_to_json(archive).encode("utf-8")
        assert monitor.is_complete
        # Feeding after completion is a silent no-op.
        assert monitor.feed(["tail straggler"]) == 0
        assert monitor.snapshot() is final

    def test_records_never_decrease_across_a_replay_with_foreign_lines(self):
        # The final snapshot used to report raw fed lines (foreign and
        # malformed included) where partial ones report parsed records.
        log = full_log()
        noisy = []
        for granula in log:
            noisy += ["INFO platform noise", granula]
        noisy.append("GRANULA ts=zzz job=job-1 event=end uid=j")
        archive, _report = salvage_archive(log, platform="Giraph")
        monitor = LiveMonitor("job-1", platform="Giraph")
        counts = []
        for offset in range(0, len(noisy), 3):
            monitor.feed(noisy[offset:offset + 3])
            counts.append(monitor.snapshot().records)
        counts.append(monitor.complete(archive).records)
        assert counts == sorted(counts)
        assert counts[-1] == len(log) < len(noisy)

    def test_env_samples_flow_into_snapshots(self):
        monitor = LiveMonitor("job-1")
        monitor.feed(full_log()[:2], [EnvSample(0.5, "node085", 3.0)])
        archive = archive_from_json(monitor.snapshot().body.decode("utf-8"))
        assert archive.env_samples == [(0.5, "node085", 3.0)]

    def test_replay_chunks_produce_intermediate_snapshots(self):
        log = full_log()
        monitor = LiveMonitor("job-1", replay_chunks=3)
        seen = []
        done = threading.Event()

        def watch():
            since = 0
            while True:
                snap = monitor.wait(since, timeout=5.0)
                if snap is None:
                    break
                if snap.seq > since:
                    seen.append(snap)
                    since = snap.seq
                if snap.complete:
                    break
            done.set()

        thread = threading.Thread(target=watch)
        thread.start()
        # A small delay makes the watcher observe intermediate states.
        monitor.replay(log, chunks=3, delay=0.05)
        archive, _ = salvage_archive(log, platform="Giraph")
        monitor.complete(archive)
        assert done.wait(10.0)
        thread.join(10.0)
        seqs = [snap.seq for snap in seen]
        assert seqs == sorted(set(seqs))
        assert len(seen) >= 2  # at least one partial + the final
        assert seen[-1].complete
        assert any(snap.inferred_ends for snap in seen[:-1])

    def test_wait_timeout_returns_none(self):
        monitor = LiveMonitor("job-1")
        assert monitor.wait(0, timeout=0.01) is None

    def test_abort_releases_waiters_and_reports_error(self):
        monitor = LiveMonitor("job-1")
        monitor.feed(full_log()[:2])
        snap = monitor.snapshot()
        monitor.abort("worker exploded")
        assert monitor.is_complete
        assert monitor.error == "worker exploded"
        # wait() returns the last partial immediately so streams end.
        assert monitor.wait(snap.seq, timeout=5.0) is snap
        payload = json.loads(complete_payload(monitor))
        assert payload["error"] == "worker exploded"
        assert payload["final_seq"] == snap.seq

    def test_malformed_suffix_keeps_previous_snapshot(self):
        monitor = LiveMonitor("job-1")
        monitor.feed(full_log()[:3])
        before = monitor.snapshot()
        monitor.feed(["\x00\x01 binary garbage"])
        after = monitor.snapshot()
        # The garbage parses to no *new* records; the snapshot stays
        # consistent (same archive shape, possibly re-built).
        archive = archive_from_json(after.body.decode("utf-8"))
        assert archive.root.mission == "GiraphJob"
        assert after.records == before.records


class TestLiveJobRegistry:
    def test_open_get_jobs(self):
        registry = LiveJobRegistry()
        assert registry.get("nope") is None
        monitor = registry.open("job-1", platform="Giraph")
        assert registry.get("job-1") is monitor
        assert registry.jobs() == ["job-1"]
        replaced = registry.open("job-1")
        assert registry.get("job-1") is replaced

    def test_stream_accounting_and_drain(self):
        registry = LiveJobRegistry()
        assert registry.drain(timeout=0.01) is True
        registry.stream_opened()
        registry.stream_opened()
        assert registry.active_streams == 2
        assert registry.drain(timeout=0.05) is False

        def release():
            registry.stream_closed()
            registry.stream_closed()

        timer = threading.Timer(0.05, release)
        timer.start()
        assert registry.drain(timeout=5.0) is True
        timer.join()
        assert registry.active_streams == 0

    def test_stream_closed_never_goes_negative(self):
        registry = LiveJobRegistry()
        registry.stream_closed()
        assert registry.active_streams == 0


class TestSseFraming:
    def test_event_round_trip(self):
        wire = sse_event(b'{"a":1}', event="snapshot", event_id=7)
        wire += sse_comment()
        wire += sse_event(b"done", event="complete", event_id=8)
        events = list(iter_sse_events(io.BytesIO(wire)))
        assert [e.event for e in events] == ["snapshot", "complete"]
        assert events[0].event_id == 7
        assert events[0].data == b'{"a":1}'
        assert events[1].event_id == 8

    def test_multiline_data_round_trips(self):
        wire = sse_event(b"line1\nline2", event="snapshot", event_id=1)
        [event] = list(iter_sse_events(io.BytesIO(wire)))
        assert event.data == b"line1\nline2"

    def test_comment_is_skipped(self):
        assert list(iter_sse_events(io.BytesIO(sse_comment()))) == []

    def test_crlf_line_endings_accepted(self):
        wire = b"id: 3\r\nevent: snapshot\r\ndata: x\r\n\r\n"
        [event] = list(iter_sse_events(io.BytesIO(wire)))
        assert event.event_id == 3
        assert event.data == b"x"
