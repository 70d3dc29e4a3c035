"""Write path: durable ingestion, shedding, degraded modes, recovery."""

from __future__ import annotations

import json
import time

import pytest

from repro.core.archive.serialize import archive_from_json, archive_to_json
from repro.errors import IngestError, StoreBusyError
from repro.logformat import format_line
from repro.service.app import ArchiveService
from repro.service.chaos import (
    ChaosController,
    ChaosPlan,
    DiskFull,
    WorkerCrash,
)
from repro.service.ingest import IngestPipeline

from tests.service.conftest import make_archive


def make_pipeline(store, **kwargs):
    kwargs.setdefault("backoff_base", 0.005)
    kwargs.setdefault("lock_timeout", 0.2)
    return IngestPipeline(store.directory, **kwargs)


def wait_state(pipeline, tracking_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        document = pipeline.status(tracking_id)
        if document is not None and document["state"] != "pending":
            return document
        time.sleep(0.01)
    raise AssertionError(
        f"ingest {tracking_id} still pending after {timeout}s: "
        f"{pipeline.status(tracking_id)}"
    )


def post_archive(service, archive, **params):
    return service.handle(
        "/jobs",
        params=params,
        method="POST",
        body=archive_to_json(archive).encode("utf-8"),
    )


@pytest.fixture()
def pipeline(store):
    pipeline = make_pipeline(store)
    pipeline.start()
    yield pipeline
    pipeline.drain_and_stop(timeout=10.0)


@pytest.fixture()
def wservice(store, pipeline) -> ArchiveService:
    return ArchiveService(store, cache_size=8, ingest=pipeline)


class TestSubmitArchive:
    def test_post_archive_lands_in_store(self, wservice, pipeline):
        response = post_archive(wservice, make_archive("delta"))
        assert response.status == 202
        document = response.json()
        assert document["state"] == "pending"
        tracking_id = document["tracking_id"]
        assert document["status_url"] == f"/ingest/{tracking_id}"

        final = wait_state(pipeline, tracking_id)
        assert final["state"] == "ingested"
        assert final["job_id"] == "delta"
        assert wservice.handle("/jobs/delta").status == 200

        status = wservice.handle(f"/ingest/{tracking_id}")
        assert status.status == 200
        assert status.json()["state"] == "ingested"

    def test_post_raw_log_is_salvaged(self, wservice, pipeline):
        lines = [
            format_line({"ts": "0.0", "job": "rawlog", "event": "start",
                         "uid": "u0", "parent": "-", "mission": "Job",
                         "actor": "Client"}),
            format_line({"ts": "1.0", "job": "rawlog", "event": "start",
                         "uid": "u1", "parent": "u0",
                         "mission": "LoadGraph", "actor": "Master"}),
            format_line({"ts": "2.0", "job": "rawlog", "event": "info",
                         "uid": "u1", "name": "BytesRead",
                         "value": "512"}),
            format_line({"ts": "3.0", "job": "rawlog", "event": "end",
                         "uid": "u1"}),
            format_line({"ts": "4.0", "job": "rawlog", "event": "end",
                         "uid": "u0"}),
        ]
        response = wservice.handle(
            "/jobs",
            headers={"Content-Type": "text/plain"},
            method="POST",
            body="\n".join(lines).encode("utf-8"),
        )
        assert response.status == 202
        final = wait_state(pipeline, response.json()["tracking_id"])
        assert final["state"] == "ingested"
        assert final["job_id"] == "rawlog"
        summary = wservice.handle("/jobs/rawlog").json()
        assert summary["job_id"] == "rawlog"

    def test_empty_body_is_400(self, wservice):
        assert wservice.handle("/jobs", method="POST").status == 400

    def test_unknown_kind_is_400(self, wservice):
        response = wservice.handle(
            "/jobs", params={"kind": "carrier-pigeon"},
            method="POST", body=b"x",
        )
        assert response.status == 400

    def test_unknown_tracking_id_is_404(self, wservice):
        assert wservice.handle("/ingest/deadbeef").status == 404


class TestPoisonAndConflicts:
    def test_poison_body_dead_letters(self, wservice, pipeline):
        response = wservice.handle(
            "/jobs", method="POST", body=b"this is not an archive",
        )
        assert response.status == 202
        tracking_id = response.json()["tracking_id"]
        final = wait_state(pipeline, tracking_id)
        assert final["state"] == "failed"
        assert "materialize" in final["detail"]
        dead = pipeline.dead_letter_dir / f"{tracking_id}.json"
        assert dead.exists()
        assert json.loads(dead.read_text())["tracking_id"] == tracking_id
        assert pipeline.stats()["counters"]["dead_letters"] == 1
        # The WAL must not keep replaying poison.
        assert pipeline.wal.lag() == 0

    def test_duplicate_identical_content_is_idempotent(
        self, wservice, pipeline,
    ):
        archive = make_archive("dup")
        first = wait_state(
            pipeline, post_archive(wservice, archive).json()["tracking_id"]
        )
        second = wait_state(
            pipeline, post_archive(wservice, archive).json()["tracking_id"]
        )
        assert first["state"] == "ingested"
        assert second["state"] == "ingested"
        assert pipeline.stats()["counters"]["dead_letters"] == 0

    def test_replay_resolves_by_the_rendered_checksum(self, store):
        """A replayed save of stored content resolves ``ingested`` from
        the checksum its one rendering carries; changed content does
        not resolve."""
        store.save(make_archive("replay"))
        pipeline = make_pipeline(store)
        try:
            replayed = archive_from_json(
                archive_to_json(make_archive("replay")))
            assert replayed.table is not None  # Table-born, as replayed.
            status = pipeline._resolve_duplicate(replayed, attempts=2)
            assert (status.state, status.job_id, status.attempts) == \
                ("ingested", "replay", 2)
            changed = make_archive("replay", supersteps=5)
            assert pipeline._resolve_duplicate(changed, attempts=1) is None
        finally:
            pipeline.drain_and_stop(timeout=1.0)

    def test_conflicting_content_without_overwrite_fails(
        self, wservice, pipeline,
    ):
        post_archive(wservice, make_archive("clash"))
        response = post_archive(
            wservice, make_archive("clash", supersteps=5)
        )
        final = wait_state(pipeline, response.json()["tracking_id"])
        assert final["state"] == "failed"
        assert "different content" in final["detail"]
        # The original archive is untouched.
        query = wservice.handle(
            "/jobs/clash/query",
            params={"mission": "Superstep", "agg": "count"},
        )
        assert query.json()["result"] == 3

    def test_overwrite_replaces_archive(self, wservice, pipeline):
        post_archive(wservice, make_archive("repl"))
        response = post_archive(
            wservice, make_archive("repl", supersteps=5), overwrite="true",
        )
        final = wait_state(pipeline, response.json()["tracking_id"])
        assert final["state"] == "ingested"
        query = wservice.handle(
            "/jobs/repl/query",
            params={"mission": "Superstep", "agg": "count"},
        )
        assert query.json()["result"] == 5

    def test_failed_status_survives_restart_via_deadletter(
        self, store, pipeline, wservice,
    ):
        response = wservice.handle(
            "/jobs", method="POST", body=b"{broken",
        )
        tracking_id = response.json()["tracking_id"]
        wait_state(pipeline, tracking_id)
        # Simulate the restart: a fresh pipeline has an empty status map
        # but the dead-letter directory persists.
        pipeline.drain_and_stop(timeout=10.0)
        fresh = make_pipeline(store)
        try:
            document = fresh.status(tracking_id)
            assert document is not None
            assert document["state"] == "failed"
        finally:
            fresh.wal.close()


class TestLoadShedding:
    def test_saturated_queue_sheds_with_retry_after(self, store):
        # Worker deliberately not started: the queue can only fill.
        pipeline = make_pipeline(store, capacity=2)
        wservice = ArchiveService(store, cache_size=8, ingest=pipeline)
        try:
            accepted = [
                post_archive(wservice, make_archive(f"shed-{i}"))
                for i in range(2)
            ]
            assert [r.status for r in accepted] == [202, 202]

            shed = post_archive(wservice, make_archive("shed-over"))
            assert shed.status == 429
            retry_after = int(shed.headers["Retry-After"])
            assert 1 <= retry_after <= 120

            # Reads must keep answering while writes shed.
            latencies = []
            for _ in range(20):
                started = time.perf_counter()
                assert wservice.handle("/jobs").status == 200
                latencies.append(time.perf_counter() - started)
            latencies.sort()
            assert latencies[-1] < 1.0  # generous p99 bound

            health = wservice.handle("/healthz").json()
            assert health["status"] == "degraded"
            assert health["writes"]["queue_depth"] == 2

            metrics = wservice.handle("/metrics").json()
            ingest = metrics["ingest"]
            assert ingest["counters"]["shed"] == 1
            assert ingest["health"]["queue_depth"] == 2
            assert ingest["retry_after_s"] >= 1.0
        finally:
            pipeline.wal.close()


class TestChaosDegradedMode:
    def test_wal_disk_full_degrades_then_recovers(self, store):
        chaos = ChaosController(
            ChaosPlan(events=(DiskFull(after=0, count=1),))
        )
        pipeline = make_pipeline(store, chaos=chaos, recover_after=0.2)
        pipeline.start()
        wservice = ArchiveService(store, cache_size=8, ingest=pipeline)
        try:
            rejected = post_archive(wservice, make_archive("degraded"))
            assert rejected.status == 503
            assert int(rejected.headers["Retry-After"]) >= 1
            assert "degraded" in wservice.handle("/healthz").json()["status"]
            # Reads keep working while writes are off.
            assert wservice.handle("/jobs/alpha").status == 200
            # Writes stay rejected while the circuit is open.
            assert post_archive(
                wservice, make_archive("degraded")
            ).status == 503

            time.sleep(0.25)  # Past recover_after: next write probes.
            accepted = post_archive(wservice, make_archive("recovered"))
            assert accepted.status == 202
            final = wait_state(pipeline, accepted.json()["tracking_id"])
            assert final["state"] == "ingested"
            assert wservice.handle("/healthz").json()["status"] == "ok"
            assert pipeline.stats()["counters"]["wal_errors"] == 1
        finally:
            pipeline.drain_and_stop(timeout=10.0)

    def test_worker_crash_replays_exactly_once(self, store):
        chaos = ChaosController(
            ChaosPlan(events=(WorkerCrash(after=0),))
        )
        pipeline = make_pipeline(store, chaos=chaos)
        pipeline.start()
        wservice = ArchiveService(store, cache_size=8, ingest=pipeline)
        try:
            response = post_archive(wservice, make_archive("phoenix"))
            assert response.status == 202
            # The first worker dies after save but before ack; the
            # supervisor replays the WAL and the duplicate resolves
            # idempotently.
            final = wait_state(pipeline, response.json()["tracking_id"])
            assert final["state"] == "ingested"
            counters = pipeline.stats()["counters"]
            assert counters["worker_restarts"] == 1
            assert counters["dead_letters"] == 0
            store.refresh()
            assert store.list().count("phoenix") == 1
            assert pipeline.wal.lag() == 0
        finally:
            pipeline.drain_and_stop(timeout=10.0)


class TestCircuitHalfOpenProbe:
    def test_failed_probe_reopens_with_escalated_backoff(self, store):
        # Two injected disk-fulls: the initial trip, then one more to
        # fail the half-open probe.  The circuit must allow exactly one
        # probe write per window, re-open with a doubled window when it
        # fails, and keep reads at 200 the whole time.
        chaos = ChaosController(
            ChaosPlan(events=(DiskFull(after=0, count=2),))
        )
        recover_after = 0.15
        pipeline = make_pipeline(store, chaos=chaos,
                                 recover_after=recover_after)
        pipeline.start()
        wservice = ArchiveService(store, cache_size=8, ingest=pipeline)
        try:
            # Trip: first append hits disk-full #1.
            assert post_archive(wservice, make_archive("p0")).status == 503
            assert chaos.stats()["injected"]["disk_full"] == 1
            assert pipeline.wal.stats()["appended_total"] == 0
            assert wservice.handle("/jobs/alpha").status == 200

            # Open: rejected without touching the WAL (no new fault).
            assert post_archive(wservice, make_archive("p1")).status == 503
            assert chaos.stats()["injected"]["disk_full"] == 1

            # Half-open: exactly one probe write reaches the WAL and
            # hits disk-full #2 — which re-opens the circuit.
            time.sleep(recover_after + 0.05)
            assert pipeline._circuit.state() == "half-open"
            assert post_archive(wservice, make_archive("p2")).status == 503
            assert chaos.stats()["injected"]["disk_full"] == 2
            assert pipeline.wal.stats()["appended_total"] == 0
            assert wservice.handle("/jobs/alpha").status == 200

            # The failed probe escalated the window: one recover_after
            # later the circuit is still open and no probe is spent.
            time.sleep(recover_after + 0.02)
            assert pipeline._circuit.state() == "open"
            assert post_archive(wservice, make_archive("p3")).status == 503
            assert chaos.stats()["injected"]["disk_full"] == 2

            # Past the doubled window the next probe succeeds: 202,
            # the job lands, and health returns to ok.
            time.sleep(recover_after + 0.05)
            assert pipeline._circuit.state() == "half-open"
            accepted = post_archive(wservice, make_archive("p4"))
            assert accepted.status == 202
            assert pipeline.wal.stats()["appended_total"] == 1
            final = wait_state(pipeline, accepted.json()["tracking_id"])
            assert final["state"] == "ingested"
            assert pipeline._circuit.state() == "closed"
            assert wservice.handle("/healthz").json()["status"] == "ok"
        finally:
            pipeline.drain_and_stop(timeout=10.0)

    def test_probe_write_is_durable_when_it_succeeds(self, store):
        # A successful half-open probe is a real write, not a synthetic
        # ping: the submission that closed the circuit must itself be
        # ingested exactly once.
        chaos = ChaosController(
            ChaosPlan(events=(DiskFull(after=0, count=1),))
        )
        pipeline = make_pipeline(store, chaos=chaos, recover_after=0.1)
        pipeline.start()
        wservice = ArchiveService(store, cache_size=8, ingest=pipeline)
        try:
            assert post_archive(
                wservice, make_archive("probe-job")
            ).status == 503
            time.sleep(0.15)
            accepted = post_archive(wservice, make_archive("probe-job"))
            assert accepted.status == 202
            final = wait_state(pipeline, accepted.json()["tracking_id"])
            assert final["state"] == "ingested"
            store.refresh()
            assert store.list().count("probe-job") == 1
        finally:
            pipeline.drain_and_stop(timeout=10.0)


class TestRetries:
    def test_store_busy_is_retried_with_backoff(self, store, monkeypatch):
        pipeline = make_pipeline(store)
        failures = {"left": 2}
        real_save = pipeline.store.save

        def flaky_save(archive, **kwargs):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise StoreBusyError("injected: index lock busy")
            return real_save(archive, **kwargs)

        monkeypatch.setattr(pipeline.store, "save", flaky_save)
        pipeline.start()
        try:
            document = pipeline.submit(
                archive_to_json(make_archive("contended")).encode("utf-8")
            )
            final = wait_state(pipeline, document["tracking_id"])
            assert final["state"] == "ingested"
            assert final["attempts"] == 3
            assert pipeline.stats()["counters"]["retries"] == 2
        finally:
            pipeline.drain_and_stop(timeout=10.0)

    def test_store_busy_exhaustion_dead_letters(self, store, monkeypatch):
        pipeline = make_pipeline(store, max_attempts=2)

        def always_busy(archive, **kwargs):
            raise StoreBusyError("injected: index lock busy")

        monkeypatch.setattr(pipeline.store, "save", always_busy)
        pipeline.start()
        try:
            document = pipeline.submit(
                archive_to_json(make_archive("wedged")).encode("utf-8")
            )
            final = wait_state(pipeline, document["tracking_id"])
            assert final["state"] == "failed"
            assert "busy after 2 attempts" in final["detail"]
        finally:
            pipeline.drain_and_stop(timeout=10.0)


class TestLifecycle:
    def test_draining_rejects_new_writes(self, store, wservice, pipeline):
        pipeline.begin_drain()
        response = post_archive(wservice, make_archive("late"))
        assert response.status == 503
        assert "draining" in response.json()["error"]
        assert wservice.handle("/healthz").json()["status"] == "draining"

    def test_submit_validates_before_wal(self, pipeline):
        with pytest.raises(IngestError):
            pipeline.submit(b"", kind="archive")
        with pytest.raises(IngestError):
            pipeline.submit(b"x", kind="nope")
        assert pipeline.wal.stats()["appended_total"] == 0

    def test_restart_replays_unacked_records(self, store):
        # Fill a WAL with a worker that never ran, then "restart".
        stalled = make_pipeline(store)
        for i in range(3):
            stalled.submit(
                archive_to_json(make_archive(f"replay-{i}")).encode("utf-8")
            )
        stalled.wal.close()

        fresh = make_pipeline(store)
        try:
            assert fresh.start() == 3
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and fresh.wal.lag():
                time.sleep(0.01)
            assert fresh.wal.lag() == 0
            store.refresh()
            for i in range(3):
                assert f"replay-{i}" in store.list()
            assert fresh.stats()["counters"]["replayed"] == 3
        finally:
            fresh.drain_and_stop(timeout=10.0)
