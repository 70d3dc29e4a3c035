"""Cluster acceptance: SIGKILL a shard mid-burst, lose nothing acked.

These are the tentpole guarantees of the sharded tier, proven against
real forked workers over real loopback HTTP:

- every job the router 202-acknowledged is in exactly one shard store
  after the killed worker restarts and replays its WAL;
- reads on healthy shards keep answering fast while one shard is down;
- each shard's index (snapshot + journal) equals a fresh
  ``rebuild_index()`` and compacts to its bytes — supervised restarts
  leave no index drift;
- the aggregated ``/healthz`` converges back to ``ok``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.analysis.fleet import percentile_of
from repro.core.archive.serialize import archive_to_json
from repro.core.archive.store import ArchiveStore
from repro.service.chaos import ChaosPlan, WorkerKill
from repro.service.cluster import create_cluster
from tests.conftest import assert_index_is_rebuild, folded_index
from tests.service.conftest import make_archive


def start_cluster(dirs, **kwargs):
    kwargs.setdefault("probe_interval", 0.1)
    server = create_cluster(dirs, port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def stop_cluster(server):
    server.shutdown()
    server.server_close()
    server.supervisor.stop()


def fetch(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def post_job(base, payload, attempts=40):
    """POST one archive, honouring Retry-After on 429/503 (capped so
    the test converges quickly); returns the tracking document."""
    for _ in range(attempts):
        request = urllib.request.Request(
            f"{base}/jobs", data=payload, method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 202
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            assert exc.code in (429, 503), exc.read()
            retry_after = float(exc.headers.get("Retry-After", "1"))
            assert retry_after >= 1.0
            time.sleep(min(retry_after, 0.4))
    raise AssertionError(f"job never accepted in {attempts} attempts")


def wait_ok(base, timeout=30.0):
    deadline = time.monotonic() + timeout
    document = {}
    while time.monotonic() < deadline:
        status, _headers, body = fetch(f"{base}/healthz")
        if status == 200:
            document = json.loads(body)
            if document.get("status") == "ok":
                return document
        time.sleep(0.1)
    raise AssertionError(f"cluster never converged: {document}")


def wait_drained(base, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, _headers, body = fetch(f"{base}/healthz")
        document = json.loads(body)
        lags = [shard.get("health", {}).get("writes", {}).get("wal_lag")
                for shard in document.get("shards", [])]
        if document.get("status") == "ok" and \
                all(lag == 0 for lag in lags):
            return
        time.sleep(0.1)
    raise AssertionError("shard WALs never drained")


@pytest.mark.slow
class TestShardFailover:
    def test_sigkill_mid_burst_loses_no_acked_job(self, tmp_path):
        dirs = [tmp_path / "s0", tmp_path / "s1"]
        server = start_cluster(dirs)
        try:
            base = server.url
            ring = server.service.ring
            wait_ok(base)

            jobs = [f"burst-{i:03d}" for i in range(10)]
            payloads = {
                job_id: archive_to_json(make_archive(job_id)).encode()
                for job_id in jobs
            }
            # Kill the shard that owns the most of the burst, right
            # after its first few acks — the classic worst case: acked
            # to the client, possibly not yet drained to the store.
            owners = {j: ring.shard_for(j) for j in jobs}
            victim = max(set(owners.values()),
                         key=lambda s: sum(1 for o in owners.values()
                                           if o == s))
            acked = {}
            killed = False
            victim_acks = 0
            for job_id in jobs:
                acked[job_id] = post_job(base, payloads[job_id])
                if owners[job_id] == victim:
                    victim_acks += 1
                if not killed and victim_acks >= 2:
                    server.supervisor.kill_worker(victim)
                    killed = True
            assert killed
            assert len(acked) == len(jobs)

            health = wait_ok(base)
            assert [s["state"] for s in health["shards"]] == \
                ["live", "live"]
            wait_drained(base)

            status, _headers, body = fetch(f"{base}/jobs?limit=100")
            assert status == 200
            listing = json.loads(body)
            assert listing["degraded_shards"] == []
            listed = [job["job_id"] for job in listing["jobs"]]
            for job_id in jobs:
                assert listed.count(job_id) == 1, (job_id, listed)

            # Every job sits in exactly the shard store the ring says.
            restart_count = server.supervisor.stats()["counters"][
                "restarts_total"]
            assert restart_count >= 1
        finally:
            stop_cluster(server)

        # After a full stop (workers drained), each shard's on-disk
        # index must be a fresh rebuild and compact to the
        # rebuild's exact bytes: the kill/replay cycle may not leave
        # index drift behind.
        for index, directory in enumerate(dirs):
            assert_index_is_rebuild(directory, folded_index(directory))
            stored = set(ArchiveStore(directory).list())
            expected = {j for j, owner in
                        {j: server.service.ring.shard_for(j)
                         for j in [f"burst-{i:03d}" for i in range(10)]
                         }.items() if owner == index}
            assert stored == expected

    def test_healthy_shard_reads_stay_fast_during_outage(self, tmp_path):
        dirs = [tmp_path / "s0", tmp_path / "s1"]
        server = start_cluster(dirs)
        try:
            base = server.url
            ring = server.service.ring
            wait_ok(base)
            jobs = [f"read-{i:02d}" for i in range(8)]
            for job_id in jobs:
                post_job(
                    base, archive_to_json(make_archive(job_id)).encode()
                )
            wait_drained(base)

            victim = ring.shard_for(jobs[0])
            healthy_jobs = [j for j in jobs
                            if ring.shard_for(j) != victim]
            assert healthy_jobs
            # Slow the restart down so the outage window is real.
            server.supervisor.restart_backoff_base = 1.5
            server.supervisor.kill_worker(victim)

            latencies = []
            statuses = set()
            for _ in range(60):
                job_id = healthy_jobs[len(latencies) % len(healthy_jobs)]
                started = time.perf_counter()
                status, _headers, _body = fetch(f"{base}/jobs/{job_id}")
                latencies.append(time.perf_counter() - started)
                statuses.add(status)
            assert statuses == {200}
            p99 = percentile_of(sorted(latencies), 99)
            assert p99 < 1.0, f"healthy-shard p99 {p99:.3f}s"

            server.supervisor.restart_backoff_base = 0.05
            wait_ok(base)
        finally:
            stop_cluster(server)


@pytest.mark.slow
class TestClusterHttpContract:
    def test_routed_write_read_and_304_over_live_http(self, tmp_path):
        dirs = [tmp_path / "s0", tmp_path / "s1", tmp_path / "s2"]
        server = start_cluster(dirs)
        try:
            base = server.url
            wait_ok(base)
            payload = archive_to_json(make_archive("alpha")).encode()
            document = post_job(base, payload)
            assert document["tracking_id"]

            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                status, headers, body = fetch(f"{base}/jobs/alpha")
                if status == 200:
                    break
                time.sleep(0.1)
            assert status == 200
            assert json.loads(body)["job_id"] == "alpha"
            etag = headers["ETag"]
            status, headers, body = fetch(
                f"{base}/jobs/alpha", headers={"If-None-Match": etag}
            )
            assert status == 304
            assert not body

            status, _headers, body = fetch(f"{base}/metrics")
            assert status == 200
            metrics = json.loads(body)
            assert metrics["router"]["requests_total"] >= 2
            assert len(metrics["shards"]) == 3

            # A raw-log submission with no job id cannot be routed.
            request = urllib.request.Request(
                f"{base}/jobs?kind=log", data=b"GRANULA x",
                method="POST",
                headers={"Content-Type": "text/plain"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
        finally:
            stop_cluster(server)


@pytest.mark.slow
class TestRouterChaos:
    def test_worker_kill_event_fires_and_cluster_recovers(self, tmp_path):
        plan = ChaosPlan(events=(WorkerKill(shard=0, after=3),))
        dirs = [tmp_path / "s0", tmp_path / "s1"]
        server = start_cluster(dirs, chaos=plan)
        try:
            base = server.url
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = server.supervisor.stats()
                if stats["counters"]["restarts_total"] >= 1:
                    break
                time.sleep(0.1)
            assert server.supervisor.stats()["counters"][
                "restarts_total"] >= 1, "worker_kill never fired"
            wait_ok(base)
            injected = server.supervisor.chaos.stats()["injected"]
            assert injected.get("worker_kill") == 1
        finally:
            stop_cluster(server)
