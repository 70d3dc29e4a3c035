"""Consistent-hash ring and cluster router (no processes, no sockets).

The router is exercised through an injectable transport that dispatches
straight onto in-process :class:`ArchiveService` instances — one per
"shard" — and a fake supervisor whose states the tests flip by hand.
"""

from __future__ import annotations

import json

import pytest

from repro.core.archive.store import ArchiveStore
from repro.errors import ServiceError
from repro.service.app import ArchiveService, Response, json_response
from repro.service.router import (
    MIN_VNODES,
    ClusterService,
    ConsistentHashRing,
)
from tests.service.conftest import make_archive


class TestConsistentHashRing:
    def test_placement_is_deterministic_across_instances(self):
        first = ConsistentHashRing(5)
        second = ConsistentHashRing(5)
        keys = [f"job-{i}" for i in range(500)]
        assert [first.shard_for(k) for k in keys] == \
            [second.shard_for(k) for k in keys]

    def test_every_shard_owns_keyspace(self):
        ring = ConsistentHashRing(4)
        spread = ring.spread(f"job-{i}" for i in range(2000))
        assert set(spread) == {0, 1, 2, 3}
        assert all(count > 0 for count in spread.values())
        # 64 vnodes keep ownership within a loose band of fair share.
        assert max(spread.values()) < 3 * (2000 // 4)

    def test_vnode_floor_is_enforced(self):
        with pytest.raises(ServiceError):
            ConsistentHashRing(3, vnodes=MIN_VNODES - 1)
        with pytest.raises(ServiceError):
            ConsistentHashRing(0)

    def test_growing_the_ring_moves_a_minority_of_keys(self):
        small = ConsistentHashRing(3)
        grown = ConsistentHashRing(4)
        keys = [f"job-{i}" for i in range(2000)]
        moved = sum(
            1 for k in keys if small.shard_for(k) != grown.shard_for(k)
        )
        # Consistent hashing's whole point: adding a shard relocates
        # roughly 1/N of the keyspace, not all of it.
        assert moved < len(keys) // 2


class FakeSupervisor:
    """Supervisor stand-in with hand-settable per-shard states."""

    def __init__(self, count: int):
        self.states = ["live"] * count
        self.failures = []

    def __len__(self):
        return len(self.states)

    def state(self, index):
        return self.states[index]

    def endpoint(self, index):
        if self.states[index] in ("live", "suspect"):
            return f"fake://shard-{index}"
        return None

    def degraded(self):
        return [i for i, s in enumerate(self.states)
                if s not in ("live", "suspect")]

    def retry_after(self, index):
        return 2.0

    def record_failure(self, index, reason):
        self.failures.append((index, reason))

    def worker_pid(self, index):
        return 1000 + index

    def shard_directory(self, index):
        return f"/shards/{index}"

    def stats(self):
        return {"shards": [], "counters": {"restarts_total": 0}}


@pytest.fixture()
def cluster(tmp_path):
    """A 3-shard router over in-process services, plus its fakes."""
    supervisor = FakeSupervisor(3)
    probe = ClusterService.__new__(ClusterService)  # ring first
    ring = ConsistentHashRing(3)
    services = {}
    for index in range(3):
        store = ArchiveStore(tmp_path / f"shard-{index}")
        services[f"fake://shard-{index}"] = ArchiveService(store)
    # Jobs land on their ring-owned shard, as the real write path
    # guarantees.
    jobs = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for job_id in jobs:
        owner = ring.shard_for(job_id)
        services[f"fake://shard-{owner}"].store.save(make_archive(job_id))

    calls = []

    def transport(base, path, params, headers, method, body, timeout):
        calls.append((base, path, method))
        return services[base].handle(
            path, params, headers, method=method, body=body
        )

    service = ClusterService(supervisor, transport=transport)
    service.test_jobs = jobs
    service.test_calls = calls
    service.test_services = services
    del probe
    return service


class TestRoutedReads:
    def test_per_job_get_hits_the_owner_shard(self, cluster):
        for job_id in cluster.test_jobs:
            response = cluster.handle(f"/jobs/{job_id}")
            assert response.status == 200
            assert response.json()["job_id"] == job_id
            owner = cluster.ring.shard_for(job_id)
            assert cluster.test_calls[-1][0] == f"fake://shard-{owner}"

    def test_etag_and_304_pass_through(self, cluster):
        job_id = cluster.test_jobs[0]
        first = cluster.handle(f"/jobs/{job_id}")
        etag = first.headers["ETag"]
        again = cluster.handle(
            f"/jobs/{job_id}", headers={"If-None-Match": etag}
        )
        assert again.status == 304
        assert again.headers["ETag"] == etag

    def test_query_and_report_route_like_summary(self, cluster):
        job_id = cluster.test_jobs[1]
        owner = f"fake://shard-{cluster.ring.shard_for(job_id)}"
        query = cluster.handle(
            f"/jobs/{job_id}/query",
            {"mission": "Superstep", "agg": "count"},
        )
        assert query.status == 200
        assert query.json()["result"] >= 1
        report = cluster.handle(f"/jobs/{job_id}/report")
        assert report.status == 200
        assert report.content_type.startswith("text/plain")
        assert all(call[0] == owner for call in cluster.test_calls[-2:])

    def test_invalid_job_id_is_rejected_before_routing(self, cluster):
        before = len(cluster.test_calls)
        response = cluster.handle("/jobs/../etc/passwd")
        assert response.status in (400, 404)
        response = cluster.handle("/jobs/.hidden")
        assert response.status == 400
        assert len(cluster.test_calls) == before  # nothing was proxied

    def test_unknown_route_404_and_bad_method_405(self, cluster):
        assert cluster.handle("/nope").status == 404
        assert cluster.handle("/jobs", method="DELETE").status == 405
        assert cluster.handle("/jobs/x", method="PUT").status == 405


class TestMergedListing:
    def test_jobs_merges_all_shards_sorted(self, cluster):
        response = cluster.handle("/jobs")
        assert response.status == 200
        document = response.json()
        listed = [job["job_id"] for job in document["jobs"]]
        assert listed == sorted(cluster.test_jobs)
        assert document["total"] == len(cluster.test_jobs)
        assert document["degraded_shards"] == []

    def test_pagination_spans_shard_boundaries(self, cluster):
        page = cluster.handle("/jobs", {"offset": "1", "limit": "2"})
        document = page.json()
        assert [j["job_id"] for j in document["jobs"]] == \
            sorted(cluster.test_jobs)[1:3]
        assert document["total"] == len(cluster.test_jobs)

    def test_merged_listing_revalidates_with_304(self, cluster):
        first = cluster.handle("/jobs")
        etag = first.headers["ETag"]
        again = cluster.handle("/jobs", headers={"If-None-Match": etag})
        assert again.status == 304

    def test_down_shard_degrades_listing_not_response(self, cluster):
        cluster.supervisor.states[1] = "restarting"
        response = cluster.handle("/jobs")
        assert response.status == 200
        document = response.json()
        assert document["degraded_shards"] == [1]
        surviving = [
            job_id for job_id in cluster.test_jobs
            if cluster.ring.shard_for(job_id) != 1
        ]
        assert [j["job_id"] for j in document["jobs"]] == \
            sorted(surviving)

    def test_filters_forward_to_every_shard(self, cluster):
        response = cluster.handle("/jobs", {"platform": "Nope"})
        assert response.status == 200
        assert response.json()["jobs"] == []

    def test_deep_pages_match_the_union_store(self, tmp_path, monkeypatch):
        """Every page of the routed listing is the union store's page,
        also when a shard holds more matching jobs than one shard
        answer may carry (the router pages through it)."""
        monkeypatch.setattr("repro.service.app.MAX_PAGE", 4)
        ring = ConsistentHashRing(2)
        shards = {
            f"fake://shard-{index}": ArchiveService(
                ArchiveStore(tmp_path / f"shard-{index}")
            )
            for index in range(2)
        }
        union = ArchiveService(ArchiveStore(tmp_path / "union"))
        job_ids = [f"job-{index:02d}" for index in range(20)]
        for job_id in job_ids:
            archive = make_archive(job_id)
            shards[f"fake://shard-{ring.shard_for(job_id)}"].store.save(
                archive
            )
            union.store.save(archive)
        assert max(len(shard.store) for shard in shards.values()) > 4

        def transport(base, path, params, headers, method, body, timeout):
            return shards[base].handle(
                path, params, headers, method=method, body=body
            )

        routed = ClusterService(FakeSupervisor(2), transport=transport)
        for offset in range(len(job_ids) + 2):
            for limit in (1, 3, 4, 9):
                params = {"offset": str(offset), "limit": str(limit)}
                merged = routed.handle("/jobs", params).json()
                assert merged.pop("degraded_shards") == []
                assert merged == union.handle("/jobs", params).json(), \
                    params


class TestShardFailure:
    def test_down_shard_keyspace_503_with_retry_after(self, cluster):
        cluster.supervisor.states[2] = "restarting"
        victims = [j for j in cluster.test_jobs
                   if cluster.ring.shard_for(j) == 2]
        others = [j for j in cluster.test_jobs
                  if cluster.ring.shard_for(j) != 2]
        assert victims and others  # fixture jobs cover every shard
        for job_id in victims:
            response = cluster.handle(f"/jobs/{job_id}")
            assert response.status == 503
            assert response.headers["Retry-After"] == "2"
            assert response.json()["shard"] == 2
        for job_id in others:
            assert cluster.handle(f"/jobs/{job_id}").status == 200

    def test_transport_failure_counts_against_the_shard(self, cluster):
        def broken(base, path, params, headers, method, body, timeout):
            raise ConnectionRefusedError("worker gone")

        cluster._transport = broken
        job_id = cluster.test_jobs[0]
        owner = cluster.ring.shard_for(job_id)
        response = cluster.handle(f"/jobs/{job_id}")
        assert response.status == 503
        assert "Retry-After" in response.headers
        assert cluster.supervisor.failures
        assert cluster.supervisor.failures[0][0] == owner

    def test_fenced_shard_stays_503_while_others_serve(self, cluster):
        cluster.supervisor.states[0] = "fenced"
        statuses = {
            cluster.handle(f"/jobs/{j}").status
            for j in cluster.test_jobs
        }
        assert statuses == {200, 503}


class TestRoutedWrites:
    def test_post_routes_by_embedded_job_id(self, cluster):
        posted = []

        def recorder(base, path, params, headers, method, body, timeout):
            posted.append((base, method))
            return json_response(202, {"tracking_id": "t-1"})

        cluster._transport = recorder
        body = json.dumps({"job_id": "omega", "schema": 3}).encode()
        response = cluster.handle("/jobs", method="POST", body=body)
        assert response.status == 202
        owner = cluster.ring.shard_for("omega")
        assert posted == [(f"fake://shard-{owner}", "POST")]

    def test_post_prefers_explicit_job_id_param(self, cluster):
        posted = []

        def recorder(base, path, params, headers, method, body, timeout):
            posted.append(base)
            return json_response(202, {"tracking_id": "t-2"})

        cluster._transport = recorder
        response = cluster.handle(
            "/jobs", {"job_id": "pinned"}, method="POST",
            body=json.dumps({"job_id": "other"}).encode(),
        )
        assert response.status == 202
        assert posted == [
            f"fake://shard-{cluster.ring.shard_for('pinned')}"
        ]

    def test_log_submission_without_job_id_is_400(self, cluster):
        before = len(cluster.test_calls)
        response = cluster.handle(
            "/jobs", {"kind": "log"}, method="POST", body=b"GRANULA ..."
        )
        assert response.status == 400
        assert "job_id" in response.json()["error"]
        assert len(cluster.test_calls) == before

    def test_archive_without_routable_id_is_400(self, cluster):
        response = cluster.handle(
            "/jobs", method="POST", body=b'{"schema": 3}'
        )
        assert response.status == 400
        response = cluster.handle(
            "/jobs", method="POST", body=b"not json"
        )
        assert response.status == 400

    def test_post_to_down_owner_shard_503(self, cluster):
        owner = cluster.ring.shard_for("omega")
        cluster.supervisor.states[owner] = "restarting"
        response = cluster.handle(
            "/jobs", method="POST",
            body=json.dumps({"job_id": "omega"}).encode(),
        )
        assert response.status == 503
        assert response.headers["Retry-After"] == "2"


class TestFanOutEndpoints:
    def test_healthz_aggregates_all_live(self, cluster):
        response = cluster.handle("/healthz")
        assert response.status == 200
        document = response.json()
        assert document["status"] == "ok"
        assert document["workers"] == 3
        assert [s["shard"] for s in document["shards"]] == [0, 1, 2]
        assert all(s["pid"] for s in document["shards"])

    def test_healthz_degrades_with_a_down_shard(self, cluster):
        cluster.supervisor.states[1] = "restarting"
        document = cluster.handle("/healthz").json()
        assert document["status"] == "degraded"
        assert document["degraded_shards"] == [1]
        assert document["shards"][1]["status"] == "restarting"

    def test_metrics_aggregates_router_and_shards(self, cluster):
        cluster.handle("/jobs")
        document = cluster.handle("/metrics").json()
        assert document["router"]["requests_total"] >= 1
        assert set(document["shards"]) == {"0", "1", "2"}
        assert "counters" in document["supervisor"]

    def test_ingest_status_fans_out_first_hit_wins(self, cluster):
        hits = {"fake://shard-1"}

        def transport(base, path, params, headers, method, body, timeout):
            if base in hits:
                return json_response(200, {"state": "stored"})
            return json_response(404, {"error": "unknown"})

        cluster._transport = transport
        response = cluster.handle("/ingest/some-tracking-id")
        assert response.status == 200
        assert response.json()["state"] == "stored"

    def test_ingest_status_unknown_everywhere_404(self, cluster):
        response = cluster.handle("/ingest/never-issued")
        assert response.status == 404
        assert "never-issued" in response.json()["error"]

    def test_ingest_status_all_shards_down_503(self, cluster):
        cluster.supervisor.states = ["restarting"] * 3
        response = cluster.handle("/ingest/whatever")
        assert response.status == 503
        assert "Retry-After" in response.headers


class TestRouterMetricsLabels:
    def test_labels_stay_in_the_closed_set(self, cluster):
        cluster.handle("/jobs")
        cluster.handle(f"/jobs/{cluster.test_jobs[0]}")
        cluster.handle("/completely/random/path")
        snapshot = cluster.metrics.snapshot({})
        assert set(snapshot["requests_by_endpoint"]) <= {
            "/jobs", "/jobs/{id}", "/jobs/{id}/query",
            "/jobs/{id}/report", "/healthz", "/metrics",
            "POST /jobs", "/ingest/{id}", "other",
        }
        assert snapshot["requests_by_endpoint"]["other"] == 1
