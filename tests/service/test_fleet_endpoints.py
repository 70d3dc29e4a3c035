"""Fleet analytics over HTTP: single-service endpoints and router fan-out.

Covers the ``/fleet/{query,series,regressions}`` routes of
:class:`ArchiveService` (ETag semantics, POST plans, client errors,
metrics labels) and the cluster router's scatter-gather merge, which
must answer exactly what a single service over the union of all shard
stores would.  Also pins the closed endpoint-label set: every label the
service can emit must be a member of ``KNOWN_ENDPOINTS`` so raw paths
never leak into metrics (see :mod:`repro.service.metrics`).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.core.analysis.fleet import (
    PACKED,
    run_fleet_query,
    unpack_samples,
)
from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.serialize import archive_to_json
from repro.core.archive.store import ArchiveStore
from repro.service.app import ArchiveService, resolve_route
from repro.service.ingest import IngestPipeline
from repro.service.metrics import KNOWN_ENDPOINTS, ServiceMetrics
from repro.service.router import ClusterService, ConsistentHashRing
from tests.service.conftest import make_archive
from tests.service.test_ingest import wait_state
from tests.service.test_router import FakeSupervisor

QUERY_PARAMS = {
    "group_by": "platform,algorithm",
    "agg": "count,sum,mean,min,max,p95,top2",
}


class TestFleetEndpoints:
    def test_query_returns_groups_and_etag(self, service):
        response = service.handle("/fleet/query", QUERY_PARAMS)
        assert response.status == 200
        assert response.headers.get("ETag")
        document = response.json()
        assert document["op"] == "query"
        assert document["jobs_scanned"] == 3
        assert document["degraded_jobs"] == []
        keys = {tuple(sorted(g["key"].items())) for g in document["groups"]}
        assert (("algorithm", "bfs"), ("platform", "Giraph")) in keys
        assert (("algorithm", "pr"), ("platform", "PowerGraph")) in keys

    def test_etag_revalidates_and_tracks_store_changes(self, service):
        first = service.handle("/fleet/query", QUERY_PARAMS)
        etag = first.headers["ETag"]
        revalidated = service.handle(
            "/fleet/query", QUERY_PARAMS, {"If-None-Match": etag}
        )
        assert revalidated.status == 304
        assert revalidated.headers["ETag"] == etag
        # Any change to the store's listing must invalidate the tag.
        service.store.save(make_archive("delta", platform="Giraph"))
        changed = service.handle(
            "/fleet/query", QUERY_PARAMS, {"If-None-Match": etag}
        )
        assert changed.status == 200
        assert changed.headers["ETag"] != etag

    def test_etag_distinguishes_plans(self, service):
        one = service.handle("/fleet/query", QUERY_PARAMS)
        other = service.handle(
            "/fleet/query", {"group_by": "platform", "agg": "count"}
        )
        assert one.headers["ETag"] != other.headers["ETag"]

    def test_series_and_regressions_routes(self, service):
        series = service.handle(
            "/fleet/series",
            {"group_by": "platform", "agg": "sum", "mission": "Superstep"},
        )
        assert series.status == 200
        document = series.json()
        assert document["op"] == "series"
        assert len(document["points"]) == 3
        regressions = service.handle(
            "/fleet/regressions", {"group_by": "platform", "k": "3.0"}
        )
        assert regressions.status == 200
        document = regressions.json()
        assert document["op"] == "regressions"
        assert set(document) >= {"cohorts", "findings"}

    def test_post_plan_matches_get(self, service):
        get = service.handle("/fleet/query", QUERY_PARAMS)
        body = json.dumps({
            "op": "query",
            "group_by": ["platform", "algorithm"],
            "aggs": ["count", "sum", "mean", "min", "max", "p95", "top2"],
        }).encode("utf-8")
        post = service.handle(
            "/fleet/query", method="POST", body=body,
            headers={"Content-Type": "application/json"},
        )
        assert post.status == 200
        assert post.json() == get.json()

    def test_samples_param_attaches_group_samples(self, service):
        plain = service.handle(
            "/fleet/query", {"group_by": "platform", "agg": "mean"}
        ).json()
        sampled = service.handle(
            "/fleet/query",
            {"group_by": "platform", "agg": "mean", "samples": "1"},
        ).json()
        assert all("samples" not in g for g in plain["groups"])
        assert all(
            g["samples"] == sorted(g["samples"]) and g["samples"]
            for g in sampled["groups"]
        )

    def test_public_samples_stay_a_json_list_under_the_same_etag(
        self, service,
    ):
        """``samples=1`` answers as it always has: JSON float lists,
        under the ETag ``sha256(listing | plan | samples=1)``.  Only
        the router's ``"packed"`` gets base64 vectors, and an ETag of
        its own."""
        params = {"group_by": "platform", "agg": "count,p95"}
        plan = FleetPlan.from_params(params)
        sampled = service.handle("/fleet/query",
                                 dict(params, samples="1"))
        identity = hashlib.sha256(
            f"{service.store.listing_checksum()}|{plan.canonical()}"
            f"|samples=1".encode("utf-8")
        ).hexdigest()
        assert sampled.headers["ETag"] == f'"{identity}"'
        assert sampled.body.decode("utf-8") == json.dumps(
            sampled.json(), indent=2, sort_keys=True
        )
        groups = sampled.json()["groups"]
        assert groups and all(
            isinstance(g["samples"], list) and g["samples"]
            for g in groups
        )
        posted = service.handle(
            "/fleet/query", method="POST",
            body=json.dumps(dict(plan.to_document(), samples=True),
                            sort_keys=True).encode("utf-8"),
        )
        assert posted.headers["ETag"] == sampled.headers["ETag"]
        assert posted.body == sampled.body

        packed = service.handle(
            "/fleet/query", method="POST",
            body=json.dumps(dict(plan.to_document(), samples=PACKED),
                            sort_keys=True).encode("utf-8"),
        )
        assert packed.headers["ETag"] != sampled.headers["ETag"]
        for vector, group in zip(
            (g["samples"] for g in packed.json()["groups"]), groups,
        ):
            assert unpack_samples(vector).tolist() == group["samples"]

    def test_client_errors_are_400(self, service):
        assert service.handle(
            "/fleet/query", {"agg": "bogus"}
        ).status == 400
        assert service.handle(
            "/fleet/query", {"nonsense": "1"}
        ).status == 400
        assert service.handle(
            "/fleet/regressions", {"k": "-1"}
        ).status == 400
        bad_json = service.handle(
            "/fleet/query", method="POST", body=b"{not json",
        )
        assert bad_json.status == 400
        bad_field = service.handle(
            "/fleet/query", method="POST",
            body=json.dumps({"op": "query", "surprise": 1}).encode(),
        )
        assert bad_field.status == 400

    def test_fleet_requests_record_their_own_labels(self, service):
        service.handle("/fleet/query", {"agg": "count"})
        service.handle("/fleet/series",
                       {"group_by": "platform", "agg": "sum"})
        service.handle("/fleet/regressions", {})
        service.handle("/fleet/query", method="POST",
                       body=b'{"op": "query"}')
        counts = service.metrics.snapshot({})["requests_by_endpoint"]
        assert counts["/fleet/query"] == 1
        assert counts["/fleet/series"] == 1
        assert counts["/fleet/regressions"] == 1
        assert counts["POST /fleet/query"] == 1
        assert "other" not in counts


#: The plan the router sends a shard for a percentile merge.
SAMPLED_PLAN = {"group_by": "platform", "agg": "p50", "samples": "1"}


def fleet_entries(service) -> list:
    return [key for key in service.cache._entries if key.startswith("fleet:")]


@pytest.fixture()
def counted_scans(monkeypatch):
    """How many times the service scanned the store for a fleet plan."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return run_fleet_query(*args, **kwargs)

    monkeypatch.setattr("repro.service.app.run_fleet_query", counting)
    return calls


class TestFleetResultCache:
    """Results are cached per plan and checked against the listing: a
    store change replaces a plan's entry instead of stranding it."""

    def test_store_changes_replace_the_plans_entry(self, store):
        pipeline = IngestPipeline(store.directory)
        pipeline.start()
        try:
            service = ArchiveService(store, cache_size=64, ingest=pipeline)
            for round_ in range(20):
                posted = service.handle(
                    "/jobs", method="POST",
                    body=archive_to_json(
                        make_archive(f"posted-{round_}")
                    ).encode("utf-8"),
                )
                assert posted.status == 202
                tracking_id = posted.json()["tracking_id"]
                assert wait_state(pipeline, tracking_id)["state"] == \
                    "ingested"
                response = service.handle("/fleet/query", SAMPLED_PLAN)
                assert response.json()["jobs_scanned"] == 4 + round_
        finally:
            pipeline.drain_and_stop(timeout=10.0)
        assert len(fleet_entries(service)) == 1

    def test_acked_uploads_are_applied_before_the_answer(self, store):
        """A fleet answer covers every upload acked before it, so what
        it scans does not depend on how far the drain has got."""
        pipeline = IngestPipeline(store.directory)
        pipeline.start()
        try:
            service = ArchiveService(store, cache_size=64, ingest=pipeline)
            for round_ in range(5):
                posted = service.handle(
                    "/jobs", method="POST",
                    body=archive_to_json(
                        make_archive(f"read-own-{round_}")
                    ).encode("utf-8"),
                )
                assert posted.status == 202
                response = service.handle("/fleet/query", SAMPLED_PLAN)
                assert response.json()["jobs_scanned"] == 4 + round_
        finally:
            pipeline.drain_and_stop(timeout=10.0)

    def test_unchanged_store_repeat_skips_the_scan(
        self, service, counted_scans,
    ):
        first = service.handle("/fleet/query", SAMPLED_PLAN)
        assert len(counted_scans) == 1
        repeat = service.handle("/fleet/query", SAMPLED_PLAN)
        assert len(counted_scans) == 1
        assert repeat.body == first.body
        assert repeat.headers["ETag"] == first.headers["ETag"]

    def test_store_change_rescans_and_serves_the_new_result(
        self, service, counted_scans,
    ):
        before = service.handle("/fleet/query", SAMPLED_PLAN).json()
        service.store.save(make_archive("delta", platform="Giraph"))
        after = service.handle("/fleet/query", SAMPLED_PLAN).json()
        assert len(counted_scans) == 2
        assert after["jobs_scanned"] == before["jobs_scanned"] + 1
        assert len(fleet_entries(service)) == 1

    def test_each_plan_gets_its_own_entry(self, service, counted_scans):
        service.handle("/fleet/query", SAMPLED_PLAN)
        service.handle("/fleet/query", dict(SAMPLED_PLAN, samples="0"))
        service.handle("/fleet/query", {"group_by": "platform",
                                        "agg": "count"})
        assert len(counted_scans) == 3
        assert len(fleet_entries(service)) == 3


def _no_tree(*_args, **_kwargs):
    raise AssertionError("a clean store's sidecars were bypassed")


@pytest.fixture()
def columns_only(monkeypatch):
    """Every way to materialize an archive tree raises."""
    monkeypatch.setattr("repro.core.archive.store.ArchiveHandle.archive",
                        _no_tree)
    monkeypatch.setattr("repro.core.archive.serialize.archive_from_json",
                        _no_tree)
    monkeypatch.setattr("repro.service.app.archive_from_json", _no_tree)
    monkeypatch.setattr("repro.core.archive.columnar.document_to_archive",
                        _no_tree)


#: One request per fleet op and plan shape.
FLEET_ROUTES = [
    ("/fleet/query", QUERY_PARAMS),
    ("/fleet/query", {"group_by": "meta:dataset", "agg": "mean,p50",
                      "metric": "BytesRead", "samples": "1"}),
    ("/fleet/series", {"agg": "max", "mission": "Superstep"}),
    ("/fleet/regressions", {"k": "0.5", "samples": "1"}),
    ("/fleet/regressions", {"path": "Job/**", "k": "1.0"}),
]

#: One ``/jobs/{id}/query`` per aggregation and selector.
JOB_QUERIES = [
    {},
    {"agg": "count", "path": "Job/**/Superstep-*"},
    {"agg": "mean", "mission": "LocalLoad", "metric": "BytesRead"},
    {"agg": "top", "metric": "Duration", "n": "2"},
    {"agg": "values", "actor": "Worker"},
    {"agg": "durations", "mission": "Superstep"},
    {"agg": "operations", "iteration": "1"},
]


def without_sidecars(store):
    for job_id in store.list():
        store.sidecar_path(job_id).unlink()
    return store


class TestColumnarHotPaths:
    """On a clean store, fleet scans and per-job queries answer from the
    ``.gcol`` columns alone; no archive tree is ever built.  Without
    sidecars they answer from the JSON documents' own columns — still
    without a tree — and report every job degraded."""

    @pytest.mark.parametrize("route,params", FLEET_ROUTES)
    def test_fleet_ops_scan_columns_only(self, service, columns_only,
                                         route, params):
        response = service.handle(route, params)
        assert response.status == 200, response.text
        document = response.json()
        assert document["jobs_scanned"] == 3
        assert document["degraded_jobs"] == []

    @pytest.mark.parametrize("params", JOB_QUERIES)
    def test_job_query_reads_columns_only(self, service, columns_only,
                                          params):
        response = service.handle("/jobs/alpha/query", params)
        assert response.status == 200, response.text
        assert response.json()["job_id"] == "alpha"

    @pytest.mark.parametrize("route,params", FLEET_ROUTES)
    def test_fleet_ops_without_sidecars_build_no_tree(
        self, store, columns_only, route, params,
    ):
        answer = ArchiveService(store).handle(route, params).json()
        without_sidecars(store)
        response = ArchiveService(store).handle(route, params)
        assert response.status == 200, response.text
        document = response.json()
        assert document["jobs_scanned"] == 3
        assert document["degraded_jobs"] == store.list()
        assert dict(document, degraded_jobs=[]) == answer

    @pytest.mark.parametrize("params", JOB_QUERIES)
    def test_job_query_without_sidecars_builds_no_tree(
        self, store, columns_only, params,
    ):
        answer = ArchiveService(store).handle("/jobs/alpha/query", params)
        without_sidecars(store)
        response = ArchiveService(store).handle("/jobs/alpha/query", params)
        assert response.status == 200, response.text
        assert response.body == answer.body


class TestClosedEndpointLabelSet:
    """Satellite guard: the metrics label set stays closed."""

    # One probe per route the service understands, plus hostile paths
    # that must all collapse into "other".
    PROBES = [
        ("GET", "/healthz"),
        ("GET", "/metrics"),
        ("GET", "/jobs"),
        ("GET", "/jobs/alpha"),
        ("GET", "/jobs/alpha/query"),
        ("GET", "/jobs/alpha/report"),
        ("POST", "/jobs"),
        ("PUT", "/jobs"),
        ("GET", "/ingest/some-id"),
        ("GET", "/fleet/query"),
        ("GET", "/fleet/series"),
        ("GET", "/fleet/regressions"),
        ("POST", "/fleet/query"),
        ("DELETE", "/fleet/query"),
        ("GET", "/wp-admin"),
        ("GET", "/fleet/unknown"),
        ("POST", "/fleet/series"),
        ("PATCH", "/metrics"),
    ]

    def test_every_routable_label_is_known(self, service, fleet_cluster):
        """Both tiers count every probe under the same known label, and
        answer the unroutable ones with the same status and body."""
        tiers = (service, fleet_cluster)

        def counts(tier):
            return Counter(
                tier.metrics.snapshot({})["requests_by_endpoint"]
            )

        for method, path in self.PROBES:
            label, handler, _ = resolve_route(path, method)
            assert label in KNOWN_ENDPOINTS, (method, path, label)
            before = [counts(tier) for tier in tiers]
            single, routed = (
                tier.handle(path, method=method) for tier in tiers
            )
            for tier, seen in zip(tiers, before):
                assert counts(tier) - seen == {label: 1}, (method, path)
            if handler is None:
                assert (single.status, single.body) == \
                    (routed.status, routed.body), (method, path)

    def test_fleet_labels_are_registered(self):
        assert {"/fleet/query", "/fleet/series", "/fleet/regressions",
                "POST /fleet/query"} <= KNOWN_ENDPOINTS

    def test_unknown_labels_collapse_to_other(self):
        metrics = ServiceMetrics()
        metrics.observe("/fleet/made-up", 404, 0.001)
        metrics.observe("/fleet/query", 200, 0.001)
        counts = metrics.snapshot({})["requests_by_endpoint"]
        assert counts == {"other": 1, "/fleet/query": 1}


FLEET_JOBS = [
    ("job-a", "Giraph", "bfs", 3),
    ("job-b", "Giraph", "bfs", 5),
    ("job-c", "Giraph", "pr", 4),
    ("job-d", "PowerGraph", "bfs", 3),
    ("job-e", "PowerGraph", "pr", 6),
    ("job-f", "PowerGraph", "pr", 2),
    ("job-g", "Hadoop", "wcc", 4),
]

FLEET_PLANS = [
    ("query", {"group_by": "platform,algorithm",
               "agg": "count,sum,mean,min,max,p95,top2"}),
    ("query", {"group_by": "meta:dataset", "agg": "mean,p50",
               "metric": "BytesRead"}),
    ("series", {"group_by": "platform", "agg": "sum",
                "mission": "Superstep"}),
    ("regressions", {"group_by": "platform", "k": "1.0"}),
]


@pytest.fixture()
def fleet_cluster(tmp_path):
    """A 3-shard router plus a single service over the union store."""
    supervisor = FakeSupervisor(3)
    ring = ConsistentHashRing(3)
    services = {}
    for index in range(3):
        store = ArchiveStore(tmp_path / f"shard-{index}")
        services[f"fake://shard-{index}"] = ArchiveService(store)
    union = ArchiveService(ArchiveStore(tmp_path / "union"))
    for job_id, platform, algorithm, supersteps in FLEET_JOBS:
        archive = make_archive(job_id, platform=platform,
                               algorithm=algorithm,
                               supersteps=supersteps)
        owner = ring.shard_for(job_id)
        services[f"fake://shard-{owner}"].store.save(archive)
        union.store.save(archive)

    calls = []

    def transport(base, path, params, headers, method, body, timeout):
        calls.append((base, path, method))
        return services[base].handle(
            path, params, headers, method=method, body=body
        )

    cluster = ClusterService(supervisor, transport=transport)
    cluster.test_calls = calls
    cluster.test_supervisor = supervisor
    cluster.test_union = union
    return cluster


class TestRoutedFleet:
    def test_fanout_merge_matches_union_store(self, fleet_cluster):
        """The router's merged answer is the single-store answer."""
        for op, params in FLEET_PLANS:
            routed = fleet_cluster.handle(f"/fleet/{op}", params)
            local = fleet_cluster.test_union.handle(f"/fleet/{op}", params)
            assert routed.status == local.status == 200, (op, params)
            merged = routed.json()
            assert merged.pop("degraded_shards") == []
            assert merged == local.json(), (op, params)

    def test_post_plan_fans_out_identically(self, fleet_cluster):
        body = json.dumps({
            "op": "query",
            "group_by": ["platform"],
            "aggs": ["count", "mean", "p90"],
        }).encode("utf-8")
        routed = fleet_cluster.handle(
            "/fleet/query", method="POST", body=body
        )
        local = fleet_cluster.test_union.handle(
            "/fleet/query", method="POST", body=body
        )
        merged = routed.json()
        assert merged.pop("degraded_shards") == []
        assert merged == local.json()

    def test_router_etag_and_304(self, fleet_cluster):
        params = dict(FLEET_PLANS[0][1])
        first = fleet_cluster.handle("/fleet/query", params)
        etag = first.headers["ETag"]
        again = fleet_cluster.handle(
            "/fleet/query", params, {"If-None-Match": etag}
        )
        assert again.status == 304
        assert again.headers["ETag"] == etag

    def test_dead_shard_degrades_the_answer(self, fleet_cluster):
        fleet_cluster.test_supervisor.states[1] = "dead"
        response = fleet_cluster.handle(
            "/fleet/query", {"group_by": "platform", "agg": "count"}
        )
        assert response.status == 200
        document = response.json()
        assert document["degraded_shards"] == [1]
        # Shards 0 and 2 still answered: their jobs are all counted.
        ring = fleet_cluster.ring
        surviving = sum(
            1 for job_id, *_ in FLEET_JOBS
            if ring.shard_for(job_id) != 1
        )
        assert document["jobs_scanned"] == surviving

    def test_shards_send_packed_samples(self, fleet_cluster):
        """Percentiles make the router ask every shard for packed
        vectors; a client's ``samples=1`` still gets the union store's
        answer, JSON float lists and all."""
        bodies = []
        transport = fleet_cluster._transport

        def recording(base, path, params, headers, method, body, timeout):
            bodies.append(json.loads(body))
            return transport(base, path, params, headers, method, body,
                             timeout)

        fleet_cluster._transport = recording
        params = {"group_by": "platform", "agg": "count,p95",
                  "samples": "1"}
        routed = fleet_cluster.handle("/fleet/query", params).json()
        local = fleet_cluster.test_union.handle("/fleet/query", params)
        assert [body["samples"] for body in bodies] == [PACKED] * 3
        assert routed.pop("degraded_shards") == []
        assert routed == local.json()
        assert all(isinstance(g["samples"], list)
                   for g in routed["groups"])

    def test_bad_plan_rejected_before_fanout(self, fleet_cluster):
        del fleet_cluster.test_calls[:]
        response = fleet_cluster.handle("/fleet/query", {"agg": "p999"})
        assert response.status == 400
        assert fleet_cluster.test_calls == []
