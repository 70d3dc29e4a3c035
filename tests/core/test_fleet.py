"""Unit tests for the fleet analytics engine and its query AST."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis.fleet import (
    FleetScanSession,
    fleet_findings,
    percentile_of,
    reduce_single,
    render_fleet_text,
    run_fleet_query,
)
from repro.core.analysis.fleetplan import AggSpec, FleetPlan
from repro.core.archive.store import ArchiveStore
from repro.errors import ArchiveError, QueryError
from tests.conftest import (
    assert_index_is_rebuild,
    folded_index,
    sidecarless_fleet_query,
)
from tests.service.conftest import make_archive


@pytest.fixture()
def fleet_store(tmp_path) -> ArchiveStore:
    store = ArchiveStore(tmp_path / "fleet")
    store.save(make_archive("alpha", platform="Giraph", supersteps=3))
    store.save(make_archive("beta", platform="Giraph", supersteps=5))
    store.save(make_archive("gamma", platform="PowerGraph",
                            algorithm="pr", supersteps=4))
    store.save(make_archive("delta", platform="PowerGraph",
                            algorithm="pr", dataset="d2", supersteps=2))
    return store


class TestAggSpec:
    def test_simple_aggregations_parse(self):
        for name in ("count", "sum", "mean", "min", "max"):
            agg = AggSpec.parse(name)
            assert (agg.kind, agg.label) == (name, name)

    def test_percentile_and_topk_parse(self):
        p = AggSpec.parse("p95")
        assert (p.kind, p.q, p.label) == ("percentile", 95.0, "p95")
        assert AggSpec.parse("p99.9").q == 99.9
        assert AggSpec.parse("p100").q == 100.0
        top = AggSpec.parse("top3")
        assert (top.kind, top.k) == ("top", 3)

    @pytest.mark.parametrize("bad", ["bogus", "p101", "p-1", "top0",
                                     "topx", "p", ""])
    def test_malformed_aggregations_raise(self, bad):
        with pytest.raises(QueryError):
            AggSpec.parse(bad)


class TestFleetPlan:
    def test_defaults(self):
        plan = FleetPlan()
        assert plan.op == "query"
        assert plan.group_by == ("platform",)
        assert [a.label for a in plan.aggs] == ["count"]
        assert plan.metric == "duration"

    def test_from_params_round_trips_through_json(self):
        params = {"group_by": "platform,meta:algorithm",
                  "agg": "count,mean,p95,top2", "mission": "Superstep",
                  "platform": "Giraph"}
        from_params = FleetPlan.from_params(params)
        from_json = FleetPlan.from_json(
            json.loads(from_params.canonical())
        )
        assert from_json == from_params
        assert from_json.canonical() == from_params.canonical()

    def test_unknown_params_and_fields_rejected(self):
        with pytest.raises(QueryError, match="unknown fleet parameter"):
            FleetPlan.from_params({"nope": "1"})
        with pytest.raises(QueryError, match="unknown fleet plan field"):
            FleetPlan.from_json({"op": "query", "nope": 1})

    def test_group_by_validation(self):
        with pytest.raises(QueryError, match="unknown group-by"):
            FleetPlan.from_params({"group_by": "job_id"})
        with pytest.raises(QueryError, match="duplicate"):
            FleetPlan.from_params({"group_by": "platform,platform"})
        with pytest.raises(QueryError, match="names no metadata key"):
            FleetPlan.from_params({"group_by": "meta:"})
        with pytest.raises(QueryError, match="at least one group-by"):
            FleetPlan.from_params({"group_by": ","})

    def test_series_takes_exactly_one_scalar_aggregation(self):
        with pytest.raises(QueryError, match="exactly one"):
            FleetPlan.from_params({"agg": "sum,mean"}, op="series")
        with pytest.raises(QueryError, match="top-k"):
            FleetPlan.from_params({"agg": "top3"}, op="series")
        plan = FleetPlan.from_params({}, op="series")
        assert [a.label for a in plan.aggs] == ["sum"]

    def test_k_sigma_validation(self):
        with pytest.raises(QueryError, match="not a number"):
            FleetPlan.from_params({"k": "abc"}, op="regressions")
        with pytest.raises(QueryError, match="positive"):
            FleetPlan.from_params({"k": "0"}, op="regressions")
        with pytest.raises(QueryError, match="must be a number"):
            FleetPlan.from_json({"op": "regressions", "k": True})
        assert FleetPlan.from_params(
            {"k": "2.5"}, op="regressions").k_sigma == 2.5

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError, match="unknown fleet op"):
            FleetPlan(op="explode")

    def test_canonical_is_sorted_and_stable(self):
        plan = FleetPlan.from_params(
            {"group_by": "platform", "agg": "mean", "dataset": "d"})
        assert plan.canonical() == (
            '{"aggs":["mean"],"dataset":"d","group_by":["platform"],'
            '"metric":"duration","op":"query"}'
        )


class TestAggregationPrimitives:
    def test_percentile_of_nearest_rank(self):
        values = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float64)
        assert percentile_of(values, 50) == 2.0
        assert percentile_of(values, 100) == 4.0
        assert percentile_of(values, 0.1) == 1.0
        assert percentile_of(np.zeros(0), 50) is None

    def test_reduce_single_on_empty_vectors(self):
        empty = np.zeros(0, dtype=np.float64)
        assert reduce_single(empty, AggSpec.parse("count")) == 0
        assert reduce_single(empty, AggSpec.parse("sum")) == 0.0
        assert reduce_single(empty, AggSpec.parse("mean")) is None
        assert reduce_single(empty, AggSpec.parse("min")) is None
        assert reduce_single(empty, AggSpec.parse("p50")) is None

    def test_reduce_single_rejects_topk(self):
        with pytest.raises(QueryError):
            reduce_single(np.array([1.0]), AggSpec.parse("top2"))


class TestFleetQueries:
    def test_columnar_equals_tree_on_every_op(self, fleet_store):
        plans = [
            FleetPlan.from_params(
                {"group_by": "platform,algorithm",
                 "agg": "count,sum,mean,min,max,p50,top2"}),
            FleetPlan.from_params(
                {"group_by": "meta:algorithm", "agg": "mean",
                 "metric": "Duration"}),
            FleetPlan.from_params({"agg": "sum"}, op="series"),
            FleetPlan.from_params({"k": "1.0"}, op="regressions"),
        ]
        for plan in plans:
            columnar = run_fleet_query(fleet_store, plan)
            sidecarless = sidecarless_fleet_query(fleet_store, plan)
            assert columnar["degraded_jobs"] == []
            assert sidecarless["degraded_jobs"] == fleet_store.list()
            assert columnar == dict(sidecarless, degraded_jobs=[])

    def test_group_and_filter(self, fleet_store):
        plan = FleetPlan.from_params(
            {"group_by": "platform", "agg": "count"})
        document = run_fleet_query(fleet_store, plan)
        keys = [g["key"]["platform"] for g in document["groups"]]
        assert keys == ["Giraph", "PowerGraph"]
        assert document["jobs_scanned"] == 4

        only = FleetPlan.from_params(
            {"group_by": "platform", "platform": "Giraph"})
        document = run_fleet_query(fleet_store, only)
        assert document["jobs_scanned"] == 2
        assert [g["jobs"] for g in document["groups"]] == [2]

    def test_mission_selector_narrows_the_metric(self, fleet_store):
        plan = FleetPlan.from_params(
            {"group_by": "platform", "agg": "count",
             "mission": "Superstep", "platform": "Giraph"})
        document = run_fleet_query(fleet_store, plan)
        # alpha has 3 supersteps, beta 5.
        assert document["groups"][0]["aggs"]["count"] == 8

    def test_series_orders_points_by_timestamp(self, fleet_store):
        plan = FleetPlan.from_params(
            {"agg": "max", "mission": "Superstep"}, op="series")
        document = run_fleet_query(fleet_store, plan)
        assert [p["job_id"] for p in document["points"]] == [
            "alpha", "beta", "delta", "gamma",
        ]
        assert all(p["value"] == 2.0 for p in document["points"])

    def test_missing_sidecar_degrades_not_fails(self, fleet_store):
        fleet_store.sidecar_path("beta").unlink()
        fleet_store.sidecar_path("gamma").write_bytes(b"junk")
        plan = FleetPlan.from_params(
            {"group_by": "platform", "agg": "count,sum,p50"})
        columnar = run_fleet_query(fleet_store, plan)
        sidecarless = sidecarless_fleet_query(fleet_store, plan)
        assert columnar["degraded_jobs"] == ["beta", "gamma"]
        assert dict(columnar, degraded_jobs=[]) == \
            dict(sidecarless, degraded_jobs=[])

    def test_fleet_findings_round_trip(self, fleet_store):
        plan = FleetPlan.from_params({"k": "0.5"}, op="regressions")
        document = run_fleet_query(fleet_store, plan)
        findings = fleet_findings(document)
        assert len(findings) == len(document["findings"])
        for finding, entry in zip(findings, document["findings"]):
            assert finding.kind == "fleet-regression"
            assert finding.subject == entry["subject"]

    def test_render_covers_every_op(self, fleet_store):
        for op, extra in (("query", {"agg": "mean,top1"}),
                          ("series", {"agg": "sum"}),
                          ("regressions", {"k": "0.5"})):
            plan = FleetPlan.from_params(dict(extra), op=op)
            text = render_fleet_text(run_fleet_query(fleet_store, plan))
            assert text.startswith(f"fleet {op}: 4 job(s) scanned")


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                    reason="needs /proc file-descriptor listing")
class TestDescriptorHygiene:
    @staticmethod
    def _open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    def test_fleet_query_leaks_no_descriptors(self, fleet_store):
        plan = FleetPlan.from_params(
            {"group_by": "platform", "agg": "count,p95,top2"})
        run_fleet_query(fleet_store, plan)  # warm caches/imports
        before = self._open_fds()
        for _ in range(3):
            run_fleet_query(fleet_store, plan)
        assert self._open_fds() == before

    def test_abandoned_scan_closes_on_exit(self, fleet_store):
        plan = FleetPlan()
        before = self._open_fds()
        with FleetScanSession(fleet_store, plan) as session:
            for _ in session.jobs():
                break  # abandon mid-fleet with a view open
        assert self._open_fds() == before

    def test_jobs_outside_context_raises(self, fleet_store):
        session = FleetScanSession(fleet_store, FleetPlan())
        with pytest.raises(QueryError):
            next(session.jobs())


class TestStoreFastPath:
    def test_sidecar_rebuild_matches_json_rebuild_bytes(self, fleet_store):
        index_path = fleet_store.directory / "index.json"
        assert_index_is_rebuild(fleet_store.directory,
                                folded_index(fleet_store.directory))
        expected = index_path.read_bytes()

        # Fast path: every sidecar present -> no JSON archive parsed.
        index_path.unlink()
        from repro.core.archive import store as store_module

        original = store_module.ArchiveHandle.index_entry
        store_module.ArchiveHandle.index_entry = _boom
        try:
            rebuilt = ArchiveStore(fleet_store.directory)
            assert rebuilt.list() == fleet_store.list()
        finally:
            store_module.ArchiveHandle.index_entry = original
        assert index_path.read_bytes() == expected

        # Fallback: no sidecars -> identical index from the JSON parse.
        for job_id in fleet_store.list():
            fleet_store.sidecar_path(job_id).unlink()
        index_path.unlink()
        ArchiveStore(fleet_store.directory)
        assert index_path.read_bytes() == expected

    def test_mismatched_sidecar_binding_falls_back(self, fleet_store):
        # A sidecar describing different archive bytes must be ignored.
        alpha = fleet_store.sidecar_path("alpha")
        alpha.write_bytes(fleet_store.sidecar_path("beta").read_bytes())
        (fleet_store.directory / "index.json").unlink()
        rebuilt = ArchiveStore(fleet_store.directory)
        assert rebuilt.summary("alpha")["platform"] == "Giraph"
        assert rebuilt.list() == ["alpha", "beta", "delta", "gamma"]


def _boom(self):  # pragma: no cover - only reached on regression
    raise AssertionError("index_entry() called despite sidecar fast path")


class TestStorePaging:
    def test_iter_jobs_pages_the_filtered_sequence(self, fleet_store):
        assert list(fleet_store.iter_jobs(limit=2)) == ["alpha", "beta"]
        assert list(fleet_store.iter_jobs(offset=2)) == ["delta", "gamma"]
        assert list(fleet_store.iter_jobs(
            platform="PowerGraph", offset=1, limit=1)) == ["gamma"]
        assert list(fleet_store.iter_jobs(offset=99)) == []
        assert list(fleet_store.iter_jobs(limit=0)) == []

    def test_iter_jobs_rejects_negative_paging(self, fleet_store):
        with pytest.raises(ArchiveError):
            list(fleet_store.iter_jobs(offset=-1))
        with pytest.raises(ArchiveError):
            list(fleet_store.iter_jobs(limit=-1))

    def test_listing_checksum_tracks_content(self, fleet_store):
        first = fleet_store.listing_checksum()
        assert first == fleet_store.listing_checksum()
        assert ArchiveStore(
            fleet_store.directory).listing_checksum() == first
        fleet_store.save(make_archive("omega"))
        assert fleet_store.listing_checksum() != first
