"""Unit tests for the transport-independent service layer."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive.store import ArchiveHandle, ArchiveStore
from repro.service.app import ArchiveService, encode_json

from tests.service.conftest import make_archive


class TestRouting:
    def test_healthz(self, service):
        response = service.handle("/healthz")
        assert response.status == 200
        document = response.json()
        assert document["status"] == "ok"
        assert document["jobs"] == 3

    def test_unknown_route(self, service):
        assert service.handle("/nope").status == 404
        assert service.handle("/jobs/alpha/nope").status == 404

    def test_write_methods_rejected(self, service):
        for method in ("POST", "PUT", "DELETE"):
            assert service.handle("/jobs", method=method).status == 405


class TestJobsListing:
    def test_lists_all_jobs(self, service):
        document = service.handle("/jobs").json()
        assert document["total"] == 3
        assert [job["job_id"] for job in document["jobs"]] == [
            "alpha", "beta", "gamma"]
        assert document["jobs"][0]["platform"] == "Giraph"

    def test_filters(self, service):
        document = service.handle(
            "/jobs", {"platform": "Giraph"}).json()
        assert [j["job_id"] for j in document["jobs"]] == ["alpha", "gamma"]
        document = service.handle(
            "/jobs", {"platform": "Giraph", "algorithm": "wcc"}).json()
        assert [j["job_id"] for j in document["jobs"]] == ["gamma"]
        assert service.handle(
            "/jobs", {"dataset": "none"}).json()["jobs"] == []

    def test_pagination(self, service):
        document = service.handle(
            "/jobs", {"offset": "1", "limit": "1"}).json()
        assert document["total"] == 3
        assert [j["job_id"] for j in document["jobs"]] == ["beta"]
        assert service.handle(
            "/jobs", {"offset": "5"}).json()["jobs"] == []

    def test_bad_pagination_is_400(self, service):
        assert service.handle("/jobs", {"offset": "x"}).status == 400
        assert service.handle("/jobs", {"limit": "0"}).status == 400
        assert service.handle("/jobs", {"offset": "-1"}).status == 400

    def test_etag_revalidation(self, service):
        first = service.handle("/jobs")
        etag = first.headers["ETag"]
        again = service.handle("/jobs", headers={"If-None-Match": etag})
        assert again.status == 304
        assert again.body == b""
        assert again.headers["ETag"] == etag

    def test_etag_changes_when_store_changes(self, service):
        etag = service.handle("/jobs").headers["ETag"]
        service.store.save(make_archive("delta"))
        fresh = service.handle("/jobs", headers={"If-None-Match": etag})
        assert fresh.status == 200
        assert fresh.json()["total"] == 4

    def test_listing_sees_external_writers(self, tmp_path, service):
        # A second process (simulated by a second store object) saves a
        # new archive; the serving store picks it up via refresh().
        other = ArchiveStore(service.store.directory)
        other.save(make_archive("external"))
        document = service.handle("/jobs").json()
        assert "external" in [j["job_id"] for j in document["jobs"]]


class TestJobSummary:
    def test_summary(self, service):
        document = service.handle("/jobs/alpha").json()
        assert document["job_id"] == "alpha"
        assert document["platform"] == "Giraph"
        assert document["operations"] == 8
        assert len(document["checksum"]) == 64

    def test_missing_job_is_404(self, service):
        assert service.handle("/jobs/ghost").status == 404

    def test_unsafe_job_id_is_400(self, service):
        # Encoded traversal must be a client error, not a 500.
        response = service.handle("/jobs/..%2Fescape".replace("%2F", "/"))
        assert response.status in (400, 404)
        assert service.handle("/jobs/..").status == 400
        assert service.handle("/jobs/.hidden").status == 400

    def test_conditional_get(self, service):
        first = service.handle("/jobs/alpha")
        etag = first.headers["ETag"]
        assert service.handle(
            "/jobs/alpha", headers={"If-None-Match": etag}
        ).status == 304
        assert service.handle(
            "/jobs/alpha", headers={"If-None-Match": '"other"'}
        ).status == 200
        assert service.handle(
            "/jobs/alpha", headers={"If-None-Match": f'W/{etag}, "x"'}
        ).status == 304


class TestJobQuery:
    def test_default_total_duration(self, service):
        document = service.handle(
            "/jobs/alpha/query", {"mission": "Superstep"}).json()
        assert document["agg"] == "total"
        assert document["metric"] == "Duration"
        assert document["selection"] == 3
        assert document["result"] == 6.0

    def test_path_glob_segment_semantics(self, service):
        document = service.handle(
            "/jobs/alpha/query", {"path": "Job/*", "agg": "count"}).json()
        assert document["result"] == 2  # LoadGraph + ProcessGraph only
        document = service.handle(
            "/jobs/alpha/query",
            {"path": "Job/**/Superstep-*", "agg": "count"}).json()
        assert document["result"] == 3

    def test_mean_and_values(self, service):
        assert service.handle(
            "/jobs/alpha/query",
            {"mission": "Superstep", "agg": "mean"}).json()["result"] == 2.0
        assert service.handle(
            "/jobs/alpha/query",
            {"mission": "LocalLoad", "agg": "values",
             "metric": "BytesRead"}).json()["result"] == [100, 200]

    def test_top(self, service):
        document = service.handle(
            "/jobs/alpha/query",
            {"mission": "LocalLoad", "agg": "top",
             "metric": "BytesRead", "n": "1"}).json()
        assert len(document["result"]) == 1
        assert document["result"][0]["value"] == 200
        assert document["result"][0]["actor"] == "Worker-2"

    def test_operations_listing(self, service):
        document = service.handle(
            "/jobs/alpha/query",
            {"actor": "Worker", "agg": "operations"}).json()
        assert [op["path"] for op in document["result"]] == [
            "Job/LoadGraph/LocalLoad", "Job/LoadGraph/LocalLoad"]

    def test_iteration_filter(self, service):
        document = service.handle(
            "/jobs/alpha/query",
            {"iteration": "1", "agg": "operations"}).json()
        assert [op["mission"] for op in document["result"]] == [
            "Superstep-1"]

    def test_query_errors_are_400(self, service):
        assert service.handle(
            "/jobs/alpha/query", {"agg": "nope"}).status == 400
        assert service.handle(
            "/jobs/alpha/query", {"path": "a**b"}).status == 400
        assert service.handle(
            "/jobs/alpha/query",
            {"agg": "mean", "metric": "Ghost"}).status == 400
        assert service.handle(
            "/jobs/alpha/query", {"agg": "top", "n": "0"}).status == 400
        assert service.handle(
            "/jobs/alpha/query", {"iteration": "x"}).status == 400

    def test_non_numeric_metric_is_400(self, service, store):
        archive = make_archive("strings")
        archive.root.infos["Status"] = "SUCCEEDED"
        store.save(archive)
        response = service.handle(
            "/jobs/strings/query", {"agg": "total", "metric": "Status"})
        assert response.status == 400
        assert "not numeric" in response.json()["error"]

    def test_conditional_get_skips_work(self, service, monkeypatch):
        etag = service.handle(
            "/jobs/alpha/query", {"agg": "count"}).headers["ETag"]

        def no_work(*_args, **_kwargs):
            raise AssertionError("a revalidation opened the archive")

        # A matching tag answers before any view, tree or render.
        monkeypatch.setattr(service.store, "columnar_view", no_work)
        monkeypatch.setattr(ArchiveHandle, "archive", no_work)
        for path, params in (("/jobs/alpha/query", {"agg": "count"}),
                             ("/jobs/alpha/report", {})):
            response = service.handle(
                path, params, headers={"If-None-Match": etag})
            assert response.status == 304

    def test_cache_reuses_materialized_archive(self, service):
        # Queries share one cached columnar view (first query misses,
        # second hits); only the report materializes the archive tree.
        assert service.cache.stats()["hits"] == 0
        service.handle("/jobs/alpha/query", {"agg": "count"})
        service.handle("/jobs/alpha/query", {"agg": "total"})
        service.handle("/jobs/alpha/report")
        stats = service.cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 1
        assert any(key.startswith("gcol:") for key in service.cache._entries)

    def test_rewritten_archive_invalidates_cache(self, service, store):
        service.handle("/jobs/alpha/query", {"agg": "count"})
        store.save(make_archive("alpha", supersteps=5), overwrite=True)
        document = service.handle(
            "/jobs/alpha/query",
            {"mission": "Superstep", "agg": "count"}).json()
        assert document["result"] == 5
        assert service.cache.stats()["misses"] == 2


class TestJobReport:
    def test_text_report(self, service):
        response = service.handle("/jobs/alpha/report")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        assert "Job" in response.text
        assert "TOTAL" in response.text

    def test_html_report(self, service):
        response = service.handle(
            "/jobs/alpha/report", {"format": "html"})
        assert response.status == 200
        assert response.content_type.startswith("text/html")
        assert "<svg" in response.text

    def test_bad_format_is_400(self, service):
        assert service.handle(
            "/jobs/alpha/report", {"format": "pdf"}).status == 400

    def test_conditional_get(self, service):
        etag = service.handle("/jobs/alpha/report").headers["ETag"]
        assert service.handle(
            "/jobs/alpha/report",
            headers={"If-None-Match": etag}).status == 304


class TestMetricsEndpoint:
    def test_metrics_accumulate(self, service):
        service.handle("/jobs")
        service.handle("/jobs/alpha")
        service.handle("/jobs/ghost")
        etag = service.handle("/jobs/alpha").headers["ETag"]
        service.handle("/jobs/alpha", headers={"If-None-Match": etag})
        document = service.handle("/metrics").json()
        assert document["requests_total"] == 5
        # The ghost 404 shares the route's stable label — raw paths
        # never become metric labels (cardinality leak).
        assert document["requests_by_endpoint"]["/jobs/{id}"] == 4
        assert document["responses_by_status"]["404"] == 1
        assert document["not_modified_total"] == 1
        assert "p50_ms" in document["latency_ms"]["/jobs/{id}"]
        assert document["cache"]["capacity"] == 8


def _stdlib(document):
    return json.dumps(document, indent=2, sort_keys=True)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text())
_KEYS = st.text() | st.integers() | st.booleans() | st.none()
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner) | st.lists(st.floats())
                   | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=30,
)


class TestEncodeJson:
    """``encode_json`` is ``json.dumps(indent=2, sort_keys=True)``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_DOCUMENTS)
    def test_matches_the_stdlib(self, document):
        try:
            expected = _stdlib(document)
        except TypeError:  # Mixed key types do not sort.
            with pytest.raises(TypeError):
                encode_json(document)
            return
        assert encode_json(document) == expected

    @pytest.mark.parametrize("samples", [
        [],
        [0.5],
        [1e-07, 2.5, 1e16, -0.0, 123456789.123456789],
        [1.0, math.nan, math.inf, -math.inf],
        [1.0, 2, True, None, "x"],
    ])
    def test_sample_vectors(self, samples):
        document = {"groups": [{"key": {"platform": "Giraph"},
                                "samples": samples}]}
        assert encode_json(document) == _stdlib(document)

    def test_unserializable_values_and_keys_raise(self):
        for document in ({"x": object()}, [1, {2, 3}], {(1, 2): 1}):
            with pytest.raises(TypeError):
                _stdlib(document)
            with pytest.raises(TypeError):
                encode_json(document)

    def test_fleet_response_bytes(self, service):
        """A sample-bearing fleet answer is the stdlib's encoding."""
        response = service.handle(
            "/fleet/query",
            {"group_by": "platform", "agg": "count,p95", "samples": "1"},
        )
        assert response.status == 200
        assert response.body == _stdlib(response.json()).encode("utf-8")
