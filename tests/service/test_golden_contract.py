"""Cross-commit golden battery: the service contract, pinned as literals.

One fixed request battery runs against the 7-job ``FLEET_JOBS`` store
through both tiers — a single :class:`ArchiveService` and a 3-shard
:class:`ClusterService` over the in-process fake transport, the latter
also with one shard dead (503 + ``Retry-After``, ``degraded_shards``)
— and every answer is compared with ``golden_contract.json``: ``(status, ETag,
Retry-After, sha256(body))`` per request plus the metrics label each
request was counted under.  The literals were recorded at 698a945,
before the two tiers were refactored onto one route table and codec,
so any drift in status, header or body bytes on any route fails here.

``/healthz`` and ``/metrics`` bodies carry temp paths and latencies;
their digest covers the document's key/type shape instead of its bytes.

Regenerate (only when a response is *meant* to change, and say why in
CHANGES.md): ``PYTHONPATH=src python -m tests.service.test_golden_contract``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.serialize import archive_to_json
from repro.core.archive.store import ArchiveStore
from repro.service.app import AGGREGATIONS, ArchiveService
from repro.service.router import ClusterService, ConsistentHashRing
from tests.service.conftest import make_archive
from tests.service import test_fleet_endpoints as fleet_tests
from tests.service.test_router import FakeSupervisor

GOLDEN_PATH = Path(__file__).with_name("golden_contract.json")

#: Routes whose bodies are not byte-stable across runs.
VOLATILE = ("/healthz", "/metrics")

#: (name, method, path, params, body, name of the earlier request whose
#: ETag is re-sent as ``If-None-Match``).
Request = Tuple[str, str, str, Dict[str, str], bytes, Optional[str]]


def battery() -> List[Request]:
    requests: List[Request] = []

    def add(name, path, params=None, method="GET", body=b"",
            revalidates=None):
        requests.append(
            (name, method, path, dict(params or {}), body, revalidates)
        )

    for method, path in fleet_tests.TestClosedEndpointLabelSet.PROBES:
        add(f"probe {method} {path}", path, method=method)

    add("jobs page", "/jobs", {"offset": "2", "limit": "3"})
    add("jobs filtered", "/jobs", {"platform": "Giraph",
                                   "algorithm": "bfs"})
    add("jobs past the end", "/jobs", {"offset": "100"})
    add("jobs capped limit", "/jobs", {"limit": "9999"})
    add("jobs offset=-1", "/jobs", {"offset": "-1"})
    add("jobs offset=x", "/jobs", {"offset": "x"})
    add("jobs limit=0", "/jobs", {"limit": "0"})
    add("jobs limit=abc", "/jobs", {"limit": "abc"})
    add("jobs revalidated", "/jobs", {"offset": "2", "limit": "3"},
        revalidates="jobs page")

    add("job summary", "/jobs/job-a")
    add("job summary revalidated", "/jobs/job-a",
        revalidates="job summary")
    add("job missing", "/jobs/no-such-job")
    add("job invalid id", "/jobs/.hidden")
    add("job invalid id query", "/jobs/.hidden/query")
    add("job invalid id live", "/jobs/.hidden/live")

    for agg in AGGREGATIONS:
        add(f"query agg={agg}", "/jobs/job-b/query",
            {"agg": agg, "mission": "Superstep"})
    add("query path+actor", "/jobs/job-b/query",
        {"agg": "count", "path": "Job/LoadGraph/*", "actor": "Worker-1"})
    add("query metric", "/jobs/job-b/query",
        {"agg": "values", "metric": "BytesRead"})
    add("query iteration", "/jobs/job-b/query",
        {"agg": "count", "iteration": "1"})
    add("query top n=2", "/jobs/job-b/query", {"agg": "top", "n": "2"})
    add("query bad agg", "/jobs/job-b/query", {"agg": "median"})
    add("query n=0", "/jobs/job-b/query", {"agg": "top", "n": "0"})
    add("query n=x", "/jobs/job-b/query", {"agg": "top", "n": "x"})
    add("query iteration=x", "/jobs/job-b/query", {"iteration": "x"})
    add("query missing job", "/jobs/no-such-job/query")

    add("report text", "/jobs/job-c/report")
    add("report html", "/jobs/job-c/report", {"format": "html"})
    add("report bad format", "/jobs/job-c/report", {"format": "pdf"})
    add("report revalidated", "/jobs/job-c/report",
        revalidates="report text")
    add("live stored job", "/jobs/job-d/live")

    for index, (op, params) in enumerate(fleet_tests.FLEET_PLANS):
        document = FleetPlan.from_params(params, op=op).to_document()
        for samples in (False, True):
            suffix = f"plan {index}" + (" +samples" if samples else "")
            add(f"fleet GET {suffix}", f"/fleet/{op}",
                dict(params, samples="1") if samples else params)
            add(f"fleet POST {suffix}", "/fleet/query", method="POST",
                body=json.dumps(
                    dict(document, samples=True) if samples else document,
                    sort_keys=True,
                ).encode("utf-8"))
    add("fleet revalidated", "/fleet/query", fleet_tests.FLEET_PLANS[0][1],
        revalidates="fleet GET plan 0")
    add("fleet bad agg", "/fleet/query", {"agg": "p999"})
    add("fleet unknown param", "/fleet/series", {"nonsense": "1"})
    add("fleet bad k", "/fleet/regressions", {"k": "-1"})
    add("fleet POST bad json", "/fleet/query", method="POST",
        body=b"{not json")
    add("fleet POST not an object", "/fleet/query", method="POST",
        body=b"[1]")
    add("fleet POST unknown field", "/fleet/query", method="POST",
        body=b'{"op": "query", "surprise": 1}')

    archive = archive_to_json(make_archive("job-new")).encode("utf-8")
    add("submit archive read-only", "/jobs", method="POST", body=archive)
    add("submit log without job id", "/jobs", {"kind": "log"},
        method="POST", body=b"not a log")
    add("submit unroutable body", "/jobs", method="POST", body=b"{}")
    add("submit invalid job id", "/jobs", {"job_id": ".hidden"},
        method="POST", body=archive)
    add("ingest status", "/ingest/t-1")
    return requests


def _shape(value: Any) -> Any:
    """A document's keys and leaf types, values dropped."""
    if isinstance(value, dict):
        return {key: _shape(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_shape(item) for item in value]
    return type(value).__name__


def record(service) -> Dict[str, Any]:
    """Run the battery; one ``[status, etag, retry_after, digest]`` row
    per request, then the label counters the requests landed in."""
    rows: Dict[str, List[Any]] = {}
    etags: Dict[str, Optional[str]] = {}
    for name, method, path, params, body, revalidates in battery():
        headers = {}
        if method == "POST":
            headers["Content-Type"] = "application/json"
        if revalidates is not None:
            headers["If-None-Match"] = etags[revalidates]
        response = service.handle(path, params, headers, method=method,
                                  body=body)
        chunks = getattr(response, "chunks", None)
        payload = b"".join(chunks) if chunks is not None else response.body
        if path in VOLATILE and response.status == 200:
            payload = json.dumps(_shape(json.loads(payload))).encode()
        etags[name] = response.headers.get("ETag")
        rows[name] = [
            response.status,
            response.headers.get("ETag"),
            response.headers.get("Retry-After"),
            hashlib.sha256(payload).hexdigest(),
        ]
    counts = service.metrics.snapshot({})["requests_by_endpoint"]
    return {"responses": rows, "requests_by_endpoint": counts}


def build_tiers(root: Path) -> Dict[str, Any]:
    """An ``ArchiveService`` (``direct``), a ``ClusterService`` over
    three in-process shard services (``routed``) and the same router
    with shard 1 dead (``degraded``), all over the same seven jobs."""
    ring = ConsistentHashRing(3)
    shards = {
        f"fake://shard-{index}": ArchiveService(
            ArchiveStore(root / f"shard-{index}")
        )
        for index in range(3)
    }
    direct = ArchiveService(ArchiveStore(root / "union"))
    for job_id, platform, algorithm, supersteps in fleet_tests.FLEET_JOBS:
        archive = make_archive(job_id, platform=platform,
                               algorithm=algorithm, supersteps=supersteps)
        shards[f"fake://shard-{ring.shard_for(job_id)}"].store.save(archive)
        direct.store.save(archive)

    def transport(base, path, params, headers, method, body, timeout):
        return shards[base].handle(
            path, params, headers, method=method, body=body
        )

    routed = ClusterService(FakeSupervisor(3), transport=transport)
    one_down = FakeSupervisor(3)
    one_down.states[1] = "dead"
    degraded = ClusterService(one_down, transport=transport)
    return {"direct": direct, "routed": routed, "degraded": degraded}


@pytest.mark.parametrize("tier", ["direct", "routed", "degraded"])
def test_battery_matches_golden_literals(tier, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())[tier]
    actual = record(build_tiers(tmp_path)[tier])
    assert sorted(actual["responses"]) == sorted(golden["responses"])
    drifted = {
        name: (row, golden["responses"][name])
        for name, row in actual["responses"].items()
        if row != golden["responses"][name]
    }
    assert drifted == {}
    assert actual["requests_by_endpoint"] == golden["requests_by_endpoint"]


if __name__ == "__main__":
    # Fresh stores per tier, as the test gets: shard ``/metrics`` shapes
    # depend on what the shard has already served.
    recorded = {}
    for tier in ("direct", "routed", "degraded"):
        with tempfile.TemporaryDirectory() as scratch:
            recorded[tier] = record(build_tiers(Path(scratch))[tier])
    GOLDEN_PATH.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n"
    )
