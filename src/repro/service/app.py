"""Transport-independent request handling for the archive service.

:class:`ArchiveService` maps (path, query parameters, headers, body)
to a :class:`Response` without touching sockets, so the routing,
filtering, pagination, conditional-GET, and write-path logic is
unit-testable and the HTTP layer (:mod:`repro.service.server`) stays a
thin adapter.

This module also owns the service *contract* both tiers answer to:
the route table (:data:`ROUTES`), the dispatch that times, labels and
error-maps every request (:class:`ServiceContract`), and the request
codec (:func:`int_param`, :func:`page_window`, :func:`submission_kind`,
:func:`fleet_request`, :func:`conditional_json`).  The cluster router
(:mod:`repro.service.router`) binds the same handler names to shard
proxies and merges, so a route, a label or an error text exists once.

Writes: when an :class:`repro.service.ingest.IngestPipeline` is
attached, ``POST /jobs`` appends the request to a durable WAL and
answers ``202 Accepted`` with a tracking id (``GET /ingest/{id}``
reports progress); an overloaded queue answers 429 and a degraded or
draining service answers 503, both with ``Retry-After``.  Without a
pipeline the service keeps its PR 5 read-only contract.

Conditional GETs: every per-archive response carries a strong ``ETag``
derived from the archive's payload checksum — the same digest the
integrity block stores — so a client re-sending it via
``If-None-Match`` gets a ``304 Not Modified`` without the server
parsing, materializing, or rendering anything.  A rewritten archive
changes its checksum, which invalidates both the ETag and the
in-process cache entry at once.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import (
    Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Union,
)

from repro.core.analysis.fleet import PACKED, Samples, run_fleet_query
from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.archive import PerformanceArchive
from repro.core.archive.columnar import ColumnarArchiveView, document_view
from repro.core.archive.serialize import archive_from_json
from repro.core.archive.store import ArchiveStore, validate_job_id
from repro.core.monitor.live import (
    DEFAULT_HEARTBEAT,
    LiveJobRegistry,
    LiveMonitor,
    complete_payload,
    sse_comment,
    sse_event,
)
from repro.core.visualize.render_html import render_report_html
from repro.core.visualize.report import render_report_text
from repro.errors import (
    ArchiveError,
    IngestError,
    IngestOverloadError,
    IngestUnavailableError,
    QueryError,
    ShardUnavailableError,
    VisualizationError,
)
from repro.service.cache import ArchiveCache
from repro.service.ingest import IngestPipeline
from repro.service.metrics import ServiceMetrics

#: Default and maximum page size of the ``/jobs`` listing.
DEFAULT_PAGE = 50
MAX_PAGE = 500

#: How long a fleet request waits for earlier uploads to be applied.
FLEET_WRITE_WAIT_S = 1.0

#: Aggregations the ``/jobs/{id}/query`` endpoint accepts.
AGGREGATIONS = (
    "count", "total", "mean", "top", "values", "durations", "operations",
)


@dataclass
class Response:
    """One service response, transport-agnostic."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self) -> Any:
        """The body parsed as JSON (test convenience)."""
        return json.loads(self.body)


@dataclass
class StreamingResponse:
    """A chunk-at-a-time response (Server-Sent Events).

    ``chunks`` is a byte-string iterator the transport writes as an
    HTTP/1.1 chunked body; the generator's ``close()`` runs its
    ``finally`` blocks (stream accounting) even when the client
    disconnects mid-stream.
    """

    status: int
    chunks: Iterator[bytes]
    content_type: str = "text/event-stream"
    headers: Dict[str, str] = field(default_factory=dict)

    def close(self) -> None:
        close = getattr(self.chunks, "close", None)
        if close is not None:
            close()


#: What a service handler may return.
AnyResponse = Union[Response, StreamingResponse]


def _float_text(value: float) -> str:
    """A float as ``json`` spells it (``NaN`` and ``Infinity`` included)."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _scalar_text(value: Any) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def _key_text(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _scalar_text(key)
    raise TypeError(
        "keys must be str, int, float, bool or None, not "
        f"{type(key).__name__}"
    )


def _encode_into(value: Any, level: int, out: List[str]) -> None:
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        separator = ",\n" + "  " * (level + 1)
        closing = "\n" + "  " * level + "]"
        if all(type(item) is float for item in value):
            text = separator.join(map(float.__repr__, value))
            if "n" not in text:  # no nan/inf, which json spells otherwise
                out.extend(("[\n" + "  " * (level + 1), text, closing))
                return
        for index, item in enumerate(value):
            out.append(separator if index else "[" + separator[1:])
            _encode_into(item, level + 1, out)
        out.append(closing)
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        separator = ",\n" + "  " * (level + 1)
        for index, (key, item) in enumerate(sorted(value.items())):
            out.append(separator if index else "{" + separator[1:])
            out.append(encode_basestring_ascii(_key_text(key)) + ": ")
            _encode_into(item, level + 1, out)
        out.append("\n" + "  " * level + "}")
    else:
        out.append(_scalar_text(value))


def encode_json(document: Any) -> str:
    """``json.dumps(document, indent=2, sort_keys=True)``, character for
    character, for the acyclic documents the service answers with.

    With ``indent`` set the stdlib leaves its C encoder for a Python
    one that yields three chunks per list item: a sample-bearing fleet
    document (every operation's value, ~70 000 floats a shard) took
    100-180 ms there on a 2-vCPU VM, swinging that much from call to
    call.  Here a list of plain floats is one join over
    ``float.__repr__`` — json's own spelling of every finite float —
    so what is left is the reprs themselves (93-102 ms on the same
    VM); everything else follows the stdlib's rules.
    """
    out: List[str] = []
    _encode_into(document, 0, out)
    return "".join(out)


def json_response(
    status: int, document: Any, etag: Optional[str] = None,
) -> Response:
    body = encode_json(document).encode("utf-8")
    headers = {"ETag": etag} if etag else {}
    return Response(status, body, "application/json", headers)


def error_response(status: int, message: str) -> Response:
    return json_response(status, {"error": message, "status": status})


def _rejection(status: int, exc: Exception) -> Response:
    """A shed/unavailable response carrying its ``Retry-After`` hint."""
    response = error_response(status, str(exc))
    response.headers["Retry-After"] = str(
        getattr(exc, "retry_after", 1)
    )
    return response


def _etag_of(checksum: str) -> str:
    return f'"{checksum}"'


def _etag_matches(if_none_match: Optional[str], etag: str) -> bool:
    """Whether an ``If-None-Match`` header revalidates this ETag."""
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


_READ_METHODS = ("GET", "HEAD")

#: The route table: (methods, path shape) -> (endpoint label, handler
#: name); ``*`` matches any one segment.  Labels are the closed set in
#: :data:`repro.service.metrics.KNOWN_ENDPOINTS` — raw paths must never
#: become metric labels (cardinality leak under random-path scans),
#: which is why unroutable requests all share ``other``.  A tier
#: implements handler ``name`` as its ``_name(request)`` method.
ROUTES: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...], str, str], ...] = (
    (("POST",), ("jobs",), "POST /jobs", "submit"),
    (("POST",), ("fleet", "query"), "POST /fleet/query", "fleet"),
    (_READ_METHODS, ("healthz",), "/healthz", "healthz"),
    (_READ_METHODS, ("metrics",), "/metrics", "metrics"),
    (_READ_METHODS, ("jobs",), "/jobs", "jobs"),
    (_READ_METHODS, ("ingest", "*"), "/ingest/{id}", "ingest_status"),
    (_READ_METHODS, ("fleet", "query"), "/fleet/query", "fleet"),
    (_READ_METHODS, ("fleet", "series"), "/fleet/series", "fleet"),
    (_READ_METHODS, ("fleet", "regressions"), "/fleet/regressions",
     "fleet"),
    (_READ_METHODS, ("jobs", "*"), "/jobs/{id}", "job_summary"),
    (_READ_METHODS, ("jobs", "*", "query"), "/jobs/{id}/query",
     "job_query"),
    (_READ_METHODS, ("jobs", "*", "report"), "/jobs/{id}/report",
     "job_report"),
    (_READ_METHODS, ("jobs", "*", "live"), "/jobs/{id}/live", "job_live"),
)


class Request(NamedTuple):
    """One routed request as every handler receives it."""

    path: str
    #: The path's non-empty segments (``parts[1]`` is the job or
    #: tracking id on the per-id routes, the op on ``/fleet/{op}``).
    parts: List[str]
    params: Dict[str, str]
    headers: Dict[str, str]
    method: str
    body: bytes


def resolve_route(
    path: str, method: str,
) -> Tuple[str, Optional[str], List[str]]:
    """Resolve (endpoint label, handler name, path segments).

    The handler is ``None`` for an unroutable request.  A write method
    on a path that only accepts ``POST`` keeps that route's label, so a
    PUT storm on ``/jobs`` stays visible under a stable name.
    """
    parts = [part for part in path.split("/") if part]
    label = "other"
    for methods, shape, endpoint, handler in ROUTES:
        if len(shape) != len(parts) or not all(
            want in ("*", part) for want, part in zip(shape, parts)
        ):
            continue
        if method in methods:
            return endpoint, handler, parts
        if method not in _READ_METHODS and "POST" in methods:
            label = endpoint
    return label, None, parts


class ServiceContract:
    """The request path both service tiers share.

    :meth:`handle` resolves a request against :data:`ROUTES`, calls the
    tier's ``_<handler>(request)`` method, maps the errors a handler may
    raise onto statuses and records the outcome under the route's
    label.  :class:`ArchiveService` answers from one store;
    :class:`repro.service.router.ClusterService` binds the same names
    to its shard proxy and fan-out merges.
    """

    metrics: ServiceMetrics

    def handle(
        self,
        path: str,
        params: Optional[Mapping[str, str]] = None,
        headers: Optional[Mapping[str, str]] = None,
        method: str = "GET",
        body: bytes = b"",
    ) -> AnyResponse:
        """Dispatch one request; never raises on client/shard errors."""
        started = time.perf_counter()
        self._on_request()
        endpoint, handler, parts = resolve_route(path, method)
        if handler is None:
            response: AnyResponse = _unroutable(endpoint, path, method)
        else:
            request = Request(path, parts, dict(params or {}),
                              dict(headers or {}), method, body)
            try:
                response = getattr(self, f"_{handler}")(request)
            except (_BadRequest, QueryError) as exc:
                response = error_response(400, str(exc))
            except ShardUnavailableError as exc:
                response = _shard_rejection(exc)
            except ArchiveError as exc:
                response = error_response(404, str(exc))
            except VisualizationError as exc:
                response = error_response(422, str(exc))
        self.metrics.observe(
            endpoint, response.status, time.perf_counter() - started
        )
        return response

    def _on_request(self) -> None:
        """Runs inside the timed region, before routing."""


def _unroutable(endpoint: str, path: str, method: str) -> Response:
    if method not in _READ_METHODS and endpoint == "other":
        return error_response(405, f"method {method} not allowed")
    if endpoint == "POST /jobs":
        return error_response(405, f"method {method} not allowed on /jobs")
    return error_response(404, f"no route for {path!r}")


def _shard_rejection(exc: ShardUnavailableError) -> Response:
    """A 503 for one shard's keyspace, carrying shard + back-off."""
    response = json_response(503, {
        "error": str(exc),
        "status": 503,
        "shard": exc.shard,
    })
    response.headers["Retry-After"] = str(exc.retry_after)
    return response


# -- request codec ---------------------------------------------------------


class _BadRequest(Exception):
    """Internal: a client error, answered 400 with its message."""


def int_param(
    params: Mapping[str, str],
    name: str,
    default: int,
    minimum: Optional[int] = None,
) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise _BadRequest(
            f"parameter {name}={raw!r} is not an integer"
        ) from None
    if minimum is not None and value < minimum:
        raise _BadRequest(
            f"parameter {name}={value} must be >= {minimum}"
        )
    return value


def page_window(params: Mapping[str, str]) -> Tuple[int, int]:
    """The ``/jobs`` listing's (offset, limit), limit capped."""
    offset = int_param(params, "offset", 0, minimum=0)
    limit = int_param(params, "limit", DEFAULT_PAGE, minimum=1)
    return offset, min(limit, MAX_PAGE)


def checked_job_id(job_id: str) -> str:
    """``job_id`` if it is safe to hash, route and open; 400 if not."""
    try:
        validate_job_id(job_id)
    except ArchiveError as exc:
        raise _BadRequest(str(exc)) from None
    return job_id


def submission_kind(
    params: Mapping[str, str], headers: Mapping[str, str],
) -> str:
    """What a ``POST /jobs`` body is: the ``kind`` parameter, else
    inferred from the content type (``text/plain`` is a raw log)."""
    kind = params.get("kind")
    if kind is None:
        content_type = headers.get(
            "Content-Type", "application/json"
        ).split(";")[0].strip().lower()
        kind = "log" if content_type == "text/plain" else "archive"
    return kind


def fleet_request(
    op: str, params: Mapping[str, str], method: str, body: bytes,
) -> Tuple[FleetPlan, Samples]:
    """Parse one fleet request into (plan, include_samples).

    ``GET /fleet/{op}`` carries the plan as flat parameters, ``POST
    /fleet/query`` as a JSON document naming its own op.  ``samples``
    is the cluster router's internal knob: groups additionally carry
    their sorted value vectors (regressions their per-job shares) so
    the answer can be recomputed exactly across shards.  The router
    itself sends ``"samples": "packed"`` (:data:`PACKED`): the vectors
    then travel as packed float64 rather than JSON float lists.
    """
    if method == "POST":
        try:
            document = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise _BadRequest(
                f"body is not valid JSON ({exc})"
            ) from None
        include_samples = False
        if isinstance(document, dict):
            document = dict(document)
            samples = document.pop("samples", False)
            include_samples = (
                PACKED if samples == PACKED else bool(samples)
            )
        return FleetPlan.from_json(document), include_samples
    params = dict(params)
    include_samples = params.pop("samples", "").lower() in ("1", "true")
    return FleetPlan.from_params(params, op=op), include_samples


def conditional_json(
    document: Any, headers: Mapping[str, str],
) -> Response:
    """``document`` as a 200 whose ETag is its content digest, or a
    304 when the client's ``If-None-Match`` already names it.

    For answers whose identity is their content (listings, merged
    fan-outs): the digest of the canonical document revalidates as
    long as nothing it was computed from changed.
    """
    canonical = json.dumps(document, sort_keys=True,
                           separators=(",", ":"))
    etag = _etag_of(
        hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    )
    if _etag_matches(headers.get("If-None-Match"), etag):
        return Response(304, headers={"ETag": etag})
    return json_response(200, document, etag=etag)


class ArchiveService(ServiceContract):
    """Answers service requests from one archive store."""

    def __init__(
        self,
        store: ArchiveStore,
        cache_size: int = 64,
        ingest: Optional[IngestPipeline] = None,
        live: Optional[LiveJobRegistry] = None,
        live_heartbeat: float = DEFAULT_HEARTBEAT,
    ):
        self.store = store
        self.cache = ArchiveCache(cache_size)
        self.metrics = ServiceMetrics()
        #: Write path; ``None`` keeps the PR 5 read-only behaviour
        #: (every non-GET answers 405).
        self.ingest = ingest
        #: Live monitors published by an in-process workload runner;
        #: ``None`` still serves ``/jobs/{id}/live`` for stored jobs
        #: as a degenerate one-snapshot stream.
        self.live = live
        self.live_heartbeat = live_heartbeat

    def _on_request(self) -> None:
        if self.ingest is not None and self.ingest.chaos is not None:
            self.ingest.chaos.on("request")

    # -- endpoints ---------------------------------------------------------

    def _healthz(self, request: Request) -> Response:
        self.store.refresh()
        document: Dict[str, Any] = {
            "status": "ok",
            "jobs": len(self.store),
            "store": str(self.store.directory),
        }
        if self.ingest is not None:
            health = self.ingest.health()
            document["status"] = health.pop("state")
            document["writes"] = health
        else:
            document["writes"] = {"writes_enabled": False,
                                  "reason": "read-only service"}
        return json_response(200, document)

    def _metrics(self, request: Request) -> Response:
        return json_response(200, self.metrics.snapshot(
            self.cache.stats(),
            self.ingest.stats() if self.ingest is not None else None,
        ))

    def _submit(self, request: Request) -> Response:
        if self.ingest is None:
            return error_response(
                405, "writes are disabled (read-only service)"
            )
        params = request.params
        overwrite = params.get("overwrite", "").lower() in ("1", "true")
        try:
            document = self.ingest.submit(
                request.body,
                kind=submission_kind(params, request.headers),
                job_id=params.get("job_id"),
                overwrite=overwrite,
            )
        except IngestOverloadError as exc:
            return _rejection(429, exc)
        except IngestUnavailableError as exc:
            return _rejection(503, exc)
        except IngestError as exc:
            return error_response(400, str(exc))
        return json_response(202, document)

    def _ingest_status(self, request: Request) -> Response:
        tracking_id = request.parts[1]
        if self.ingest is None:
            return error_response(
                404, "no ingestion on a read-only service"
            )
        document = self.ingest.status(tracking_id)
        if document is None:
            return error_response(
                404,
                f"unknown tracking id {tracking_id!r} (statuses are "
                f"kept in memory; a restart forgets completed ones)",
            )
        return json_response(200, document)

    def _jobs(self, request: Request) -> Response:
        params = request.params
        offset, limit = page_window(params)
        self.store.refresh()
        job_ids = self.store.list(
            platform=params.get("platform"),
            algorithm=params.get("algorithm"),
            dataset=params.get("dataset"),
        )
        page = job_ids[offset:offset + limit]
        jobs = [
            dict(self.store.summary(job_id), job_id=job_id)
            for job_id in page
        ]
        return conditional_json({
            "total": len(job_ids),
            "offset": offset,
            "limit": limit,
            "jobs": jobs,
        }, request.headers)

    def _fleet(self, request: Request) -> Response:
        """``GET /fleet/{query,series,regressions}`` and ``POST
        /fleet/query``: run (or revalidate / serve cached) one plan.

        The ETag digests the store's listing checksum together with the
        canonical plan: any archive added, removed, or rewritten — or
        any different plan — changes it, so a ``304`` is exactly as
        fresh as the fleet itself.

        The result cache is keyed by the plan alone and each entry
        carries the digest it was computed under: a warm repeat on an
        unchanged store is served without a scan, and a store change
        *replaces* the plan's entry instead of stranding the old result
        (a sample-bearing shard document holds every operation's value)
        until LRU eviction finds it.

        Uploads acknowledged before the request are applied first
        (waiting at most :data:`FLEET_WRITE_WAIT_S`, and not at all
        while ingestion is degraded): the answer, its ETag and whether
        the cache can serve it then follow from the order of requests,
        not from how far the drain thread happened to get — and the
        scan does not share the interpreter with a drain in flight.
        """
        plan, include_samples = fleet_request(
            request.parts[1], request.params, request.method, request.body
        )
        if self.ingest is not None:
            self.ingest.wait_applied(FLEET_WRITE_WAIT_S)
        self.store.refresh()
        flag = PACKED if include_samples == PACKED else int(include_samples)
        plan_key = f"{plan.canonical()}|samples={flag}"
        identity = hashlib.sha256(
            f"{self.store.listing_checksum()}|{plan_key}".encode("utf-8")
        ).hexdigest()
        etag = _etag_of(identity)
        if _etag_matches(request.headers.get("If-None-Match"), etag):
            return Response(304, headers={"ETag": etag})
        cache_key = f"fleet:{plan_key}"
        document = self.cache.get_current(cache_key, identity)
        if document is None:
            document = run_fleet_query(
                self.store, plan, include_samples=include_samples
            )
            self.cache.put(cache_key, (identity, document))
        return json_response(200, document, etag=etag)

    def _job_summary(self, request: Request) -> Response:
        job_id = request.parts[1]
        checksum = self._checksum(job_id)
        etag = _etag_of(checksum)
        if _etag_matches(request.headers.get("If-None-Match"), etag):
            return Response(304, headers={"ETag": etag})
        self.store.refresh()
        summary = self.store.summary(job_id)
        return json_response(
            200,
            dict(summary, job_id=job_id, checksum=checksum),
            etag=etag,
        )

    def _job_query(self, request: Request) -> Response:
        job_id, params = request.parts[1], request.params
        agg = params.get("agg", "total")
        if agg not in AGGREGATIONS:
            raise _BadRequest(
                f"unknown agg {agg!r}; expected one of "
                f"{', '.join(AGGREGATIONS)}",
            )
        metric = params.get("metric", "Duration")
        checksum = self._checksum(job_id)
        etag = _etag_of(checksum)
        if _etag_matches(request.headers.get("If-None-Match"), etag):
            return Response(304, headers={"ETag": etag})

        query = self._query_surface(job_id, checksum)
        if "path" in params:
            query = query.path(params["path"])
        if "mission" in params:
            query = query.mission(params["mission"])
        if "actor" in params:
            query = query.actor(params["actor"])
        if "iteration" in params:
            query = query.iteration(int_param(params, "iteration", 0))
        result = self._aggregate(query, agg, metric, params)
        return json_response(200, {
            "job_id": job_id,
            "checksum": checksum,
            "selection": len(query),
            "agg": agg,
            "metric": metric,
            "result": result,
        }, etag=etag)

    def _query_surface(self, job_id: str,
                       checksum: str) -> ColumnarArchiveView:
        """The archive's column view, cached per payload checksum.

        The zero-copy view over the ``.gcol`` sidecar when one is
        usable, else a view over the JSON document's own columns — the
        same query core either way, so every selector and aggregation
        answers identically.
        """
        view_key = f"gcol:{checksum}"
        view = self.cache.get(view_key)
        if view is None:
            view = self.store.columnar_view(job_id)
            if view is None:
                view = document_view(self.store.handle(job_id).document)
            self.cache.put(view_key, view)
        return view

    def _aggregate(
        self,
        query: ColumnarArchiveView,
        agg: str,
        metric: str,
        params: Dict[str, str],
    ) -> Any:
        if agg == "count":
            return len(query)
        if agg == "total":
            return query.total(metric)
        if agg == "mean":
            return query.mean(metric)
        if agg == "durations":
            return query.durations()
        if agg == "values":
            return query.values(metric)
        if agg == "top":
            n = int_param(params, "n", 5, minimum=1)
            return query.top_records(metric, n)
        return query.operation_records()

    def _job_report(self, request: Request) -> Response:
        job_id = request.parts[1]
        fmt = request.params.get("format", "text")
        if fmt not in ("text", "html"):
            raise _BadRequest(
                f"unknown format {fmt!r}; expected text or html",
            )
        monitor = self.live.get(job_id) if self.live is not None else None
        live_url = None
        if monitor is not None and not monitor.is_complete:
            live_url = f"/jobs/{job_id}/live"
        try:
            checksum = self._checksum(job_id)
        except ArchiveError:
            # Not stored yet: a running job can still be reported from
            # its latest live snapshot (no ETag — it is a moving target).
            snap = monitor.snapshot() if monitor is not None else None
            if snap is None:
                raise
            archive = archive_from_json(snap.body.decode("utf-8"))
            return self._render_report(archive, fmt, live_url, etag=None)
        etag = _etag_of(checksum)
        if live_url is None and _etag_matches(
            request.headers.get("If-None-Match"), etag
        ):
            return Response(304, headers={"ETag": etag})
        archive = self._archive(job_id, checksum)
        return self._render_report(
            archive, fmt, live_url, etag=None if live_url else etag
        )

    def _render_report(
        self,
        archive: PerformanceArchive,
        fmt: str,
        live_url: Optional[str],
        etag: Optional[str],
    ) -> Response:
        if fmt == "html":
            body = render_report_html([archive], live_url=live_url)
            content_type = "text/html; charset=utf-8"
        else:
            body = render_report_text(archive)
            content_type = "text/plain; charset=utf-8"
        headers = {"ETag": etag} if etag else {}
        return Response(
            200, body.encode("utf-8"), content_type, headers
        )

    def _job_live(self, request: Request) -> StreamingResponse:
        """``GET /jobs/{id}/live``: the job's snapshot stream as SSE.

        Event ids are snapshot sequence numbers, so a reconnecting
        client's ``Last-Event-ID`` resumes exactly where it left off.
        A job without a live monitor degrades to a one-snapshot stream
        of the stored archive bytes followed by ``complete`` — the
        static case is just a stream that is already over.
        """
        job_id = checked_job_id(request.parts[1])
        last_id = _last_event_id(request.headers, request.params)
        monitor = self.live.get(job_id) if self.live is not None else None
        if monitor is not None:
            chunks = self._live_events(monitor, last_id)
        else:
            body = self._stored_body(job_id)
            chunks = _stored_events(job_id, body, last_id)
        return StreamingResponse(
            200,
            chunks,
            "text/event-stream",
            {"Cache-Control": "no-store", "X-Accel-Buffering": "no"},
        )

    def _stored_body(self, job_id: str) -> bytes:
        """The stored archive's raw bytes (404 via ArchiveError)."""
        self._checksum(job_id)
        return self.store.handle(job_id).path.read_bytes()

    def _live_events(
        self, monitor: LiveMonitor, last_id: int,
    ) -> Iterator[bytes]:
        """SSE event stream over one live monitor.

        Heartbeat comments are emitted whenever no snapshot lands
        within ``live_heartbeat`` seconds, so idle streams survive
        proxy idle timeouts.  Stream accounting happens here — inside
        the generator — so an aborted (never-consumed or disconnected)
        stream still balances its open/close pair via ``close()``.
        """
        registry = self.live
        if registry is not None:
            registry.stream_opened()
        try:
            yield sse_comment(f"live stream for {monitor.job_id}")
            since = last_id
            while True:
                snap = monitor.wait(since, timeout=self.live_heartbeat)
                if snap is None:
                    if monitor.is_complete:
                        # Aborted before any snapshot existed.
                        yield sse_event(
                            complete_payload(monitor), event="complete"
                        )
                        return
                    yield sse_comment()
                    continue
                if snap.seq > since:
                    yield sse_event(
                        snap.body, event="snapshot", event_id=snap.seq
                    )
                    since = snap.seq
                if snap.complete or monitor.is_complete:
                    yield sse_event(
                        complete_payload(monitor), event="complete"
                    )
                    return
        finally:
            if registry is not None:
                registry.stream_closed()

    # -- shared helpers ----------------------------------------------------

    def _checksum(self, job_id: str) -> str:
        """The job's payload checksum; 400 on unsafe ids, 404 if absent."""
        checked_job_id(job_id)
        try:
            return self.store.checksum(job_id)
        except ArchiveError:
            # The file may have appeared after our index snapshot.
            if self.store.refresh():
                return self.store.checksum(job_id)
            raise

    def _archive(self, job_id: str, checksum: str) -> PerformanceArchive:
        """Materialize via the checksum-keyed cache."""
        archive = self.cache.get(checksum)
        if archive is None:
            archive = self.store.handle(job_id).archive()
            self.cache.put(checksum, archive)
        return archive


def _stored_events(
    job_id: str, body: bytes, last_id: int,
) -> Iterator[bytes]:
    """Degenerate SSE stream for a job that is already archived."""
    yield sse_comment(f"stored archive for {job_id}")
    final_seq = 1
    if last_id < final_seq:
        yield sse_event(body, event="snapshot", event_id=final_seq)
    payload = json.dumps(
        {"job_id": job_id, "final_seq": final_seq, "error": None},
        separators=(",", ":"),
    ).encode("utf-8")
    yield sse_event(payload, event="complete")


def _last_event_id(
    headers: Mapping[str, str], params: Mapping[str, str],
) -> int:
    """The resume point: ``Last-Event-ID`` header or query fallback.

    Malformed values mean "from the beginning" — SSE clients send the
    header automatically on reconnect, so strictness buys nothing.
    Header names are matched case-insensitively: ``http.client``
    title-cases them on the wire (``Last-Event-Id``).
    """
    raw = ""
    for name, value in headers.items():
        if name.lower() == "last-event-id":
            raw = value
            break
    if not raw:
        raw = params.get("last_event_id") or ""
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


__all__ = [
    "ArchiveService",
    "ServiceContract",
    "Request",
    "Response",
    "StreamingResponse",
    "AnyResponse",
    "AGGREGATIONS",
    "ROUTES",
    "resolve_route",
    "int_param",
    "page_window",
    "checked_job_id",
    "submission_kind",
    "fleet_request",
    "conditional_json",
    "json_response",
    "error_response",
]
