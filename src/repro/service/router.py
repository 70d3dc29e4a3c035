"""Consistent-hash request routing for the clustered archive service.

:class:`ClusterService` is the front tier's transport-independent
brain: the same :class:`repro.service.app.ServiceContract` as the
single-store :class:`~repro.service.app.ArchiveService` — one route
table, one dispatch, one request codec — so the stdlib HTTP layer in
:mod:`repro.service.server` hosts either one unchanged and a route
cannot answer differently on the two tiers.  What lives here is what
only a router does: placement, proxying and fan-out.  It owns no
archives itself: every job id maps onto one of N shard workers through
a :class:`ConsistentHashRing`, and requests are proxied over loopback
HTTP to the owner shard (the transport is an injectable callable, so
routing logic is unit-testable with in-process fakes and zero sockets).

Failure semantics are *partial*, never total:

- a request whose owner shard is down answers ``503`` with a
  ``Retry-After`` derived from the supervisor's restart schedule,
  while requests owned by healthy shards keep answering ``200``;
- the fan-out endpoints (``/jobs``, ``/ingest/{id}``, ``/healthz``,
  ``/metrics``) merge whatever the live shards return and name the
  missing ones in a ``degraded_shards`` field rather than failing the
  whole response.

Placement is deterministic: shard ``s``'s vnode ``v`` sits at
``sha256("{s:04d}:{v:04d}")`` and a key at ``sha256(job_id)``, both
truncated to 64 bits — so the mapping is stable across restarts,
processes, and platforms, which is what makes "the same job id always
lands on the same shard store" a durable property rather than a
per-process accident.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import urllib.error
import urllib.parse
import urllib.request
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple,
)

from repro.core.analysis.fleet import merge_fleet_documents
from repro.errors import ServiceError, ShardUnavailableError
from repro.service.app import (
    AnyResponse,
    Request,
    Response,
    ServiceContract,
    StreamingResponse,
    _BadRequest,
    checked_job_id,
    conditional_json,
    error_response,
    fleet_request,
    json_response,
    page_window,
    submission_kind,
)
from repro.service.chaos import ChaosController
from repro.service.metrics import ServiceMetrics
from repro.service.supervisor import ShardSupervisor

#: Minimum vnodes per shard; fewer makes placement visibly lumpy.
MIN_VNODES = 64

#: A transport proxies one request to one shard worker and returns its
#: transport-agnostic Response (or a StreamingResponse for event
#: streams).  Signature:
#: ``(base_url, path, params, headers, method, body, timeout)``.
Transport = Callable[
    [str, str, Mapping[str, str], Mapping[str, str], str, bytes, float],
    AnyResponse,
]

#: Request headers the router forwards to shard workers verbatim.
#: ``Last-Event-ID`` keeps SSE resume working through the proxy.
_FORWARD_HEADERS = ("Content-Type", "If-None-Match", "Last-Event-ID")

#: Response headers the router passes back to the client verbatim.
_RETURN_HEADERS = ("ETag", "Retry-After")


class ConsistentHashRing:
    """Deterministic 64-bit consistent-hash ring over N shards."""

    def __init__(self, shard_count: int, vnodes: int = MIN_VNODES):
        if shard_count < 1:
            raise ServiceError("a hash ring needs at least one shard")
        if vnodes < MIN_VNODES:
            raise ServiceError(
                f"vnodes={vnodes} is below the minimum {MIN_VNODES}; "
                f"coarse rings skew keyspace ownership"
            )
        self.shard_count = shard_count
        self.vnodes = vnodes
        points = []
        for shard in range(shard_count):
            for vnode in range(vnodes):
                token = f"{shard:04d}:{vnode:04d}".encode("ascii")
                point = int.from_bytes(
                    hashlib.sha256(token).digest()[:8], "big"
                )
                points.append((point, shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (clockwise successor, wrapping)."""
        point = int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
        )
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def spread(self, keys) -> Dict[int, int]:
        """Keys-per-shard histogram (placement diagnostics/tests)."""
        histogram: Dict[int, int] = {
            shard: 0 for shard in range(self.shard_count)
        }
        for key in keys:
            histogram[self.shard_for(key)] += 1
        return histogram


def http_transport(
    base_url: str,
    path: str,
    params: Mapping[str, str],
    headers: Mapping[str, str],
    method: str,
    body: bytes,
    timeout: float,
) -> Response:
    """Default transport: proxy over loopback HTTP via urllib.

    Raises :class:`OSError` (``URLError`` included) when the worker is
    unreachable; HTTP error statuses — including ``304`` — come back as
    ordinary :class:`Response` objects, exactly like a local handler.
    """
    query = urllib.parse.urlencode(dict(params))
    url = base_url + path + (f"?{query}" if query else "")
    request = urllib.request.Request(
        url,
        data=body if method == "POST" else None,
        method=method,
    )
    # Case-insensitive match: http.client title-cases header names on
    # the wire (``Last-Event-ID`` arrives as ``Last-Event-Id``).
    lowered = {name.lower(): value for name, value in headers.items()}
    for name in _FORWARD_HEADERS:
        value = lowered.get(name.lower())
        if value is not None:
            request.add_header(name, value)
    try:
        reply = urllib.request.urlopen(request, timeout=timeout)
        content_type = reply.headers.get(
            "Content-Type", "application/json"
        )
        if content_type.split(";")[0].strip().lower() == \
                "text/event-stream":
            # Event streams are proxied incrementally: the worker's
            # connection stays open and each SSE line is forwarded as
            # it arrives, instead of buffering the whole (unbounded)
            # body.  The generator owns the reply and closes it when
            # the client-side stream ends or disconnects.
            return StreamingResponse(
                reply.status,
                _relay_stream(reply),
                content_type,
                {name: reply.headers[name] for name in _RETURN_HEADERS
                 if name in reply.headers},
            )
        with reply:
            return Response(
                reply.status,
                reply.read(),
                content_type,
                {name: reply.headers[name] for name in _RETURN_HEADERS
                 if name in reply.headers},
            )
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        return Response(
            exc.code,
            payload,
            exc.headers.get("Content-Type", "application/json"),
            {name: exc.headers[name] for name in _RETURN_HEADERS
             if name in exc.headers},
        )


def _relay_stream(reply) -> Iterator[bytes]:
    """Forward an upstream SSE body line by line (SSE is line-framed)."""
    try:
        while True:
            line = reply.readline()
            if not line:
                return
            yield line
    finally:
        reply.close()


class ClusterService(ServiceContract):
    """Routes requests across shard workers behind one supervisor."""

    def __init__(
        self,
        supervisor: ShardSupervisor,
        vnodes: int = MIN_VNODES,
        transport: Optional[Transport] = None,
        chaos: Optional[ChaosController] = None,
        request_timeout: float = 30.0,
    ):
        self.supervisor = supervisor
        self.ring = ConsistentHashRing(len(supervisor), vnodes)
        self.metrics = ServiceMetrics()
        self.chaos = chaos
        self.request_timeout = request_timeout
        self._transport: Transport = transport or http_transport

    # -- shard proxying ----------------------------------------------------

    def _proxy(
        self,
        shard: int,
        path: str,
        params: Mapping[str, str],
        headers: Mapping[str, str],
        method: str,
        body: bytes,
    ) -> AnyResponse:
        """Forward one request to one shard or raise ShardUnavailable."""
        if self.chaos is not None:
            try:
                self.chaos.on("route", shard=shard)
            except TimeoutError as exc:
                self.supervisor.record_failure(shard, str(exc))
                raise self._unavailable(shard, str(exc)) from exc
        base_url = self.supervisor.endpoint(shard)
        if base_url is None:
            raise self._unavailable(
                shard,
                f"shard {shard} is {self.supervisor.state(shard)}",
            )
        try:
            return self._transport(
                base_url, path, params, headers, method, body,
                self.request_timeout,
            )
        except OSError as exc:
            # Connection refused / reset / timed out: the supervisor
            # hears about it now instead of at the next probe tick.
            self.supervisor.record_failure(shard, str(exc))
            raise self._unavailable(
                shard, f"shard {shard} unreachable: {exc}"
            ) from exc

    def _unavailable(self, shard: int,
                     reason: str) -> ShardUnavailableError:
        return ShardUnavailableError(
            f"{reason}; its keyspace is retrying "
            f"({len(self.supervisor.degraded()) or 1} of "
            f"{len(self.supervisor)} shards affected)",
            shard=shard,
            retry_after=self.supervisor.retry_after(shard),
        )

    # -- routed endpoints --------------------------------------------------

    def _per_job(self, request: Request) -> AnyResponse:
        """Per-job endpoints: one owner shard, straight proxy."""
        return self._to_owner(request.parts[1], request)

    _job_summary = _job_query = _job_report = _job_live = _per_job

    def _submit(self, request: Request) -> AnyResponse:
        return self._to_owner(self._routing_key(request), request)

    def _to_owner(self, job_id: str, request: Request) -> AnyResponse:
        shard = self.ring.shard_for(checked_job_id(job_id))
        return self._proxy(shard, request.path, request.params,
                           request.headers, request.method, request.body)

    def _routing_key(self, request: Request) -> str:
        """The job id a write routes by (400 when there is none).

        An explicit ``job_id`` parameter wins.  Archive submissions
        carry their id in the document's top-level ``job_id`` field, so
        reads after the 202 route to the same shard.  Raw-log salvage
        *derives* its id inside the worker — the router cannot know it
        up front, so cluster mode requires ``job_id`` on ``kind=log``.
        """
        explicit = request.params.get("job_id")
        if explicit:
            return explicit
        if submission_kind(request.params, request.headers) != "archive":
            raise _BadRequest(
                "cluster mode needs an explicit job_id parameter for "
                "kind=log submissions (the salvage-derived id is not "
                "known until a worker parses the log)"
            )
        try:
            embedded = json.loads(request.body).get("job_id")
        except (ValueError, AttributeError):
            embedded = None
        if not isinstance(embedded, str) or not embedded:
            raise _BadRequest(
                "archive submission has no routable job id: pass a "
                "job_id parameter or include a top-level job_id field"
            )
        return embedded

    # -- fan-out endpoints -------------------------------------------------

    def _fan_out(
        self, ask: Callable[[int], Any],
    ) -> Tuple[Dict[int, Any], List[int]]:
        """``ask(shard)`` of every shard in order: (answers by shard,
        the unreachable shards) — a dead shard degrades a fan-out,
        never fails it."""
        answers: Dict[int, Any] = {}
        degraded: List[int] = []
        for shard in range(len(self.supervisor)):
            try:
                answers[shard] = ask(shard)
            except ShardUnavailableError:
                degraded.append(shard)
        return answers, degraded

    def _jobs(self, request: Request) -> Response:
        offset, limit = page_window(request.params)
        # Do not forward the client's validator: shard-local ETags
        # cannot match the merged document's.
        headers = {k: v for k, v in request.headers.items()
                   if k != "If-None-Match"}
        listings, degraded = self._fan_out(
            lambda shard: self._shard_listing(
                shard, request, headers, offset + limit
            )
        )
        total = 0
        merged: List[Dict[str, Any]] = []
        for shard, listing in listings.items():
            if listing is None:
                degraded.append(shard)
                continue
            total += listing[0]
            merged.extend(listing[1])
        # Shard listings are each sorted; the merged view re-sorts by
        # job_id so pagination is stable across shard boundaries.
        merged.sort(key=lambda job: job.get("job_id", ""))
        return conditional_json({
            "total": total,
            "offset": offset,
            "limit": limit,
            "jobs": merged[offset:offset + limit],
            "degraded_shards": sorted(degraded),
        }, request.headers)

    def _shard_listing(
        self,
        shard: int,
        request: Request,
        headers: Dict[str, str],
        need: int,
    ) -> Optional[Tuple[int, List[Dict[str, Any]]]]:
        """(total, first ``need`` rows) of one shard's listing.

        The merged page ``[offset, offset+limit)`` can only draw on each
        shard's first ``offset+limit`` rows, but a shard caps every
        answer at its own page limit — so page through it until the
        rows are covered or the shard runs out.  ``None`` when the shard
        answers anything but 200.
        """
        rows: List[Dict[str, Any]] = []
        while True:
            params = dict(request.params, offset=str(len(rows)),
                          limit=str(need - len(rows)))
            reply = self._proxy(shard, request.path, params, headers,
                                "GET", b"")
            if reply.status != 200:
                return None
            document = reply.json()
            total = document.get("total", 0)
            page = document.get("jobs", [])
            rows.extend(page)
            if not page or len(rows) >= min(need, total):
                return total, rows

    def _fleet(self, request: Request) -> Response:
        """Fleet analytics across every shard's store, merged exactly.

        The plan is parsed at the router (client errors never fan out),
        then forwarded to each shard as ``POST /fleet/query`` with the
        canonical plan document — one forwarding path for GET and POST
        alike.  Shards are asked for their raw material whenever the
        merge needs it: sorted sample vectors for percentiles, per-job
        mission shares for regressions (cohorts span shards, so
        shard-local σ would judge partial cohorts).  Unreachable shards
        degrade the answer, never fail it.
        """
        plan, client_samples = fleet_request(
            request.parts[1], request.params, request.method, request.body
        )
        shard_document = dict(plan.to_document())
        if (plan.needs_values or client_samples
                or plan.op == "regressions"):
            shard_document["samples"] = True
        shard_body = json.dumps(
            shard_document, sort_keys=True
        ).encode("utf-8")
        replies, degraded = self._fan_out(
            lambda shard: self._proxy(
                shard, "/fleet/query", {},
                {"Content-Type": "application/json"}, "POST", shard_body,
            )
        )
        documents: List[Dict[str, Any]] = []
        for shard, reply in replies.items():
            if reply.status != 200:
                degraded.append(shard)
            else:
                documents.append(reply.json())
        merged = merge_fleet_documents(plan, documents, client_samples)
        merged["degraded_shards"] = sorted(degraded)
        return conditional_json(merged, request.headers)

    def _ingest_status(self, request: Request) -> Response:
        """Tracking ids are worker-local, so ask everyone: first 200
        wins; all-degraded is a 503, all-miss a 404."""
        responses, degraded = self._fan_out(
            lambda shard: self._proxy(
                shard, request.path, {}, request.headers, "GET", b""
            )
        )
        for response in responses.values():
            if response.status == 200:
                return response
        if not responses:
            raise ShardUnavailableError(
                "no shard is reachable to resolve the tracking id",
                shard=-1,
                retry_after=max(
                    (self.supervisor.retry_after(s) for s in degraded),
                    default=1.0,
                ),
            )
        return error_response(
            404,
            f"unknown tracking id {request.parts[1]!r} on any reachable "
            f"shard (degraded: {sorted(degraded)})",
        )

    def _healthz(self, request: Request) -> Response:
        shards: List[Dict[str, Any]] = []
        all_ok = True
        for index in range(len(self.supervisor)):
            state = self.supervisor.state(index)
            entry: Dict[str, Any] = {
                "shard": index,
                "state": state,
                "pid": self.supervisor.worker_pid(index),
                "store": str(self.supervisor.shard_directory(index)),
            }
            if state in ("live", "suspect"):
                try:
                    reply = self._proxy(index, "/healthz", {}, {},
                                        "GET", b"")
                    entry["health"] = reply.json()
                    entry["status"] = entry["health"].get("status",
                                                          "unknown")
                except (ShardUnavailableError, ValueError):
                    entry["status"] = "unreachable"
            else:
                entry["status"] = state
            if entry["status"] != "ok" or state != "live":
                all_ok = False
            shards.append(entry)
        return json_response(200, {
            "status": "ok" if all_ok else "degraded",
            "workers": len(self.supervisor),
            "degraded_shards": self.supervisor.degraded(),
            "shards": shards,
        })

    def _metrics(self, request: Request) -> Response:
        document: Dict[str, Any] = {
            "router": self.metrics.snapshot({}),
            "supervisor": self.supervisor.stats(),
            "shards": {},
        }
        for index in range(len(self.supervisor)):
            if self.supervisor.state(index) not in ("live", "suspect"):
                continue
            try:
                reply = self._proxy(index, "/metrics", {}, {},
                                    "GET", b"")
                document["shards"][str(index)] = reply.json()
            except (ShardUnavailableError, ValueError):
                continue
        return json_response(200, document)


__all__ = [
    "ClusterService",
    "ConsistentHashRing",
    "MIN_VNODES",
    "Transport",
    "http_transport",
]
