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

The shard hop pays for what the merge needs and no more:

- the default transport, :class:`ShardPool`, keeps idle keep-alive
  connections per shard and retries once, on a fresh socket, when a
  reused one turns out to be closed; a shard's idle connections are
  dropped when it fails or the supervisor moves it to a new port;
- a fan-out asks every shard at once on a thread per shard, then
  reads the answers back in shard order, so merges stay deterministic;
- a fleet fan-out asks for ``"samples": "packed"``: each group's sorted
  vector arrives as base64 of little-endian float64, which a shard
  encodes and the router decodes in milliseconds, where ~70 000 float
  reprs per shard cost a JSON render and a JSON parse each.  The
  client's answer is the same document a single store gives.

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
import http.client
import json
import socket
import threading
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple,
)

from repro.core.analysis.fleet import PACKED, merge_fleet_documents
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

#: Idle keep-alive connections kept per shard; a burst of more
#: concurrent requests closes its extra connections when it ends.
MAX_IDLE = 8


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


class _ShardConnection(http.client.HTTPConnection):
    """A loopback connection that sends without Nagle's delay: a POST's
    headers and body go out as two writes, and on a reused socket the
    second would wait out the worker's delayed ACK."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _StaleConnection(Exception):
    """A reused connection failed before any response byte."""


class ShardPool:
    """The default :data:`Transport`: keep-alive HTTP to shard workers.

    Idle connections wait on one stack per base URL (most recently
    used first) and are reused by the next request to that URL, so a
    routed request pays no TCP handshake and a fan-out no connection
    per shard.  A reused connection the worker has since closed (its
    idle-socket timeout) fails before any response byte: the request
    is then retried once, on a fresh socket.  That is safe for a POST
    too, because a worker stores a resubmitted archive with the same
    checksum exactly once (``IngestPipeline._resolve_duplicate``).  A
    failure on a fresh connection raises :class:`OSError`, which the
    router counts against the shard.

    Event streams are relayed on a connection that never goes back to
    the stack; the relay closes it when the stream ends.  A reply that
    closes its connection, and anything beyond :data:`MAX_IDLE` per
    URL, is closed instead of kept.  HTTP error statuses — ``304``
    included — come back as ordinary :class:`Response` objects,
    exactly like a local handler's.
    """

    def __init__(self) -> None:
        #: Requests that went out again after a stale reused socket.
        self.retries = 0
        self._idle: Dict[str, List[_ShardConnection]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def __call__(
        self,
        base_url: str,
        path: str,
        params: Mapping[str, str],
        headers: Mapping[str, str],
        method: str,
        body: bytes,
        timeout: float,
    ) -> AnyResponse:
        query = urllib.parse.urlencode(dict(params))
        target = path + (f"?{query}" if query else "")
        # Case-insensitive match: http.client title-cases header names
        # on the wire (``Last-Event-ID`` arrives as ``Last-Event-Id``).
        lowered = {name.lower(): value for name, value in headers.items()}
        forward = {name: lowered[name.lower()] for name in _FORWARD_HEADERS
                   if name.lower() in lowered}
        exchange = (method, target, body if method == "POST" else None,
                    forward, timeout)
        connection = self._checkout(base_url)
        if connection is not None:
            try:
                return self._exchange(base_url, connection, True,
                                      *exchange)
            except _StaleConnection:
                with self._lock:
                    self.retries += 1
        host, port = urllib.parse.urlsplit(base_url).netloc.split(":")
        return self._exchange(
            base_url, _ShardConnection(host, int(port), timeout=timeout),
            False, *exchange,
        )

    def _exchange(
        self,
        base_url: str,
        connection: _ShardConnection,
        reused: bool,
        method: str,
        target: str,
        body: Optional[bytes],
        headers: Dict[str, str],
        timeout: float,
    ) -> AnyResponse:
        connection.timeout = timeout
        if connection.sock is not None:
            connection.sock.settimeout(timeout)
        try:
            connection.request(method, target, body=body, headers=headers)
            reply = connection.getresponse()
        except (OSError, http.client.HTTPException) as exc:
            # A ConnectionError (http.client.RemoteDisconnected: closed
            # with no status line) on a reused socket means the worker
            # had already let it go.
            if reused and isinstance(exc, ConnectionError):
                connection.close()
                raise _StaleConnection() from exc
            raise _failed(connection, exc)
        content_type = reply.getheader("Content-Type", "application/json")
        returned = {name: reply.getheader(name) for name in _RETURN_HEADERS
                    if reply.getheader(name) is not None}
        if content_type.split(";")[0].strip().lower() == \
                "text/event-stream":
            # Event streams are proxied incrementally: each SSE line is
            # forwarded as it arrives, instead of buffering the whole
            # (unbounded) body.  The relay owns the connection.
            return StreamingResponse(
                reply.status, _relay_stream(reply, connection),
                content_type, returned,
            )
        try:
            payload = reply.read()
        except (OSError, http.client.HTTPException) as exc:
            raise _failed(connection, exc)
        if reply.will_close:
            connection.close()
        else:
            self._checkin(base_url, connection)
        return Response(reply.status, payload, content_type, returned)

    def _checkout(self, base_url: str) -> Optional[_ShardConnection]:
        with self._lock:
            idle = self._idle.get(base_url)
            return idle.pop() if idle else None

    def _checkin(self, base_url: str,
                 connection: _ShardConnection) -> None:
        with self._lock:
            idle = self._idle.setdefault(base_url, [])
            if not self._closed and len(idle) < MAX_IDLE:
                idle.append(connection)
                return
        connection.close()

    def idle(self, base_url: str) -> int:
        """How many connections to ``base_url`` wait for reuse."""
        with self._lock:
            return len(self._idle.get(base_url, ()))

    def discard(self, base_url: str) -> None:
        """Close every idle connection to ``base_url`` (its worker
        failed or moved to another port)."""
        with self._lock:
            idle = self._idle.pop(base_url, [])
        for connection in idle:
            connection.close()

    def close(self) -> None:
        """Close every idle connection; later check-ins close too."""
        with self._lock:
            self._closed = True
            urls = list(self._idle)
        for base_url in urls:
            self.discard(base_url)


def _failed(connection: _ShardConnection, exc: Exception) -> OSError:
    """Close ``connection`` after ``exc``; the :class:`OSError` the
    router counts against the shard (a malformed or cut-off reply
    included)."""
    connection.close()
    if isinstance(exc, OSError):
        return exc
    return ConnectionError(f"bad reply from shard worker: {exc!r}")


def _relay_stream(reply, connection) -> Iterator[bytes]:
    """Forward an upstream SSE body line by line (SSE is line-framed)."""
    try:
        while True:
            line = reply.readline()
            if not line:
                return
            yield line
    finally:
        reply.close()
        connection.close()


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
        #: The keep-alive pool when no transport was injected.
        self.pool: Optional[ShardPool] = (
            ShardPool() if transport is None else None
        )
        self._transport: Transport = transport or self.pool
        #: Each shard's endpoint as last proxied to; when the supervisor
        #: reports another, the old one's idle connections are dropped.
        self._endpoints: Dict[int, Optional[str]] = {}
        self._fan_pool = ThreadPoolExecutor(
            max_workers=len(supervisor),
            thread_name_prefix="granula-fan-out",
        )

    def close(self) -> None:
        """Stop the fan-out threads and close every pooled connection."""
        self._fan_pool.shutdown(wait=True)
        if self.pool is not None:
            self.pool.close()

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
                self._record_failure(shard, str(exc))
                raise self._unavailable(shard, str(exc)) from exc
        base_url = self.supervisor.endpoint(shard)
        previous = self._endpoints.get(shard)
        if base_url != previous:
            # Restarted on a new port (or down): the old port's idle
            # sockets lead nowhere.
            self._endpoints[shard] = base_url
            self._drop_idle(previous)
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
            self._record_failure(shard, str(exc))
            raise self._unavailable(
                shard, f"shard {shard} unreachable: {exc}"
            ) from exc

    def _record_failure(self, shard: int, reason: str) -> None:
        self.supervisor.record_failure(shard, reason)
        self._drop_idle(self._endpoints.get(shard))

    def _drop_idle(self, base_url: Optional[str]) -> None:
        if self.pool is not None and base_url is not None:
            self.pool.discard(base_url)

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
        """``ask(shard)`` of every shard at once: (answers by shard,
        the unreachable shards), both in shard order whatever order the
        answers arrived in — a dead shard degrades a fan-out, never
        fails it."""
        futures = [self._fan_pool.submit(ask, shard)
                   for shard in range(len(self.supervisor))]
        answers: Dict[int, Any] = {}
        degraded: List[int] = []
        for shard, future in enumerate(futures):
            try:
                answers[shard] = future.result()
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
            shard_document["samples"] = PACKED
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
        shards, _ = self._fan_out(self._shard_health)
        return json_response(200, {
            "status": "ok" if all(
                entry["status"] == "ok" and entry["state"] == "live"
                for entry in shards.values()
            ) else "degraded",
            "workers": len(self.supervisor),
            "degraded_shards": self.supervisor.degraded(),
            "shards": list(shards.values()),
        })

    def _shard_health(self, index: int) -> Dict[str, Any]:
        """One shard's ``/healthz`` entry: its supervisor state, and
        its own health document when it is up to answer."""
        state = self.supervisor.state(index)
        entry: Dict[str, Any] = {
            "shard": index,
            "state": state,
            "pid": self.supervisor.worker_pid(index),
            "store": str(self.supervisor.shard_directory(index)),
        }
        if state not in ("live", "suspect"):
            entry["status"] = state
            return entry
        health = self._shard_document(index, "/healthz")
        if health is None:
            entry["status"] = "unreachable"
        else:
            entry["health"] = health
            entry["status"] = health.get("status", "unknown")
        return entry

    def _metrics(self, request: Request) -> Response:
        document: Dict[str, Any] = {
            "router": self.metrics.snapshot({}),
            "supervisor": self.supervisor.stats(),
        }
        shards, _ = self._fan_out(
            lambda index: self._shard_document(index, "/metrics")
            if self.supervisor.state(index) in ("live", "suspect")
            else None
        )
        document["shards"] = {str(index): shard
                              for index, shard in shards.items()
                              if shard is not None}
        return json_response(200, document)

    def _shard_document(self, index: int,
                        path: str) -> Optional[Dict[str, Any]]:
        """A shard's JSON answer to ``GET path``; None if unreachable."""
        try:
            return self._proxy(index, path, {}, {}, "GET", b"").json()
        except (ShardUnavailableError, ValueError):
            return None


__all__ = [
    "ClusterService",
    "ConsistentHashRing",
    "MIN_VNODES",
    "ShardPool",
    "Transport",
]
