"""Request metrics for the archive query service.

Thread-safe counters and latency reservoirs, snapshotted by the
``/metrics`` endpoint.  Latencies keep a bounded window per endpoint
(the most recent observations), enough for meaningful percentiles
without unbounded growth in a long-lived server.

Endpoint labels are a **closed set**: anything outside
:data:`KNOWN_ENDPOINTS` is collapsed into one ``other`` bucket.
Without that, a random-path scan (every ``/jobs/<noise>`` 404, every
probe for ``/wp-admin``) would mint a fresh label — and a fresh
2048-observation latency window — per unique path, growing ``/metrics``
without bound (a classic cardinality leak).
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Any, Deque, Dict, FrozenSet, Optional

from repro.core.analysis.fleet import percentile_of

#: Latency observations retained per endpoint.
WINDOW = 2048

#: Percentiles reported by :meth:`ServiceMetrics.snapshot`.
PERCENTILES = (50, 90, 99)

#: Every endpoint label the service emits; all else becomes "other".
KNOWN_ENDPOINTS: FrozenSet[str] = frozenset({
    "/healthz",
    "/metrics",
    "/jobs",
    "/jobs/{id}",
    "/jobs/{id}/query",
    "/jobs/{id}/report",
    "/jobs/{id}/live",
    "POST /jobs",
    "/ingest/{id}",
    "/fleet/query",
    "/fleet/series",
    "/fleet/regressions",
    "POST /fleet/query",
    "other",
})


class ServiceMetrics:
    """Counts, status codes, and latency percentiles per endpoint."""

    def __init__(
        self, known_endpoints: Optional[FrozenSet[str]] = None,
    ) -> None:
        self._known = (
            KNOWN_ENDPOINTS if known_endpoints is None
            else frozenset(known_endpoints) | {"other"}
        )
        self._lock = threading.Lock()
        self._requests: Counter = Counter()
        self._statuses: Counter = Counter()
        self._not_modified = 0
        self._latencies: Dict[str, Deque[float]] = {}

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one handled request (unknown labels -> ``other``)."""
        if endpoint not in self._known:
            endpoint = "other"
        with self._lock:
            self._requests[endpoint] += 1
            self._statuses[str(status)] += 1
            if status == 304:
                self._not_modified += 1
            window = self._latencies.setdefault(
                endpoint, deque(maxlen=WINDOW)
            )
            window.append(seconds)

    def snapshot(
        self,
        cache_stats: Dict[str, Any],
        ingest_stats: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The ``/metrics`` document."""
        with self._lock:
            latency = {}
            for endpoint, window in self._latencies.items():
                ordered = sorted(window)
                latency[endpoint] = {
                    f"p{p}_ms": percentile_of(ordered, p) * 1000.0
                    for p in PERCENTILES
                }
            document: Dict[str, Any] = {
                "requests_total": sum(self._requests.values()),
                "requests_by_endpoint": dict(self._requests),
                "responses_by_status": dict(self._statuses),
                "not_modified_total": self._not_modified,
                "latency_ms": latency,
                "cache": dict(cache_stats),
            }
        if ingest_stats is not None:
            document["ingest"] = ingest_stats
        return document
