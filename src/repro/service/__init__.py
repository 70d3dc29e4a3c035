"""The concurrent archive service (``granula serve``).

Exposes an :class:`repro.core.archive.store.ArchiveStore` over HTTP so
archives can be listed, summarized, queried, rendered — and, since the
write tier landed, *ingested*: ``POST /jobs`` accepts raw monitor logs
or serialized archives, lands them durably in a write-ahead log, and
drains them into the store asynchronously, so writes never block reads
and a crash loses nothing that was acknowledged.  With
``--workers N`` the same surface becomes a sharded tier: a front
router consistent-hashes job ids across N supervised worker processes,
so one shard's crash degrades only its own keyspace.

Layers:

- :mod:`repro.service.cache` — in-process LRU archive cache keyed by
  payload checksum, so a rewritten archive never serves stale trees;
- :mod:`repro.service.metrics` — thread-safe request counters, latency
  percentiles (closed endpoint-label set), and cache hit rate behind
  ``/metrics``;
- :mod:`repro.service.wal` — length+sha256-framed, fsync'd,
  segment-rotated write-ahead log: the durability floor under 202;
- :mod:`repro.service.ingest` — bounded ingestion queue, backoff
  retries, dead-letter directory, degraded/draining health states,
  startup WAL replay;
- :mod:`repro.service.backpressure` — the one ``Retry-After`` clamp
  every shedding surface (429s, shard 503s) derives its hint through;
- :mod:`repro.service.chaos` — deterministic service-level fault
  injection (``granula serve --chaos plan.json``), including
  router-level worker kills, probe timeouts, and slow shards;
- :mod:`repro.service.app` — transport-independent request handling
  (routing, filters, pagination, ETag / ``If-None-Match`` 304s,
  202/429/503 write semantics);
- :mod:`repro.service.server` — :class:`http.server.ThreadingHTTPServer`
  wiring with request timeouts, body caps, and graceful draining
  shutdown;
- :mod:`repro.service.supervisor` — forked shard-worker lifecycle:
  heartbeats, ``/healthz`` probes, exponential-backoff restarts, and
  fencing;
- :mod:`repro.service.router` — consistent-hash routing, per-shard
  circuit breaking (503 + ``Retry-After`` for a dead shard's keyspace
  only), and fan-out merges with ``degraded_shards``;
- :mod:`repro.service.cluster` — assembles router + supervisor behind
  one front listener (``granula serve --workers N``).
"""

from repro.service.app import ArchiveService, Response
from repro.service.backpressure import (
    clamp_retry_after,
    retry_after_seconds,
)
from repro.service.cache import ArchiveCache
from repro.service.chaos import ChaosController, ChaosPlan
from repro.service.cluster import ClusterServer, create_cluster
from repro.service.ingest import IngestPipeline
from repro.service.metrics import ServiceMetrics
from repro.service.router import ClusterService, ConsistentHashRing
from repro.service.server import ArchiveServer, create_server, serve
from repro.service.supervisor import ShardSupervisor
from repro.service.wal import WriteAheadLog

__all__ = [
    "ArchiveService",
    "Response",
    "ArchiveCache",
    "ChaosController",
    "ChaosPlan",
    "ClusterServer",
    "ClusterService",
    "ConsistentHashRing",
    "IngestPipeline",
    "ServiceMetrics",
    "ShardSupervisor",
    "ArchiveServer",
    "WriteAheadLog",
    "clamp_retry_after",
    "create_cluster",
    "create_server",
    "retry_after_seconds",
    "serve",
]
