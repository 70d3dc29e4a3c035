"""``service_direct`` and ``service_routed``: the archive service over HTTP.

One ``python -m repro.cli serve`` child process, one ``http.client``
persistent connection, one client thread; a seed-drawn mix of job
reads, per-job queries, listings, fleet queries and ``POST /jobs``
uploads with an 80/20 key skew, so the hot set straddles the server's
64-entry cache.  ``service_direct`` talks to a single-process server
and therefore bypasses the router — it is the no-change control for
routing work; ``service_routed`` sends the same request stream through
``serve --workers 2``, where only the router and supervisor differ.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.archive.serialize import archive_to_json
from repro.core.archive.store import ArchiveStore
from repro.service.app import ArchiveService
from repro.service.ingest import IngestPipeline
from repro.service.router import ConsistentHashRing
from repro.service.wal import WriteAheadLog

from perfbench import steps
from perfbench.harness import (
    READ_CLASSES,
    Op,
    ServerProcess,
    Workload,
    disk_bytes,
)
from perfbench.inputs import (
    SkewedKeys,
    pass_schedule,
    reference_battery,
    synthetic_archive,
    synthetic_archives,
)
from perfbench.trace import Recorder
from perfbench.workloads.archive_read import populate

#: One pass: 45 % job reads, 35 % queries, 5 % listings, 5 % fleet
#: queries, 10 % uploads.
PASS = (("get_job", 9), ("query", 7), ("list", 1), ("fleet", 1), ("post", 2))
SHARDS = 2
PAGE = 20
DRAIN_TIMEOUT_S = 30.0
JSON_BODY = {"Content-Type": "application/json"}

#: Probe sizes of the traced run (each a closed loop of its own).
APP_PASSES = 10
DIRECT_PASSES = 3
FRESH_CONNECTIONS = 50
WAL_APPENDS = 20
SUBMIT_BURST = 20


@dataclass
class Request:
    """One drawn request and the check its response must pass."""

    cls: str
    method: str
    path: str
    params: Dict[str, str]
    body: bytes
    check: Callable[[int, Dict[str, str], bytes], bool]
    #: For a POST: the uploaded job's id and operation count.
    upload: Optional[Tuple[str, int]] = None

    @property
    def target(self) -> str:
        if not self.params:
            return self.path
        query = "&".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.path}?{query}"


class Client:
    """One persistent HTTP connection to one server."""

    def __init__(self, server: ServerProcess):
        self.address = (server.host, server.port)
        self.connection = http.client.HTTPConnection(*self.address, timeout=60)

    def send(self, request: Request) -> Tuple[float, bool]:
        """(seconds, response passed its check) for one exchange."""
        started = time.perf_counter()
        try:
            self.connection.request(
                request.method, request.target, body=request.body or None,
                headers=JSON_BODY if request.body else {})
            response = self.connection.getresponse()
            body = response.read()
            seconds = time.perf_counter() - started
            return seconds, request.check(
                response.status, dict(response.getheaders()), body)
        except (OSError, http.client.HTTPException):
            # A dropped connection fails this op only; the next reconnects.
            self.connection.close()
            return time.perf_counter() - started, False

    def get_json(self, path: str) -> Any:
        self.connection.request("GET", path)
        return json.loads(self.connection.getresponse().read())

    def close(self) -> None:
        self.connection.close()


class ServiceDirect(Workload):
    name = "service_direct"
    routed = False

    # -- set-up ----------------------------------------------------------------

    def setup(self, rec: Any) -> None:
        self.server: Optional[ServerProcess] = None
        self.direct: Optional[ServerProcess] = None
        self.client: Optional[Client] = None
        self.rng = random.Random(self.ctx.seed)
        self.count = 16 if self.ctx.quick else 256
        archives = synthetic_archives("svc", self.count, self.rng)
        self.checksums: Dict[str, str] = {}
        self.superstep_total = {
            a.job_id: reference_battery(a)[3] for a in archives}
        self.stored_operations = sum(a.size() for a in archives)
        self.keys = SkewedKeys([a.job_id for a in archives], self.rng)
        self.posted: List[str] = []
        self.next_index = self.count
        self.served_dir = self.ctx.root / "served"
        #: A single-store copy of the data for in-process and direct probes.
        self.union_dir = self.served_dir
        shutil.rmtree(self.served_dir, ignore_errors=True)
        self._place(archives)
        with rec.span("service.supervisor.spawn" if self.routed
                      else "service.server.start"):
            self.server = ServerProcess(
                self.served_dir,
                ["--workers", str(SHARDS)] if self.routed else [])
            self.client = Client(self.server)
            self.client.get_json("/healthz")
        self.pids = self.server.pids()
        self.next_pass = self.draw_pass()

    def _place(self, archives: List[Any]) -> None:
        store = ArchiveStore(self.served_dir)
        populate(store, archives)
        for archive in archives:
            self.checksums[archive.job_id] = store.checksum(archive.job_id)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        for server in (self.server, self.direct):
            if server is not None:
                server.stop()
        self.server = self.direct = None

    def child_pids(self) -> List[int]:
        return self.pids

    # -- the request stream ------------------------------------------------------

    def draw_pass(self) -> List[Request]:
        return [self.draw(cls) for cls in pass_schedule(self.rng, PASS)]

    def draw(self, cls: str) -> Request:
        if cls == "post":
            index, self.next_index = self.next_index, self.next_index + 1
            archive = synthetic_archive(f"svc-{index:05d}", index, self.rng)
            return Request(
                cls, "POST", "/jobs", {},
                archive_to_json(archive).encode("utf-8"),
                lambda status, _h, _b: status == 202,
                upload=(archive.job_id, archive.size()))
        if cls == "list":
            page = min(PAGE, self.count)
            offset = self.rng.randrange(self.count - page + 1)
            return Request(
                cls, "GET", "/jobs",
                {"limit": str(page), "offset": str(offset)}, b"",
                lambda status, _h, body: status == 200
                and len(json.loads(body)["jobs"]) == page)
        if cls == "fleet":
            return Request(
                cls, "GET", "/fleet/query",
                {"group_by": "platform", "agg": "count,p95"}, b"",
                lambda status, _h, body: status == 200 and sum(
                    g["jobs"] for g in json.loads(body)["groups"]
                ) >= self.count)
        if cls == "get_job":
            return self.draw_get_job()
        job_id = self.keys.draw(self.rng)
        etag = f'"{self.checksums[job_id]}"'
        expected = self.superstep_total[job_id]
        return Request(
            cls, "GET", f"/jobs/{job_id}/query",
            {"mission": "Superstep", "agg": "total"}, b"",
            lambda status, headers, body: status == 200
            and headers.get("ETag") == etag
            and json.loads(body)["result"] == expected)

    def run_pass(self, rec: Any) -> List[Op]:
        layer = "service.router" if self.routed else "service.server"
        ops = []
        for request in self.next_pass:
            with rec.span(f"{layer}.request", op=request.cls):
                seconds, ok = self.client.send(request)
            if ok and request.upload is not None:
                job_id, operations = request.upload
                self.posted.append(job_id)
                self.stored_operations += operations
            ops.append(Op(request.cls, seconds, ok))
        return ops

    def check_pass(self, rec: Any) -> None:
        # Requests are drawn between passes (uploads are ~60 KB archives to
        # generate and serialize), so a pass's wall and CPU time count the
        # service and the HTTP client, not the input generator.
        self.next_pass = self.draw_pass()

    def finish(self) -> None:
        """Zero acked loss: once drained, every 202'd job answers 200."""
        self.drain_s = self._wait_drained()
        for job_id in self.posted:
            _seconds, ok = self.client.send(Request(
                "get_job", "GET", f"/jobs/{job_id}", {}, b"",
                lambda status, _h, _b: status == 200))
            if not ok:
                self.failures.append(f"{job_id}: acked but not served")

    def _ingest_documents(self) -> List[Dict[str, Any]]:
        document = self.client.get_json("/metrics")
        shards = document["shards"].values() if self.routed else [document]
        return [shard["ingest"] for shard in shards]

    def _wait_drained(self) -> float:
        started = time.perf_counter()
        while time.perf_counter() - started < DRAIN_TIMEOUT_S:
            if all(doc["wal"]["lag"] == 0 and doc["health"]["queue_depth"] == 0
                   for doc in self._ingest_documents()):
                break
            time.sleep(0.05)
        else:
            self.failures.append("ingest did not drain")
        return time.perf_counter() - started

    def stored(self) -> Tuple[int, int]:
        return disk_bytes(self.served_dir), self.stored_operations

    # -- layer numbers (traced run only) -----------------------------------------

    def layer_metrics(self, rec: Recorder) -> Dict[str, float]:
        metrics = self._server_counters()
        metrics.update(self._probe_app(rec))
        metrics.update(self._probe_wal_and_ingest(rec))
        with_server = self._direct_server_spans(rec)
        fresh = self._probe_fresh_connections(
            rec, self.direct or self.server, "service.server.fresh_conn_get")
        http_reads = [s for s in with_server if s.op in READ_CLASSES]
        app_reads = [s for s in rec.spans if s.name.startswith("service.app.")
                     and s.op in READ_CLASSES]
        metrics.update({
            "service.server.fresh_conn_get_ms": steps.median_ms(fresh),
            "service.server.keepalive_overhead_ms": (
                steps.median_ms(http_reads) - steps.median_ms(app_reads)),
            "service.supervisor.spawn_s": steps.median_ms(
                rec.named("service.supervisor.spawn")) / 1e3,
        })
        if self.routed:
            # Reads are compared on fresh connections: on a persistent one
            # both sides wait out the same ~40 ms delayed ACK, which hides
            # the router's own cost entirely.
            metrics["service.router.read_overhead_ms"] = steps.median_ms(
                self._probe_fresh_connections(
                    rec, self.server, "service.router.fresh_conn_get")
            ) - steps.median_ms(fresh)
            routed = rec.named("service.router.request")
            for name, classes in (("write", ("post",)),
                                  ("fanout", ("fleet", "list"))):
                metrics[f"service.router.{name}_overhead_ms"] = (
                    steps.median_ms([s for s in routed if s.op in classes])
                    - steps.median_ms(
                        [s for s in with_server if s.op in classes]))
        return metrics

    def _server_counters(self) -> Dict[str, float]:
        """Hit rate, shed and error shares from the server's own /metrics."""
        document = self.client.get_json("/metrics")
        shards = (list(document["shards"].values()) if self.routed
                  else [document])
        front = document["router"] if self.routed else document
        hits = sum(s["cache"]["hits"] for s in shards)
        lookups = hits + sum(s["cache"]["misses"] for s in shards)
        shed = sum(s["ingest"]["counters"]["shed"] for s in shards)
        posts = front["requests_by_endpoint"].get("POST /jobs", 0)
        errors = sum(count for status, count
                     in front["responses_by_status"].items()
                     if not status.startswith(("2", "3")))
        return {
            "service.cache.hit_rate": hits / lookups if lookups else 0.0,
            "service.ingest.shed_share": shed / posts if posts else 0.0,
            "service.metrics.error_share": errors / front["requests_total"],
        }

    def _probe_app(self, rec: Recorder) -> Dict[str, float]:
        """The same request stream against ``ArchiveService.handle``."""
        pipeline = IngestPipeline(
            self.ctx.root / "app-store", self.ctx.root / "app-wal")
        pipeline.start()
        try:
            service = ArchiveService(
                ArchiveStore(self.union_dir), ingest=pipeline)
            for request in [r for _ in range(APP_PASSES)
                            for r in self.draw_pass()]:
                with rec.span(f"service.app.{request.cls}", op=request.cls):
                    response = service.handle(
                        request.path, request.params,
                        JSON_BODY if request.body else {},
                        request.method, request.body)
                if not request.check(response.status, response.headers,
                                     response.body):
                    self.failures.append(
                        f"in-process {request.cls} failed its check")
        finally:
            pipeline.drain_and_stop()
        names = {"get_job": "get_job_us", "query": "query_us",
                 "list": "list_us", "post": "post_us"}
        metrics = {
            f"service.app.{metric}": steps.median_ms(
                rec.named(f"service.app.{cls}")) * 1e3
            for cls, metric in names.items()
        }
        metrics["service.app.fleet_ms"] = steps.median_ms(
            rec.named("service.app.fleet"))
        return metrics

    def _probe_wal_and_ingest(self, rec: Recorder) -> Dict[str, float]:
        bodies = [
            archive_to_json(synthetic_archive(
                f"probe-{index:05d}", index, self.rng)).encode("utf-8")
            for index in range(max(WAL_APPENDS, SUBMIT_BURST))
        ]
        wal_dir = self.ctx.root / "probe-wal"
        wal = WriteAheadLog(wal_dir)
        try:
            for body in bodies[:WAL_APPENDS]:
                with rec.span("service.wal.append", bytes=len(body)):
                    wal.append(body)
            wal_bytes = disk_bytes(wal_dir)
        finally:
            wal.close()
        pipeline = IngestPipeline(
            self.ctx.root / "burst-store", self.ctx.root / "burst-wal")
        pipeline.start()
        try:
            started = time.perf_counter()
            for body in bodies[:SUBMIT_BURST]:
                with rec.span("service.ingest.submit"):
                    pipeline.submit(body)
            while pipeline.wal.lag():
                time.sleep(0.002)
            drained = time.perf_counter() - started
        finally:
            pipeline.drain_and_stop()
        return {
            "service.wal.append_us": steps.median_ms(
                rec.named("service.wal.append")) * 1e3,
            "service.wal.bytes_per_job": wal_bytes / WAL_APPENDS,
            "service.ingest.submit_ms": steps.median_ms(
                rec.named("service.ingest.submit")),
            "service.ingest.drain_jobs_per_s": SUBMIT_BURST / drained,
        }

    def _probe_fresh_connections(self, rec: Recorder, server: ServerProcess,
                                 span_name: str) -> List[Any]:
        """The same job GET, but on a new connection per request."""
        for _ in range(FRESH_CONNECTIONS):
            request = self.draw_get_job()
            with rec.span(span_name):
                client = Client(server)
                _seconds, ok = client.send(request)
                client.close()
            if not ok:
                self.failures.append("fresh-connection GET failed its check")
        return rec.named(span_name)

    def draw_get_job(self) -> Request:
        job_id = self.keys.draw(self.rng)
        etag = f'"{self.checksums[job_id]}"'
        return Request(
            "get_job", "GET", f"/jobs/{job_id}", {}, b"",
            lambda status, headers, _b: status == 200
            and headers.get("ETag") == etag)

    def _direct_server_spans(self, rec: Recorder) -> List[Any]:
        """Requests answered without a router: here, the traced passes."""
        return rec.named("service.server.request")


class ServiceRouted(ServiceDirect):
    name = "service_routed"
    routed = True

    def _place(self, archives: List[Any]) -> None:
        """Archives pre-placed on their ring owners, as the router expects."""
        ring = ConsistentHashRing(SHARDS)
        stores = [
            ArchiveStore(self.served_dir / f"shard-{index:02d}")
            for index in range(SHARDS)
        ]
        for archive in archives:
            store = stores[ring.shard_for(archive.job_id)]
            store.save(archive, overwrite=True)
            self.checksums[archive.job_id] = store.checksum(archive.job_id)
        if self.ctx.trace:
            # The router's cost is routed minus direct, so the traced
            # run also serves the same archives from one plain store.
            self.union_dir = self.ctx.root / "union"
            shutil.rmtree(self.union_dir, ignore_errors=True)
            # Copying the shard files is five times cheaper than saving
            # every archive again; the store notices the last shard's
            # index is stale when opened (it says so) and rebuilds it.
            for store in stores:
                shutil.copytree(store.directory, self.union_dir,
                                dirs_exist_ok=True)

    def _direct_server_spans(self, rec: Recorder) -> List[Any]:
        """The same stream against a plain server over the union store."""
        self.direct = ServerProcess(self.union_dir)
        client = Client(self.direct)
        try:
            for request in [r for _ in range(DIRECT_PASSES)
                            for r in self.draw_pass()]:
                with rec.span("service.server.request", op=request.cls):
                    _seconds, ok = client.send(request)
                if not ok:
                    self.failures.append(
                        f"direct {request.cls} failed its check")
        finally:
            client.close()
        return rec.named("service.server.request")
