"""A small routed soak: concurrent mixed traffic through the cluster
front (router plus two forked shard workers) for a few seconds.

Four client threads, each on its own keep-alive connection, send job
reads, per-job queries, listings, fleet queries (percentiles, so the
shards answer with packed samples) and archive uploads.  Nothing may
answer 5xx; every 202'd upload must answer 200 once the shards have
drained; and the router's shard pool never keeps more idle connections
to a shard than there are clients — a connection is only opened when
every pooled one is busy.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro.core.archive.serialize import archive_to_json
from tests.service.conftest import make_archive, seed_archives

CLIENTS = 4
SOAK_S = 3.0
DRAIN_TIMEOUT_S = 30.0

READS = [job.job_id for job in seed_archives()]


def draw(rng: random.Random, client: int,
         sequence: int) -> Tuple[str, str, bytes, str]:
    """(method, target, body, uploaded job id or "") of one request."""
    kind = rng.choice(["get", "get", "query", "list", "fleet", "post"])
    job_id = rng.choice(READS)
    if kind == "get":
        return "GET", f"/jobs/{job_id}", b"", ""
    if kind == "query":
        return ("GET", f"/jobs/{job_id}/query?mission=Superstep&agg=total",
                b"", "")
    if kind == "list":
        return "GET", "/jobs?limit=5", b"", ""
    if kind == "fleet":
        return ("GET", "/fleet/query?group_by=platform&agg=count,p95",
                b"", "")
    upload = f"soak-{client}-{sequence:04d}"
    body = archive_to_json(make_archive(upload)).encode("utf-8")
    return "POST", "/jobs", body, upload


def get(server, path: str) -> Tuple[int, bytes]:
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def wait_drained(server) -> None:
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time.monotonic() < deadline:
        shards = json.loads(get(server, "/metrics")[1])["shards"]
        if len(shards) == 2 and all(
            shard["ingest"]["wal"]["lag"] == 0
            and shard["ingest"]["health"]["queue_depth"] == 0
            for shard in shards.values()
        ):
            return
        time.sleep(0.05)
    raise AssertionError("shard ingestion never drained")


@pytest.mark.slow
def test_mixed_traffic_soak(routed_cluster):
    server = routed_cluster
    host, port = server.server_address[:2]
    pool = server.service.pool
    stop = threading.Event()
    statuses: Counter = Counter()
    uploaded: List[str] = []
    errors: List[str] = []
    peak_idle: Dict[str, int] = {}
    lock = threading.Lock()

    def client(index: int) -> None:
        rng = random.Random(index)
        connection = http.client.HTTPConnection(host, port, timeout=30)
        sequence = 0
        try:
            while not stop.is_set():
                method, target, body, upload = draw(rng, index, sequence)
                sequence += 1
                headers = {"Content-Type": "application/json"} \
                    if body else {}
                connection.request(method, target, body=body or None,
                                   headers=headers)
                response = connection.getresponse()
                response.read()
                with lock:
                    statuses[response.status] += 1
                    if upload and response.status == 202:
                        uploaded.append(upload)
        except (OSError, http.client.HTTPException) as exc:
            errors.append(f"client {index}: {exc!r}")
        finally:
            connection.close()

    def watch_pool() -> None:
        while not stop.is_set():
            for shard in range(len(server.supervisor)):
                url = server.supervisor.endpoint(shard)
                if url is not None:
                    peak_idle[url] = max(peak_idle.get(url, 0),
                                         pool.idle(url))
            time.sleep(0.002)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(CLIENTS)]
    threads.append(threading.Thread(target=watch_pool))
    interval = sys.getswitchinterval()
    # Switch threads often, so pool check-outs and check-ins interleave.
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        time.sleep(SOAK_S)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert errors == []
    assert not [status for status in statuses if status >= 500], statuses
    assert statuses[200] > 0 and uploaded, statuses
    assert peak_idle and max(peak_idle.values()) <= CLIENTS, peak_idle

    wait_drained(server)
    missing = [job_id for job_id in uploaded
               if get(server, f"/jobs/{job_id}")[0] != 200]
    assert missing == []
