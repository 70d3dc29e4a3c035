"""The router's keep-alive shard pool (:class:`ShardPool`) over real
loopback sockets.

A worker that closes idle keep-alive sockets makes the next request on
a pooled connection fail before any response byte: the pool retries it
once, on a fresh socket, and a retried POST is stored once.  A failure
on a fresh connection is the shard's failure (503).  Idle connections
to a shard are dropped when it fails or the supervisor moves it to a
new port, so a restarted shard never inherits dead sockets.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.request

import pytest

from repro.core.archive.serialize import archive_to_json
from repro.service.router import ClusterService
from tests.service.conftest import (
    make_archive,
    running_cluster,
    running_server,
)
from tests.service.test_ingest import wait_state
from tests.service.test_router import FakeSupervisor

#: The worker's socket timeout: it drops a connection idle this long.
IDLE_TIMEOUT_S = 0.3


class PointedSupervisor(FakeSupervisor):
    """One live shard at a settable URL."""

    def __init__(self, url: str):
        super().__init__(1)
        self.url = url

    def endpoint(self, index):
        return self.url if self.states[index] in ("live", "suspect") \
            else None


def closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


@pytest.fixture()
def impatient_worker(store):
    """A served store that closes keep-alive sockets idle for
    :data:`IDLE_TIMEOUT_S`."""
    with running_server(store, request_timeout=IDLE_TIMEOUT_S) as server:
        yield server


@pytest.fixture()
def router(impatient_worker):
    router = ClusterService(PointedSupervisor(impatient_worker.url),
                            request_timeout=5.0)
    yield router
    router.close()


def outlive_idle_timeout() -> None:
    time.sleep(IDLE_TIMEOUT_S * 3)


class TestStaleSockets:
    def test_get_and_post_succeed_after_exactly_one_retry(
        self, router, impatient_worker,
    ):
        url = impatient_worker.url
        assert router.handle("/jobs/alpha").status == 200
        assert router.pool.idle(url) == 1
        assert router.pool.retries == 0

        outlive_idle_timeout()
        assert router.handle("/jobs/alpha").status == 200
        assert router.pool.retries == 1

        outlive_idle_timeout()
        body = archive_to_json(make_archive("delta")).encode("utf-8")
        response = router.handle(
            "/jobs", headers={"Content-Type": "application/json"},
            method="POST", body=body,
        )
        assert response.status == 202
        assert router.pool.retries == 2
        assert router.pool.idle(url) == 1

        ingest = impatient_worker.service.ingest
        assert wait_state(ingest, response.json()["tracking_id"])[
            "state"] == "ingested"
        counters = ingest.stats()["counters"]
        assert (counters["accepted"], counters["ingested"]) == (1, 1)
        assert router.handle("/jobs/delta").status == 200
        store = impatient_worker.service.store
        store.refresh()
        assert store.list().count("delta") == 1

    def test_fresh_connection_failure_is_the_shards_503(self):
        url = closed_port_url()
        supervisor = PointedSupervisor(url)
        router = ClusterService(supervisor)
        try:
            response = router.handle("/jobs/alpha")
            assert response.status == 503
            assert "Retry-After" in response.headers
            assert [index for index, _ in supervisor.failures] == [0]
            assert router.pool.retries == 0
            assert router.pool.idle(url) == 0
        finally:
            router.close()


class TestPoolHygiene:
    def test_a_moved_endpoint_drops_the_old_idle_sockets(
        self, router, impatient_worker,
    ):
        url = impatient_worker.url
        assert router.handle("/jobs/alpha").status == 200
        assert router.pool.idle(url) == 1
        router.supervisor.url = closed_port_url()
        assert router.handle("/jobs/alpha").status == 503
        assert router.pool.idle(url) == 0

    def test_a_recorded_failure_drops_the_shards_idle_sockets(
        self, router, impatient_worker,
    ):
        assert router.handle("/jobs/alpha").status == 200
        assert router.pool.idle(impatient_worker.url) == 1
        router._record_failure(0, "probe says no")
        assert router.pool.idle(impatient_worker.url) == 0
        assert router.supervisor.failures == [(0, "probe says no")]

    def test_close_closes_every_idle_socket(self, router,
                                            impatient_worker):
        assert router.handle("/jobs").status == 200
        assert router.pool.idle(impatient_worker.url) == 1
        router.close()
        assert router.pool.idle(impatient_worker.url) == 0


@pytest.mark.slow
def test_restarted_shard_is_reached_on_a_fresh_connection(tmp_path):
    """SIGKILL a real worker holding a pooled connection; once the
    supervisor has it back on a new port, the next routed GET answers
    200 — no 503 — and nothing is pooled for the dead port."""
    with running_cluster(tmp_path) as server:
        supervisor, pool = server.supervisor, server.service.pool
        assert supervisor.wait_live(timeout=30)
        job_id = "alpha"
        shard = server.service.ring.shard_for(job_id)
        assert server.service.handle(f"/jobs/{job_id}").status == 200
        dead = supervisor.endpoint(shard)
        assert pool.idle(dead) == 1

        pid = supervisor.worker_pid(shard)
        supervisor.kill_worker(shard)
        deadline = time.monotonic() + 30
        while not (supervisor.state(shard) == "live"
                   and supervisor.worker_pid(shard) not in (None, pid)):
            assert time.monotonic() < deadline, "shard never restarted"
            time.sleep(0.05)
        moved = supervisor.endpoint(shard)
        assert moved not in (None, dead)

        with urllib.request.urlopen(f"{server.url}/jobs/{job_id}",
                                    timeout=10) as response:
            assert response.status == 200
            assert json.loads(response.read())["job_id"] == job_id
        assert pool.idle(dead) == 0
        assert pool.idle(moved) == 1
