"""Service test fixtures: a populated store, a service over it, a
strictly limited HTTP server over it, and the same three jobs behind a
real two-worker cluster front."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List

import pytest

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.store import ArchiveStore
from repro.service.app import ArchiveService
from repro.service.cluster import ClusterServer, create_cluster
from repro.service.router import ConsistentHashRing
from repro.service.server import ArchiveServer, create_server


def make_archive(job_id: str, platform: str = "Test",
                 algorithm: str = "bfs", supersteps: int = 3,
                 dataset: str = "d") -> PerformanceArchive:
    root = ArchivedOperation(f"{job_id}:u0", "Job", "Client",
                             0.0, 4.0 + 2.0 * supersteps)
    load = ArchivedOperation(f"{job_id}:u1", "LoadGraph", "Master",
                             0.0, 4.0, parent=root)
    root.children.append(load)
    for i in range(2):
        worker = ArchivedOperation(
            f"{job_id}:u2{i}", "LocalLoad", f"Worker-{i + 1}",
            0.0, 2.0 + i, infos={"BytesRead": 100 * (i + 1)}, parent=load,
        )
        load.children.append(worker)
    process = ArchivedOperation(f"{job_id}:u3", "ProcessGraph", "Master",
                                4.0, 4.0 + 2.0 * supersteps, parent=root)
    root.children.append(process)
    for k in range(supersteps):
        step = ArchivedOperation(
            f"{job_id}:u4{k}", f"Superstep-{k}", "Master",
            4.0 + 2 * k, 6.0 + 2 * k, infos={"Duration": 2.0},
            parent=process,
        )
        process.children.append(step)
    return PerformanceArchive(
        job_id, root, platform=platform,
        metadata={"algorithm": algorithm, "dataset": dataset},
        env_samples=[(0.0, "n1", 2.0), (1.0, "n1", 3.0)],
    )


def seed_archives() -> List[PerformanceArchive]:
    """The three jobs every service fixture serves."""
    return [
        make_archive("alpha", platform="Giraph"),
        make_archive("beta", platform="PowerGraph", algorithm="pr"),
        make_archive("gamma", platform="Giraph", algorithm="wcc",
                     dataset="d2"),
    ]


@pytest.fixture()
def store(tmp_path) -> ArchiveStore:
    store = ArchiveStore(tmp_path / "store")
    for archive in seed_archives():
        store.save(archive)
    return store


@pytest.fixture()
def service(store) -> ArchiveService:
    return ArchiveService(store, cache_size=8)


@contextmanager
def running_server(store: ArchiveStore, **kwargs) -> Iterator[ArchiveServer]:
    """``serve`` over ``store``, on an ephemeral port, in a thread."""
    server = create_server(store, port=0, cache_size=8, **kwargs)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05),
        daemon=True,
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.service.ingest.drain_and_stop(timeout=10.0)
        thread.join(timeout=10)


@pytest.fixture()
def strict_server(store) -> Iterator[ArchiveServer]:
    """A served store with a tight body cap and request timeout."""
    with running_server(store, request_timeout=1.0,
                        max_body_bytes=2048) as server:
        yield server


@contextmanager
def running_cluster(root: Path, **kwargs) -> Iterator[ClusterServer]:
    """``serve --workers 2``'s front tier — the router plus two forked
    shard workers — over the seed jobs, each pre-placed on its ring
    owner as the router's write path would have put it."""
    ring = ConsistentHashRing(2)
    directories = [root / f"shard-{index:02d}" for index in range(2)]
    stores = [ArchiveStore(directory) for directory in directories]
    for archive in seed_archives():
        stores[ring.shard_for(archive.job_id)].save(archive)
    server = create_cluster(directories, port=0, probe_interval=0.2,
                            **kwargs)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05),
        daemon=True,
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.finish_stop()
        thread.join(timeout=10)


@pytest.fixture()
def strict_cluster(tmp_path) -> Iterator[ClusterServer]:
    """The cluster front with ``strict_server``'s body cap and request
    timeout (its workers get them too)."""
    with running_cluster(tmp_path, request_timeout=1.0,
                         max_body_bytes=2048) as server:
        yield server


@pytest.fixture()
def routed_cluster(tmp_path) -> Iterator[ClusterServer]:
    """The cluster front with the service's default limits."""
    with running_cluster(tmp_path) as server:
        yield server
