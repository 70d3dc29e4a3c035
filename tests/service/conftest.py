"""Service test fixtures: a populated store, a service over it, and a
strictly limited HTTP server over it."""

from __future__ import annotations

import threading

import pytest

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.store import ArchiveStore
from repro.service.app import ArchiveService
from repro.service.server import create_server


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


@pytest.fixture()
def store(tmp_path) -> ArchiveStore:
    store = ArchiveStore(tmp_path / "store")
    store.save(make_archive("alpha", platform="Giraph"))
    store.save(make_archive("beta", platform="PowerGraph",
                            algorithm="pr"))
    store.save(make_archive("gamma", platform="Giraph", algorithm="wcc",
                            dataset="d2"))
    return store


@pytest.fixture()
def service(store) -> ArchiveService:
    return ArchiveService(store, cache_size=8)


@pytest.fixture()
def strict_server(store):
    """A served store with a tight body cap and request timeout."""
    server = create_server(
        store, port=0, cache_size=8,
        request_timeout=1.0, max_body_bytes=2048,
    )
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05),
        daemon=True,
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.service.ingest.drain_and_stop(timeout=10.0)
    thread.join(timeout=10)
