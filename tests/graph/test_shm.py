"""Shared-memory CSR pages: round trips, read-only views, lifecycle."""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.graph import shm
from repro.graph.generators.datagen import datagen_graph
from repro.graph.graph import Graph
from repro.graph.shm import SharedCsrHandle, SharedGraphPages, attach_graph
from repro.workloads import parallel

#: The pool's task function, kept before a test swaps in the probe.
_RUN_REQUEST = parallel._run_request


@pytest.fixture
def graph():
    g = datagen_graph(300, avg_degree=5, seed=3)
    g.content_key = "test-content-key"
    return g


def _attach_in_child(handle, queue):
    attached = attach_graph(handle)
    queue.put((
        attached.num_vertices,
        attached.num_edges,
        attached.out_neighbors(7),
        attached.content_key,
    ))


def _run_and_probe_pages(request):
    """Run ``request`` in a pool worker, then report where its dataset's
    CSR arrays live: (pid, indptr in a segment, indices in a segment).
    A private copy shares no memory with any attached segment."""
    from repro.workloads.datasets import build_dataset

    _RUN_REQUEST(request)
    csr = build_dataset(request.spec.dataset).csr()
    segments = [np.frombuffer(segment.buf, dtype=np.uint8)
                for segment in shm._ATTACHED]
    return (
        os.getpid(),
        any(np.shares_memory(csr.indptr, pages) for pages in segments),
        any(np.shares_memory(csr.indices, pages) for pages in segments),
    )


class TestShareAttach:
    def test_round_trip_is_equal(self, graph):
        with SharedGraphPages() as pages:
            attached = attach_graph(pages.share(graph))
            assert attached == graph
            assert attached.content_key == "test-content-key"

    def test_attached_csr_matches(self, graph):
        with SharedGraphPages() as pages:
            attached = attach_graph(pages.share(graph))
            np.testing.assert_array_equal(
                attached.csr().indptr, graph.csr().indptr)
            np.testing.assert_array_equal(
                attached.csr().indices, graph.csr().indices)

    def test_views_are_read_only(self, graph):
        with SharedGraphPages() as pages:
            attached = attach_graph(pages.share(graph))
            with pytest.raises(ValueError):
                attached.csr().indices[0] = 99

    def test_adjacency_stays_lazy(self, graph):
        # The attached graph's arrays are the segment's pages, not a
        # per-process copy of the edge data — that copy is exactly what
        # sharing avoids.
        with SharedGraphPages() as pages:
            attached = attach_graph(pages.share(graph))
            segment = np.frombuffer(shm._ATTACHED[-1].buf, dtype=np.uint8)
            assert np.shares_memory(attached.csr().indptr, segment)
            assert np.shares_memory(attached.csr().indices, segment)
            assert attached.out_neighbors(0) == graph.out_neighbors(0)

    def test_empty_graph_round_trips(self):
        empty = Graph(0, [])
        with SharedGraphPages() as pages:
            attached = attach_graph(pages.share(empty))
            assert attached.num_vertices == 0
            assert attached.num_edges == 0

    def test_edgeless_vertices_round_trip(self):
        sparse = Graph(5, [(0, 1)])
        with SharedGraphPages() as pages:
            assert attach_graph(pages.share(sparse)) == sparse

    def test_attach_from_forked_child(self, graph):
        ctx = None
        try:
            ctx = mp.get_context("fork")
        except ValueError:
            pytest.skip("platform cannot fork")
        with SharedGraphPages() as pages:
            handle = pages.share(graph)
            queue = ctx.SimpleQueue()
            child = ctx.Process(target=_attach_in_child,
                                args=(handle, queue))
            child.start()
            n, m, row, key = queue.get()
            child.join(timeout=30)
            assert child.exitcode == 0
        assert (n, m) == (graph.num_vertices, graph.num_edges)
        assert row == graph.out_neighbors(7)
        assert key == "test-content-key"


class TestLifecycle:
    def test_close_unlinks_segments(self, graph):
        pages = SharedGraphPages()
        handle = pages.share(graph)
        assert len(pages) == 1
        pages.close()
        assert len(pages) == 0
        with pytest.raises((FileNotFoundError, OSError)):
            attach_graph(handle)

    def test_close_is_idempotent(self, graph):
        pages = SharedGraphPages()
        pages.share(graph)
        pages.close()
        pages.close()

    def test_handle_geometry(self):
        handle = SharedCsrHandle(name="x", num_vertices=10, num_edges=7)
        assert handle.indptr_nbytes == 88
        assert handle.indices_offset % 64 == 0
        assert handle.indices_offset >= handle.indptr_nbytes
        assert handle.total_nbytes == handle.indices_offset + 56


class TestFanOutSharing:
    def test_share_datasets_builds_handles(self, tmp_path, monkeypatch):
        from repro.workloads import datasets
        from repro.workloads.parallel import RunRequest, _share_datasets
        from repro.workloads.spec import WorkloadSpec

        monkeypatch.setenv("GRANULA_CACHE_DIR", str(tmp_path / "cache"))
        datasets.clear_cache()
        requests = [
            RunRequest(WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=4)),
            RunRequest(WorkloadSpec("Giraph", "pagerank", "dg-tiny",
                                    workers=4)),
        ]
        pages, handles = _share_datasets(requests)
        try:
            assert pages is not None
            assert len(handles) == 1  # one distinct dataset
            assert handles[0].content_key is not None
            # The parent memo is dropped so forked children never
            # inherit (and later free) the eager heap copy.
            assert datasets._CACHE == {}
            attached = attach_graph(handles[0])
            assert attached.num_vertices == 2_000
        finally:
            if pages is not None:
                pages.close()
            datasets.clear_cache()

    def test_forked_workers_read_the_shared_pages(self, tmp_path,
                                                  monkeypatch):
        from repro.workloads import datasets
        from repro.workloads.parallel import RunRequest, execute_parallel
        from repro.workloads.runner import WorkloadRunner
        from repro.workloads.spec import WorkloadSpec

        try:
            mp.get_context("fork")
        except ValueError:
            pytest.skip("platform cannot fork")
        monkeypatch.setenv("GRANULA_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_run_request", _run_and_probe_pages)
        datasets.clear_cache()
        requests = [
            RunRequest(WorkloadSpec("Giraph", algorithm, "dg-tiny",
                                    workers=4))
            for algorithm in ("bfs", "pagerank")
        ]
        runner = WorkloadRunner()
        try:
            probes = execute_parallel(
                requests, jobs=2, library=runner.library,
                n_nodes=runner.n_nodes, engine_mode=runner.engine_mode,
            )
        finally:
            datasets.clear_cache()
        assert probes is not None
        for pid, indptr_shared, indices_shared in probes:
            assert pid != os.getpid()
            assert indptr_shared and indices_shared
