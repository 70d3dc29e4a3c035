"""Determinism properties of the parallel run harness.

Archives produced through the parallel fan-out (``run_many(jobs=N)``)
are byte-identical to a serial run, and archives produced against a
warm artifact cache are byte-identical to a cold-cache run — which
regenerates no dataset and recomputes no vertex cut.  The test forces
the process pool on via a CPU-count override — on a one-CPU box the
harness deliberately clamps to serial.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.archive.serialize import archive_to_json
from repro.platforms.gas import engine as gas_engine
from repro.workloads import datasets, parallel
from repro.workloads import runner as runner_module
from repro.workloads.datasets import clear_cache
from repro.workloads.parallel import RunRequest, available_cpus, execute_parallel
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec
from repro.platforms.faults import FaultPlan, WorkerCrash

#: The five Giraph programs from the acceptance criteria, plus one
#: faulted run (worker crash + checkpoint recovery) riding along.
PROGRAMS = ("bfs", "pagerank", "wcc", "sssp", "cdlp")

FAULTS = FaultPlan(
    events=(WorkerCrash(worker=1, superstep=2),),
    checkpoint_interval=2,
    seed=13,
)


def _requests():
    specs = [
        WorkloadSpec("Giraph", algorithm, "dg-tiny", workers=4)
        for algorithm in PROGRAMS
    ]
    return [RunRequest(spec) for spec in specs] + [
        RunRequest(WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=4),
                   faults=FAULTS)
    ]


def _archives(runner, jobs=None, requests=None):
    return [
        archive_to_json(iteration.archive)
        for iteration in runner.run_many(requests or _requests(), jobs=jobs)
    ]


def _no_rebuild(*_args, **_kwargs):
    raise AssertionError("a warm artifact cache rebuilt an artifact")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GRANULA_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()
    yield tmp_path / "cache"
    clear_cache()


class TestParallelDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self, cache_dir,
                                                   monkeypatch):
        serial = _archives(WorkloadRunner())
        # Force the pool even on a one-CPU machine: determinism must
        # hold when the fan-out actually forks.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
        returned = []

        def recording(*args, **kwargs):
            returned.append(parallel.execute_parallel(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(runner_module, "execute_parallel", recording)
        parallel_out = _archives(WorkloadRunner(), jobs=4)
        assert serial == parallel_out
        # The pool really ran them: no silent serial fallback.
        assert len(returned) == 1 and returned[0] is not None

    def test_jobs_on_one_cpu_falls_back_to_serial(self, cache_dir,
                                                  monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        runner = WorkloadRunner()
        out = execute_parallel(
            _requests(), jobs=4, library=runner.library,
            n_nodes=runner.n_nodes, engine_mode=runner.engine_mode,
        )
        assert out is None
        # run_many still completes (serially) and stays deterministic.
        assert _archives(runner, jobs=4) == _archives(WorkloadRunner())

    def test_warm_cache_matches_cold_byte_for_byte(self, cache_dir,
                                                   monkeypatch):
        # Cold ≡ warm: the generated graph and the one reloaded from the
        # artifact cache are the same arrays, and every platform stores
        # the same archive from either.
        requests = _requests() + [
            RunRequest(WorkloadSpec("PowerGraph", algorithm, "dg-tiny",
                                    workers=4))
            for algorithm in ("bfs", "pagerank")
        ] + [
            RunRequest(WorkloadSpec(platform, "bfs", "dg-tiny", workers=4))
            for platform in ("Hadoop", "PGX.D")
        ]
        cold_csr = datasets.build_dataset("dg-tiny").csr()
        cold = _archives(WorkloadRunner(), requests=requests)
        assert cache_dir.is_dir()  # the cold run populated the cache
        clear_cache()  # drop the in-process memo; disk cache stays warm
        monkeypatch.setattr(datasets, "datagen_graph", _no_rebuild)
        monkeypatch.setattr(gas_engine, "greedy_vertex_cut", _no_rebuild)
        warm_csr = datasets.build_dataset("dg-tiny").csr()
        assert warm_csr is not cold_csr
        assert np.array_equal(warm_csr.indptr, cold_csr.indptr)
        assert np.array_equal(warm_csr.indices, cold_csr.indices)
        warm = _archives(WorkloadRunner(), requests=requests)
        assert cold == warm

    def test_run_many_dedupes_and_aligns(self, cache_dir):
        runner = WorkloadRunner()
        spec = WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=4)
        requests = [RunRequest(spec), RunRequest(spec)]
        first, second = runner.run_many(requests)
        assert first is second  # memoized, not re-executed


class TestAvailableCpus:
    def test_reports_at_least_one(self):
        assert available_cpus() >= 1
