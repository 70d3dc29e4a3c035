"""Tests for datasets, workload specs, runner, and sweeps."""

import gc
import weakref

import pytest

from repro.errors import GraphError, ReproError
from repro.graph.algorithms.wcc import component_sizes
from repro.workloads.datasets import (
    DATASETS,
    build_dataset,
    clear_cache,
    dataset_spec,
)
from repro.workloads.runner import WorkloadRunner, build_cluster
from repro.workloads.spec import PAPER_WORKLOADS, WorkloadSpec
from repro.workloads.sweep import ParameterSweep


class TestDatasets:
    def test_known_datasets(self):
        assert {"dg-tiny", "dg100-scaled", "dg300-scaled",
                "dg1000-scaled"} <= set(DATASETS)

    def test_spec_lookup(self):
        spec = dataset_spec("dg-tiny")
        assert spec.num_vertices == 2000
        with pytest.raises(GraphError):
            dataset_spec("dg-unknown")

    def test_build_is_cached(self):
        a = build_dataset("dg-tiny")
        b = build_dataset("dg-tiny")
        assert a is b

    def test_clear_cache(self):
        a = build_dataset("dg-tiny")
        clear_cache()
        b = build_dataset("dg-tiny")
        assert a is not b
        assert a == b  # Deterministic regeneration.

    def test_tiny_dataset_connected(self):
        assert len(component_sizes(build_dataset("dg-tiny"))) == 1

    def test_bfs_source_in_range(self):
        for spec in DATASETS.values():
            assert 0 <= spec.bfs_source < spec.num_vertices


class TestWorkloadSpec:
    def test_valid_spec(self):
        spec = WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=4)
        assert spec.label() == "giraph-bfs-dg-tiny-w4"

    def test_unknown_platform_rejected(self):
        with pytest.raises(ReproError):
            WorkloadSpec("Spark", "bfs", "dg-tiny")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ReproError):
            WorkloadSpec("Giraph", "bfs", "nope")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ReproError):
            WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=0)

    def test_request_fills_canonical_source(self):
        spec = WorkloadSpec("Giraph", "bfs", "dg1000-scaled")
        request = spec.to_request()
        assert request.params["source"] == DATASETS["dg1000-scaled"].bfs_source

    def test_request_keeps_explicit_source(self):
        spec = WorkloadSpec("Giraph", "bfs", "dg-tiny",
                            params={"source": 7})
        assert spec.to_request().params["source"] == 7

    def test_paper_workloads(self):
        assert len(PAPER_WORKLOADS) == 2
        assert {w.platform for w in PAPER_WORKLOADS} == {
            "Giraph", "PowerGraph"}


class TestBuildCluster:
    def test_paper_node_names(self):
        giraph = build_cluster("Giraph")
        powergraph = build_cluster("PowerGraph")
        assert giraph.node_names[0] == "node340"
        assert powergraph.node_names[0] == "node309"

    def test_unknown_platform(self):
        with pytest.raises(ReproError):
            build_cluster("Spark")

    def test_extra_nodes_get_names(self):
        cluster = build_cluster("Giraph", n_nodes=10)
        assert cluster.size == 10


class TestWorkloadRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return WorkloadRunner()

    def test_run_memoized(self, runner):
        spec = WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=4)
        a = runner.run(spec)
        b = runner.run(spec)
        assert a is b

    def test_fresh_bypasses_memo(self, runner):
        spec = WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=4)
        a = runner.run(spec)
        b = runner.run(spec, fresh=True)
        assert a is not b
        assert a.run.result.makespan == b.run.result.makespan

    def test_fresh_rerun_releases_the_replaced_run(self):
        # The memo is the only holder of a run: once a fresh re-run
        # replaces its entry, the old archive is garbage.
        runner = WorkloadRunner()
        spec = WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=4)
        first = weakref.ref(runner.run(spec).archive)
        runner.run(spec, fresh=True)
        gc.collect()
        assert first() is None

    def test_platform_reused(self, runner):
        assert runner.platform("Giraph") is runner.platform("Giraph")

    def test_unknown_platform(self, runner):
        with pytest.raises(ReproError):
            runner.platform("Spark")

    def test_run_produces_full_iteration(self, runner):
        it = runner.run(WorkloadSpec("PowerGraph", "bfs", "dg-tiny",
                                     workers=4))
        assert it.breakdown.total > 0
        assert it.archive.platform == "PowerGraph"


class TestParameterSweep:
    def test_sweep_over_workers(self):
        sweep = ParameterSweep()
        base = WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=2)
        results = sweep.run(base, "workers", [2, 4])
        assert [r.spec.workers for r in results] == [2, 4]
        for r in results:
            assert r.makespan > 0
            assert r.breakdown.total == pytest.approx(r.makespan)

    def test_sweep_unknown_dimension(self):
        sweep = ParameterSweep()
        base = WorkloadSpec("Giraph", "bfs", "dg-tiny")
        with pytest.raises(ReproError):
            sweep.run(base, "color", ["red"])

    def test_share_table_rows(self):
        sweep = ParameterSweep()
        base = WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=2)
        results = sweep.run(base, "workers", [2, 3])
        rows = ParameterSweep.share_table(results, "workers")
        assert [row["workers"] for row in rows] == [2, 3]
        assert all("Processing share" in row for row in rows)
