"""Tests for the asynchronous GAS engine and the ingress option."""

import pytest

from repro.errors import PlatformError
from repro.graph.algorithms import (
    bfs_levels,
    sssp_distances,
    weakly_connected_components,
)
from repro.graph.generators import powerlaw_graph
from repro.graph.partition.vertexcut import greedy_vertex_cut
from repro.graph.validate import compare_exact, compare_numeric
from repro.platforms.base import JobRequest
from repro.platforms.gas.algorithms import make_gas_program
from benchmarks.gas_async import AsyncGasEngine
from repro.platforms.gas.engine import PowerGraphPlatform
from repro.platforms.gas.sync_engine import SyncGasEngine

from tests.conftest import make_powergraph_cluster


def run_async(graph, algorithm, params, ranks=4):
    program = make_gas_program(algorithm, params, graph)
    engine = AsyncGasEngine(graph, greedy_vertex_cut(graph, ranks), program)
    stats = engine.run()
    return engine.output(), stats


class TestAsyncCorrectness:
    def test_bfs(self, tiny_graph):
        out, _stats = run_async(tiny_graph, "bfs", {"source": 0})
        assert compare_exact(bfs_levels(tiny_graph, 0), out).ok

    def test_sssp(self, tiny_graph):
        out, _stats = run_async(tiny_graph, "sssp", {"source": 0})
        assert compare_numeric(sssp_distances(tiny_graph, 0), out).ok

    def test_wcc(self, tiny_graph):
        out, _stats = run_async(tiny_graph, "wcc", {})
        assert compare_exact(weakly_connected_components(tiny_graph), out).ok

    def test_powerlaw_graph(self):
        g = powerlaw_graph(400, 2400, seed=9)
        out, _stats = run_async(g, "sssp", {"source": 0})
        assert compare_numeric(sssp_distances(g, 0), out).ok

    def test_agrees_with_sync_engine(self, tiny_graph):
        async_out, _ = run_async(tiny_graph, "bfs", {"source": 0})
        program = make_gas_program("bfs", {"source": 0}, tiny_graph)
        sync = SyncGasEngine(tiny_graph,
                             greedy_vertex_cut(tiny_graph, 4), program)
        sync.run()
        assert async_out == sync.output()


class TestAsyncEngineBehaviour:
    def test_fixed_round_programs_rejected(self, tiny_graph):
        program = make_gas_program("pagerank", {"iterations": 5}, tiny_graph)
        with pytest.raises(PlatformError):
            AsyncGasEngine(tiny_graph,
                           greedy_vertex_cut(tiny_graph, 2), program)

    def test_stats_populated(self, tiny_graph):
        _out, stats = run_async(tiny_graph, "bfs", {"source": 0})
        assert stats.applies > 0
        assert stats.gather_edges > 0
        assert stats.scatter_edges > 0
        assert stats.activations >= stats.applies
        assert stats.locks >= stats.applies

    def test_deterministic(self, tiny_graph):
        a_out, a_stats = run_async(tiny_graph, "sssp", {"source": 0})
        b_out, b_stats = run_async(tiny_graph, "sssp", {"source": 0})
        assert a_out == b_out
        assert a_stats == b_stats

    def test_apply_bound_enforced(self, tiny_graph):
        program = make_gas_program("bfs", {"source": 0}, tiny_graph)
        engine = AsyncGasEngine(tiny_graph,
                                greedy_vertex_cut(tiny_graph, 2), program)
        with pytest.raises(PlatformError):
            engine.run(max_applies=3)

    def test_fewer_applies_than_sync_for_sssp(self, small_graph):
        """The PowerGraph claim: async converges with less redundant
        work on convergence-driven algorithms."""
        _out, async_stats = run_async(small_graph, "sssp", {"source": 0},
                                      ranks=8)
        program = make_gas_program("sssp", {"source": 0}, small_graph)
        sync = SyncGasEngine(small_graph,
                             greedy_vertex_cut(small_graph, 8), program)
        history = sync.run()
        sync_applies = sum(sum(w.apply_vertices) for w in history)
        assert async_stats.applies < sync_applies


class TestIngressOption:
    def test_random_ingress_runs_correctly(self, tiny_graph):
        platform = PowerGraphPlatform(make_powergraph_cluster(),
                                      ingress="random")
        platform.deploy_dataset("tiny", tiny_graph)
        result = platform.run_job(JobRequest("bfs", "tiny", 8,
                                             params={"source": 0}))
        assert compare_exact(bfs_levels(tiny_graph, 0), result.output).ok

    def test_random_ingress_higher_replication(self, tiny_graph):
        greedy = PowerGraphPlatform(make_powergraph_cluster(),
                                    ingress="greedy")
        greedy.deploy_dataset("tiny", tiny_graph)
        rand = PowerGraphPlatform(make_powergraph_cluster(),
                                  ingress="random")
        rand.deploy_dataset("tiny", tiny_graph)
        request = JobRequest("bfs", "tiny", 8, params={"source": 0})
        g_rf = greedy.run_job(request).stats["replication_factor"]
        r_rf = rand.run_job(request).stats["replication_factor"]
        assert r_rf > g_rf

    def test_unknown_ingress_rejected(self):
        with pytest.raises(PlatformError):
            PowerGraphPlatform(make_powergraph_cluster(), ingress="magic")


class TestCombinerToggle:
    def test_no_combiner_increases_wire_messages(self, tiny_graph):
        from repro.platforms.pregel.engine import GiraphPlatform
        from tests.conftest import make_giraph_cluster

        platform = GiraphPlatform(make_giraph_cluster())
        platform.deploy_dataset("tiny", tiny_graph)
        with_combiner = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        without = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0, "combiner": False}))
        # Same answer, same logical messages, but longer runtime without
        # sender-side combining (more bytes hit the wire).
        assert with_combiner.output == without.output
        assert without.makespan >= with_combiner.makespan
