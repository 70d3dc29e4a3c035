"""Tests for the Hadoop-like MapReduce engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PlatformError
from repro.graph.algorithms import bfs_levels, pagerank, weakly_connected_components
from repro.graph.generators import grid_graph, powerlaw_graph
from repro.graph.graph import Graph
from repro.graph.validate import compare_exact, compare_numeric
from repro.platforms.base import JobRequest
from repro.platforms.mapreduce.algorithms import make_mapreduce_round
from repro.platforms.mapreduce.api import Record
from repro.platforms.mapreduce.engine import HadoopPlatform
from repro.platforms.mapreduce.vectorized import (
    ScalarRounds,
    mapreduce_kernel_class,
)
from repro.platforms.pregel.engine import GiraphPlatform

from tests.conftest import make_giraph_cluster
from repro.cluster.cluster import Cluster
from repro.cluster.node import das5_node


def make_hadoop_cluster():
    return Cluster([das5_node(f"node{320 + i}") for i in range(8)],
                   hdfs_block_size=1 << 16)


@pytest.fixture(scope="module")
def platform(tiny_graph):
    p = HadoopPlatform(make_hadoop_cluster())
    p.deploy_dataset("tiny", tiny_graph)
    return p


class TestRecord:
    def test_encoded_size_grows_with_state(self):
        assert Record(1, 123456).encoded_size() > Record(1, 0).encoded_size()


class TestAlgorithmsAgainstReference:
    GRAPHS = {
        "tiny": "tiny_graph",
        "powerlaw": powerlaw_graph(300, 1800, seed=8),
        "grid": grid_graph(10, 10),
        "disconnected": Graph(40, [(i, i + 1) for i in range(15)]),
    }

    def run_mr(self, graph, algorithm, params):
        platform = HadoopPlatform(make_hadoop_cluster())
        platform.deploy_dataset("g", graph)
        return platform.run_job(
            JobRequest(algorithm, "g", 8, params=params)).output

    def graph_by_name(self, name, request):
        g = self.GRAPHS[name]
        return request.getfixturevalue(g) if isinstance(g, str) else g

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_bfs(self, name, request):
        g = self.graph_by_name(name, request)
        out = self.run_mr(g, "bfs", {"source": 0})
        assert compare_exact(bfs_levels(g, 0), out).ok

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_pagerank(self, name, request):
        g = self.graph_by_name(name, request)
        out = self.run_mr(g, "pagerank", {"iterations": 6})
        ref = pagerank(g, iterations=6)
        assert compare_numeric(ref, out, rel_tol=1e-9, abs_tol=1e-12).ok

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_wcc(self, name, request):
        g = self.graph_by_name(name, request)
        out = self.run_mr(g, "wcc", {})
        assert compare_exact(weakly_connected_components(g), out).ok


class TestEngine:
    def test_deterministic(self, platform):
        a = platform.run_job(JobRequest("bfs", "tiny", 8,
                                        params={"source": 0}, job_id="x"))
        b = platform.run_job(JobRequest("bfs", "tiny", 8,
                                        params={"source": 0}, job_id="x"))
        assert a.makespan == b.makespan
        assert a.log_lines == b.log_lines

    def test_stats(self, platform):
        result = platform.run_job(JobRequest("bfs", "tiny", 8,
                                             params={"source": 0}))
        assert result.stats["rounds"] > 1
        assert result.stats["emissions"] > 0

    def test_log_missions(self, platform):
        result = platform.run_job(JobRequest("bfs", "tiny", 8,
                                             params={"source": 0}))
        text = "\n".join(result.log_lines)
        for mission in ("HadoopJob", "Startup", "LaunchContainers",
                        "MaterializeInput", "LocalMaterialize",
                        "MapReduceRound-0", "RoundSetup-0", "MapPhase-0",
                        "ShufflePhase-0", "ReducePhase-0",
                        "MaterializeState-0", "CollectOutput",
                        "ReleaseContainers"):
            assert f"mission={mission}" in text, mission

    def test_archive_with_model(self, platform):
        from repro.core.archive.builder import build_archive
        from repro.core.model.hadoop_model import hadoop_model
        from repro.core.monitor.session import MonitoringSession

        session = MonitoringSession(platform)
        run = session.run(JobRequest("bfs", "tiny", 8,
                                     params={"source": 0}))
        archive, report = build_archive(run, hadoop_model())
        assert report.unmodeled == []
        assert archive.platform == "Hadoop"

    def test_unknown_algorithm(self, platform, tiny_graph):
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("lcc", "tiny", 8))
        with pytest.raises(PlatformError):
            make_mapreduce_round("sssp", {}, tiny_graph)

    def test_bad_source(self, platform):
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("bfs", "tiny", 8,
                                        params={"source": -1}))

    def test_bad_pagerank_params(self, tiny_graph):
        with pytest.raises(PlatformError):
            make_mapreduce_round("pagerank", {"iterations": -1}, tiny_graph)
        with pytest.raises(PlatformError):
            make_mapreduce_round("pagerank", {"damping": 1.5}, tiny_graph)


class TestPenalty:
    def test_slower_than_giraph_on_same_workload(self, tiny_graph):
        """The intro's claim, at test scale: Hadoop pays a clear penalty."""
        hadoop = HadoopPlatform(make_hadoop_cluster())
        hadoop.deploy_dataset("g", tiny_graph)
        giraph = GiraphPlatform(make_giraph_cluster())
        giraph.deploy_dataset("g", tiny_graph)
        h = hadoop.run_job(JobRequest("bfs", "g", 8, params={"source": 0}))
        g = giraph.run_job(JobRequest("bfs", "g", 8, params={"source": 0}))
        assert h.makespan > 1.5 * g.makespan

    def test_full_scan_amplification(self, platform, tiny_graph):
        """Every round scans all vertices (no frontier)."""
        result = platform.run_job(JobRequest("bfs", "tiny", 8,
                                             params={"source": 0}))
        from repro.core.monitor.logparser import parse_log_columns
        columns, _ = parse_log_columns(result.log_lines)
        scanned = sum(
            int(value)
            for name, value in zip(columns.info_name, columns.info_value)
            if name == "RecordsScanned"
        )
        rounds = result.stats["rounds"]
        assert scanned == rounds * tiny_graph.num_vertices


@st.composite
def round_cases(draw):
    """(graph, owner map, workers, source): self-loops, duplicate edges,
    isolated vertices and sources without out-edges all occur."""
    n = draw(st.integers(1, 20))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=3 * n))
    workers = draw(st.integers(1, 5))
    owner_of = draw(st.lists(st.integers(0, workers - 1),
                             min_size=n, max_size=n))
    source = draw(st.integers(0, n - 1))
    return Graph(n, edges), owner_of, workers, source


def _assert_same_rounds(driver_args, graph, owner_of, workers, rounds=None):
    """Scalar and kernel executors agree on every round's ``RoundStats``."""
    scalar = ScalarRounds(make_mapreduce_round(*driver_args, graph), graph,
                          owner_of, workers)
    driver = make_mapreduce_round(*driver_args, graph)
    kernel = mapreduce_kernel_class(driver)(driver, graph, owner_of, workers)
    for wid in range(workers):
        assert kernel.partition_size(wid) == scalar.partition_size(wid)
        assert (kernel.initial_state_bytes(wid)
                == scalar.initial_state_bytes(wid))
    limit = rounds if rounds is not None else graph.num_vertices + 2
    for round_index in range(limit):
        expected = scalar.run_round(round_index)
        assert kernel.run_round(round_index) == expected, round_index
        if expected.converged and rounds is None:
            break
    assert kernel.final_state_bytes() == scalar.final_state_bytes()
    assert kernel.output() == scalar.output()


class TestRoundOracle:
    """The kernel executors replay the scalar rounds one by one."""

    @settings(max_examples=150, deadline=None)
    @given(round_cases())
    @example((Graph(6, [(1, 2), (2, 3), (4, 5)]), [0, 1, 0, 1, 0, 1], 2, 0))
    @example((Graph(5, [(0, 0), (0, 1), (1, 1), (3, 4)]), [0] * 5, 1, 0))
    @example((Graph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (5, 6), (6, 5)]),
              [0, 1, 2, 0, 1, 2, 0], 3, 5))
    def test_bfs_rounds(self, case):
        graph, owner_of, workers, source = case
        _assert_same_rounds(("bfs", {"source": source}), graph, owner_of,
                            workers)

    def test_bfs_keeps_running_past_convergence(self):
        # Extra rounds after the frontier empties change nothing.
        graph = Graph(8, [(i, i + 1) for i in range(5)] + [(2, 0), (7, 7)])
        _assert_same_rounds(("bfs", {"source": 0}), graph,
                            [v % 3 for v in range(8)], 3, rounds=12)

    @settings(max_examples=60, deadline=None)
    @given(round_cases())
    def test_pagerank_rounds(self, case):
        graph, owner_of, workers, _ = case
        _assert_same_rounds(("pagerank", {"iterations": 5}), graph,
                            owner_of, workers, rounds=5)

    @settings(max_examples=60, deadline=None)
    @given(round_cases())
    def test_wcc_rounds(self, case):
        graph, owner_of, workers, _ = case
        _assert_same_rounds(("wcc", {}), graph, owner_of, workers)
