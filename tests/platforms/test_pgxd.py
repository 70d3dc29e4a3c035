"""Tests for the PGX.D-like push-pull engine."""

import pytest

from repro.errors import PlatformError
from repro.graph.algorithms import (
    bfs_levels,
    pagerank,
    sssp_distances,
    weakly_connected_components,
)
from repro.graph.algorithms.bfs import frontier_sizes
from repro.graph.generators import grid_graph, powerlaw_graph
from repro.graph.graph import Graph
from repro.graph.partition.range_partition import range_partition
from repro.graph.validate import compare_exact, compare_numeric
from repro.platforms.base import JobRequest
from repro.platforms.pgxd.algorithms import (
    BfsPushPull,
    make_pushpull_program,
)
from repro.platforms.pgxd.engine import PgxdPlatform
from repro.workloads.runner import build_cluster


@pytest.fixture(scope="module")
def platform(tiny_graph):
    p = PgxdPlatform(build_cluster("PGX.D"))
    p.deploy_dataset("tiny", tiny_graph)
    return p


class TestAlgorithmsAgainstReference:
    GRAPHS = {
        "tiny": "tiny_graph",
        "powerlaw": powerlaw_graph(400, 2400, seed=8),
        "grid": grid_graph(10, 10),
        "disconnected": Graph(40, [(i, i + 1) for i in range(15)]),
    }

    def run_pgxd(self, graph, algorithm, params):
        platform = PgxdPlatform(build_cluster("PGX.D"))
        platform.deploy_dataset("g", graph)
        return platform.run_job(
            JobRequest(algorithm, "g", 8, params=params)).output

    def graph_by_name(self, name, request):
        g = self.GRAPHS[name]
        return request.getfixturevalue(g) if isinstance(g, str) else g

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_bfs(self, name, request):
        g = self.graph_by_name(name, request)
        out = self.run_pgxd(g, "bfs", {"source": 0})
        assert compare_exact(bfs_levels(g, 0), out).ok

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_sssp(self, name, request):
        g = self.graph_by_name(name, request)
        out = self.run_pgxd(g, "sssp", {"source": 0})
        assert compare_numeric(sssp_distances(g, 0), out).ok

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_wcc(self, name, request):
        g = self.graph_by_name(name, request)
        out = self.run_pgxd(g, "wcc", {})
        assert compare_exact(weakly_connected_components(g), out).ok

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_pagerank(self, name, request):
        g = self.graph_by_name(name, request)
        out = self.run_pgxd(g, "pagerank", {"iterations": 6})
        ref = pagerank(g, iterations=6)
        assert compare_numeric(ref, out, rel_tol=1e-9, abs_tol=1e-12).ok


class TestDirectionOptimization:
    def test_bfs_switches_to_pull_on_dense_frontier(self, tiny_graph):
        owner_of = range_partition(tiny_graph.num_vertices, 4)
        program = BfsPushPull(tiny_graph, owner_of, source=0)
        directions = []
        phase = 0
        while True:
            result = program.run_phase(phase)
            directions.append(result.direction)
            phase += 1
            if result.converged:
                break
        # Small-world social graph: sparse early frontiers push, the
        # dense middle pulls.
        assert directions[0] == "push"
        assert "pull" in directions

    def test_pull_saves_traversals_on_dense_frontier(self, tiny_graph):
        """At the frontier peak, pulling touches fewer edges than the
        frontier's own out-edges (it stops at the first parent)."""
        fs = frontier_sizes(tiny_graph, 0)
        peak = fs.index(max(fs))
        owner_of = range_partition(tiny_graph.num_vertices, 4)
        program = BfsPushPull(tiny_graph, owner_of, source=0)
        for phase in range(peak):
            program.run_phase(phase)
        frontier_out_edges = sum(
            tiny_graph.out_degree(v) for v in program.frontier
        )
        result = program.run_phase(peak)
        if result.direction == "pull":
            assert sum(result.edges_by_owner) < 2 * frontier_out_edges

    def test_engine_reports_directions(self, platform):
        result = platform.run_job(JobRequest("bfs", "tiny", 8,
                                             params={"source": 0}))
        directions = result.stats["directions"]
        assert directions[0] == "push"
        assert result.stats["phases"] == len(directions)


class TestEngine:
    def test_deterministic(self, platform):
        a = platform.run_job(JobRequest("bfs", "tiny", 8,
                                        params={"source": 0}, job_id="x"))
        b = platform.run_job(JobRequest("bfs", "tiny", 8,
                                        params={"source": 0}, job_id="x"))
        assert a.makespan == b.makespan
        assert a.log_lines == b.log_lines

    def test_log_missions_match_model(self, platform):
        from repro.core.archive.builder import build_archive
        from repro.core.model.other_models import pgxd_model
        from repro.core.monitor.session import MonitoringSession

        session = MonitoringSession(platform)
        run = session.run(JobRequest("bfs", "tiny", 8,
                                     params={"source": 0}))
        archive, report = build_archive(run, pgxd_model())
        assert report.unmodeled == []
        phases = archive.find(mission_base="ComputePhase")
        assert phases
        assert all("Direction" in op.infos for op in phases)

    def test_faster_than_giraph_and_powergraph(self, tiny_graph):
        """The Table 1 story: PGX.D is built for speed."""
        from repro.platforms.pregel.engine import GiraphPlatform
        from repro.platforms.gas.engine import PowerGraphPlatform
        from tests.conftest import (
            make_giraph_cluster,
            make_powergraph_cluster,
        )

        request = JobRequest("bfs", "g", 8, params={"source": 0})
        makespans = {}
        for name, factory in (
            ("pgxd", lambda: PgxdPlatform(build_cluster("PGX.D"))),
            ("giraph", lambda: GiraphPlatform(make_giraph_cluster())),
            ("powergraph",
             lambda: PowerGraphPlatform(make_powergraph_cluster())),
        ):
            platform = factory()
            platform.deploy_dataset("g", tiny_graph)
            makespans[name] = platform.run_job(request).makespan
        assert makespans["pgxd"] < makespans["giraph"]
        assert makespans["pgxd"] < makespans["powergraph"]

    @pytest.mark.parametrize("engine_mode", ["scalar", "auto"])
    @pytest.mark.parametrize("algorithm", ["bfs", "pagerank"])
    def test_more_runtimes_than_vertices(self, algorithm, engine_mode):
        from repro.core.archive.builder import build_archive
        from repro.core.model.other_models import pgxd_model
        from repro.core.monitor.session import MonitoringSession

        platform = PgxdPlatform(build_cluster("PGX.D"),
                                engine_mode=engine_mode)
        platform.deploy_dataset("g", Graph(3, [(0, 1), (1, 2)]))
        run = MonitoringSession(platform).run(JobRequest(algorithm, "g", 8))
        archive, _report = build_archive(run, pgxd_model())
        # Runtimes 3..7 own no vertex: every batch of theirs is empty.
        idle = {f"Runtime-{rank}" for rank in range(3, 8)}
        batches = [op for op in archive.find(mission_base="TaskBatch")
                   if op.actor in idle]
        assert {op.actor for op in batches} == idle
        assert all(op.infos["EdgesTraversed"] == 0 for op in batches)

    def test_unknown_algorithm(self, platform, tiny_graph):
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("lcc", "tiny", 8))
        with pytest.raises(PlatformError):
            make_pushpull_program("cdlp", {}, tiny_graph, [0])

    def test_bad_source(self, tiny_graph):
        with pytest.raises(PlatformError):
            make_pushpull_program("bfs", {"source": -1}, tiny_graph, [0])
        with pytest.raises(PlatformError):
            make_pushpull_program("sssp", {"source": 10**7},
                                  tiny_graph, [0])

    def test_bad_pagerank_params(self, tiny_graph):
        owner_of = range_partition(tiny_graph.num_vertices, 2)
        with pytest.raises(PlatformError):
            make_pushpull_program("pagerank", {"iterations": -1},
                                  tiny_graph, owner_of)
        with pytest.raises(PlatformError):
            make_pushpull_program("pagerank", {"damping": 0.0},
                                  tiny_graph, owner_of)
