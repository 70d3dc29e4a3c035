"""Integration tests for the PowerGraph-like engine."""

import pytest

from repro.errors import PlatformError
from repro.graph.algorithms import bfs_levels
from repro.graph.edgelist import EdgeList
from repro.graph.generators import powerlaw_graph
from repro.graph.validate import compare_exact
from repro.platforms.base import JobRequest
from repro.platforms.gas.engine import PowerGraphPlatform

from tests.conftest import make_powergraph_cluster


@pytest.fixture(scope="module")
def platform(tiny_graph):
    p = PowerGraphPlatform(make_powergraph_cluster())
    p.deploy_dataset("tiny", tiny_graph)
    return p


class TestDeployment:
    def test_dataset_on_shared_fs(self, platform):
        assert platform.cluster.shared_fs.exists("/data/tiny.el")

    def test_empty_name_rejected(self, platform, tiny_graph):
        with pytest.raises(PlatformError):
            platform.deploy_dataset("", tiny_graph)

    def test_unknown_dataset_rejected(self, platform):
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("bfs", "nope", 4))

    def test_file_is_the_edge_list_text(self, platform, tiny_graph):
        stored = platform.cluster.shared_fs.get("/data/tiny.el")
        assert stored.size_bytes \
            == EdgeList.from_graph(tiny_graph).text_size_bytes()

    def test_redeploy_replaces_the_graph(self, tiny_graph):
        p = PowerGraphPlatform(make_powergraph_cluster())
        request = JobRequest("bfs", "data", 4, params={"source": 0})
        p.deploy_dataset("data", tiny_graph)
        p.run_job(request)
        other = powerlaw_graph(300, 1500, seed=3)
        p.deploy_dataset("data", other)
        result = p.run_job(request)
        assert compare_exact(bfs_levels(other, 0), result.output).ok
        assert p.cluster.shared_fs.get("/data/data.el").size_bytes \
            == EdgeList.from_graph(other).text_size_bytes()


class TestJobExecution:
    def test_bfs_output_correct(self, platform, tiny_graph):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        assert compare_exact(bfs_levels(tiny_graph, 0), result.output).ok

    def test_deterministic_reruns(self, platform):
        a = platform.run_job(JobRequest("bfs", "tiny", 8,
                                        params={"source": 0},
                                        job_id="fixed"))
        b = platform.run_job(JobRequest("bfs", "tiny", 8,
                                        params={"source": 0},
                                        job_id="fixed"))
        assert a.makespan == b.makespan
        assert a.log_lines == b.log_lines

    def test_stats_populated(self, platform):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        assert result.stats["iterations"] > 1
        assert result.stats["edges_parsed"] > 0
        assert result.stats["replication_factor"] >= 1.0
        assert result.stats["gather_edges"] > 0

    def test_worker_count_validated(self, platform):
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("bfs", "tiny", 0))
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("bfs", "tiny", 9))

    def test_single_rank(self, platform, tiny_graph):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 1, params={"source": 0}))
        assert compare_exact(bfs_levels(tiny_graph, 0), result.output).ok


class TestEmittedLog:
    @pytest.fixture(scope="class")
    def log(self, platform):
        return platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0})).log_lines

    def test_workflow_missions_present(self, log):
        text = "\n".join(log)
        for mission in ("PowerGraphJob", "Startup", "MpiStartup",
                        "LoadGraph", "StreamEdges", "FinalizeGraph",
                        "LocalFinalize", "ProcessGraph", "Iteration-0",
                        "Gather-0", "Apply-0", "Scatter-0",
                        "BarrierSync-0", "OffloadGraph", "WriteResults",
                        "Cleanup", "MpiFinalize"):
            assert f"mission={mission}" in text, mission

    def test_stream_is_rank0_only(self, log):
        stream_lines = [l for l in log if "mission=StreamEdges" in l]
        assert all("actor=Rank-0" in l for l in stream_lines)

    def test_per_rank_actors_present(self, log):
        text = "\n".join(log)
        for rank in range(8):
            assert f"actor=Rank-{rank}" in text

    def test_balanced_start_end(self, log):
        starts = sum("event=start" in l for l in log)
        ends = sum("event=end" in l for l in log)
        assert starts == ends > 0


class TestSequentialLoadBehaviour:
    def test_only_loader_busy_during_stream(self, platform):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        nodes = platform.cluster.nodes
        # Find the StreamEdges window from the trace-free approach: the
        # loader node's stream tag.
        loader_cpu = nodes[0].cpu.by_tag().get("powergraph:stream", 0.0)
        assert loader_cpu > 0
        for node in nodes[1:]:
            assert "powergraph:stream" not in node.cpu.by_tag()
            assert node.cpu.by_tag().get("powergraph:idlewait", 0.0) > 0

    def test_all_ranks_finalize(self, platform):
        platform.run_job(JobRequest("bfs", "tiny", 8, params={"source": 0}))
        for node in platform.cluster.nodes:
            assert node.cpu.by_tag().get("powergraph:finalize", 0.0) > 0

    def test_load_slower_than_processing(self, platform):
        """Even at tiny scale the sequential load outweighs processing
        (the full Figure 5 dominance is asserted at experiment scale)."""
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        from repro.core.monitor.logparser import parse_log_columns
        records = parse_log_columns(result.log_lines)[0].records()

        def duration_of(mission):
            start = next(r for r in records
                         if r.event == "start" and r.mission == mission)
            end = next(r for r in records
                       if r.event == "end" and r.uid == start.uid)
            return end.timestamp - start.timestamp

        assert duration_of("LoadGraph") > duration_of("ProcessGraph")
        assert duration_of("StreamEdges") > 0


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
