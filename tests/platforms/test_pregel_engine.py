"""Integration tests for the Giraph-like engine."""

import pytest

from repro.errors import PlatformError
from repro.graph.algorithms import bfs_levels
from repro.graph.validate import compare_exact
from repro.platforms.base import JobRequest
from repro.platforms.pregel.engine import GiraphPlatform

from tests.conftest import make_giraph_cluster


@pytest.fixture(scope="module")
def platform(tiny_graph):
    p = GiraphPlatform(make_giraph_cluster())
    p.deploy_dataset("tiny", tiny_graph)
    return p


class TestDeployment:
    def test_dataset_staged_in_hdfs(self, platform):
        assert platform.cluster.hdfs.exists("/giraph/input/tiny.vs")
        assert platform.has_dataset("tiny")

    def test_empty_name_rejected(self, platform, tiny_graph):
        with pytest.raises(PlatformError):
            platform.deploy_dataset("", tiny_graph)

    def test_unknown_dataset_rejected(self, platform):
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("bfs", "nope", 4))


class TestJobExecution:
    def test_bfs_output_correct(self, platform, tiny_graph):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        assert compare_exact(bfs_levels(tiny_graph, 0), result.output).ok

    def test_makespan_positive(self, platform):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        assert result.makespan > 0
        assert result.finished_at > result.started_at

    def test_deterministic_reruns(self, platform):
        a = platform.run_job(JobRequest("bfs", "tiny", 8,
                                        params={"source": 0},
                                        job_id="fixed"))
        b = platform.run_job(JobRequest("bfs", "tiny", 8,
                                        params={"source": 0},
                                        job_id="fixed"))
        assert a.makespan == b.makespan
        assert a.log_lines == b.log_lines
        assert a.output == b.output

    def test_job_ids_unique(self, platform):
        a = platform.run_job(JobRequest("bfs", "tiny", 4,
                                        params={"source": 0}))
        b = platform.run_job(JobRequest("bfs", "tiny", 4,
                                        params={"source": 0}))
        assert a.job_id != b.job_id

    def test_explicit_job_id_respected(self, platform):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 4, params={"source": 0}, job_id="my-job"))
        assert result.job_id == "my-job"
        assert all("job=my-job" in l for l in result.log_lines)

    def test_stats_populated(self, platform):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        assert result.stats["supersteps"] > 1
        assert result.stats["messages"] > 0
        assert result.stats["bytes_read"] > 0
        assert result.stats["offload_bytes"] > 0

    def test_worker_count_validated(self, platform):
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("bfs", "tiny", 0))
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("bfs", "tiny", 99))

    def test_unknown_algorithm_rejected(self, platform):
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("quicksort", "tiny", 4))

    def test_bad_source_rejected(self, platform):
        with pytest.raises(PlatformError):
            platform.run_job(JobRequest("bfs", "tiny", 4,
                                        params={"source": -1}))

    def test_fewer_workers_than_nodes(self, platform, tiny_graph):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 3, params={"source": 0}))
        assert compare_exact(bfs_levels(tiny_graph, 0), result.output).ok

    def test_single_worker(self, platform, tiny_graph):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 1, params={"source": 0}))
        assert compare_exact(bfs_levels(tiny_graph, 0), result.output).ok


class TestEmittedLog:
    @pytest.fixture(scope="class")
    def log(self, platform):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        return result.log_lines

    def test_all_lines_granula(self, log):
        assert all(line.startswith("GRANULA ") for line in log)

    def test_balanced_start_end(self, log):
        starts = sum("event=start" in l for l in log)
        ends = sum("event=end" in l for l in log)
        assert starts == ends > 0

    def test_workflow_missions_present(self, log):
        text = "\n".join(log)
        for mission in ("GiraphJob", "Startup", "JobStartup",
                        "LaunchWorkers", "LocalStartup", "LoadGraph",
                        "LoadHdfsData", "LocalLoad", "ProcessGraph",
                        "Superstep-0", "LocalSuperstep-0", "PreStep-0",
                        "Compute-0", "Message-0", "PostStep-0",
                        "SyncZookeeper-0", "OffloadGraph",
                        "OffloadHdfsData", "LocalOffload", "Cleanup",
                        "JobCleanup", "AbortWorkers", "ClientCleanup",
                        "ServerCleanup", "ZkCleanup"):
            assert f"mission={mission}" in text, mission

    def test_per_worker_actors_present(self, log):
        text = "\n".join(log)
        for wid in range(1, 9):
            assert f"actor=Worker-{wid}" in text

    def test_info_records_present(self, log):
        text = "\n".join(log)
        for name in ("ActiveVertices", "MessagesReceived", "MessagesSent",
                     "BytesRead", "TotalBytes", "BytesWritten"):
            assert f"name={name}" in text, name

    def test_timestamps_monotone_per_operation(self, log):
        from repro.core.monitor.logparser import parse_log_columns
        columns, _report = parse_log_columns(log)
        rows = list(zip(columns.event, columns.uid, columns.timestamp))
        starts = {uid: ts for event, uid, ts in rows if event == "start"}
        assert starts
        for event, uid, ts in rows:
            if event == "end":
                assert ts >= starts[uid]


class TestResourceUsage:
    def test_cpu_charged_to_nodes(self, platform):
        result = platform.run_job(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        for node in platform.cluster.nodes:
            cpu = node.cpu.cpu_seconds_between(
                result.started_at, result.finished_at)
            assert cpu > 0

    def test_memory_released_after_job(self, platform):
        platform.run_job(JobRequest("bfs", "tiny", 8, params={"source": 0}))
        assert all(n.memory_used == 0 for n in platform.cluster.nodes)

    def test_phase_cpu_tags_recorded(self, platform):
        """Every workflow phase charges CPU under its own tag; the
        load-is-heaviest property is scale-dependent and asserted at
        experiment scale by the Figure 6 driver."""
        platform.run_job(JobRequest("bfs", "tiny", 8, params={"source": 0}))
        tags = {}
        for node in platform.cluster.nodes:
            for tag, cpu in node.cpu.by_tag().items():
                tags[tag] = tags.get(tag, 0.0) + cpu
        for tag in ("giraph:load", "giraph:compute", "giraph:localstartup",
                    "giraph:barrier", "giraph:offload", "giraph:cleanup"):
            assert tags.get(tag, 0.0) > 0.0, tag
        # Load runs at a far higher utilization level than the
        # latency-bound submit phase.
        assert tags["giraph:load"] > tags["giraph:submit"]
