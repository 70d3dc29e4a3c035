"""Tests for fault injection in the Giraph engine."""

import pytest

from repro.graph.algorithms import bfs_levels
from repro.graph.validate import compare_exact
from repro.platforms.base import JobRequest
from repro.platforms.faults import FaultPlan, SlowNode, WorkerCrash
from repro.platforms.pregel.engine import GiraphPlatform

from tests.conftest import make_giraph_cluster


@pytest.fixture()
def platform(tiny_graph):
    p = GiraphPlatform(make_giraph_cluster())
    p.deploy_dataset("tiny", tiny_graph)
    return p


REQUEST = JobRequest("bfs", "tiny", 8, params={"source": 0}, job_id="f")


class TestFaultPlan:
    def test_valid_plans(self):
        FaultPlan()
        FaultPlan(events=(SlowNode("n1", 2.0),))
        FaultPlan(events=(WorkerCrash(worker=1, superstep=2),))

    def test_slow_factor_lookup(self):
        plan = FaultPlan(events=(SlowNode("n1", 3.0),))
        assert plan.slow_factor("n1") == 3.0
        assert plan.slow_factor("other") == 1.0

    def test_crashes_at(self):
        plan = FaultPlan(events=(WorkerCrash(worker=1, superstep=2),))
        assert plan.crashes_at(1, 2)
        assert not plan.crashes_at(1, 3)
        assert not plan.crashes_at(0, 2)


class TestSlowNode:
    def test_slow_node_extends_makespan(self, platform):
        healthy = platform.run_job(REQUEST)
        slow_node = platform.cluster.node_names[0]
        platform.inject_faults(FaultPlan(events=(SlowNode(slow_node, 3.0),)))
        degraded = platform.run_job(REQUEST)
        assert degraded.makespan > healthy.makespan

    def test_output_unchanged(self, platform, tiny_graph):
        platform.inject_faults(FaultPlan(
            events=(SlowNode(platform.cluster.node_names[1], 2.5),)))
        result = platform.run_job(REQUEST)
        assert compare_exact(bfs_levels(tiny_graph, 0), result.output).ok

    def test_only_target_node_slowed(self, platform):
        """The slow node's compute CPU time rises; others stay put."""
        healthy = platform.run_job(REQUEST)
        healthy_cpu = {
            n.name: n.cpu.by_tag().get("giraph:compute", 0.0)
            for n in platform.cluster.nodes
        }
        slow_node = platform.cluster.node_names[2]
        platform.inject_faults(FaultPlan(events=(SlowNode(slow_node, 3.0),)))
        platform.run_job(REQUEST)
        degraded_cpu = {
            n.name: n.cpu.by_tag().get("giraph:compute", 0.0)
            for n in platform.cluster.nodes
        }
        assert degraded_cpu[slow_node] > 2.5 * healthy_cpu[slow_node]
        for name in healthy_cpu:
            if name != slow_node:
                assert degraded_cpu[name] == pytest.approx(
                    healthy_cpu[name], rel=1e-9)

    def test_disarm(self, platform):
        healthy = platform.run_job(REQUEST)
        platform.inject_faults(FaultPlan(
            events=(SlowNode(platform.cluster.node_names[0], 3.0),)))
        platform.inject_faults(None)
        again = platform.run_job(REQUEST)
        assert again.makespan == pytest.approx(healthy.makespan)


class TestCrashRecovery:
    def test_recovery_operation_emitted(self, platform):
        platform.inject_faults(FaultPlan(
            events=(WorkerCrash(worker=3, superstep=2),)))
        result = platform.run_job(REQUEST)
        text = "\n".join(result.log_lines)
        assert "mission=RecoverWorker-2" in text
        assert "value=Worker-4" in text

    def test_recovery_extends_superstep(self, platform):
        healthy = platform.run_job(REQUEST)
        platform.inject_faults(FaultPlan(
            events=(WorkerCrash(worker=0, superstep=1, recovery_s=9.0),)))
        crashed = platform.run_job(REQUEST)
        assert crashed.makespan > healthy.makespan + 8.0

    def test_output_survives_crash(self, platform, tiny_graph):
        platform.inject_faults(FaultPlan(
            events=(WorkerCrash(worker=5, superstep=3),)))
        result = platform.run_job(REQUEST)
        assert compare_exact(bfs_levels(tiny_graph, 0), result.output).ok

    def test_crash_archivable_with_model(self, platform):
        from repro.core.archive.builder import build_archive
        from repro.core.model.giraph_model import giraph_model
        from repro.core.monitor.session import MonitoringSession

        platform.inject_faults(FaultPlan(
            events=(WorkerCrash(worker=2, superstep=2),)))
        run = MonitoringSession(platform).run(REQUEST)
        archive, report = build_archive(run, giraph_model())
        assert report.unmodeled == []
        recoveries = archive.find(mission_base="RecoverWorker")
        assert len(recoveries) == 1
        assert recoveries[0].iteration == 2

    def test_crash_beyond_supersteps_is_noop(self, platform):
        healthy = platform.run_job(REQUEST)
        platform.inject_faults(FaultPlan(
            events=(WorkerCrash(worker=0, superstep=500),)))
        result = platform.run_job(REQUEST)
        assert result.makespan == pytest.approx(healthy.makespan)
