"""FaultPlan v2: typed events, serialization, and engine recovery."""

import pytest

from repro.cluster.retry import RetryPolicy
from repro.core.analysis.chokepoint import find_choke_points
from repro.core.analysis.diagnosis import diagnose, recovery_overhead
from repro.core.archive.builder import build_archive
from repro.core.model.giraph_model import giraph_model
from repro.core.model.powergraph_model import powergraph_model
from repro.core.monitor.session import MonitoringSession
from repro.errors import FileSystemError, PlatformError
from repro.graph.algorithms import bfs_levels
from repro.graph.validate import compare_exact
from repro.platforms.base import JobRequest
from repro.platforms.faults import (
    ContainerLaunchFailure,
    DegradedLink,
    FaultPlan,
    HdfsReadError,
    LoaderCrash,
    NodeFailure,
    SlowDisk,
    SlowNode,
    WorkerCrash,
)
from repro.platforms.gas.engine import PowerGraphPlatform
from repro.platforms.gas.sync_engine import SyncGasEngine
from repro.platforms.pregel.engine import GiraphPlatform
from tests.conftest import make_giraph_cluster, make_powergraph_cluster

REQUEST = JobRequest("bfs", "tiny", 8, {"source": 0})


@pytest.fixture()
def giraph(tiny_graph):
    platform = GiraphPlatform(make_giraph_cluster())
    platform.deploy_dataset("tiny", tiny_graph)
    return platform


@pytest.fixture()
def powergraph(tiny_graph):
    platform = PowerGraphPlatform(make_powergraph_cluster())
    platform.deploy_dataset("tiny", tiny_graph)
    return platform


class TestEventValidation:
    def test_slow_events_reject_non_slowing_factor(self):
        for cls in (SlowNode, SlowDisk, DegradedLink):
            for factor in (0.9, 1.0):
                with pytest.raises(PlatformError):
                    cls("n0", factor)
            cls("n0", 1.5)

    def test_worker_crash_bounds(self):
        with pytest.raises(PlatformError):
            WorkerCrash(worker=-1, superstep=0)
        with pytest.raises(PlatformError):
            WorkerCrash(worker=0, superstep=-1)
        with pytest.raises(PlatformError):
            WorkerCrash(worker=0, superstep=0, recovery_s=0.0)

    def test_container_failure_count(self):
        with pytest.raises(PlatformError):
            ContainerLaunchFailure("n0", failures=0)

    def test_hdfs_error_block_count(self):
        with pytest.raises(PlatformError):
            HdfsReadError("n0", blocks=0)

    def test_loader_crash_fractions(self):
        with pytest.raises(PlatformError):
            LoaderCrash(at_fraction=0.0)
        with pytest.raises(PlatformError):
            LoaderCrash(at_fraction=1.0)
        with pytest.raises(PlatformError):
            LoaderCrash(replay_fraction=1.0)
        with pytest.raises(PlatformError):
            LoaderCrash(restarts=0)

    def test_duplicate_crashes_rejected(self):
        with pytest.raises(PlatformError):
            FaultPlan(events=(WorkerCrash(1, 2), WorkerCrash(1, 2)))

    def test_bad_checkpoint_config_rejected(self):
        with pytest.raises(PlatformError):
            FaultPlan(checkpoint_interval=0)
        with pytest.raises(PlatformError):
            FaultPlan(checkpoint_write_s=0.0)
        with pytest.raises(PlatformError):
            FaultPlan(redistribute_s=-1.0)


class TestPlanQueries:
    def test_factors_multiply(self):
        plan = FaultPlan(
            events=(SlowNode("n0", 2.0), SlowNode("n0", 1.5),
                    SlowDisk("n1", 3.0), DegradedLink("n2", 2.5)),
        )
        assert plan.slow_factor("n0") == pytest.approx(3.0)
        assert plan.slow_factor("n1") == pytest.approx(1.0)
        assert plan.disk_factor("n1") == pytest.approx(3.0)
        assert plan.link_factor("n2") == pytest.approx(2.5)

    def test_crash_in_superstep_respects_worker_count(self):
        plan = FaultPlan(events=(WorkerCrash(6, 1),))
        assert plan.crash_in_superstep(1, 8) is not None
        assert plan.crash_in_superstep(1, 4) is None

    def test_node_failure_exhausts_retry(self):
        plan = FaultPlan(events=(NodeFailure("n3"),))
        assert plan.launch_failures("n3") == plan.retry.max_attempts
        assert plan.launch_failures("n0") == 0

    def test_hdfs_failures_accumulate(self):
        plan = FaultPlan(events=(HdfsReadError("n0", 2),
                                 HdfsReadError("n0", 1)))
        assert plan.hdfs_read_failures("n0") == 3

    def test_interval_defaults_to_one(self):
        assert FaultPlan().interval() == 1
        assert FaultPlan(checkpoint_interval=4).interval() == 4

    def test_has_faults(self):
        assert not FaultPlan().has_faults()
        assert FaultPlan(events=(NodeFailure("n0"),)).has_faults()

    def test_node_names_collects_targets(self):
        plan = FaultPlan(
            events=(SlowNode("a", 2.0), SlowDisk("b", 2.0), NodeFailure("a"),
                    WorkerCrash(1, 1), LoaderCrash()),
        )
        assert plan.node_names() == ("a", "b")

    def test_jitter_deterministic_and_seeded(self):
        a = FaultPlan(seed=1)
        b = FaultPlan(seed=1)
        c = FaultPlan(seed=2)
        assert a.jitter("x", 3) == b.jitter("x", 3)
        assert a.jitter("x", 3) != c.jitter("x", 3)
        assert 0.0 <= a.jitter("x", 3) < 1.0


class TestSerialization:
    def roundtrip(self, plan):
        return FaultPlan.from_json(plan.to_json())

    def test_json_roundtrip_all_event_types(self):
        plan = FaultPlan(
            events=(
                SlowNode("a", 1.5), SlowDisk("b", 2.0),
                DegradedLink("c", 3.0), WorkerCrash(4, 5, 6.0),
                ContainerLaunchFailure("d", 2), NodeFailure("e"),
                HdfsReadError("f", 3), LoaderCrash(0.3, 2, 1.0, 0.1),
            ),
            seed=99,
            retry=RetryPolicy(max_attempts=5, base_backoff_s=0.5),
            checkpoint_interval=3,
        )
        again = self.roundtrip(plan)
        assert again == plan
        assert again.signature() == plan.signature()

    def test_signature_distinguishes_plans(self):
        assert FaultPlan(seed=1).signature() != FaultPlan(seed=2).signature()

    def test_rejects_unknown_fields(self):
        with pytest.raises(PlatformError):
            FaultPlan.from_json('{"bogus": 1}')

    def test_rejects_unknown_event_type(self):
        with pytest.raises(PlatformError):
            FaultPlan.from_json('{"events": [{"type": "meteor_strike"}]}')

    def test_rejects_invalid_json(self):
        with pytest.raises(PlatformError):
            FaultPlan.from_json("{not json")


class TestInjectionValidation:
    def test_unknown_node_rejected(self, giraph):
        with pytest.raises(PlatformError, match="node999"):
            giraph.inject_faults(FaultPlan(
                events=(NodeFailure("node999"),)))
        assert giraph.fault_plan is None

    def test_disarm_always_allowed(self, giraph):
        giraph.inject_faults(None)


class TestContainerRecovery:
    def test_retry_emits_operation(self, giraph):
        node = giraph.cluster.node_names[1]
        giraph.inject_faults(FaultPlan(
            events=(ContainerLaunchFailure(node, failures=1),)))
        run = MonitoringSession(giraph).run(REQUEST)
        archive, report = build_archive(run, giraph_model())
        assert report.unmodeled == []
        retries = archive.find(mission_base="RetryContainer")
        assert len(retries) == 1
        assert run.result.stats["container_retries"] == 1

    def test_dead_node_blacklisted_job_completes(self, giraph, tiny_graph):
        dead = giraph.cluster.node_names[3]
        giraph.inject_faults(FaultPlan(events=(NodeFailure(dead),)))
        run = MonitoringSession(giraph).run(REQUEST)
        archive, report = build_archive(run, giraph_model())
        assert report.unmodeled == []
        assert run.result.stats["blacklisted_nodes"] == [dead]
        assert compare_exact(bfs_levels(tiny_graph, 0),
                             run.result.output).ok
        redistributes = archive.find(mission_base="RedistributePartitions")
        assert len(redistributes) == 1


class TestHdfsFailover:
    def test_failover_read_costs_more_than_local(self):
        from tests.conftest import make_giraph_cluster
        hdfs = make_giraph_cluster().hdfs
        healthy = hdfs.read_time(1 << 16, local=True)
        failed = hdfs.read_with_failover(1 << 16, failures=1)
        assert failed.recovered
        assert failed.attempts == 2
        assert failed.duration_s > healthy
        assert 0 < failed.wasted_s < failed.duration_s

    def test_all_replicas_failing_not_recovered(self):
        hdfs = make_giraph_cluster().hdfs
        dead = hdfs.read_with_failover(1 << 16, failures=99)
        assert not dead.recovered

    def test_rejects_bad_inputs(self):
        hdfs = make_giraph_cluster().hdfs
        with pytest.raises(FileSystemError):
            hdfs.read_with_failover(-1, 0)
        with pytest.raises(FileSystemError):
            hdfs.read_with_failover(1, -1)
        with pytest.raises(FileSystemError):
            hdfs.read_with_failover(1, 0, fail_fraction=0.0)

    def test_failover_operation_emitted(self, giraph):
        # The tiny dataset fits one block, held by the first datanode.
        node = giraph.cluster.node_names[0]
        giraph.inject_faults(FaultPlan(events=(HdfsReadError(node),)))
        run = MonitoringSession(giraph).run(REQUEST)
        archive, report = build_archive(run, giraph_model())
        assert report.unmodeled == []
        assert len(archive.find(mission_base="ReplicaFailover")) == 1
        assert run.result.stats["hdfs_failovers"] == 1


class TestCheckpointInterval:
    def test_checkpoints_emitted_at_interval(self, giraph):
        giraph.inject_faults(FaultPlan(checkpoint_interval=2))
        run = MonitoringSession(giraph).run(REQUEST)
        archive, report = build_archive(run, giraph_model())
        assert report.unmodeled == []
        checkpoints = archive.find(mission_base="Checkpoint")
        supersteps = run.result.stats["supersteps"]
        assert len(checkpoints) == (supersteps + 1) // 2
        assert sorted(c.iteration for c in checkpoints) == list(
            range(0, supersteps, 2))

    def test_no_checkpoints_by_default(self, giraph):
        giraph.inject_faults(FaultPlan(
            events=(SlowNode(giraph.cluster.node_names[0], 1.5),)))
        run = MonitoringSession(giraph).run(REQUEST)
        archive, _ = build_archive(run, giraph_model())
        assert archive.find(mission_base="Checkpoint") == []

    def test_wider_interval_means_longer_redo(self, giraph):
        def redo_cost(interval):
            giraph.inject_faults(FaultPlan(
                events=(WorkerCrash(worker=1, superstep=3),),
                checkpoint_interval=interval,
            ))
            run = MonitoringSession(giraph).run(REQUEST)
            archive, _ = build_archive(run, giraph_model())
            (recover,) = archive.find(mission_base="RecoverWorker")
            return recover.duration

        # Crash at superstep 3: interval 4 redoes supersteps 0-3,
        # interval 1 redoes only superstep 3.
        assert redo_cost(4) > redo_cost(1)



class TestGasCheckpointRestore:
    def test_restore_rolls_back_state(self, tiny_graph):
        from repro.graph.partition.vertexcut import greedy_vertex_cut
        from repro.platforms.gas.algorithms import make_gas_program

        cut = greedy_vertex_cut(tiny_graph, 4)
        program = make_gas_program("bfs", {"source": 0}, tiny_graph)
        engine = SyncGasEngine(tiny_graph, cut, program)
        engine.step()
        snapshot = engine.checkpoint()
        engine.step()
        assert engine.iteration == 2
        engine.restore(snapshot)
        assert engine.iteration == 1
        # Deterministic replay reaches the exact same state.
        replayed = engine.step()
        engine2 = SyncGasEngine(tiny_graph, cut, program)
        engine2.step()
        direct = engine2.step()
        assert replayed == direct
        assert engine.values == engine2.values

    def test_restore_rejects_garbage(self, tiny_graph):
        from repro.graph.partition.vertexcut import greedy_vertex_cut
        from repro.platforms.gas.algorithms import make_gas_program

        engine = SyncGasEngine(
            tiny_graph, greedy_vertex_cut(tiny_graph, 2),
            make_gas_program("bfs", {"source": 0}, tiny_graph))
        with pytest.raises(PlatformError):
            engine.restore({"values": {}})


class TestPowerGraphRecovery:
    def test_loader_crash_emits_restart(self, powergraph, tiny_graph):
        powergraph.inject_faults(FaultPlan(
            events=(LoaderCrash(at_fraction=0.5, restarts=2),)))
        run = MonitoringSession(powergraph).run(REQUEST)
        archive, report = build_archive(run, powergraph_model())
        assert report.unmodeled == []
        assert len(archive.find(mission_base="RestartLoad")) == 2
        assert run.result.stats["loader_restarts"] == 2
        assert compare_exact(bfs_levels(tiny_graph, 0),
                             run.result.output).ok

    def test_loader_crash_extends_makespan(self, powergraph):
        healthy = powergraph.run_job(REQUEST).makespan
        powergraph.inject_faults(FaultPlan(
            events=(LoaderCrash(at_fraction=0.5, restart_s=5.0),)))
        crashed = powergraph.run_job(REQUEST).makespan
        assert crashed > healthy + 4.0

    def test_rank_crash_recovers_from_checkpoint(self, powergraph,
                                                 tiny_graph):
        powergraph.inject_faults(FaultPlan(
            events=(WorkerCrash(worker=1, superstep=1),),
            checkpoint_interval=2,
        ))
        run = MonitoringSession(powergraph).run(REQUEST)
        archive, report = build_archive(run, powergraph_model())
        assert report.unmodeled == []
        assert len(archive.find(mission_base="RecoverWorker")) == 1
        assert len(archive.find(mission_base="Checkpoint")) >= 1
        assert run.result.stats["recoveries"] == 1
        assert compare_exact(bfs_levels(tiny_graph, 0),
                             run.result.output).ok


class TestDiagnosisIntegration:
    def test_recovery_findings_and_overhead(self, giraph):
        giraph.inject_faults(FaultPlan(
            events=(
                ContainerLaunchFailure(giraph.cluster.node_names[1]),
                HdfsReadError(giraph.cluster.node_names[0]),
                WorkerCrash(worker=2, superstep=1),
            ),
        ))
        run = MonitoringSession(giraph).run(REQUEST)
        archive, _ = build_archive(run, giraph_model())
        findings = diagnose(archive)
        kinds = {f.subject.split("-")[0] for f in findings
                 if f.kind == "recovery"}
        assert {"RetryContainer", "ReplicaFailover", "RecoverWorker"} <= kinds
        assert all("% of the makespan" in f.evidence
                   for f in findings if f.kind == "recovery")
        overhead = recovery_overhead(archive)
        assert overhead["total"] > 0
        assert 0 < overhead["share"] < 1
        assert set(overhead) >= {"RecoverWorker", "RetryContainer",
                                 "ReplicaFailover", "total", "share"}

    def test_healthy_overhead_is_zero(self, giraph):
        run = MonitoringSession(giraph).run(REQUEST)
        archive, _ = build_archive(run, giraph_model())
        assert recovery_overhead(archive) == {"total": 0.0, "share": 0.0}

    def test_chokepoint_labels_recovery(self, giraph):
        giraph.inject_faults(FaultPlan(
            events=(WorkerCrash(worker=0, superstep=1, recovery_s=60.0),)))
        run = MonitoringSession(giraph).run(REQUEST)
        archive, _ = build_archive(run, giraph_model())
        points = find_choke_points(archive, top_n=8, min_share=0.01)
        recover = [p for p in points if p.mission == "RecoverWorker"]
        assert recover and recover[0].bound == "recovery"
