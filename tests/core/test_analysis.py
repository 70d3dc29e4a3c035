"""Tests for choke-point analysis, regression testing, and diagnosis."""

import pytest

from repro.core.analysis.chokepoint import (
    _merge_intervals,
    find_choke_points,
    render_choke_points,
)
from repro.core.analysis.diagnosis import diagnose, render_findings
from repro.core.analysis.regression import (
    PerformanceRegressionError,
    assert_no_regression,
    compare_archives,
)
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.errors import ArchiveError, VisualizationError


def leaf(parent, mission, actor, start, end, uid=None):
    op = ArchivedOperation(
        uid=uid or f"{mission}@{actor}@{start}",
        mission=mission, actor=actor, start_time=start, end_time=end,
        parent=parent,
    )
    parent.children.append(op)
    return op


def synthetic_archive(job_id="job", platform="Giraph", straggler=None,
                      recovery=False, makespan=100.0,
                      straggler_duration=8.0):
    """An archive with 5 supersteps x 4 workers of Compute leaves."""
    root = ArchivedOperation("root", "Job", "Client", 0.0, makespan)
    meta = {"algorithm": "bfs", "dataset": "d"}
    load = leaf(root, "LocalLoad", "Worker-1", 0.0, 30.0, uid="load")
    t = 30.0
    for step in range(5):
        for w in range(1, 5):
            duration = 4.0
            if straggler is not None and w == straggler:
                duration = straggler_duration
            leaf(root, f"Compute-{step}", f"Worker-{w}", t, t + duration)
        if recovery and step == 2:
            leaf(root, f"RecoverWorker-{step}", "Master", t + 8, t + 16)
        t += 10.0
    env = [(float(ts), "n1", 8.0) for ts in range(0, 30)]
    env += [(float(ts), "n1", 1.0) for ts in range(30, 100)]
    return PerformanceArchive(job_id, root, platform=platform,
                              metadata=meta, env_samples=env)


class TestMergeIntervals:
    def test_disjoint(self):
        assert _merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_overlapping(self):
        assert _merge_intervals([(0, 5), (3, 8)]) == [(0, 8)]

    def test_touching(self):
        assert _merge_intervals([(0, 2), (2, 4)]) == [(0, 4)]

    def test_nested(self):
        assert _merge_intervals([(0, 10), (2, 3)]) == [(0, 10)]

    def test_unsorted_input(self):
        assert _merge_intervals([(5, 6), (0, 1)]) == [(0, 1), (5, 6)]

    def test_empty(self):
        assert _merge_intervals([]) == []


class TestChokePoints:
    def test_dominant_operation_first(self):
        archive = synthetic_archive()
        points = find_choke_points(archive, min_share=0.01)
        assert points[0].mission == "LocalLoad"
        assert points[0].share == pytest.approx(0.30)

    def test_parallel_instances_counted_once(self):
        archive = synthetic_archive()
        compute = next(p for p in find_choke_points(archive, min_share=0.01)
                       if p.mission == "Compute")
        # 5 supersteps x 4s wall each (workers run in parallel).
        assert compute.wall_seconds == pytest.approx(20.0)
        assert compute.instances == 20

    def test_classification_from_env(self):
        archive = synthetic_archive()
        points = {p.mission: p for p in
                  find_choke_points(archive, min_share=0.01)}
        assert points["LocalLoad"].bound == "cpu-bound"
        assert points["Compute"].bound == "latency-bound"

    def test_unknown_without_env(self):
        archive = synthetic_archive()
        archive.env_samples.clear()
        points = find_choke_points(archive, min_share=0.01)
        assert all(p.bound == "unknown" for p in points)

    def test_min_share_filters(self):
        archive = synthetic_archive()
        points = find_choke_points(archive, min_share=0.25)
        assert [p.mission for p in points] == ["LocalLoad"]

    def test_top_n(self):
        archive = synthetic_archive()
        assert len(find_choke_points(archive, top_n=1, min_share=0.0)) == 1

    def test_rejects_zero_makespan(self):
        root = ArchivedOperation("r", "Job", "C", 5.0, 5.0)
        with pytest.raises(VisualizationError):
            find_choke_points(PerformanceArchive("j", root))

    def test_render(self):
        archive = synthetic_archive()
        text = render_choke_points(find_choke_points(archive, min_share=0.01))
        assert "LocalLoad" in text
        assert "cpu-bound" in text

    def test_real_giraph_archive(self, giraph_archive):
        points = find_choke_points(giraph_archive)
        assert points
        missions = [p.mission for p in points]
        assert "LocalLoad" in missions or "LocalStartup" in missions


class TestRegression:
    def test_identical_runs_pass(self):
        a = synthetic_archive("a")
        b = synthetic_archive("b")
        report = compare_archives(a, b)
        assert report.ok
        assert report.makespan_ratio == pytest.approx(1.0)

    def test_regression_detected(self):
        base = synthetic_archive("base")
        bad = synthetic_archive("bad", straggler=2, makespan=120.0)
        report = compare_archives(base, bad)
        assert not report.ok
        assert any(d.mission == "Compute" for d in report.regressions)

    def test_small_absolute_deltas_ignored(self):
        base = synthetic_archive("base")
        # A 0.2s regression on a 4s op is >10% but below the noise floor.
        bad = synthetic_archive("bad")
        for op in bad.walk():
            if op.mission_base == "Compute" and op.actor == "Worker-1":
                op.end_time = op.end_time + 0.004
        report = compare_archives(base, bad, min_abs_delta_s=0.5)
        assert report.ok

    def test_new_operation_is_regression(self):
        base = synthetic_archive("base")
        bad = synthetic_archive("bad", recovery=True)
        report = compare_archives(base, bad)
        assert any(d.mission == "RecoverWorker" for d in report.regressions)

    def test_mismatched_workloads_rejected(self):
        a = synthetic_archive("a")
        b = synthetic_archive("b", platform="PowerGraph")
        with pytest.raises(ArchiveError):
            compare_archives(a, b)

    def test_bad_threshold_rejected(self):
        a = synthetic_archive("a")
        with pytest.raises(ArchiveError):
            compare_archives(a, a, threshold=0.9)

    def test_assert_no_regression_raises(self):
        base = synthetic_archive("base")
        bad = synthetic_archive("bad", straggler=2)
        with pytest.raises(PerformanceRegressionError):
            assert_no_regression(base, bad)

    def test_assert_no_regression_returns_report(self):
        a = synthetic_archive("a")
        report = assert_no_regression(a, synthetic_archive("b"))
        assert report.ok

    def test_render(self):
        base = synthetic_archive("base")
        bad = synthetic_archive("bad", straggler=3)
        text = compare_archives(base, bad).render_text()
        assert "REGRESSION" in text
        assert "bad vs base" in text


class TestDiagnosis:
    def test_healthy_synthetic_has_no_critical(self):
        findings = diagnose(synthetic_archive())
        assert all(f.severity != "critical" for f in findings)

    def test_straggler_detected(self):
        findings = diagnose(synthetic_archive(straggler=3))
        stragglers = [f for f in findings if f.kind == "straggler"]
        assert len(stragglers) == 1
        assert stragglers[0].subject == "Worker-3"
        assert stragglers[0].severity == "critical"

    def test_recovery_detected(self):
        findings = diagnose(synthetic_archive(recovery=True))
        recoveries = [f for f in findings if f.kind == "recovery"]
        assert len(recoveries) == 1
        assert "RecoverWorker-2" in recoveries[0].subject

    def test_imbalance_detected_with_extreme_straggler(self):
        # max/mean = 12 / 6 = 2.0, above the 1.8 imbalance threshold.
        findings = diagnose(synthetic_archive(straggler=1,
                                              straggler_duration=12.0))
        assert any(f.kind == "imbalance" for f in findings)

    def test_moderate_skew_not_flagged_as_imbalance(self):
        # max/mean = 8 / 5 = 1.6, below the threshold: straggler yes,
        # per-superstep imbalance no.
        findings = diagnose(synthetic_archive(straggler=1))
        assert not any(f.kind == "imbalance" for f in findings)
        assert any(f.kind == "straggler" for f in findings)

    def test_critical_sorted_first(self):
        findings = diagnose(synthetic_archive(straggler=2, recovery=True))
        severities = [f.severity for f in findings]
        assert severities == sorted(
            severities, key=lambda s: 0 if s == "critical" else 1)

    def test_few_iterations_no_straggler_call(self):
        """Two iterations are not enough evidence for a straggler."""
        root = ArchivedOperation("r", "Job", "C", 0.0, 10.0)
        for step in range(2):
            for w in range(1, 3):
                duration = 5.0 if w == 1 else 1.0
                leaf(root, f"Compute-{step}", f"Worker-{w}",
                     step * 5.0, step * 5.0 + duration)
        archive = PerformanceArchive("j", root)
        findings = diagnose(archive)
        assert not any(f.kind == "straggler" for f in findings)

    def test_render_findings(self):
        text = render_findings(diagnose(synthetic_archive(straggler=2)))
        assert "straggler" in text
        assert render_findings([]) == "no findings: the run looks healthy"


class TestEndToEndFaultDiagnosis:
    """Inject faults, run, archive, diagnose — the full loop."""

    def test_injected_straggler_found(self, tiny_graph):
        from repro.core.archive.builder import build_archive
        from repro.core.model.giraph_model import giraph_model
        from repro.core.monitor.session import MonitoringSession
        from repro.platforms.base import JobRequest
        from repro.platforms.faults import FaultPlan, SlowNode, WorkerCrash
        from repro.platforms.pregel.engine import GiraphPlatform
        from tests.conftest import make_giraph_cluster

        platform = GiraphPlatform(make_giraph_cluster())
        platform.deploy_dataset("tiny", tiny_graph)
        slow_node = platform.cluster.node_names[4]  # Worker-5
        platform.inject_faults(FaultPlan(events=(
            SlowNode(slow_node, 3.0),
            WorkerCrash(worker=1, superstep=2),
        )))
        run = MonitoringSession(platform).run(JobRequest(
            "bfs", "tiny", 8, params={"source": 0}))
        archive, _ = build_archive(run, giraph_model())
        findings = diagnose(archive)
        kinds = {f.kind for f in findings}
        assert "recovery" in kinds
        stragglers = [f for f in findings if f.kind == "straggler"]
        assert any(f.subject == "Worker-5" for f in stragglers)


class TestCompleteness:
    def test_pristine_archive_is_complete(self):
        from repro.core.analysis.completeness import assess_completeness
        report = assess_completeness(synthetic_archive())
        assert report.complete
        assert report.score == 1.0
        assert report.inferred_missions == []

    def test_inferred_and_missing_counted(self):
        from repro.core.analysis.completeness import assess_completeness
        archive = synthetic_archive()
        ops = [op for op in archive.walk() if op is not archive.root]
        ops[0].mark_inferred()
        ops[1].end_time = None
        report = assess_completeness(archive)
        assert report.inferred == 1
        assert report.missing == 1
        assert 0 < report.score < 1
        assert ops[0].mission.split("-")[0] in \
            {m.split("-")[0] for m in report.inferred_missions}

    def test_diagnose_flags_incomplete_archive(self):
        archive = synthetic_archive()
        next(iter(archive.root.children)).mark_inferred()
        findings = diagnose(archive)
        incomplete = [f for f in findings if f.kind == "incomplete"]
        assert len(incomplete) == 1
        assert incomplete[0].severity == "warning"
        assert "completeness" in incomplete[0].evidence

    def test_mostly_inferred_archive_is_critical(self):
        archive = synthetic_archive()
        for op in archive.walk():
            op.mark_inferred()
        findings = diagnose(archive)
        incomplete = [f for f in findings if f.kind == "incomplete"]
        assert incomplete[0].severity == "critical"

    def test_render_text_mentions_inferred_missions(self):
        from repro.core.analysis.completeness import assess_completeness
        archive = synthetic_archive()
        archive.root.mark_inferred()
        text = assess_completeness(archive).render_text()
        assert "Job" in text
        assert "inferred" in text


class TestEffectiveMakespan:
    def test_uses_root_makespan_when_present(self):
        from repro.core.analysis.completeness import effective_makespan
        assert effective_makespan(synthetic_archive()) == 100.0

    def test_falls_back_to_observed_span(self):
        from repro.core.analysis.completeness import effective_makespan
        root = ArchivedOperation("r", "Job", "C")  # untimed root
        leaf(root, "A", "W", 2.0, 9.0)
        leaf(root, "B", "W", 5.0, 14.0)
        assert effective_makespan(PerformanceArchive("j", root)) == 12.0

    def test_rejects_untimed_archive(self):
        from repro.core.analysis.completeness import effective_makespan
        root = ArchivedOperation("r", "Job", "C", 5.0, 5.0)
        with pytest.raises(VisualizationError):
            effective_makespan(PerformanceArchive("j", root))

    def test_choke_points_on_partial_archive(self):
        root = ArchivedOperation("r", "Job", "C")
        leaf(root, "LocalLoad", "W", 0.0, 30.0)
        leaf(root, "Compute-0", "W", 30.0, 40.0)
        points = find_choke_points(PerformanceArchive("j", root),
                                   min_share=0.0)
        assert points[0].mission == "LocalLoad"
