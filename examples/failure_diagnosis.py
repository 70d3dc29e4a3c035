#!/usr/bin/env python
"""Failure diagnosis and performance regression testing (future work).

Runs a healthy Giraph BFS job as the baseline, then the same job with two
injected faults — a 2.2x-slow node and a worker crash at superstep 3 —
and shows what Granula's analyses see:

- choke-point analysis of the healthy run,
- failure diagnosis of the faulty run (recovery event + straggler, with
  the guilty node named),
- a regression report comparing the two archives, as a CI performance
  gate would,
- a scheduled fault plan mixing every transient fault type (container
  launch failure, HDFS block-read error, flaky disk, degraded link,
  checkpointed worker crash), with the recovery cost attributed per
  mechanism.
"""

from repro import GiraphPlatform, JobRequest, MonitoringSession, build_archive
from repro.core.analysis import (
    compare_archives,
    diagnose,
    find_choke_points,
    recovery_overhead,
)
from repro.core.analysis.chokepoint import render_choke_points
from repro.core.analysis.diagnosis import render_findings
from repro.core.model import giraph_model
from repro.platforms.faults import (
    ContainerLaunchFailure,
    DegradedLink,
    FaultPlan,
    HdfsReadError,
    SlowDisk,
    SlowNode,
    WorkerCrash,
)
from repro.workloads.datasets import build_dataset
from repro.workloads.runner import build_cluster


def main() -> None:
    dataset = "dg100-scaled"
    platform = GiraphPlatform(build_cluster("Giraph"))
    platform.deploy_dataset(dataset, build_dataset(dataset))
    session = MonitoringSession(platform)
    model = giraph_model()
    request = JobRequest("bfs", dataset, 8, params={"source": 0},
                         job_id="baseline")

    # --- Healthy baseline --------------------------------------------------
    baseline_run = session.run(request)
    baseline, _ = build_archive(baseline_run, model)
    print("choke points of the healthy run:")
    print(render_choke_points(find_choke_points(baseline)))

    # --- Faulty run ----------------------------------------------------------
    slow_node = platform.cluster.node_names[2]
    platform.inject_faults(FaultPlan(events=(
        SlowNode(slow_node, 2.2),
        WorkerCrash(worker=4, superstep=3),
    )))
    faulty_run = session.run(JobRequest(
        "bfs", dataset, 8, params={"source": 0}, job_id="faulty"))
    platform.inject_faults(None)
    faulty, _ = build_archive(faulty_run, model)

    print(f"\ninjected: {slow_node} slowed 2.2x; Worker-5 crashed at "
          f"superstep 3")
    print("output still correct:",
          faulty_run.result.output == baseline_run.result.output)

    print("\ndiagnosis of the faulty run:")
    findings = diagnose(faulty)
    print(render_findings([f for f in findings
                           if f.severity == "critical"]))

    # --- Regression gate -----------------------------------------------------
    print("\nregression report (what a CI perf gate would evaluate):")
    report = compare_archives(baseline, faulty)
    print(report.render_text(top_n=5))
    print("\ngate verdict:", "FAIL (regressed)" if not report.ok else "pass")

    # --- Scheduled fault plan: every transient fault type --------------------
    nodes = platform.cluster.node_names
    plan = FaultPlan(
        events=(
            ContainerLaunchFailure(nodes[3], failures=1),
            HdfsReadError(nodes[0], blocks=1),
            SlowDisk(nodes[1], factor=2.0),
            DegradedLink(nodes[6], factor=1.8),
            WorkerCrash(worker=2, superstep=2),
        ),
        checkpoint_interval=2,
        seed=42,
    )
    print(f"\nscheduled fault plan {plan.signature()} "
          f"({len(plan.events)} events, checkpoints every "
          f"{plan.interval()} supersteps):")
    platform.inject_faults(plan)
    chaos_run = session.run(JobRequest(
        "bfs", dataset, 8, params={"source": 0}, job_id="chaos"))
    platform.inject_faults(None)
    chaos, _ = build_archive(chaos_run, model)
    print("output still correct:",
          chaos_run.result.output == baseline_run.result.output)
    print(render_findings([f for f in diagnose(chaos)
                           if f.kind == "recovery"]))
    overhead = recovery_overhead(chaos)
    print("recovery overhead by mechanism:")
    for mission, seconds in sorted(overhead.items()):
        if mission in ("total", "share"):
            continue
        print(f"  {mission:<24} {seconds:7.2f}s")
    print(f"  {'total':<24} {overhead['total']:7.2f}s "
          f"({overhead['share'] * 100:.1f}% of the makespan)")


if __name__ == "__main__":
    main()
