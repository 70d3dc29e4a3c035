"""Benchmark + regeneration of the regression-testing workflow.

The CI-gate story end-to-end at benchmark scale: a healthy baseline run,
a degraded candidate (slow node + worker crash), the archive comparison
that catches it, and the diagnosis that names the causes.
"""

from benchmarks.conftest import write_artifact
from repro.core.analysis.diagnosis import diagnose, render_findings
from repro.core.analysis.regression import compare_archives
from repro.core.archive.builder import build_archive
from repro.core.model.giraph_model import giraph_model
from repro.core.monitor.session import MonitoringSession
from repro.platforms.base import JobRequest
from repro.platforms.faults import FaultPlan, SlowNode, WorkerCrash
from repro.platforms.pregel.engine import GiraphPlatform
from repro.workloads.datasets import build_dataset
from repro.workloads.runner import build_cluster

DATASET = "dg100-scaled"


def test_bench_regression_gate(benchmark, output_dir):
    platform = GiraphPlatform(build_cluster("Giraph"))
    platform.deploy_dataset(DATASET, build_dataset(DATASET))
    session = MonitoringSession(platform)
    model = giraph_model()
    request = JobRequest("bfs", DATASET, 8, params={"source": 0},
                         job_id="baseline")

    baseline, _ = build_archive(session.run(request), model)
    slow_node = platform.cluster.node_names[3]
    platform.inject_faults(FaultPlan(events=(
        SlowNode(slow_node, 2.5), WorkerCrash(worker=0, superstep=2),
    )))
    candidate, _ = build_archive(
        session.run(JobRequest("bfs", DATASET, 8, params={"source": 0},
                               job_id="candidate")),
        model,
    )
    platform.inject_faults(None)

    report = benchmark(compare_archives, baseline, candidate)
    assert not report.ok  # The gate catches the degradation.
    findings = diagnose(candidate)
    kinds = {f.kind for f in findings}
    assert "recovery" in kinds

    text = "\n\n".join([
        report.render_text(top_n=8),
        render_findings([f for f in findings if f.severity == "critical"]),
    ])
    print()
    print(text)
    write_artifact(output_dir, "regression_gate.txt", text)
