"""EXPERIMENTS.md generation: paper-vs-measured for every artifact."""

from __future__ import annotations

import json
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.visualize.render_html import render_report_html
from repro.experiments.common import (
    GIRAPH_BFS,
    POWERGRAPH_BFS,
    ExperimentResult,
    shared_runner,
)
from repro.experiments.fig3_breakdown import run_fig3
from repro.experiments.fig4_model import run_fig4
from repro.experiments.fig5_decomposition import run_fig5
from repro.experiments.fig6_giraph_cpu import run_fig6
from repro.experiments.fig7_powergraph_cpu import run_fig7
from repro.experiments.fig8_superstep import run_fig8
from repro.experiments.ext_chokepoints import run_chokepoints
from repro.experiments.ext_cross_platform import PGXD_BFS, run_cross_platform
from repro.experiments.ext_faults import (
    GIRAPH_BFS_100,
    POWERGRAPH_BFS_100,
    dead_node_plan,
    loader_crash_plan,
    run_faults,
    transient_plan,
)
from repro.experiments.ext_salvage import run_salvage, salvage_plan
from repro.experiments.ext_hadoop_baseline import HADOOP_BFS, run_hadoop_baseline
from repro.experiments.table1_platforms import run_table1
from repro.workloads.parallel import RunRequest
from repro.workloads.runner import WorkloadRunner

#: All experiment drivers: the paper's artifacts in order, then the
#: extension validating the introduction's general-platform claim.
ALL_EXPERIMENTS: Tuple[Tuple[str, Callable], ...] = (
    ("Table 1", run_table1),
    ("Figure 3", run_fig3),
    ("Figure 4", run_fig4),
    ("Figure 5", run_fig5),
    ("Figure 6", run_fig6),
    ("Figure 7", run_fig7),
    ("Figure 8", run_fig8),
    ("Extension: Hadoop baseline", run_hadoop_baseline),
    ("Extension: choke-point analysis", run_chokepoints),
    ("Extension: four-platform comparison", run_cross_platform),
    ("Extension: fault injection", run_faults),
    ("Extension: salvage ingestion", run_salvage),
)


def experiment_runs(runner: WorkloadRunner) -> List[RunRequest]:
    """Every distinct workload run the experiment suite performs.

    The drivers above re-request these through the runner's memo; by
    prewarming them with :meth:`WorkloadRunner.run_many` the suite's
    platform runs execute in parallel while each driver still sees
    exactly the artifacts a serial suite would produce.  (The fault
    experiment's determinism *replay* is excluded by design: it must
    re-execute inside the driver.)
    """
    giraph_nodes = runner.platform("Giraph").cluster.node_names
    return [
        RunRequest(GIRAPH_BFS),
        RunRequest(POWERGRAPH_BFS),
        RunRequest(HADOOP_BFS),
        RunRequest(PGXD_BFS),
        RunRequest(GIRAPH_BFS_100),
        RunRequest(GIRAPH_BFS_100, faults=transient_plan(giraph_nodes)),
        RunRequest(GIRAPH_BFS_100, faults=dead_node_plan(giraph_nodes)),
        RunRequest(POWERGRAPH_BFS_100, faults=loader_crash_plan()),
        RunRequest(GIRAPH_BFS_100, faults=salvage_plan()),
    ]


def run_all(
    runner: Optional[WorkloadRunner] = None,
    jobs: Optional[int] = None,
) -> List[ExperimentResult]:
    """Run every experiment against one shared runner.

    ``jobs > 1`` prewarms the suite's platform runs across worker
    processes first; the drivers then analyze the memoized results.
    The output is identical to a serial suite.
    """
    runner = runner or shared_runner()
    if jobs is not None and jobs > 1:
        runner.run_many(experiment_runs(runner), jobs=jobs)
    return [driver(runner) for _name, driver in ALL_EXPERIMENTS]


def render_markdown(results: Sequence[ExperimentResult]) -> str:
    """EXPERIMENTS.md content from a set of results."""
    lines: List[str] = [
        "# Experiments: paper vs. measured",
        "",
        "Generated by `repro.experiments.report`. Absolute numbers are not",
        "expected to match (the substrate is a calibrated simulator, not",
        "DAS5); the *shape* checks assert the paper's qualitative findings.",
        "",
        "| Artifact | Checks | Status |",
        "|---|---|---|",
    ]
    for (name, _driver), result in zip(ALL_EXPERIMENTS, results):
        passed = sum(ok for _c, ok in result.checks)
        status = "reproduced" if result.all_checks_pass else "MISMATCH"
        lines.append(
            f"| {name}: {result.title} | {passed}/{len(result.checks)} "
            f"| {status} |"
        )
    for (name, _driver), result in zip(ALL_EXPERIMENTS, results):
        lines.extend([
            "",
            f"## {name}: {result.title}",
            "",
            "Paper:",
            "```json",
            json.dumps(result.paper, indent=2),
            "```",
            "Measured:",
            "```json",
            json.dumps(result.measured, indent=2),
            "```",
            "Shape checks:",
        ])
        for claim, ok in result.checks:
            lines.append(f"- [{'x' if ok else ' '}] {claim}")
        lines.extend(["", "```text", result.text, "```"])
    lines.append("")
    return "\n".join(lines)


def render_html(runner: WorkloadRunner) -> str:
    """HTML report over the suite's headline runs, from memory.

    Uses the archives already held by the runner's memo (running any
    that are missing) — the archives the experiments just analyzed are
    rendered directly instead of being re-parsed from the on-disk store.
    """
    iterations = runner.run_many([
        RunRequest(GIRAPH_BFS),
        RunRequest(POWERGRAPH_BFS),
        RunRequest(HADOOP_BFS),
        RunRequest(PGXD_BFS),
    ])
    return render_report_html(
        [iteration.archive for iteration in iterations],
        title="Granula reproduction: cross-platform BFS (dg1000-scaled)",
    )

