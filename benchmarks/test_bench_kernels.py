"""Kernel micro-benchmarks and the scalar-vs-vectorized A/B comparison.

Two artifacts land in ``benchmarks/output/kernel_bench.json``:

* ``kernels`` — per-kernel throughput (vertices+edges processed per
  second) of every vectorized program on all four engines at
  dg100-scaled size.  This is the PageRank-Pipeline-style unit of
  comparison: raw kernel rate, independent of the Granula analysis
  stages.
* ``fixtures`` — warm A/B wall-clock of the paper's dg1000-scaled BFS
  session fixtures in ``scalar`` vs ``auto`` engine mode, next to the
  pre-optimization cold baselines, with the speedup the fast path must
  sustain (>= 5x) asserted so regressions fail the build.

"Warm" means the shared, mode-independent preparation — dataset
generation, deployment, and the greedy vertex cut — is done before the
clock starts, so the measured interval isolates the execution path the
engine mode actually selects.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments.common import GIRAPH_BFS, POWERGRAPH_BFS
from repro.graph.partition.vertexcut import greedy_vertex_cut
from repro.workloads.datasets import build_dataset
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec

#: Cold full-fixture wall-clock on the pre-optimization scalar engines,
#: measured at the commit before this backend landed.
BASELINE_COLD_S = {"Giraph": 6.29, "PowerGraph": 12.94}

#: The speedup the vectorized path must sustain on the session fixtures.
MIN_SPEEDUP = 5.0

_ARTIFACT = "kernel_bench.json"

#: Every built-in program with a vectorized kernel, per engine.
_KERNELS = {
    "Giraph": ("bfs", "pagerank", "wcc", "sssp", "cdlp"),
    "PowerGraph": ("bfs", "pagerank", "wcc", "sssp", "cdlp"),
    "Hadoop": ("bfs", "pagerank", "wcc"),
    "PGX.D": ("bfs", "pagerank"),
}

#: The stats key under which each engine counts its iterations.
_ITERATION_STATS = ("supersteps", "iterations", "rounds", "phases")


def _update_artifact(output_dir, section, payload):
    path = output_dir / _ARTIFACT
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[section] = payload
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _prepared_runner(mode, spec):
    """A runner with all mode-independent preparation already done."""
    runner = WorkloadRunner(engine_mode=mode)
    platform = runner.platform(spec.platform)
    graph = build_dataset(spec.dataset)
    if not platform.has_dataset(spec.dataset):
        platform.deploy_dataset(spec.dataset, graph)
    if spec.platform == "PowerGraph":
        key = (spec.dataset, spec.workers, platform.ingress)
        platform._cut_cache[key] = greedy_vertex_cut(graph, spec.workers)
    return runner


def _timed_run(runner, spec):
    t0 = time.perf_counter()
    iteration = runner.run(spec, fresh=True)
    return time.perf_counter() - t0, iteration


def test_bench_kernel_throughput(output_dir):
    """Vertices+edges per second of each vectorized kernel, all engines."""
    graph = build_dataset("dg100-scaled")
    rows = {}
    for platform_name, algos in _KERNELS.items():
        for algo in algos:
            spec = WorkloadSpec(platform_name, algo, "dg100-scaled",
                                workers=8)
            runner = _prepared_runner("vectorized", spec)
            best = min(_timed_run(runner, spec)[0] for _ in range(2))
            _, iteration = _timed_run(runner, spec)
            stats = iteration.run.result.stats
            iters = next(
                (stats[key] for key in _ITERATION_STATS if key in stats), 1)
            work = (graph.num_vertices + graph.num_edges) * max(iters, 1)
            rows[f"{platform_name}/{algo}"] = {
                "seconds": round(best, 4),
                "iterations": iters,
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "vertex_edge_per_s": round(work / best),
            }
            assert best > 0
    _update_artifact(output_dir, "kernels", rows)


@pytest.mark.parametrize("spec", [GIRAPH_BFS, POWERGRAPH_BFS],
                         ids=["Giraph", "PowerGraph"])
def test_bench_fixture_speedup(output_dir, spec):
    """The dg1000-scaled BFS fixtures are >= 5x faster in auto mode."""
    timings = {}
    for mode in ("scalar", "auto"):
        runner = _prepared_runner(mode, spec)
        timings[mode] = min(_timed_run(runner, spec)[0] for _ in range(2))
    speedup = timings["scalar"] / timings["auto"]
    _update_artifact(output_dir, f"fixtures/{spec.platform}", {
        "workload": spec.label(),
        "before_cold_scalar_s": BASELINE_COLD_S[spec.platform],
        "warm_scalar_s": round(timings["scalar"], 3),
        "warm_auto_s": round(timings["auto"], 3),
        "speedup": round(speedup, 2),
        "min_required_speedup": MIN_SPEEDUP,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"{spec.platform} fixture only {speedup:.2f}x faster in auto mode"
    )
