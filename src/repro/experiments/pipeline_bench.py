"""End-to-end pipeline benchmark: generate→run→ingest→archive→analyze.

The PageRank Pipeline Benchmark argues the whole pipeline is the unit
that must be fast; this module times Granula's own
Monitoring→Archiving→Analysis loop across the experiment suite's run
matrix under the accelerators this repository ships (the
monitoring→archive stage alone is measured in absolute terms by the
``ingest_archive`` workload of ``perfbench``):

- **end-to-end**: the suite's workload runs executed serially against a
  cold artifact cache, then again with a warm cache fanned out across
  ``--jobs`` worker processes.  Both phases produce byte-identical
  archives (asserted), so the speedup is pure overhead removal.
- **columnar query**: warm archive queries answered from the mmap'd
  ``.gcol`` binary sidecar (:mod:`repro.core.archive.columnar`)
  against the same battery run by materializing the JSON operation
  tree — the zero-copy hot path the archive service takes.
- **fan-out RSS**: the parallel harness's shared-memory graph pages
  (:mod:`repro.graph.shm`) measured via PSS — doubling the worker
  count must grow the dataset's physical residency sublinearly.

The gate metrics distilled from one run (speedup ratios, not absolute
times) feed the repo-root ``BENCH_pipeline.json`` perf-trajectory
baseline; :func:`compare_pipeline_bench` flags any metric that
regressed beyond tolerance (``granula bench --gate``).

``GRANULA_BENCH_SMALL=1`` (or ``small=True``) shrinks the matrix to
dg100-scaled for CI smoke runs.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import re
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cache import CACHE_DIR_ENV
from repro.core.archive.serialize import archive_from_json, archive_to_json
from repro.core.process import EvaluationIteration
from repro.workloads.datasets import clear_cache
from repro.workloads.parallel import RunRequest
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec

#: Environment switch shrinking the benchmark to CI-smoke size.
SMALL_ENV = "GRANULA_BENCH_SMALL"

#: The four platforms of the cross-platform experiment.
PLATFORMS = ("Giraph", "PowerGraph", "Hadoop", "PGX.D")

#: Reps of the columnar-query battery.  It is milliseconds per rep, so
#: reps are nearly free — and fewer are too noisy for a ratio that
#: gates CI.
QUERY_REPS = 20


def small_mode() -> bool:
    """Whether the environment asks for the CI-smoke matrix."""
    return bool(os.environ.get(SMALL_ENV))


def bench_requests(small: bool = False) -> List[RunRequest]:
    """The run matrix the benchmark times.

    Full mode mirrors the experiment suite's distinct workload runs
    (see :func:`repro.experiments.report.experiment_runs`): the four
    dg1000-scaled platform BFS runs plus the dg100-scaled fault
    scenarios.  Small mode keeps the same shape on dg100-scaled only.
    """
    from repro.experiments.ext_faults import transient_plan

    dataset = "dg100-scaled" if small else "dg1000-scaled"
    runner = WorkloadRunner()
    giraph_nodes = runner.platform("Giraph").cluster.node_names
    requests = [
        RunRequest(WorkloadSpec(platform, "bfs", dataset, workers=8))
        for platform in PLATFORMS
    ]
    giraph_100 = WorkloadSpec("Giraph", "bfs", "dg100-scaled", workers=8)
    requests.append(
        RunRequest(giraph_100, faults=transient_plan(giraph_nodes))
    )
    if not small:
        from repro.experiments.ext_faults import (
            dead_node_plan,
            loader_crash_plan,
        )
        from repro.experiments.ext_salvage import salvage_plan

        powergraph_100 = WorkloadSpec("PowerGraph", "bfs", "dg100-scaled",
                                      workers=8)
        requests.extend([
            RunRequest(giraph_100),
            RunRequest(giraph_100, faults=dead_node_plan(giraph_nodes)),
            RunRequest(powergraph_100, faults=loader_crash_plan()),
            RunRequest(giraph_100, faults=salvage_plan()),
        ])
    return requests


@contextmanager
def _cache_dir(path: Union[str, Path]):
    """Point the artifact cache at ``path`` for the duration."""
    old = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(path)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = old


def _timed_suite(
    requests: List[RunRequest],
    jobs: Optional[int],
) -> Tuple[float, List[EvaluationIteration]]:
    """Run the matrix on a fresh runner; in-process caches cleared."""
    clear_cache()
    runner = WorkloadRunner()
    t0 = time.perf_counter()
    iterations = runner.run_many(requests, jobs=jobs)
    return time.perf_counter() - t0, iterations


def _query_battery(query) -> Tuple[Any, ...]:
    """The aggregation battery both query paths must answer identically.

    Works unchanged against a tree :class:`ArchiveQuery` and a
    :class:`ColumnarArchiveView` — the selector/aggregation surface is
    shared by name, and every result here is shape-identical.
    """
    return (
        len(query),
        query.total(),
        query.durations(),
        query.mission("Superstep").total(),
        query.mission("Superstep").values("Duration"),
        query.actor("Worker").total(),
    )


def _bench_columnar_query(
    iteration: EvaluationIteration, reps: int
) -> Dict[str, Any]:
    """Warm queries: mmap'd ``.gcol`` sidecar vs JSON tree build.

    Per rep each path starts from the stored bytes — read + verify +
    build the query surface + answer the battery — exactly what the
    archive service does on a cache miss.  Objects are rebuilt every
    rep; only the page cache is warm.
    """
    from repro.core.archive.columnar import load_sidecar
    from repro.core.archive.query import ArchiveQuery
    from repro.core.archive.store import ArchiveStore

    archive = iteration.archive
    with tempfile.TemporaryDirectory(prefix="granula-gcol-") as tmp:
        store = ArchiveStore(tmp)
        store.save(archive, overwrite=True)
        json_path = Path(tmp) / f"{archive.job_id}.json"
        gcol_path = store.sidecar_path(archive.job_id)
        if not gcol_path.exists():
            return {"skipped": "archive produced no .gcol sidecar"}

        # One untimed warmup per path (page cache, import side effects),
        # then the timed reps.
        _query_battery(ArchiveQuery(archive_from_json(json_path.read_text())))
        t0 = time.perf_counter()
        for _ in range(reps):
            tree = archive_from_json(json_path.read_text())
            tree_results = _query_battery(ArchiveQuery(tree))
        tree_s = time.perf_counter() - t0

        warmup = load_sidecar(gcol_path)
        _query_battery(warmup)
        warmup.close()
        t0 = time.perf_counter()
        for _ in range(reps):
            view = load_sidecar(gcol_path)
            gcol_results = _query_battery(view)
            view.close()
        gcol_s = time.perf_counter() - t0

    return {
        "job": archive.job_id,
        "operations": len(list(archive.walk())),
        "reps": reps,
        "tree_s": round(tree_s, 4),
        "gcol_s": round(gcol_s, 4),
        "speedup": round(tree_s / gcol_s, 2) if gcol_s else None,
        "identical_results": tree_results == gcol_results,
    }


# -- fan-out RSS ----------------------------------------------------------

_PSS_LINE = re.compile(r"^Pss:\s+(\d+) kB", re.MULTILINE)
_MAP_HEADER = re.compile(r"^[0-9a-f]+-[0-9a-f]+\s", re.ASCII)


def _self_pss_kb() -> Optional[int]:
    """This process's proportional set size, or None off-Linux."""
    try:
        text = Path("/proc/self/smaps_rollup").read_text()
    except OSError:
        return None
    found = _PSS_LINE.search(text)
    return int(found.group(1)) if found else None


def _shm_pss_kb() -> Optional[int]:
    """PSS of this process's shared-memory graph mappings.

    Sums the ``Pss:`` of every ``/dev/shm/psm_*`` mapping — the POSIX
    segments :mod:`repro.graph.shm` creates.  Shared pages are divided
    across attaching processes, so summing this over all workers
    measures the *physical* footprint of the dataset, which is exactly
    what stays flat when the pages are truly shared.
    """
    try:
        text = Path("/proc/self/smaps").read_text()
    except OSError:
        return None
    total = 0
    in_shm_mapping = False
    for line in text.splitlines():
        if _MAP_HEADER.match(line):
            in_shm_mapping = "/dev/shm/psm_" in line
        elif in_shm_mapping and line.startswith("Pss:"):
            total += int(line.split()[1])
    return total


def _rss_init(library, n_nodes, engine_mode, handles, barrier) -> None:
    from repro.workloads import parallel as par

    par._init_worker(library, n_nodes, engine_mode, handles)
    par._WORKER_STATE["pss_barrier"] = barrier


def _rss_probe() -> Tuple[int, int]:
    """(total PSS, shm-mapping PSS) of one pool worker.

    The barrier holds every worker inside its own probe, so exactly one
    probe lands on each of them.
    """
    from repro.workloads import parallel as par

    par._WORKER_STATE["pss_barrier"].wait(120)
    return _self_pss_kb() or 0, _shm_pss_kb() or 0


def _fanout_pss(requests: List[RunRequest], workers: int,
                ctx) -> Optional[Tuple[int, int]]:
    """Summed worker (PSS, shm PSS) after a fan-out of ``requests``."""
    from repro.workloads import parallel as par

    runner = WorkloadRunner()
    pages, handles = par._share_datasets(requests)
    if pages is None:
        return None
    barrier = ctx.Barrier(workers)
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_rss_init,
            initargs=(runner.library, runner.n_nodes,
                      runner.engine_mode, handles, barrier),
        ) as pool:
            for future in [pool.submit(par._run_request, r)
                           for r in requests]:
                future.result()
            probes = [pool.submit(_rss_probe) for _ in range(workers)]
            samples = [probe.result() for probe in probes]
    finally:
        pages.close()
    return (sum(total for total, _ in samples),
            sum(shm for _, shm in samples))


def _bench_fanout_rss(small: bool) -> Dict[str, Any]:
    """Dataset residency of the fan-out at two worker counts.

    Four distinct Giraph runs over one dataset, executed by 2 and then
    4 workers.  With the shared-memory graph pages a worker's share of
    the dataset shrinks as more workers attach, so the summed PSS must
    grow sublinearly — the unshared counterfactual doubles it.
    """
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return {"skipped": "platform cannot fork"}
    if _self_pss_kb() is None:
        return {"skipped": "no /proc/self/smaps_rollup"}

    dataset = "dg100-scaled" if small else "dg1000-scaled"
    requests = [
        RunRequest(WorkloadSpec("Giraph", algorithm, dataset, workers=8))
        for algorithm in ("bfs", "pagerank", "wcc", "sssp")
    ]
    totals: Dict[int, Tuple[int, int]] = {}
    for workers in (2, 4):
        clear_cache()
        sample = _fanout_pss(requests, workers, ctx)
        if sample is None:
            return {"skipped": "shared-memory pages unavailable"}
        totals[workers] = sample
    clear_cache()
    (pss2, shm2), (pss4, shm4) = totals[2], totals[4]
    return {
        "dataset": dataset,
        "runs": len(requests),
        "workers_2": {"total_pss_kb": pss2, "shm_pss_kb": shm2},
        "workers_4": {"total_pss_kb": pss4, "shm_pss_kb": shm4},
        # Physical dataset footprint growth when workers double; 1.0 =
        # perfectly shared, 2.0 = every worker holds a private copy.
        "shm_pss_ratio_4v2": round(shm4 / shm2, 3) if shm2 else None,
        "total_pss_ratio_4v2": round(pss4 / pss2, 3) if pss2 else None,
    }


def run_pipeline_bench(
    jobs: int = 4,
    small: Optional[bool] = None,
) -> Dict[str, Any]:
    """Time the pipeline end to end; returns the artifact document."""
    if small is None:
        small = small_mode()
    requests = bench_requests(small)

    with tempfile.TemporaryDirectory(prefix="granula-bench-") as tmp:
        with _cache_dir(tmp):
            serial_cold_s, serial = _timed_suite(requests, jobs=None)
            warm_jobs_s, parallel = _timed_suite(requests, jobs=jobs)
    identical = all(
        archive_to_json(a.archive) == archive_to_json(b.archive)
        for a, b in zip(serial, parallel)
    )

    # The query stage is measured on the Giraph BFS run (the paper's
    # headline workload) from the serial phase.
    columnar = _bench_columnar_query(serial[0], QUERY_REPS)
    with tempfile.TemporaryDirectory(prefix="granula-bench-") as tmp:
        with _cache_dir(tmp):
            fanout = _bench_fanout_rss(small)

    return {
        "small": small,
        "jobs": jobs,
        "runs": len(requests),
        "workloads": [r.memo_key() for r in requests],
        "end_to_end": {
            "serial_cold_s": round(serial_cold_s, 3),
            "warm_jobs_s": round(warm_jobs_s, 3),
            "speedup": round(serial_cold_s / warm_jobs_s, 2)
            if warm_jobs_s else None,
        },
        "columnar_query": columnar,
        "fanout_rss": fanout,
        "byte_identical_archives": identical,
    }


def write_pipeline_bench(path: Union[str, Path], document: Dict[str, Any]) -> None:
    """Persist the benchmark artifact as JSON."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def render_pipeline_bench(document: Dict[str, Any]) -> str:
    """Human-readable summary of one benchmark document."""
    e2e = document["end_to_end"]
    lines = [
        f"pipeline benchmark ({document['runs']} runs, "
        f"{'small' if document['small'] else 'full'} matrix)",
        f"  end-to-end: serial cold {e2e['serial_cold_s']:.2f}s, "
        f"warm --jobs {document['jobs']} {e2e['warm_jobs_s']:.2f}s "
        f"({e2e['speedup']}x)",
    ]
    columnar = document.get("columnar_query", {})
    if "speedup" in columnar:
        lines.append(
            f"  columnar query: tree {columnar['tree_s']:.2f}s, "
            f".gcol {columnar['gcol_s']:.2f}s "
            f"({columnar['speedup']}x over {columnar['reps']} reps)"
        )
    elif columnar:
        lines.append(f"  columnar query: {columnar.get('skipped')}")
    fanout = document.get("fanout_rss", {})
    if "shm_pss_ratio_4v2" in fanout:
        lines.append(
            f"  fan-out RSS: dataset pages grew "
            f"{fanout['shm_pss_ratio_4v2']}x (total PSS "
            f"{fanout['total_pss_ratio_4v2']}x) when workers doubled"
        )
    elif fanout:
        lines.append(f"  fan-out RSS: {fanout.get('skipped')}")
    lines.append(
        f"  archives byte-identical: "
        f"{document['byte_identical_archives']}"
    )
    return "\n".join(lines)


# -- perf-trajectory gate -------------------------------------------------

#: Gate metrics and their good direction.  Ratios, never absolute
#: seconds, so the committed baseline survives machine changes.
GATE_METRICS: Dict[str, str] = {
    "end_to_end_speedup": "higher",
    "columnar_query_speedup": "higher",
    "fanout_shm_pss_ratio_4v2": "lower",
}

#: Allowed relative regression before the gate fails.
GATE_TOLERANCE = 0.25


def extract_metrics(document: Dict[str, Any]) -> Dict[str, Any]:
    """The gate metrics of one benchmark document (None = unmeasured)."""
    return {
        "end_to_end_speedup": document["end_to_end"].get("speedup"),
        "columnar_query_speedup":
            document.get("columnar_query", {}).get("speedup"),
        "fanout_shm_pss_ratio_4v2":
            document.get("fanout_rss", {}).get("shm_pss_ratio_4v2"),
    }


def baseline_document(document: Dict[str, Any]) -> Dict[str, Any]:
    """The committed ``BENCH_pipeline.json`` shape for one bench run."""
    return {
        "schema": 1,
        "small": document["small"],
        "tolerance": GATE_TOLERANCE,
        "metrics": extract_metrics(document),
    }


def compare_gate_metrics(
    baseline_metrics: Dict[str, Any],
    current_metrics: Dict[str, Any],
    gate_metrics: Dict[str, str],
    tolerance: float,
) -> List[str]:
    """Gate metrics of ``current_metrics`` that regressed past tolerance.

    The shared trajectory comparator: each benchmark suite supplies its
    own metric extraction and direction table and funnels through here,
    so every ``granula bench --gate`` failure message reads the same.
    Metrics absent from either side are skipped — a baseline recorded
    on a fork-less or non-Linux machine must not wedge the gate
    elsewhere.
    """
    regressions = []
    for metric, direction in gate_metrics.items():
        base = baseline_metrics.get(metric)
        now = current_metrics.get(metric)
        if base is None or now is None:
            continue
        if direction == "higher":
            floor = base * (1.0 - tolerance)
            if now < floor:
                regressions.append(
                    f"{metric}: {now} fell below {floor:.2f} "
                    f"(baseline {base}, tolerance {tolerance:.0%})"
                )
        else:
            ceiling = base * (1.0 + tolerance)
            if now > ceiling:
                regressions.append(
                    f"{metric}: {now} rose above {ceiling:.2f} "
                    f"(baseline {base}, tolerance {tolerance:.0%})"
                )
    return regressions


def compare_pipeline_bench(
    baseline: Dict[str, Any],
    document: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> List[str]:
    """Regressions of ``document`` against a committed baseline."""
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", GATE_TOLERANCE))
    return compare_gate_metrics(
        baseline.get("metrics", {}), extract_metrics(document),
        GATE_METRICS, tolerance,
    )
