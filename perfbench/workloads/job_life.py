"""``job_life``: the paper's experiment as users run it.

Each pass is what one ``granula run`` / ``granula experiments``
invocation does: a fresh ``WorkloadRunner`` over a fresh store executes
eight jobs through the whole pipeline (engine → log collect → env
monitor → ``build_archive`` → ``store.save`` → visuals).  The four
engines do most of the work, so kernel and engine changes show here and
archive-layer changes barely do.
"""

from __future__ import annotations

import shutil
import time
from typing import Any, Dict, List, Tuple

from repro.core.archive.store import ArchiveStore
from repro.core.monitor.collector import collect_platform_log_columns
from repro.core.monitor.session import MonitoredRun
from repro.core.visualize.breakdown import compute_breakdown
from repro.core.visualize.gantt import compute_gantt
from repro.core.visualize.utilization import compute_utilization
from repro.errors import VisualizationError
from repro.workloads.datasets import build_dataset, clear_cache
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec

from perfbench import steps
from perfbench.harness import Op, Workload, disk_bytes
from perfbench.trace import Recorder

#: Platform name → the ``repro.platforms`` package that implements it.
ENGINES = {"Giraph": "pregel", "PowerGraph": "gas", "Hadoop": "mapreduce",
           "PGX.D": "pgxd"}

#: EXPERIMENTS.md, Figure 5: Giraph BFS phase shares, each within 6 pp.
GIRAPH_BFS_SHARES = {"Setup": 0.309, "Input/output": 0.433,
                     "Processing": 0.258}
SHARE_TOLERANCE = 0.06
#: ... and PowerGraph BFS is dominated by input/output.
POWERGRAPH_IO_FLOOR = 0.90


class JobLife(Workload):
    name = "job_life"

    def setup(self, rec: Any) -> None:
        bfs_data, rank_data = (
            ("dg-tiny", "dg-tiny") if self.ctx.quick
            else ("dg1000-scaled", "dg100-scaled"))
        self.specs = [
            WorkloadSpec(platform, algorithm, dataset)
            for platform in ENGINES
            for algorithm, dataset in (("bfs", bfs_data),
                                       ("pagerank", rank_data))
        ]
        # Cold: an empty artifact cache and no graph memoized in-process.
        shutil.rmtree(self.ctx.root / "cache", ignore_errors=True)
        clear_cache()
        with rec.span("graph.generators.datagen"):
            build_dataset(bfs_data)
        build_dataset(rank_data)
        # A vertex cut reaches the disk cache only through a PowerGraph
        # job, so set-up pays the cold cut the way a first invocation
        # does; a second, warm platform then isolates the cut's cost.
        for name in ("cold", "warm") if self.ctx.trace else ("cold",):
            platform = WorkloadRunner().platform("PowerGraph")
            for spec in self.specs:
                if spec.platform != "PowerGraph":
                    continue
                if not platform.has_dataset(spec.dataset):
                    platform.deploy_dataset(
                        spec.dataset, build_dataset(spec.dataset))
                with rec.span(f"perfbench.{name}_cut.{spec.algorithm}"):
                    platform.run_job(spec.to_request(job_id=spec.label()))
        # Measured passes run on disk-cache-loaded graphs, like a user's
        # second invocation.
        clear_cache()
        with rec.span("workloads.datasets.warm_load"):
            build_dataset(bfs_data)
            build_dataset(rank_data)
        self.reference: Dict[str, str] = {}
        self.pass_index = 0
        self.store_dir = None
        self.stored_operations = 0

    def teardown(self) -> None:
        clear_cache()

    # -- one pass ------------------------------------------------------------

    def run_pass(self, rec: Any) -> List[Op]:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir)
        self.pass_index += 1
        self.store_dir = self.ctx.root / f"store-{self.pass_index}"
        runner = WorkloadRunner(store=ArchiveStore(self.store_dir))
        ops = []
        self.stored_operations = 0
        for spec in self.specs:
            started = time.perf_counter()
            if rec.enabled:
                archive, breakdown = self._run_traced(rec, runner, spec)
            else:
                iteration = runner.run(spec)
                archive, breakdown = iteration.archive, iteration.breakdown
            seconds = time.perf_counter() - started
            self.stored_operations += archive.size()
            ops.append(Op("job", seconds,
                          self._check(runner.store, spec, breakdown)))
        return ops

    def _run_traced(self, rec: Recorder, runner: WorkloadRunner,
                    spec: WorkloadSpec) -> Tuple[Any, Any]:
        """``runner.run(spec)`` step by step, one span per layer."""
        with rec.span("core.process.init"):
            platform = runner.platform(spec.platform)
            process = runner.process(spec.platform)
        if not platform.has_dataset(spec.dataset):
            with rec.span("platforms.deploy"):
                platform.deploy_dataset(
                    spec.dataset, build_dataset(spec.dataset))
        request = spec.to_request(job_id=spec.label())
        engine = ENGINES[spec.platform]
        with rec.span(f"platforms.{engine}.{spec.algorithm}_job",
                      op=spec.label()) as span:
            result = platform.run_job(request)
            span.counts["log_lines"] = len(result.log_lines)
            span.counts["vectorized"] = int(
                platform.last_engine_path == "vectorized")
        with rec.span("core.monitor.collect", lines=len(result.log_lines)):
            columns, report = collect_platform_log_columns(
                result, strict=process.session.strict)
        with rec.span("cluster.envmonitor"):
            nodes = platform.cluster.node_names[: request.workers]
            monitor = process.session.env_monitor
            env_series = monitor.sample_window(
                result.started_at, result.finished_at, nodes)
            env_samples = monitor.samples(
                result.started_at, result.finished_at, nodes)
        run = MonitoredRun(
            result=result, records=columns.records(),
            env_series=env_series, env_samples=env_samples,
            node_names=list(nodes), parse_report=report, columns=columns,
        )
        archive = steps.build(rec, run, process.model)
        steps.save(rec, runner.store, archive)
        with rec.span("core.visualize.compute"):
            breakdown = compute_breakdown(archive)
            compute_utilization(archive)
            try:
                compute_gantt(archive)
            except VisualizationError:
                pass  # Model coarser than the implementation level.
        return archive, breakdown

    def _check(self, store: ArchiveStore, spec: WorkloadSpec,
               breakdown: Any) -> bool:
        """Same archive bytes in every pass, traced or not; paper shares."""
        label = spec.label()
        checksum = store.checksum(label)
        ok = self.reference.setdefault(label, checksum) == checksum
        if self.ctx.quick or spec.algorithm != "bfs":
            return ok
        if spec.platform == "Giraph":
            ok = ok and all(
                abs(breakdown.share_of(phase) - share) <= SHARE_TOLERANCE
                for phase, share in GIRAPH_BFS_SHARES.items())
        elif spec.platform == "PowerGraph":
            ok = ok and (
                breakdown.share_of("Input/output") >= POWERGRAPH_IO_FLOOR)
        return ok

    def stored(self) -> Tuple[int, int]:
        return disk_bytes(self.store_dir), self.stored_operations

    # -- layer numbers ---------------------------------------------------------

    def layer_metrics(self, rec: Recorder) -> Dict[str, float]:
        passes = len(rec.named("perfbench.pass"))
        jobs = [s for s in rec.spans if s.name.endswith("_job")]
        metrics = steps.archive_layer_metrics(rec)
        for engine in ENGINES.values():
            for algorithm in ("bfs", "pagerank"):
                name = f"platforms.{engine}.{algorithm}_job"
                metrics[f"{name}_ms"] = steps.median_ms(rec.named(name))
        cold = rec.named("perfbench.cold_cut.bfs")
        warm = rec.named("perfbench.warm_cut.bfs")
        metrics.update({
            "graph.generators.datagen_s": steps.median_ms(
                rec.named("graph.generators.datagen")) / 1e3,
            "graph.partition.vertexcut_s": (
                steps.median_ms(cold) - steps.median_ms(warm)) / 1e3,
            "workloads.datasets.warm_load_ms": steps.median_ms(
                rec.named("workloads.datasets.warm_load")),
            "platforms.deploy_ms": sum(
                s.duration for s in rec.named("platforms.deploy")
            ) * 1e3 / passes,
            "platforms.vectorized_share": sum(
                s.counts["vectorized"] for s in jobs) / len(jobs),
            "platforms.log_lines_per_job": sum(
                s.counts["log_lines"] for s in jobs) / len(jobs),
            "cluster.envmonitor_ms": steps.median_ms(
                rec.named("cluster.envmonitor")),
            "core.monitor.collect_ms": steps.median_ms(
                rec.named("core.monitor.collect")),
            "core.visualize.compute_ms": steps.median_ms(
                rec.named("core.visualize.compute")),
        })
        return metrics
