"""``ingest_archive``: raw platform logs in, stored archives out.

The engines run once, in set-up, to produce eight raw logs; every
measured op then turns one log into a stored archive (parse →
``build_archive`` → ``ArchiveStore.save``: JSON + ``.gcol`` + fsync +
index).  A pass is the eight clean logs, two seed-truncated logs
through ``salvage_archive`` and two logs fed through a ``LiveMonitor``
in eight chunks.  Monitor, builder, serializer, sidecar and store do
all the work and the engines none; salvage and live are the same
layers used differently, so a gain for clean ingest that costs them
shows in the write tail.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.archive.archive import PerformanceArchive
from repro.core.archive.store import ArchiveStore
from repro.core.model.job import JobModel
from repro.core.monitor.live import LiveMonitor
from repro.core.monitor.logparser import parse_log_columns
from repro.core.monitor.salvage import salvage_archive
from repro.core.monitor.session import MonitoredRun, MonitoringSession
from repro.workloads.datasets import build_dataset, clear_cache
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec

from perfbench import steps
from perfbench.harness import Op, Workload, disk_bytes
from perfbench.inputs import truncation_point
from perfbench.trace import NULL, Recorder
from perfbench.workloads.job_life import ENGINES

LIVE_CHUNKS = 8
#: Which of the eight jobs (platform-major, bfs before pagerank) crash
#: mid-run and which are watched live.  Fixed, not seed-drawn: the logs
#: differ tenfold in length, so a drawn choice would make a pass's cost
#: depend on the seed; the seed places the truncation points.
TRUNCATED_JOBS = (0, 5)   # Giraph bfs, Hadoop pagerank
LIVE_JOBS = (3, 6)        # PowerGraph pagerank, PGX.D bfs


@dataclass
class RawJob:
    """What monitoring captured of one job before any archiving."""

    run: MonitoredRun
    model: JobModel
    lines: List[str]

    @property
    def job_id(self) -> str:
        return self.run.job_id


def _renamed(lines: List[str], old: str, new: str) -> List[str]:
    """The same log under another job id, so it is stored beside the first."""
    return [line.replace(old, new) for line in lines]


class IngestArchive(Workload):
    name = "ingest_archive"

    def setup(self, rec: Any) -> None:
        rng = random.Random(self.ctx.seed)
        # Log size follows supersteps × workers, not graph size, so the
        # small replica keeps set-up short without thinning the logs.
        dataset = "dg-tiny" if self.ctx.quick else "dg100-scaled"
        # A cold artifact cache every time, so each set-up does the same work.
        shutil.rmtree(self.ctx.root / "cache", ignore_errors=True)
        clear_cache()
        runner = WorkloadRunner()
        self.jobs: List[RawJob] = []
        for platform_name in ENGINES:
            platform = runner.platform(platform_name)
            platform.deploy_dataset(dataset, build_dataset(dataset))
            session = MonitoringSession(platform)
            for algorithm in ("bfs", "pagerank"):
                spec = WorkloadSpec(platform_name, algorithm, dataset)
                run = session.run(spec.to_request(job_id=spec.label()))
                self.jobs.append(RawJob(
                    run, runner.library.get(platform_name),
                    run.result.log_lines))
        self.truncated = []
        for index in TRUNCATED_JOBS:
            job = self.jobs[index]
            cut = truncation_point(rng, len(job.lines))
            new_id = f"{job.job_id}-cut"
            self.truncated.append((
                job.job_id, job.model.platform,
                _renamed(job.lines[:cut], job.job_id, new_id)))
        self.live = []
        for index in LIVE_JOBS:
            job = self.jobs[index]
            new_id = f"{job.job_id}-live"
            lines = _renamed(job.lines, job.job_id, new_id)
            result = replace(job.run.result, job_id=new_id, log_lines=lines)
            self.live.append(
                RawJob(replace(job.run, result=result), job.model, lines))
        self.pass_index = 0
        self.store: Optional[ArchiveStore] = None
        # One unmeasured pass gives the reference every later pass must
        # reproduce byte for byte (and warms every code path).
        self.reference: Dict[str, str] = {}
        self.clean_operations: Dict[str, int] = {}
        self.run_pass(NULL)
        for job_id in self.store.list():
            self.reference[job_id] = self.store.checksum(job_id)
        for job in self.jobs:
            self.clean_operations[job.job_id] = self.store.summary(
                job.job_id)["operations"]

    def teardown(self) -> None:
        clear_cache()

    # -- one pass ------------------------------------------------------------

    def run_pass(self, rec: Any) -> List[Op]:
        if self.store is not None:
            shutil.rmtree(self.store.directory)
        self.pass_index += 1
        self.store = ArchiveStore(self.ctx.root / f"ingest-{self.pass_index}")
        ops = []
        for job in self.jobs:
            started = time.perf_counter()
            steps.save(rec, self.store,
                       self._parse_and_build(rec, job, job.lines))
            ops.append(Op("ingest", time.perf_counter() - started))
        for clean_id, platform, lines in self.truncated:
            started = time.perf_counter()
            with rec.span("core.monitor.salvage.salvage",
                          lines=len(lines)) as span:
                archive, _report = salvage_archive(lines, platform=platform)
                span.counts["operations"] = archive.size()
                span.counts["clean_operations"] = (
                    self.clean_operations.get(clean_id, 0))
            steps.save(rec, self.store, archive)
            ops.append(Op("salvage", time.perf_counter() - started))
        for job in self.live:
            started = time.perf_counter()
            self._ingest_live(rec, job)
            ops.append(Op("live", time.perf_counter() - started))
        return ops

    def _parse_and_build(self, rec: Any, job: RawJob, lines: List[str],
                         ) -> PerformanceArchive:
        with rec.span("core.monitor.logparser.parse", lines=len(lines)):
            columns, report = parse_log_columns(lines, strict=True)
        run = MonitoredRun(
            result=job.run.result, records=columns.records(),
            env_series=job.run.env_series, env_samples=job.run.env_samples,
            node_names=job.run.node_names, parse_report=report,
            columns=columns,
        )
        return steps.build(rec, run, job.model)

    def _ingest_live(self, rec: Any, job: RawJob) -> None:
        """A job watched while it runs: a snapshot per chunk, then the
        final archive completes the stream and is stored."""
        monitor = LiveMonitor(job.job_id, platform=job.model.platform)
        size = -(-len(job.lines) // LIVE_CHUNKS)
        for offset in range(0, len(job.lines), size):
            with rec.span("core.monitor.live.snapshot"):
                monitor.feed(job.lines[offset:offset + size])
                monitor.snapshot()
        archive = self._parse_and_build(rec, job, job.lines)
        steps.save(rec, self.store, archive)
        with rec.span("core.monitor.live.complete"):
            monitor.complete(archive)

    def check_pass(self, rec: Any) -> None:
        """Every stored archive re-loads verified and equals the reference."""
        if not self.reference:
            return  # The reference pass itself.
        for job_id, expected in self.reference.items():
            with rec.span("core.archive.serialize.from_json") as span:
                archive = self.store.load(job_id)  # Verifies the checksum.
                span.counts["operations"] = archive.size()
            if self.store.checksum(job_id) != expected:
                self.failures.append(f"{job_id}: checksum drifted")
            if job_id.endswith("-cut") and not any(
                    op.provenance == "inferred" for op in archive.walk()):
                self.failures.append(f"{job_id}: no inferred provenance")

    def stored(self) -> Tuple[int, int]:
        operations = sum(
            self.store.summary(job_id)["operations"]
            for job_id in self.store.list())
        return disk_bytes(self.store.directory), operations

    # -- layer numbers ---------------------------------------------------------

    def layer_metrics(self, rec: Recorder) -> Dict[str, float]:
        salvages = rec.named("core.monitor.salvage.salvage")
        metrics = steps.archive_layer_metrics(rec)
        metrics.update({
            "core.monitor.logparser.parse_us_per_line": steps.per_count(
                rec.named("core.monitor.logparser.parse"), "lines"),
            "core.monitor.salvage.us_per_line": steps.per_count(
                salvages, "lines"),
            "core.monitor.salvage.recovered_share": steps.count_ratio(
                salvages, "operations", "clean_operations"),
            "core.monitor.live.snapshot_ms": steps.median_ms(
                rec.named("core.monitor.live.snapshot")),
            "core.archive.serialize.from_json_us_per_operation":
                steps.per_count(
                    rec.named("core.archive.serialize.from_json"),
                    "operations"),
        })
        return metrics

