"""Monitoring sessions: run a job, gather platform + environment logs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.cpu import UsageSeries
from repro.core.monitor.collector import collect_platform_log_columns
from repro.core.monitor.envmonitor import EnvironmentMonitor
from repro.core.monitor.logparser import ParseReport
from repro.core.monitor.records import (
    EnvSample,
    LogRecord,
    RecordColumns,
)
from repro.platforms.base import JobRequest, JobResult, Platform


@dataclass
class MonitoredRun:
    """Everything monitoring captured about one job execution.

    Attributes:
        result: the platform's job result (output, stats, raw log).
        columns: the parsed GRANULA platform-log records; the archive
            builder scans these.
        env_series: per-node CPU usage series over the job window.
        env_samples: the same data as flat records (archive-friendly).
        node_names: nodes the job ran on, in cluster order.
        parse_report: statistics of the log parse (foreign/malformed
            line counts) — None when the caller kept none.
        records: ``columns`` as a lazy sequence of record objects, for
            consumers that want rows; derived when not given.
    """

    result: JobResult
    columns: RecordColumns
    env_series: Dict[str, UsageSeries]
    env_samples: List[EnvSample] = field(default_factory=list)
    node_names: List[str] = field(default_factory=list)
    parse_report: Optional[ParseReport] = None
    records: Optional[Sequence[LogRecord]] = None

    def __post_init__(self) -> None:
        if self.records is None:
            self.records = self.columns.records()

    @property
    def job_id(self) -> str:
        """Id of the monitored job."""
        return self.result.job_id

    def summary(self) -> Dict[str, Any]:
        """Monitoring summary incl. parse statistics.

        Surfaces what lenient parsing would otherwise swallow: foreign
        and malformed line counts sit next to the record count, so a log
        that lost data can no longer look identical to a healthy one.
        """
        out: Dict[str, Any] = {
            "job_id": self.job_id,
            "records": len(self.columns),
            "nodes": len(self.node_names),
            "env_samples": len(self.env_samples),
            "makespan": self.result.makespan,
        }
        if self.parse_report is not None:
            out.update(self.parse_report.summary())
        return out


class MonitoringSession:
    """Runs platform jobs under monitoring.

    One session per platform instance; every :meth:`run` resets the
    cluster (the engines do), executes the job, parses the platform log,
    and samples the environment over exactly the job's time window.
    """

    def __init__(
        self,
        platform: Platform,
        env_step: float = 1.0,
        strict: bool = True,
    ):
        self.platform = platform
        self.strict = strict
        self.env_monitor = EnvironmentMonitor(platform.cluster, step=env_step)

    def run(self, request: JobRequest) -> MonitoredRun:
        """Execute one monitored job."""
        result = self.platform.run_job(request)
        columns, parse_report = collect_platform_log_columns(
            result, strict=self.strict
        )
        nodes = self.platform.cluster.node_names[: request.workers]
        env_series = self.env_monitor.sample_window(
            result.started_at, result.finished_at, nodes
        )
        env_samples = self.env_monitor.samples(
            result.started_at, result.finished_at, nodes
        )
        return MonitoredRun(
            result=result,
            columns=columns,
            env_series=env_series,
            env_samples=env_samples,
            node_names=list(nodes),
            parse_report=parse_report,
        )
