"""Collecting platform logs from job runs."""

from __future__ import annotations

from typing import Tuple

from repro.core.monitor.logparser import ParseReport, parse_log_columns
from repro.core.monitor.records import RecordColumns
from repro.errors import MonitorError
from repro.platforms.base import JobResult


def collect_platform_log_columns(
    result: JobResult,
    strict: bool = True,
) -> Tuple[RecordColumns, ParseReport]:
    """Parse a job result's platform log, keeping the parse statistics.

    Verifies the records belong to the job (a mixed-up log directory is a
    classic monitoring failure on real clusters).  In lenient mode the
    report's ``bad_lines`` carry what was skipped, so silent data loss
    stays visible downstream.
    """
    columns, report = parse_log_columns(result.log_lines, strict=strict)
    if not len(columns):
        raise MonitorError(
            f"job {result.job_id}: platform log contains no GRANULA records"
        )
    foreign = set(columns.job_id) - {result.job_id}
    if foreign:
        raise MonitorError(
            f"job {result.job_id}: log contains records of other jobs: "
            f"{sorted(foreign)}"
        )
    return columns, report
