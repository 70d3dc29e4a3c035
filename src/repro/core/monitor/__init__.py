"""Granula monitoring (paper Section 3.3, P2).

Two kinds of performance data are collected per job run: *platform logs*
(GRANULA lines revealing internal operations, parsed by
:mod:`repro.core.monitor.logparser`) and *environment logs* (per-node CPU
series sampled by :mod:`repro.core.monitor.envmonitor`).
:class:`repro.core.monitor.session.MonitoringSession` runs a job and
gathers both.  Every path parses into
:class:`~repro.core.monitor.records.RecordColumns`; damaged logs —
truncated, reordered, duplicated — are parsed leniently and repaired by
:mod:`repro.core.monitor.salvage`, and :mod:`repro.core.monitor.live`
does the same over the prefix of a log that is still being written.
"""

from repro.core.monitor.records import EnvSample, LogRecord, RecordColumns
from repro.core.monitor.logparser import (
    ParseReport,
    parse_log_columns,
    parse_log_line,
)
from repro.core.monitor.envmonitor import EnvironmentMonitor
from repro.core.monitor.collector import collect_platform_log_columns
from repro.core.monitor.salvage import (
    IngestReport,
    SalvageParser,
    salvage_archive,
)
from repro.core.monitor.live import (
    LiveJobRegistry,
    LiveMonitor,
    LiveSnapshot,
)
from repro.core.monitor.session import MonitoredRun, MonitoringSession

__all__ = [
    "EnvSample",
    "LogRecord",
    "RecordColumns",
    "ParseReport",
    "parse_log_columns",
    "parse_log_line",
    "EnvironmentMonitor",
    "collect_platform_log_columns",
    "IngestReport",
    "SalvageParser",
    "salvage_archive",
    "LiveJobRegistry",
    "LiveMonitor",
    "LiveSnapshot",
    "MonitoredRun",
    "MonitoringSession",
]
