"""Plain-walk archive queries: the oracle the column core must match.

``ArchiveQuery`` and every ``ColumnarArchiveView`` answer from column
arrays (``repro.core.archive.columnar``).  These are the straightforward
answers they replace — a Python list of ``ArchivedOperation`` objects
narrowed by list comprehensions, aggregated by left folds in walk
order, and a fleet scan that walks each job's materialized tree — kept
here so property tests can demand identity with them: equal floats bit
for bit, equal records, and the same ``QueryError`` text.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.analysis.fleet import (
    FleetScanSession,
    JobScan,
    _run_query,
    _run_regressions,
    _run_series,
)
from repro.core.analysis.fleetplan import DURATION_METRIC, FleetPlan
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.query import translate_path_pattern
from repro.core.archive.store import ArchiveStore
from repro.errors import ArchiveError, QueryError


def numeric(value: Any, info: str, op: ArchivedOperation) -> float:
    """Coerce one info value for aggregation, or raise a typed error."""
    if isinstance(value, bool):
        raise QueryError(
            f"info {info!r} of {op.path} is a boolean ({value!r}), "
            f"not a number"
        )
    try:
        return float(value)
    except (TypeError, ValueError):
        raise QueryError(
            f"info {info!r} of {op.path} is not numeric: {value!r}"
        ) from None


def record(op: ArchivedOperation) -> Dict[str, Any]:
    """The service-level record of one operation."""
    return {
        "uid": op.uid,
        "path": op.path,
        "mission": op.mission,
        "actor": op.actor,
        "start": op.start_time,
        "end": op.end_time,
        "duration": op.duration,
    }


class ReferenceQuery:
    """The selector and aggregation surface over a walked selection."""

    def __init__(self, archive: PerformanceArchive,
                 selection: Optional[List[ArchivedOperation]] = None):
        self.archive = archive
        self._selection = (
            list(archive.walk()) if selection is None else selection
        )

    def _narrow(self, keep: Callable[[ArchivedOperation], bool]):
        return ReferenceQuery(
            self.archive, [op for op in self._selection if keep(op)])

    def path(self, pattern: str) -> "ReferenceQuery":
        regex = translate_path_pattern(pattern)
        return self._narrow(lambda op: regex.match(op.path))

    def mission(self, base: str) -> "ReferenceQuery":
        return self._narrow(lambda op: op.mission_base == base)

    def actor(self, base: str) -> "ReferenceQuery":
        return self._narrow(lambda op: op.actor_base == base)

    def iteration(self, index: int) -> "ReferenceQuery":
        return self._narrow(lambda op: op.iteration == index)

    def where(self, predicate) -> "ReferenceQuery":
        return self._narrow(predicate)

    def operations(self) -> List[ArchivedOperation]:
        return list(self._selection)

    def values(self, info: str, default: Any = None) -> List[Any]:
        return [op.infos.get(info, default) for op in self._selection]

    def durations(self) -> List[float]:
        return [op.duration for op in self._selection
                if op.duration is not None]

    def total(self, info: str = "Duration") -> float:
        total = 0.0
        for op in self._selection:
            value = op.infos.get(info)
            if value is not None:
                total += numeric(value, info, op)
        return total

    def mean(self, info: str = "Duration") -> float:
        values = [numeric(op.infos[info], info, op)
                  for op in self._selection if info in op.infos]
        if not values:
            raise QueryError(f"no operation in selection carries {info!r}")
        return sum(values) / len(values)

    def top(self, info: str = "Duration",
            n: int = 5) -> List[ArchivedOperation]:
        if n <= 0:
            raise QueryError(f"n must be positive, got {n}")
        carrying = [op for op in self._selection if info in op.infos]
        return sorted(carrying,
                      key=lambda op: numeric(op.infos[info], info, op),
                      reverse=True)[:n]

    def group_by_actor(self) -> Dict[str, List[ArchivedOperation]]:
        groups: Dict[str, List[ArchivedOperation]] = {}
        for op in self._selection:
            groups.setdefault(op.actor, []).append(op)
        return groups

    def group_by_iteration(self) -> Dict[int, List[ArchivedOperation]]:
        groups: Dict[int, List[ArchivedOperation]] = {}
        for op in self._selection:
            if op.iteration is not None:
                groups.setdefault(op.iteration, []).append(op)
        return groups

    def operation_records(self) -> List[Dict[str, Any]]:
        return [record(op) for op in self._selection]

    def top_records(self, info: str = "Duration",
                    n: int = 5) -> List[Dict[str, Any]]:
        return [dict(record(op), value=op.infos.get(info))
                for op in self.top(info, n)]

    def __len__(self) -> int:
        return len(self._selection)


class TreeScanSession(FleetScanSession):
    """A fleet scan that materializes every job's archive tree."""

    def _scan_tree(self, job_id: str, summary: Dict) -> JobScan:
        handle = self.store.handle(job_id)
        group = self._group_key(
            job_id, summary,
            handle.metadata if self.plan.meta_keys else None,
        )
        archive = handle.archive()
        query = ReferenceQuery(archive)
        if self.plan.mission is not None:
            query = query.mission(self.plan.mission)
        if self.plan.path is not None:
            query = query.path(self.plan.path)
        ops = query.operations()

        kept: List[ArchivedOperation] = []
        raw: List[float] = []
        if self.plan.metric == DURATION_METRIC:
            for op in ops:
                if op.duration is None:
                    continue
                raw.append(op.duration)
                kept.append(op)
        else:
            for op in ops:
                value = op.infos.get(self.plan.metric)
                if value is None or isinstance(value, bool):
                    continue
                try:
                    number = float(value)
                except (TypeError, ValueError):
                    continue
                raw.append(number)
                kept.append(op)
        values = np.asarray(raw, dtype=np.float64)

        top = self._local_top(
            values, lambda order: [kept[i].path for i in order], job_id)

        shares = None
        if self._need_shares:
            bases: List[str] = []
            durations: List[float] = []
            for op in ops:
                if op is archive.root or op.duration is None:
                    continue
                bases.append(op.mission_base)
                durations.append(op.duration)
            shares = self._shares_of(
                bases, np.arange(len(bases)),
                np.asarray(durations, dtype=np.float64),
                summary.get("makespan"),
            )

        timestamp = (
            archive.root.start_time if self._need_timestamp else None
        )
        return JobScan(job_id, group, values, top, shares, timestamp)

    def jobs(self):
        for job_id in self.store.iter_jobs(**self.plan.filters):
            summary = self.store.summary(job_id)
            try:
                scan = self._scan_tree(job_id, summary)
            except (ArchiveError, OSError, UnicodeDecodeError):
                self.jobs_failed += 1
                continue
            self.jobs_scanned += 1
            yield scan


def reference_fleet_query(store: ArchiveStore, plan: FleetPlan,
                          include_samples: bool = False) -> Dict[str, Any]:
    """``plan``'s document from tree walks (``degraded_jobs`` empty)."""
    with TreeScanSession(store, plan) as session:
        if plan.op == "series":
            return _run_series(session, plan)
        if plan.op == "regressions":
            return _run_regressions(session, plan,
                                    include_shares=include_samples)
        return _run_query(session, plan, include_samples)
