"""Salvage ingestion: build usable archives from damaged platform logs.

Real platform logs are rarely pristine — crashes truncate them
mid-operation, skewed node clocks interleave records out of order,
retransmissions duplicate lines, and lost lines orphan whole subtrees.
The strict pipeline (:mod:`repro.core.monitor.logparser` +
:mod:`repro.core.archive.builder`) raises on the first anomaly; this
module runs the same parse leniently, salvages what is measurable,
quarantines what is not, and reports honestly what is missing:

- **malformed lines** are collected, never raised, and attributed to the
  emitting node where the line still carries one;
- **out-of-order records** are re-sorted; displacements beyond the
  configured clock-skew tolerance are counted as skew violations;
- **duplicate records and repeated UIDs** are deduplicated (the first
  start of a uid is its operation); end and info events of an operation
  that never started are dropped;
- **an end before its start** closes the operation with zero length,
  flagged ``inferred`` where that end falls among its infos;
- **truncated operations** (start without end) get a synthesized close
  at the last-seen job timestamp, flagged ``InferredEnd`` with
  provenance ``inferred``;
- **orphaned operations** (unknown or own parent, or the earliest-started
  member of a parent cycle no root reaches) are quarantined, in start
  order, under a synthetic ``Unattributed`` operation after the root's
  other children, and the root's window widens to hold them; a lost or
  split job root is replaced by a synthetic ``SalvagedJob`` root.

Each repair is a row operation: :func:`salvage_table` resolves the
selected records into the rows the column builder renders
(:class:`~repro.core.archive.builder.OperationRows`), so a salvaged
archive, like a strictly built one, is born as its v3 operations table.
The structured :class:`IngestReport` carries per-node counts of every
anomaly class, so degraded analysis downstream can surface a
completeness score instead of silently overstating its confidence.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import logformat
from repro.core.archive.archive import (
    PROVENANCE_INFERRED,
    PROVENANCE_KEY,
    PerformanceArchive,
)
from repro.core.monitor.logparser import ParseReport, parse_log_columns
from repro.core.monitor.records import RecordColumns, coerce_info_value
from repro.errors import IngestError

#: Node bucket for anomalies that cannot be attributed to a node.
UNKNOWN_NODE = "<unknown>"

#: Mission of the synthetic quarantine operation for orphaned subtrees.
UNATTRIBUTED_MISSION = "Unattributed"

#: Mission of the synthetic root when the real job root was lost.
SALVAGED_ROOT_MISSION = "SalvagedJob"

#: Default clock-skew tolerance in simulated seconds: records arriving
#: up to this much before the running maximum timestamp are considered
#: benign skew; larger displacements are counted as violations.
DEFAULT_SKEW_TOLERANCE = 1.0

_ACTOR_RE = re.compile(r"actor=([^\s]+)")
_START, _END = logformat.EVENT_START, logformat.EVENT_END
#: Parent codes of a root and of an orphan, before the rows are laid out.
_ROOT, _ORPHAN = -1, -2


@dataclass
class NodeIngestStats:
    """Anomaly counts for one node (actor) of the log."""

    malformed: int = 0
    duplicates: int = 0
    orphaned: int = 0
    truncated: int = 0

    @property
    def total(self) -> int:
        """All anomalies attributed to this node."""
        return self.malformed + self.duplicates + self.orphaned + self.truncated

    def to_dict(self) -> Dict[str, int]:
        return {
            "malformed": self.malformed,
            "duplicates": self.duplicates,
            "orphaned": self.orphaned,
            "truncated": self.truncated,
        }


@dataclass
class IngestReport:
    """Structured outcome of one salvage ingestion.

    Attributes:
        total_lines / foreign_lines: lines inspected / skipped as
            non-GRANULA output.
        records: records surviving parse + dedup + job filtering.
        malformed_lines: unparseable GRANULA lines, kept for inspection.
        foreign_job_records: well-formed records of *other* jobs.
        duplicate_records: exact duplicates and repeated start/end UIDs
            dropped.
        reordered: records that arrived before an already-seen later
            timestamp and were re-sorted.
        skew_violations: reordered records displaced beyond the
            clock-skew tolerance (suspicious, not just skewed).
        dropped_events: end/info events whose operation never started.
        inferred_ends: operations closed synthetically (truncation).
        orphans_reattached: orphaned subtree roots quarantined under the
            synthetic ``Unattributed`` operation.
        synthesized_root: whether the job root itself had to be
            synthesized.
        per_node: anomaly counts keyed by node (actor) name.
    """

    total_lines: int = 0
    foreign_lines: int = 0
    records: int = 0
    malformed_lines: List[str] = field(default_factory=list)
    foreign_job_records: int = 0
    duplicate_records: int = 0
    reordered: int = 0
    skew_violations: int = 0
    dropped_events: int = 0
    inferred_ends: int = 0
    orphans_reattached: int = 0
    synthesized_root: bool = False
    per_node: Dict[str, NodeIngestStats] = field(default_factory=dict)

    def node(self, name: Optional[str]) -> NodeIngestStats:
        """The per-node stats bucket, created on demand."""
        key = name or UNKNOWN_NODE
        if key not in self.per_node:
            self.per_node[key] = NodeIngestStats()
        return self.per_node[key]

    @property
    def malformed(self) -> int:
        """Total malformed GRANULA lines."""
        return len(self.malformed_lines)

    @property
    def truncated(self) -> int:
        """Total operations with a synthesized (inferred) end."""
        return self.inferred_ends

    @property
    def clean(self) -> bool:
        """True when the log needed no salvage at all.

        Benign reordering does not count: multi-node logs interleave
        per-actor sections, so timestamp order is never guaranteed even
        for pristine runs.
        """
        return (
            self.malformed == 0
            and self.duplicate_records == 0
            and self.dropped_events == 0
            and self.inferred_ends == 0
            and self.orphans_reattached == 0
            and not self.synthesized_root
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (stored in salvaged-archive metadata)."""
        return {
            "total_lines": self.total_lines,
            "foreign_lines": self.foreign_lines,
            "records": self.records,
            "malformed": self.malformed,
            "foreign_job_records": self.foreign_job_records,
            "duplicate_records": self.duplicate_records,
            "reordered": self.reordered,
            "skew_violations": self.skew_violations,
            "dropped_events": self.dropped_events,
            "inferred_ends": self.inferred_ends,
            "orphans_reattached": self.orphans_reattached,
            "synthesized_root": self.synthesized_root,
            "per_node": {
                node: stats.to_dict()
                for node, stats in sorted(self.per_node.items())
            },
        }

    def render_text(self) -> str:
        """Human-readable ingest summary."""
        if self.clean:
            return (
                f"ingest clean: {self.records} records from "
                f"{self.total_lines} lines, nothing salvaged"
            )
        lines = [
            f"salvage ingest: {self.records} records from "
            f"{self.total_lines} lines",
            f"  malformed lines      {self.malformed}",
            f"  duplicate records    {self.duplicate_records}",
            f"  reordered records    {self.reordered} "
            f"({self.skew_violations} beyond skew tolerance)",
            f"  foreign-job records  {self.foreign_job_records}",
            f"  dropped events       {self.dropped_events}",
            f"  inferred ends        {self.inferred_ends}",
            f"  orphans quarantined  {self.orphans_reattached}",
        ]
        if self.synthesized_root:
            lines.append("  job root was lost and has been synthesized")
        for node, stats in sorted(self.per_node.items()):
            if stats.total:
                lines.append(
                    f"  node {node}: {stats.malformed} malformed, "
                    f"{stats.duplicates} duplicate, {stats.orphaned} "
                    f"orphaned, {stats.truncated} truncated"
                )
        return "\n".join(lines)


def _guess_node(line: str) -> Optional[str]:
    """Best-effort node attribution for a malformed line."""
    match = _ACTOR_RE.search(line)
    return match.group(1) if match else None


class SalvageParser:
    """Tolerant platform-log ingestion.

    Args:
        clock_skew_tolerance: displacement (simulated seconds) within
            which out-of-order records count as benign node clock skew.
    """

    def __init__(self, clock_skew_tolerance: float = DEFAULT_SKEW_TOLERANCE):
        if clock_skew_tolerance < 0:
            raise IngestError(
                f"clock-skew tolerance must be >= 0, "
                f"got {clock_skew_tolerance}"
            )
        self.clock_skew_tolerance = clock_skew_tolerance

    # -- record-level pass -------------------------------------------------

    def parse(
        self,
        lines: Iterable[str],
        job_id: Optional[str] = None,
    ) -> Tuple[RecordColumns, IngestReport]:
        """Parse leniently, filter to one job, dedup, and re-sort."""
        columns, parsed = parse_log_columns(lines, strict=False)
        return self.select(columns, parsed, job_id=job_id)

    def select(
        self,
        columns: RecordColumns,
        parsed: ParseReport,
        job_id: Optional[str] = None,
    ) -> Tuple[RecordColumns, IngestReport]:
        """The rows of a lenient parse worth building a tree from.

        Keeps one job's records, drops duplicates and restores
        timestamp order — each step a selection of row indices, applied
        to the columns once at the end.  When ``job_id`` is None the
        majority job of the log is used (mixed-up log directories are a
        classic monitoring failure).
        """
        report = IngestReport(
            total_lines=parsed.total_lines,
            foreign_lines=parsed.foreign_lines,
            malformed_lines=list(parsed.bad_lines),
        )
        for line in parsed.bad_lines:
            report.node(_guess_node(line)).malformed += 1
        if not len(columns):
            return columns, report

        if job_id is None:
            tally = Counter(columns.job_id)
            job_id = max(sorted(tally), key=tally.__getitem__)
        rows = [i for i, job in enumerate(columns.job_id) if job == job_id]
        report.foreign_job_records = len(columns) - len(rows)

        rows = self._dedup(columns, rows, report)
        rows = self._reorder(columns, rows, report)
        report.records = len(rows)
        return columns.select(rows), report

    def _dedup(
        self,
        columns: RecordColumns,
        rows: List[int],
        report: IngestReport,
    ) -> List[int]:
        """Drop exact duplicates and repeated start/end events per UID
        (an exact repeat of a start or end row repeats its uid, so only
        info rows need an exact key)."""
        events = columns.event
        uids = columns.uid
        actor_of: Dict[str, str] = {}
        for i in rows:
            if events[i] == logformat.EVENT_START and columns.actor[i]:
                actor_of.setdefault(uids[i], columns.actor[i])
        seen_exact = set()
        started = set()
        ended = set()
        out: List[int] = []
        for i in rows:
            event = events[i]
            uid = uids[i]
            if event == logformat.EVENT_START:
                duplicate = uid in started
                started.add(uid)
            elif event == logformat.EVENT_END:
                duplicate = uid in ended
                ended.add(uid)
            else:
                key = (event, uid, columns.timestamp[i],
                       columns.info_name[i], columns.info_value[i])
                duplicate = key in seen_exact
                seen_exact.add(key)
            if duplicate:
                report.duplicate_records += 1
                report.node(actor_of.get(uid)).duplicates += 1
            else:
                out.append(i)
        return out

    def _reorder(
        self,
        columns: RecordColumns,
        rows: List[int],
        report: IngestReport,
    ) -> List[int]:
        """Stable-sort by timestamp, counting skew repairs."""
        timestamps = columns.timestamp
        running_max = float("-inf")
        for i in rows:
            timestamp = timestamps[i]
            if timestamp < running_max:
                report.reordered += 1
                if running_max - timestamp > self.clock_skew_tolerance:
                    report.skew_violations += 1
            else:
                running_max = timestamp
        if report.reordered:
            rows = sorted(rows, key=timestamps.__getitem__)
        return rows


def salvage_table(columns: RecordColumns, report: IngestReport) -> Dict[str, Any]:
    """The v3 operations table of selected log columns, each repair (see
    the module docstring) a row operation; never raises on damage."""
    # The builder imports the monitor package, which imports this module.
    from repro.core.archive.builder import OperationRows

    if not len(columns):
        raise IngestError("no records to build a tree from")
    events, uids, ts = columns.event, columns.uid, columns.timestamp
    last_ts = max(ts)
    first: Dict[str, int] = {}  # uid -> log row of its first start
    for i in [i for i, event in enumerate(events) if event == _START]:
        first.setdefault(uids[i], i)
    rows = list(first.values())
    op_of = dict(zip(first, range(len(rows))))
    uid = list(first)
    mission = [columns.mission[i] or "" for i in rows]
    actor = [columns.actor[i] or "" for i in rows]
    start = [ts[i] for i in rows]
    end: List[Any] = [None] * len(rows)
    # (operation, key, token): recorded tokens are the log's text, the
    # synthesized values their own tokens.
    infos: List[Tuple[int, Any, Any]] = []

    def mark(k: int) -> None:
        infos.append((k, PROVENANCE_KEY, PROVENANCE_INFERRED))

    get = op_of.get
    for i, event in enumerate(events):
        if event == _START:
            continue
        k = get(uids[i])
        if k is None:  # Its start line was lost: nothing to attach to.
            report.dropped_events += 1
            report.node(None).orphaned += 1
        elif event == _END:
            if end[k] is None:
                if ts[i] < start[k]:  # Skew beyond repair.
                    end[k] = start[k]
                    mark(k)
                    report.skew_violations += 1
                else:
                    end[k] = ts[i]
        else:
            infos.append((k, columns.info_name[i], columns.info_value[i]))
    decoded = {value: coerce_info_value(value or "")
               for value in {value for _k, _key, value in infos}}
    decoded.update({True: True, PROVENANCE_INFERRED: PROVENANCE_INFERRED})

    parent = [_ROOT if above is None else get(above, _ORPHAN)
              for above in [columns.parent_uid[i] for i in rows]]
    _cut_cycles(parent)  # An own parent is a cycle of one.

    for k, closed in enumerate(end):
        if closed is None:  # Truncated: close at the last-seen timestamp.
            end[k] = max(last_ts, start[k])
            infos.append((k, "InferredEnd", True))
            mark(k)
            report.inferred_ends += 1
            report.node(actor[k]).truncated += 1

    roots = [k for k, above in enumerate(parent) if above == _ROOT]
    orphans = [k for k, above in enumerate(parent) if above == _ORPHAN]
    taken = set(uid)

    def synthesize(base: str, name: str, begin: Any, finish: Any) -> int:
        fresh, serial = base, 1
        while fresh in taken:
            serial += 1
            fresh = f"{base}-{serial}"
        taken.add(fresh)
        for column, value in ((uid, fresh), (mission, name),
                              (actor, "Salvage"), (start, begin),
                              (end, finish), (parent, _ROOT)):
            column.append(value)
        mark(len(uid) - 1)
        return len(uid) - 1

    if len(roots) == 1:
        root = roots[0]
    else:  # The job root was lost, or the tree split.
        begin = min((start[k] for k in roots + orphans), default=0.0)
        root = synthesize("salvage:root", SALVAGED_ROOT_MISSION, begin,
                          max(last_ts, begin))
        report.synthesized_root = True
        for k in roots:
            parent[k] = root
    if orphans:
        begin = min(start[k] for k in orphans)
        finish = max(end[k] for k in orphans)
        quarantine = synthesize("salvage:unattributed", UNATTRIBUTED_MISSION,
                                begin, finish)
        parent[quarantine] = root
        for k in orphans:
            parent[k] = quarantine
            report.orphans_reattached += 1
            report.node(actor[k]).orphaned += 1
        # The quarantine window must fit inside the root's span.
        if begin < start[root]:
            start[root] = begin
            mark(root)
        if finish > end[root]:
            end[root] = finish
            mark(root)

    # Row 0 is the root; the rest keep start order, the quarantine last.
    order = [root] + [k for k in range(len(uid)) if k != root]
    row = np.empty(len(order), dtype=np.int64)
    row[order] = np.arange(len(order))
    above = row[np.asarray(parent, dtype=np.int64)[order]]
    above[0] = -1
    return OperationRows(
        *([column[k] for k in order]
          for column in (uid, mission, actor, start, end)),
        parent=above,
        info_row=row[np.array([k for k, _key, _value in infos], np.int64)],
        info_name=[key for _k, key, _value in infos],
        info_value=[value for _k, _key, value in infos],
        decoded=decoded,
    ).archive_table()


def _cut_cycles(parent: List[int]) -> None:
    """Orphan the earliest-started member of each parent cycle no root or
    orphan reaches (``parent``: negative codes for roots and orphans)."""
    reaches = [above < 0 for above in parent]
    for k in range(len(parent)):
        path: Dict[int, int] = {}
        while not reaches[k] and k not in path:  # Up the parents.
            path[k] = len(path)
            k = parent[k]
        if not reaches[k]:  # Back on the path: a cycle.
            parent[min(list(path)[path[k]:])] = _ORPHAN
        for on_path in path:
            reaches[on_path] = True


def salvage_archive(
    lines: Iterable[str],
    job_id: Optional[str] = None,
    platform: str = "",
    clock_skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
) -> Tuple[PerformanceArchive, IngestReport]:
    """Salvage a damaged platform log straight into an archive.

    This is the black-box (model-less) ingestion path: the archive
    holds the salvaged operations with recorded infos and durations, its
    metadata records the ingest anomalies, and every synthesized value
    is flagged with ``inferred`` provenance for degraded analysis.

    Raises:
        IngestError: when the log contains no salvageable GRANULA
            records at all.
    """
    parser = SalvageParser(clock_skew_tolerance=clock_skew_tolerance)
    columns, report = parser.parse(lines, job_id=job_id)
    if not len(columns):
        raise IngestError(
            f"nothing salvageable: {report.total_lines} lines, "
            f"{report.malformed} malformed, 0 usable records"
        )
    table = salvage_table(columns, report)
    metadata = {"salvaged": True, "ingest": report.to_dict()}
    return PerformanceArchive.from_table(
        columns.job_id[0], table, platform=platform, metadata=metadata,
    ), report
