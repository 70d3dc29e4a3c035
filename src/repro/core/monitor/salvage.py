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
- **duplicate records and repeated UIDs** are deduplicated;
- **truncated operations** (start without end) get a synthesized close
  at the last-seen job timestamp, flagged ``InferredEnd`` with
  provenance ``inferred``;
- **orphaned operations** (unknown parent) are quarantined under a
  synthetic ``Unattributed`` operation; a lost job root is replaced by a
  synthetic ``SalvagedJob`` root.

The structured :class:`IngestReport` carries per-node counts of every
anomaly class, so degraded analysis downstream can surface a
completeness score instead of silently overstating its confidence.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro import logformat
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
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
        """Drop exact duplicates and repeated start/end events per UID."""
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
            key = (
                event, uid, columns.timestamp[i],
                columns.info_name[i], columns.info_value[i],
            )
            duplicate = key in seen_exact
            if event == logformat.EVENT_START:
                duplicate = duplicate or uid in started
                started.add(uid)
            elif event == logformat.EVENT_END:
                duplicate = duplicate or uid in ended
                ended.add(uid)
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

    # -- tree-level pass ---------------------------------------------------

    def build_tree(
        self,
        columns: RecordColumns,
        report: IngestReport,
    ) -> ArchivedOperation:
        """Assemble a (possibly partial) operation tree, salvaging.

        Never raises on structural damage: truncated operations are
        closed at the last-seen timestamp, orphans are quarantined under
        a synthetic ``Unattributed`` operation, and a lost root is
        replaced by a synthetic ``SalvagedJob`` root.
        """
        if not len(columns):
            raise IngestError("no records to build a tree from")
        events = columns.event
        uids = columns.uid
        timestamps = columns.timestamp
        last_ts = max(timestamps)
        by_uid: Dict[str, ArchivedOperation] = {}
        # Pass 1: materialize every started operation (order-independent,
        # so a parent whose start sorted after its child still links up).
        for i, event in enumerate(events):
            if event == logformat.EVENT_START and uids[i] not in by_uid:
                by_uid[uids[i]] = ArchivedOperation(
                    uid=uids[i],
                    mission=columns.mission[i] or "",
                    actor=columns.actor[i] or "",
                    start_time=timestamps[i],
                )
        # Pass 2: ends, infos, parent links.
        parent_of: Dict[str, Optional[str]] = {}
        for i, event in enumerate(events):
            uid = uids[i]
            op = by_uid.get(uid)
            if event == logformat.EVENT_START:
                if uid in parent_of:
                    continue  # Duplicate start already dropped by dedup.
                parent_of[uid] = columns.parent_uid[i]
            elif op is None:
                # End/info for an operation whose start line was lost:
                # nothing measurable to attach it to.
                report.dropped_events += 1
                report.node(None).orphaned += 1
            elif event == logformat.EVENT_END:
                if op.end_time is None:
                    if timestamps[i] < op.start_time:
                        # Skew beyond repair: clamp to a zero-length span.
                        op.end_time = op.start_time
                        op.mark_inferred()
                        report.skew_violations += 1
                    else:
                        op.end_time = timestamps[i]
            else:
                op.infos[columns.info_name[i]] = coerce_info_value(
                    columns.info_value[i] or ""
                )

        roots: List[ArchivedOperation] = []
        orphans: List[ArchivedOperation] = []
        for uid, op in by_uid.items():
            parent_uid = parent_of.get(uid)
            if parent_uid is None:
                roots.append(op)
                continue
            parent = by_uid.get(parent_uid)
            if parent is None or parent is op:
                orphans.append(op)
            else:
                op.parent = parent
                parent.children.append(op)

        # Truncation: synthesize ends at the last-seen job timestamp.
        for op in by_uid.values():
            if op.end_time is None:
                op.end_time = max(last_ts, op.start_time)
                op.infos["InferredEnd"] = True
                op.mark_inferred()
                report.inferred_ends += 1
                report.node(op.actor).truncated += 1

        root = self._attach(roots, orphans, by_uid, last_ts, report)
        for op in root.walk():
            if op.duration is not None:
                op.infos.setdefault("Duration", op.duration)
        return root

    def _attach(
        self,
        roots: List[ArchivedOperation],
        orphans: List[ArchivedOperation],
        by_uid: Dict[str, ArchivedOperation],
        last_ts: float,
        report: IngestReport,
    ) -> ArchivedOperation:
        """Settle on a single root, quarantining what does not fit."""

        def fresh_uid(base: str) -> str:
            uid = base
            serial = 1
            while uid in by_uid:
                serial += 1
                uid = f"{base}-{serial}"
            return uid

        if len(roots) == 1:
            root = roots[0]
        else:
            # Zero roots (job root lost) or several (tree split): hold
            # everything together under a synthetic job root.
            candidates = roots + orphans
            start = min(
                (op.start_time for op in candidates if op.start_time is not None),
                default=0.0,
            )
            root = ArchivedOperation(
                uid=fresh_uid("salvage:root"),
                mission=SALVAGED_ROOT_MISSION,
                actor="Salvage",
                start_time=start,
                end_time=max(last_ts, start),
            )
            root.mark_inferred()
            by_uid[root.uid] = root
            report.synthesized_root = True
            for op in roots:
                op.parent = root
                root.children.append(op)
            roots = [root]

        if orphans:
            start = min(op.start_time for op in orphans)
            end = max(op.end_time for op in orphans)
            quarantine = ArchivedOperation(
                uid=fresh_uid("salvage:unattributed"),
                mission=UNATTRIBUTED_MISSION,
                actor="Salvage",
                start_time=start,
                end_time=end,
            )
            quarantine.mark_inferred()
            by_uid[quarantine.uid] = quarantine
            quarantine.parent = root
            root.children.append(quarantine)
            for op in orphans:
                op.parent = quarantine
                quarantine.children.append(op)
                report.orphans_reattached += 1
                report.node(op.actor).orphaned += 1
            # The quarantine window must fit inside the root's span.
            if root.start_time is not None and start < root.start_time:
                root.start_time = start
                root.mark_inferred()
            if root.end_time is not None and end > root.end_time:
                root.end_time = end
                root.mark_inferred()
        return root


def salvage_archive(
    lines: Iterable[str],
    job_id: Optional[str] = None,
    platform: str = "",
    clock_skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
) -> Tuple[PerformanceArchive, IngestReport]:
    """Salvage a damaged platform log straight into an archive.

    This is the black-box (model-less) ingestion path: the archive
    carries the salvaged tree with recorded infos and durations, its
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
    root = parser.build_tree(columns, report)
    archive = PerformanceArchive(
        job_id=columns.job_id[0],
        root=root,
        platform=platform,
        metadata={"salvaged": True, "ingest": report.to_dict()},
    )
    return archive, report
