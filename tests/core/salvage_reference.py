"""The salvage tree builder: the reference the column salvage matches.

``salvage.salvage_table`` resolves a damaged log's repairs as rows and
renders them through the column builder.  This is the build it
replaces — an :class:`ArchivedOperation` per started operation, ends and
infos attached to the objects, the repairs as edits to the tree — kept
here so tests can demand the same archive bytes and the same
:class:`IngestReport` from it, for salvaged logs and for every live
snapshot.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro import logformat
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.serialize import archive_to_json
from repro.core.monitor.logparser import parse_log_columns
from repro.core.monitor.records import RecordColumns, coerce_info_value
from repro.core.monitor.salvage import (
    DEFAULT_SKEW_TOLERANCE,
    SALVAGED_ROOT_MISSION,
    UNATTRIBUTED_MISSION,
    IngestReport,
    SalvageParser,
)
from repro.errors import IngestError


def salvage_archive(
    lines: Iterable[str],
    job_id: Optional[str] = None,
    platform: str = "",
    clock_skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
) -> Tuple[PerformanceArchive, IngestReport]:
    """The tree-built salvaged archive of a log and its report."""
    parser = SalvageParser(clock_skew_tolerance=clock_skew_tolerance)
    columns, report = parser.parse(lines, job_id=job_id)
    if not len(columns):
        raise IngestError(
            f"nothing salvageable: {report.total_lines} lines, "
            f"{report.malformed} malformed, 0 usable records"
        )
    root = build_tree(columns, report)
    archive = PerformanceArchive(
        job_id=columns.job_id[0],
        root=root,
        platform=platform,
        metadata={"salvaged": True, "ingest": report.to_dict()},
    )
    return archive, report


def live_snapshot_body(
    job_id: str,
    lines: Iterable[str],
    seq: int,
    platform: str = "",
    metadata: Optional[Dict[str, object]] = None,
    env_samples: Optional[List[Tuple[float, str, float]]] = None,
    clock_skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
) -> Optional[bytes]:
    """The body of live snapshot ``seq`` over the fed ``lines`` (None
    while no record of the job was fed)."""
    parser = SalvageParser(clock_skew_tolerance=clock_skew_tolerance)
    columns, parsed = parse_log_columns(lines, strict=False)
    columns, report = parser.select(columns, parsed, job_id=job_id)
    if not len(columns):
        return None
    root = build_tree(columns, report)
    metadata = dict(metadata or {})
    metadata["live"] = {
        "partial": True,
        "snapshot_seq": seq,
        "records": report.records,
        "inferred_ends": report.inferred_ends,
    }
    metadata["ingest"] = report.to_dict()
    archive = PerformanceArchive(
        job_id=job_id,
        root=root,
        platform=platform,
        metadata=metadata,
        env_samples=env_samples,
    )
    return archive_to_json(archive).encode("utf-8")


def build_tree(
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
    orphans = _cut_cycles(roots, orphans, by_uid)

    # Truncation: synthesize ends at the last-seen job timestamp.
    for op in by_uid.values():
        if op.end_time is None:
            op.end_time = max(last_ts, op.start_time)
            op.infos["InferredEnd"] = True
            op.mark_inferred()
            report.inferred_ends += 1
            report.node(op.actor).truncated += 1

    root = _attach(roots, orphans, by_uid, last_ts, report)
    for op in root.walk():
        if op.duration is not None:
            op.infos.setdefault("Duration", op.duration)
    return root


def _cut_cycles(
    roots: List[ArchivedOperation],
    orphans: List[ArchivedOperation],
    by_uid: Dict[str, ArchivedOperation],
) -> List[ArchivedOperation]:
    """The orphans plus one member of each parent cycle no root or
    orphan reaches — the cycle's earliest-started member, cut from its
    parent — in start order."""
    reached = set()

    def reach(stack: List[ArchivedOperation]) -> None:
        while stack:
            op = stack.pop()
            reached.add(op.uid)
            stack.extend(op.children)

    reach(roots + orphans)
    if len(reached) == len(by_uid):
        return orphans
    rank = {uid: k for k, uid in enumerate(by_uid)}
    cut: List[ArchivedOperation] = []
    for uid, op in by_uid.items():
        if uid in reached:
            continue
        path: Dict[str, int] = {}
        while op.uid not in path:  # Up the parents to the cycle.
            path[op.uid] = len(path)
            op = op.parent
        cycle = list(path)[path[op.uid]:]
        member = by_uid[min(cycle, key=rank.__getitem__)]
        above = member.parent
        above.children = [c for c in above.children if c is not member]
        member.parent = None
        cut.append(member)
        reach([member])
    return sorted(orphans + cut, key=lambda op: rank[op.uid])


def _attach(
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
