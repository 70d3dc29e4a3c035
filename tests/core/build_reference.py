"""The tree builder: the reference the column builder matches.

``builder.build_archive`` builds the archive's v3 operations table
straight from the log columns.  This is the straightforward build it
replaces — an :class:`ArchivedOperation` per start event, the model
filter as a walk over the tree, the rules as a post-order walk — kept
here so tests can demand the same table, the same report and the same
errors from it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.builder import BuildReport, _derive
from repro.core.model.job import JobModel
from repro.core.monitor.records import RecordColumns, coerce_info_value
from repro.core.monitor.session import MonitoredRun
from repro.errors import ArchiveBuildError


def build_archive(
    run: MonitoredRun,
    model: Optional[JobModel] = None,
) -> Tuple[PerformanceArchive, BuildReport]:
    """The tree-built archive of one run and its report."""
    report = BuildReport()
    root = build_tree_columns(run.columns, report)
    if model is not None:
        filter_tree(root, model, report)
    _derive(root, model, report)
    archive = PerformanceArchive(
        job_id=run.job_id,
        root=root,
        platform=model.platform if model is not None else "",
        metadata={
            "algorithm": run.result.algorithm,
            "dataset": run.result.dataset,
            "nodes": list(run.node_names),
            "stats": dict(run.result.stats),
            "model_version": model.version if model is not None else 0,
        },
        env_samples=[(s.timestamp, s.node, s.cpu) for s in run.env_samples],
    )
    return archive, report


def build_tree_columns(
    columns: RecordColumns,
    report: BuildReport,
) -> ArchivedOperation:
    """The operation tree of a well-formed log, in one pass.

    Strict: any structural anomaly (repeated start or end, unknown or
    later parent, several or no roots, an operation left open) raises
    :class:`~repro.errors.ArchiveBuildError`.
    """
    by_uid: Dict[str, ArchivedOperation] = {}
    roots: List[ArchivedOperation] = []
    events = columns.event
    uids = columns.uid
    timestamps = columns.timestamp
    for i in range(len(columns)):
        event = events[i]
        uid = uids[i]
        if event == "start":
            if uid in by_uid:
                raise ArchiveBuildError(
                    f"operation {uid} started twice"
                )
            op = ArchivedOperation(
                uid=uid,
                mission=columns.mission[i] or "",
                actor=columns.actor[i] or "",
                start_time=timestamps[i],
            )
            parent_uid = columns.parent_uid[i]
            if parent_uid is None:
                roots.append(op)
            else:
                parent = by_uid.get(parent_uid)
                if parent is None:
                    raise ArchiveBuildError(
                        f"operation {uid} references unknown parent "
                        f"{parent_uid}"
                    )
                op.parent = parent
                parent.children.append(op)
            by_uid[uid] = op
        elif event == "end":
            op = by_uid.get(uid)
            if op is None:
                raise ArchiveBuildError(
                    f"end event for unknown operation {uid}"
                )
            if op.end_time is not None:
                raise ArchiveBuildError(
                    f"operation {uid} ended twice"
                )
            op.end_time = timestamps[i]
        else:  # info
            op = by_uid.get(uid)
            if op is None:
                raise ArchiveBuildError(
                    f"info event for unknown operation {uid}"
                )
            op.infos[columns.info_name[i]] = coerce_info_value(
                columns.info_value[i] or ""
            )
            report.infos_recorded += 1

    if not roots:
        raise ArchiveBuildError("log contains no root operation")
    if len(roots) > 1:
        raise ArchiveBuildError(
            f"log contains {len(roots)} root operations: "
            f"{[r.mission for r in roots]}"
        )
    dangling = [op.mission for op in roots[0].walk() if op.end_time is None]
    if dangling:
        raise ArchiveBuildError(
            f"{len(dangling)} operations never ended "
            f"(e.g. {dangling[:3]}); incomplete log?"
        )
    return roots[0]


def filter_tree(
    root: ArchivedOperation,
    model: JobModel,
    report: BuildReport,
) -> None:
    """Prune subtrees the model does not cover (archive filtering)."""
    if model.match(root.mission, root.actor) is None:
        raise ArchiveBuildError(
            f"root operation {root.mission!r} @ {root.actor!r} does not "
            f"match the {model.platform} model — wrong model for this log?"
        )
    stack = [root]
    while stack:
        op = stack.pop()
        kept: List[ArchivedOperation] = []
        for child in op.children:
            if model.match(child.mission, child.actor) is None:
                key = (child.mission_base, child.actor_base)
                if key not in report.unmodeled:
                    report.unmodeled.append(key)
                report.operations_filtered += sum(1 for _ in child.walk())
            else:
                kept.append(child)
                stack.append(child)
        op.children = kept
