"""Building performance archives from monitored runs.

The builder turns the parsed log columns into the operation tree,
attaches recorded infos, and — when a model is given —
*filters* the tree to the operations the model covers ("the info of each
job is collected, filtered, and stored", Section 3.3 P3): subtrees the
model does not match are pruned from the archive and reported as
feedback for the next modeling iteration.  A coarser model therefore
yields a smaller, cheaper archive — the concrete form of the paper's
coarse/fine trade-off.  Finally the model's derivation rules run
bottom-up, so parent rules see derived child infos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.model.job import JobModel
from repro.core.model.rules import DurationRule
from repro.core.monitor.records import RecordColumns, coerce_info_value
from repro.core.monitor.session import MonitoredRun
from repro.errors import ArchiveBuildError

_DURATION_RULE = DurationRule()


@dataclass
class BuildReport:
    """Diagnostics from one archive build.

    Attributes:
        unmodeled: (mission, actor) pairs the model did not match —
            candidates for the next modeling iteration.  Their subtrees
            were filtered out of the archive.
        operations_filtered: operation instances pruned from the archive
            because the model did not cover them.
        rules_applied: number of derivation-rule executions.
        infos_recorded: number of recorded info values attached.
    """

    unmodeled: List[Tuple[str, str]] = field(default_factory=list)
    operations_filtered: int = 0
    rules_applied: int = 0
    infos_recorded: int = 0


def build_archive(
    run: MonitoredRun,
    model: Optional[JobModel] = None,
) -> Tuple[PerformanceArchive, BuildReport]:
    """Assemble the archive of one monitored run.

    Args:
        run: the monitored run (records + environment samples).
        model: the platform's performance model; when given, unmatched
            subtrees are filtered out of the archive (and reported) and
            the model's derivation rules run.  Without a model the
            archive carries the full tree with recorded infos and
            durations only (black-box mode).

    Returns:
        (archive, build report)
    """
    report = BuildReport()
    root = _build_tree_columns(run.columns, report)
    if model is not None:
        _filter(root, model, report)
    _derive(root, model, report)

    env = [(s.timestamp, s.node, s.cpu) for s in run.env_samples]
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
        env_samples=env,
    )
    return archive, report


def _build_tree_columns(
    columns: RecordColumns,
    report: BuildReport,
) -> ArchivedOperation:
    """The operation tree of a well-formed log, in one pass.

    Strict: any structural anomaly (repeated start or end, unknown
    parent or operation, several or no roots, an operation left open)
    raises :class:`~repro.errors.ArchiveBuildError`.  Damaged logs go
    through :mod:`repro.core.monitor.salvage`, which repairs instead.
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
            by_uid[uid] = op
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


def _filter(
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


def _derive(
    root: ArchivedOperation,
    model: Optional[JobModel],
    report: BuildReport,
) -> None:
    """Run Duration + model rules bottom-up over the (filtered) tree."""
    for op in _post_order(root):
        duration = _DURATION_RULE.compute(op)
        if duration is not None:
            op.infos.setdefault("Duration", duration)
        if model is None:
            continue
        node = model.match(op.mission, op.actor)
        if node is None:
            continue  # Cannot happen after filtering; defensive.
        for rule in node.rules:
            value = rule.compute(op)
            if value is not None:
                op.infos[rule.target] = value
                report.rules_applied += 1


def _post_order(root: ArchivedOperation):
    for child in root.children:
        yield from _post_order(child)
    yield root
