"""Building performance archives from monitored runs.

The builder turns the parsed log columns into the archive's v3
operations table — the parallel pre-order columns the JSON document and
the ``.gcol`` sidecar are rendered from — without an operation object
per event.  A log is resolved into :class:`OperationRows` (strictly
here, with repairs by :mod:`repro.core.monitor.salvage` for damaged logs
and live snapshots), and the rows render the same whichever resolved
them.  When a model is given it *filters* the operations to those the
model covers ("the info of each job is collected, filtered, and
stored", Section 3.3 P3): subtrees the model does not match are pruned
from the archive and reported as feedback for the next modeling
iteration.  A coarser model therefore yields a smaller, cheaper archive
— the concrete form of the paper's coarse/fine trade-off.  Finally the
model's derivation rules run deepest operations first, so parent rules
see derived child infos.

The five built-in rules run over the table, each value computed with the
arithmetic of the rule's own ``compute`` in the same order.  A model
carrying any other :class:`~repro.core.model.rules.DerivationRule`
builds the table without derived infos and runs every rule over the
archive's tree instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.columnar import _split
from repro.core.archive.serialize import (
    COLUMNAR_LAYOUT,
    _decode_value,
    _encode_value,
)
from repro.core.model.job import JobModel
from repro.core.model.rules import (
    ChildCountRule,
    ChildDurationStatsRule,
    DurationRule,
    InfoSumRule,
    ShareOfParentRule,
)
from repro.core.monitor.records import RecordColumns, coerce_info_value
from repro.core.monitor.session import MonitoredRun
from repro.errors import ArchiveBuildError

_DURATION_RULE = DurationRule()
_START, _END, _INFO = 0, 1, 2
#: Event kind codes; any other event is an info event.
_EVENT_KIND = {"start": _START, "end": _END}


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
        (archive, build report); the archive holds its operations table
        and builds its tree on first use.
    """
    report = BuildReport()
    tree_rules = model is not None and any(
        type(rule) not in _COLUMN_RULES
        for node in model.walk() for rule in node.rules
    )
    table = _log_rows(run.columns, report).archive_table(
        model, report, derive=not tree_rules)
    archive = PerformanceArchive.from_table(
        run.job_id,
        table,
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
    if tree_rules:
        _derive(archive.root, model, report)
    return archive, report


def _log_rows(columns: RecordColumns, report: BuildReport) -> "OperationRows":
    """The operations of a well-formed log, one row per start event in
    log order (creation order: a parent's row precedes its children's).

    Strict: any structural anomaly (repeated start or end, unknown or
    later parent, several or no roots, an operation left open) raises
    :class:`~repro.errors.ArchiveBuildError` with the message of the
    earliest offending log row.  Damaged logs go through
    :mod:`repro.core.monitor.salvage`, which repairs instead.
    """
    events, uid, ts = columns.event, columns.uid, columns.timestamp
    kind = np.fromiter(map(_EVENT_KIND.get, events, repeat(_INFO)),
                       np.int8, len(events))
    starts, ends, infos = (np.flatnonzero(kind == k)
                           for k in (_START, _END, _INFO))
    n = len(starts)
    start_list = starts.tolist()
    uids = [uid[i] for i in start_list]
    row_of = dict(zip(uids, range(n)))
    # No parent: the root.  An unknown uid: row n; a None uid: -1.
    row_of[None] = -1
    get = row_of.get
    # Each log row's operation: start rows must name their own row
    # (a repeated uid names its last start), every other row one
    # started before it.
    owner = np.fromiter(map(get, uid, repeat(n)), np.int64, len(uid))
    parent = np.fromiter(
        map(get, [columns.parent_uid[i] for i in start_list], repeat(n)),
        np.int64, n)
    born = np.append(starts, len(events))  # born[n]: after every row.
    end_row, info_row = owner[ends], owner[infos]
    if not (
        np.array_equal(owner[starts], np.arange(n))
        and np.count_nonzero(parent < 0) == 1
        and (parent < np.arange(n)).all()
        and np.array_equal(np.sort(end_row), np.arange(n))
        and (born[end_row] < ends).all()
        and (info_row >= 0).all() and (born[info_row] < infos).all()
    ):
        raise _first_fault(columns)
    end_log = np.empty(n, dtype=np.int64)
    end_log[end_row] = ends
    info_list = infos.tolist()
    raw = [columns.info_value[i] for i in info_list]
    report.infos_recorded += len(info_list)
    return OperationRows(
        uid=uids,
        mission=[columns.mission[i] or "" for i in start_list],
        actor=[columns.actor[i] or "" for i in start_list],
        start=[ts[i] for i in start_list],
        end=[ts[i] for i in end_log.tolist()],
        parent=parent,
        info_row=info_row,
        info_name=[columns.info_name[i] for i in info_list],
        info_value=raw,
        decoded={value: coerce_info_value(value or "") for value in set(raw)},
    )


@dataclass
class OperationRows:
    """A log's operations resolved into rows, as the v3 table renders
    them, whichever builder resolved them (strict or salvage).

    Row 0 is the root (``parent[0] == -1``); siblings keep row order.
    Info rows are in writing order; ``decoded`` maps each ``info_value``
    token to its value.
    """

    uid: List[str]
    mission: List[str]
    actor: List[str]
    start: List[Any]
    end: List[Any]
    parent: np.ndarray
    info_row: np.ndarray
    info_name: List[Any]
    info_value: List[Any]
    decoded: Dict[Any, Any]

    # -- the v3 table ------------------------------------------------------

    def archive_table(self, model: Optional[JobModel] = None,
                      report: Optional[BuildReport] = None,
                      derive: bool = True) -> Dict[str, Any]:
        """The archive's operations block: filtered, in pre-order, with
        recorded infos and (``derive``) Duration and the model's rules."""
        n, parent = len(self.uid), self.parent
        up = parent.copy()
        up[0] = 0  # The root as its own parent: walks up end there.
        kept = np.ones(n, dtype=bool)
        if model is not None:
            nodes, node_of = self._match(model)
            matched = np.array([node is not None for node in nodes])[node_of]
            if not matched[0]:
                raise ArchiveBuildError(
                    f"root operation {self.mission[0]!r} @ {self.actor[0]!r} "
                    f"does not match the {model.platform} model — wrong "
                    f"model for this log?"
                )
            kept = matched
            while True:  # Closed over descendants, one level per round.
                narrower = kept & kept[up]
                if np.array_equal(narrower, kept):
                    break
                kept = narrower
            report.operations_filtered += n - int(kept.sum())
        kids = _child_lists(parent, kept)
        if model is not None:
            frontier = np.flatnonzero(~matched & kept[up]).tolist()
            self._report_unmodeled(frontier, kids, report)

        order = _preorder(kids)
        pos = np.full(n, -1, dtype=np.int64)
        pos[order] = np.arange(len(order))
        pre_parent = pos[parent[order]]
        pre_parent[0] = -1

        entries = _Entries(self, kept, pos)
        if derive:
            durations = self._durations()
            entries.add_durations(order, durations)
            if model is not None:
                self._derive(nodes, node_of, order, kids, durations,
                             up, entries, report)
        info_op, info_key, info_value = entries.columns()
        return {
            "layout": COLUMNAR_LAYOUT,
            "count": len(order),
            "uid": list(map(self.uid.__getitem__, order)),
            "mission": list(map(self.mission.__getitem__, order)),
            "actor": list(map(self.actor.__getitem__, order)),
            "parent": pre_parent.tolist(),
            "start": list(map(self.start.__getitem__, order)),
            "end": list(map(self.end.__getitem__, order)),
            "info_op": info_op,
            "info_key": info_key,
            "info_value": info_value,
        }

    # -- model filter --------------------------------------------------------

    def _match(self, model: JobModel) -> Tuple[List[Any], np.ndarray]:
        """(model node per distinct match key, key index per row).

        A row's match depends only on (mission base, iterated or not,
        actor base), so ``model.match`` runs once per distinct key, on
        the first row carrying it.
        """
        self.mission_split = {m: _split(m) for m in set(self.mission)}
        self.actor_base = {a: _split(a)[0] for a in set(self.actor)}
        mission_code = _codes({
            m: (base, index is not None)
            for m, (base, index) in self.mission_split.items()})
        actor_code = _codes(self.actor_base)
        n = len(self.uid)
        key = (np.fromiter(map(mission_code.__getitem__, self.mission),
                           np.int64, n) * (max(actor_code.values()) + 1)
               + np.fromiter(map(actor_code.__getitem__, self.actor),
                             np.int64, n))
        _keys, first, node_of = np.unique(
            key, return_index=True, return_inverse=True)
        nodes = [model.match(self.mission[row], self.actor[row])
                 for row in first.tolist()]
        return nodes, node_of.reshape(-1)

    def _report_unmodeled(self, frontier: List[int],
                          kids: List[Sequence[int]],
                          report: BuildReport) -> None:
        """Record the (mission base, actor base) of each pruned subtree
        root in the order a LIFO walk of the kept tree meets them: parents
        in right-to-left pre-order, children left to right."""
        report_key = [
            (self.mission_split[self.mission[row]][0],
             self.actor_base[self.actor[row]])
            for row in frontier
        ]
        if len(set(report_key)) > 1:
            rank = {row: k for k, row in enumerate(_preorder(kids, rtl=True))}
            above = self.parent[frontier].tolist()
            placed = sorted(zip(frontier, report_key, above),
                            key=lambda item: (rank[item[2]], item[0]))
            report_key = [key for _row, key, _above in placed]
        for key in report_key:
            if key not in report.unmodeled:
                report.unmodeled.append(key)

    # -- derivation ------------------------------------------------------------

    def _durations(self) -> List[Any]:
        """``DurationRule`` per row: end - start, None without both."""
        if None in self.start or None in self.end:
            return [None if s is None or e is None else e - s
                    for s, e in zip(self.start, self.end)]
        return list(map(operator.sub, self.end, self.start))

    def _derive(self, nodes: List[Any], node_of: np.ndarray,
                order: List[int], kids: List[Sequence[int]],
                durations: List[Any], up: np.ndarray, entries: "_Entries",
                report: BuildReport) -> None:
        """Run each kept operation's model rules, deepest rows first."""
        ruled_node = [k for k, node in enumerate(nodes)
                      if node is not None and node.rules]
        if not ruled_node:
            return
        order_array = np.asarray(order, dtype=np.int64)
        has_rules = np.zeros(len(nodes), dtype=bool)
        has_rules[ruled_node] = True
        ruled = order_array[has_rules[node_of[order_array]]]
        depth = np.zeros(len(ruled), dtype=np.int64)
        above = ruled
        while above.any():  # The root (row 0) is its own parent in ``up``.
            depth += above != 0
            above = up[above]
        groups: Dict[Tuple[int, int], List[int]] = {}
        for row, level, k in zip(ruled.tolist(), depth.tolist(),
                                 node_of[ruled].tolist()):
            groups.setdefault((-level, k), []).append(row)
        context = _RuleContext(self, durations, kids, entries)
        for (_level, k), rows in sorted(groups.items()):  # Deepest first.
            for rule in nodes[k].rules:
                values = _COLUMN_RULES[type(rule)](rule, rows, context)
                applied = entries.add_rule(rule.target, rows, values)
                report.rules_applied += applied


def _child_lists(parent: np.ndarray, kept: np.ndarray) -> List[Sequence[int]]:
    """Each row's kept children, in row (creation) order."""
    rows = np.flatnonzero(kept)[1:]
    above = parent[rows]
    by_parent = np.argsort(above, kind="stable")
    rows, above = rows[by_parent].tolist(), above[by_parent]
    cuts = np.flatnonzero(np.diff(above)) + 1
    firsts = np.concatenate(([0], cuts)).tolist()
    lasts = np.concatenate((cuts, [len(rows)])).tolist()
    kids: List[Sequence[int]] = [_NO_KIDS] * len(parent)
    for owner, first, last in zip(above[firsts].tolist() if rows else [],
                                  firsts, lasts):
        kids[owner] = rows[first:last]
    return kids


_NO_KIDS: Tuple[int, ...] = ()


def _codes(values: Dict[Any, Any]) -> Dict[Any, int]:
    """Each key's value as a dense int code (equal values, equal code)."""
    code: Dict[Any, int] = {}
    return {key: code.setdefault(value, len(code))
            for key, value in values.items()}


def _preorder(kids: List[Sequence[int]], rtl: bool = False) -> List[int]:
    """Rows in pre-order from row 0, children in list order (or right
    to left)."""
    order: List[int] = []
    stack = [0]
    while stack:
        row = stack.pop()
        order.append(row)
        children = kids[row]
        if children:
            stack.extend(children if rtl else reversed(children))
    return order


class _Entries:
    """An archive's info entries — recorded, Duration, rule-derived — as
    they land in each operation's info dict: recorded values in log
    order, then ``Duration``, then rule targets in the order rules run.

    Entries are kept as parts (operation pre-order position, key, value)
    and ordered by position at the end; while no dict sees a key twice
    that concatenation is the dict's order.
    """

    def __init__(self, log: OperationRows, kept: np.ndarray,
                 pos: np.ndarray):
        info_row = log.info_row
        keep = np.flatnonzero(kept[info_row])
        self.pos = pos
        self.rows = info_row[keep].tolist()
        keep = keep.tolist()
        self.names = [log.info_name[k] for k in keep]
        self.raw = [log.info_value[k] for k in keep]
        self.decoded = log.decoded
        encoded = {value: _encode_value(d) for value, d in self.decoded.items()}
        self.pos_part = [pos[info_row[keep]]]
        self.key_part = [self.names]
        self.value_part = [list(map(encoded.__getitem__, self.raw))]
        #: Whether some info dict sees a key twice (a repeated record,
        #: a rule target over an existing key): then dict semantics,
        #: not concatenation, decide the table.
        self.collided = len(set(zip(self.rows, self.names))) != len(self.rows)
        #: Entry index range of the Duration part (``setdefault``).
        self.durations_at = (len(self.rows), len(self.rows))
        self._recorded: Dict[str, Dict[int, Any]] = {}
        self._derived: Dict[str, Dict[int, Any]] = {}
        self._keys = set(self.names)

    def recorded(self, key: str) -> Dict[int, Any]:
        """row -> last recorded value of ``key``."""
        if key not in self._keys:
            return {}
        if key not in self._recorded:
            self._recorded[key] = {
                row: self.decoded[raw] for row, raw in compress(
                    zip(self.rows, self.raw),
                    map(operator.eq, self.names, repeat(key)))}
        return self._recorded[key]

    def value(self, row: int, key: str, durations: List[Any]) -> Any:
        """``infos.get(key)`` of the row's operation as rules see it."""
        derived = self._derived.get(key)
        if derived is not None and row in derived:
            return derived[row]
        recorded = self.recorded(key)
        if row in recorded:
            return recorded[row]
        return durations[row] if key == "Duration" else None

    def add_durations(self, order: List[int], durations: List[Any]) -> None:
        """``infos.setdefault("Duration", ...)`` on every kept row
        (``order``: the kept rows in pre-order)."""
        if self.recorded("Duration"):
            self.collided = True
        values = [durations[row] for row in order]
        at = np.arange(len(order), dtype=np.int64)
        if None in values:
            at = at[np.array([v is not None for v in values], dtype=bool)]
            values = [v for v in values if v is not None]
        first = sum(map(len, self.key_part))
        self.durations_at = (first, first + len(values))
        self._append(at, ["Duration"] * len(values), values)

    def add_rule(self, target: str, rows: List[int], values: List[Any]) -> int:
        """``infos[target] = value`` where a rule gave a value; the count."""
        placed = [(row, v) for row, v in zip(rows, values) if v is not None]
        if not placed:
            return 0
        derived = self._derived.setdefault(target, {})
        recorded = self.recorded(target)
        for row, value in placed:
            if row in derived or row in recorded or target == "Duration":
                self.collided = True
            derived[row] = value
        self._append(self.pos[[row for row, _ in placed]],
                     [target] * len(placed), [value for _, value in placed])
        return len(placed)

    def _append(self, at: np.ndarray, keys: List[Any],
                values: List[Any]) -> None:
        self.pos_part.append(at)
        self.key_part.append(keys)
        self.value_part.append(_encoded(values))

    def columns(self) -> Tuple[List[int], List[Any], List[Any]]:
        """(info_op, info_key, info_value) in pre-order, each operation's
        keys in first-write order with its last value."""
        ops = np.concatenate(self.pos_part)
        order = np.argsort(ops, kind="stable")
        keys = list(chain.from_iterable(self.key_part))
        values = list(chain.from_iterable(self.value_part))
        if not self.collided:
            order = order.tolist()
            return (ops[order].tolist(), list(map(keys.__getitem__, order)),
                    list(map(values.__getitem__, order)))
        first, last = self.durations_at
        infos: Dict[int, Dict[Any, Any]] = {}
        for k, op in zip(order.tolist(), ops[order].tolist()):
            op_infos = infos.setdefault(op, {})
            value = _decode_value(values[k])
            if first <= k < last:
                op_infos.setdefault(keys[k], value)
            else:
                op_infos[keys[k]] = value
        info_op, info_key, info_value = [], [], []
        for op, op_infos in infos.items():
            for key, value in op_infos.items():
                info_op.append(op)
                info_key.append(key)
                info_value.append(_encode_value(value))
        return info_op, info_key, info_value


_INF = float("inf")


def _encoded(values: List[Any]) -> List[Any]:
    """``_encode_value`` over derived values; the list itself when that
    changes nothing (finite numbers)."""
    if (set(map(type, values)) <= {float, int}
            and _INF not in values and -_INF not in values):
        return values
    return list(map(_encode_value, values))


class _RuleContext:
    """What the column rules read: durations, children, current infos."""

    def __init__(self, log: OperationRows, durations: List[Any],
                 kids: List[Sequence[int]], entries: _Entries):
        self.log = log
        self.parent = log.parent.tolist()
        self.durations = durations
        self.kids = kids
        self.entries = entries

    def children(self, row: int, mission_base: str) -> List[int]:
        """The row's kept children whose mission base is ``mission_base``."""
        split, mission = self.log.mission_split, self.log.mission
        return [c for c in self.kids[row]
                if split[mission[c]][0] == mission_base]


def _duration_rows(rule, rows, ctx: _RuleContext) -> List[Any]:
    return [ctx.durations[row] for row in rows]


def _share_rows(rule, rows, ctx: _RuleContext) -> List[Any]:
    durations, parent = ctx.durations, ctx.parent
    values = []
    for row in rows:
        above = parent[row]
        own = durations[row]
        whole = durations[above] if above >= 0 else None
        values.append(
            None if own is None or whole is None or whole <= 0
            else own / whole)
    return values


def _info_sum_rows(rule, rows, ctx: _RuleContext) -> List[Any]:
    totals: List[Any] = []
    for row in rows:
        children = (ctx.kids[row] if rule.child_mission is None
                    else ctx.children(row, rule.child_mission))
        values = [ctx.entries.value(child, rule.source, ctx.durations)
                  for child in children]
        values = [float(v) for v in values if v is not None]
        # The rule's ``total += float(value)`` from 0.0, in child order.
        totals.append(reduce(operator.add, values, 0.0) if values else None)
    return totals


def _child_count_rows(rule, rows, ctx: _RuleContext) -> List[Any]:
    return [len(ctx.children(row, rule.child_mission)) for row in rows]


def _child_stats_rows(rule, rows, ctx: _RuleContext) -> List[Any]:
    durations = ctx.durations
    return [
        rule.of([durations[c] for c in ctx.children(row, rule.child_mission)
                 if durations[c] is not None])
        for row in rows
    ]


#: The built-in rules as functions of (rule, rows, context) → one value
#: (or None) per row, each with its rule's ``compute`` arithmetic.
_COLUMN_RULES = {
    DurationRule: _duration_rows,
    ShareOfParentRule: _share_rows,
    InfoSumRule: _info_sum_rows,
    ChildCountRule: _child_count_rows,
    ChildDurationStatsRule: _child_stats_rows,
}


def _first_fault(columns: RecordColumns) -> ArchiveBuildError:
    """The error of a log that is not well formed: the earliest
    offending row's, else the root count's, else the open operations'."""
    mission: Dict[Any, str] = {}
    kids: Dict[Any, List[Any]] = {}
    ended = set()
    roots: List[Any] = []
    for i, event in enumerate(columns.event):
        uid = columns.uid[i]
        if event == "start":
            if uid in mission:
                return ArchiveBuildError(f"operation {uid} started twice")
            parent_uid = columns.parent_uid[i]
            if parent_uid is None:
                roots.append(uid)
            elif parent_uid not in mission:
                return ArchiveBuildError(
                    f"operation {uid} references unknown parent "
                    f"{parent_uid}"
                )
            else:
                kids[parent_uid].append(uid)
            mission[uid] = columns.mission[i] or ""
            kids[uid] = []
        elif event == "end":
            if uid not in mission:
                return ArchiveBuildError(
                    f"end event for unknown operation {uid}")
            if uid in ended:
                return ArchiveBuildError(f"operation {uid} ended twice")
            ended.add(uid)
        elif uid not in mission:
            return ArchiveBuildError(f"info event for unknown operation {uid}")
    if not roots:
        return ArchiveBuildError("log contains no root operation")
    if len(roots) > 1:
        return ArchiveBuildError(
            f"log contains {len(roots)} root operations: "
            f"{[mission[r] for r in roots]}"
        )
    dangling = []
    stack = [roots[0]]
    while stack:
        uid = stack.pop()
        if uid not in ended:
            dangling.append(mission[uid])
        stack.extend(reversed(kids[uid]))
    return ArchiveBuildError(
        f"{len(dangling)} operations never ended "
        f"(e.g. {dangling[:3]}); incomplete log?"
    )


def _derive(
    root: ArchivedOperation,
    model: Optional[JobModel],
    report: BuildReport,
) -> None:
    """Run Duration + model rules bottom-up over the tree (the path of a
    model with a rule the table cannot run)."""
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
