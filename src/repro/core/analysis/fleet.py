"""Fleet-scale analytics: vectorized scans across every archive in a store.

Granula's archives answer per-job drill-down; the ROADMAP's north star
also needs fleet-level answers — "how did LoadGraph share trend across
10k runs?", "which job regressed against its cohort?" — computed fast.
This module executes a :class:`~repro.core.analysis.fleetplan.FleetPlan`
against an :class:`~repro.core.archive.store.ArchiveStore` by streaming
job ids off the index and reading each job's metric values straight
from its memory-mapped ``.gcol`` sidecar as numpy vectors — no
:class:`~repro.core.archive.archive.PerformanceArchive` tree is ever
materialized.  A job whose sidecar is missing, or damaged in a column
the plan reads (each column is verified on its first read), is read
from its JSON document's own columns instead, through the same
extraction, and is reported in ``degraded_jobs``; its values are
identical (the sidecar only mirrors those columns), only slower.

The scan discipline lives in :class:`FleetScanSession`: one context
manager that opens each job's sidecar exactly once per query (one
``stat``, one ``open``), extracts everything the plan needs (group key,
metric vector, top-k candidates, mission shares, timestamp), and closes
the mapping *before* moving to the next job — so a 10k-archive query
holds one mapping at a time instead of exhausting file descriptors, and
an exception mid-scan still releases the active view.

Regression detection reuses the diagnosis vocabulary: each flagged job
becomes a :class:`~repro.core.analysis.diagnosis.Finding` whose cohort
is its group-by key, flagging per-operation makespan shares beyond
``k`` cohort standard deviations.
"""

from __future__ import annotations

import base64
import json
import logging
import math
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, Union,
)

import numpy as np

from repro.core.analysis.diagnosis import Finding
from repro.core.analysis.fleetplan import (
    DURATION_METRIC,
    INDEX_GROUP_KEYS,
    META_PREFIX,
    MIN_COHORT,
    AggSpec,
    FleetPlan,
)
from repro.core.archive.columnar import (
    ColumnarArchiveView, SidecarError, document_view,
)
from repro.core.archive.store import ArchiveStore
from repro.errors import ArchiveError, QueryError

logger = logging.getLogger(__name__)

#: Deviations beyond this multiple of the plan's threshold escalate a
#: regression finding from warning to critical.
CRITICAL_FACTOR = 1.5

#: ``include_samples`` value asking for each group's sorted vector as
#: base64 of little-endian float64 instead of a JSON float list.  The
#: cluster router asks its shards for this: the merge reads the same
#: values, and rendering and parsing ~70 000 float reprs per shard was
#: most of a routed fleet request.
PACKED = "packed"

#: ``False``, ``True`` (JSON float lists) or :data:`PACKED`.
Samples = Union[bool, str]


def _group_value(value: Any) -> str:
    """One group-axis value as stable text (dict keys must be str)."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class JobScan:
    """Everything one fleet query needs from one job, post-extraction.

    Built while the job's column view is open, then carried as plain
    Python/numpy data — nothing here keeps the mapping alive.
    """

    __slots__ = ("job_id", "group", "values", "top", "shares",
                 "timestamp")

    def __init__(self, job_id: str, group: Dict[str, str],
                 values: np.ndarray,
                 top: List[Tuple[float, str, str]],
                 shares: Optional[Dict[str, float]],
                 timestamp: Optional[float]):
        self.job_id = job_id
        self.group = group
        self.values = values
        #: Local top candidates as (value, job_id, path), already the
        #: job's k largest — the global merge only ever needs these.
        self.top = top
        self.shares = shares
        self.timestamp = timestamp


class FleetScanSession:
    """Context-managed scan of every matching job in a store.

    The session is the scan planner: per the plan it decides which
    artifacts to extract (values always; top candidates, mission
    shares, and timestamps only when an aggregation or the plan kind
    needs them), opens each job's column view exactly once, and closes
    it before the next job's is opened.
    """

    def __init__(self, store: ArchiveStore, plan: FleetPlan):
        self.store = store
        self.plan = plan
        self.jobs_scanned = 0
        self.jobs_failed = 0
        self.degraded_jobs: List[str] = []
        self._top_k = _top_depth(plan)[1]
        self._need_shares = plan.op == "regressions"
        self._need_timestamp = plan.op == "series"
        self._entered = False

    def __enter__(self) -> "FleetScanSession":
        self._entered = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._entered = False

    # -- per-job extraction --------------------------------------------------

    def _group_key(self, job_id: str, summary: Dict,
                   metadata: Optional[Dict]) -> Dict[str, str]:
        group: Dict[str, str] = {}
        for key in self.plan.group_by:
            if key in INDEX_GROUP_KEYS:
                group[key] = _group_value(summary.get(key))
            else:
                meta = metadata if isinstance(metadata, dict) else {}
                group[key] = _group_value(meta.get(key[len(META_PREFIX):]))
        return group

    def _local_top(
        self, values: np.ndarray,
        paths_of: Callable[[np.ndarray], List[str]], job_id: str,
    ) -> List[Tuple[float, str, str]]:
        """The job's k largest values as (value, job_id, path) rows.

        ``paths_of`` maps positions in ``values`` to mission paths and
        is asked for the k winners only.
        """
        if self._top_k == 0 or len(values) == 0:
            return []
        # Stable descending sort keeps pre-order tie-breaking, exactly
        # like sorted(..., reverse=True) over a walk.
        order = np.argsort(-values, kind="stable")[:self._top_k]
        return [(float(values[i]), job_id, path)
                for i, path in zip(order.tolist(), paths_of(order))]

    @staticmethod
    def _shares_of(words: List[str], codes: np.ndarray,
                   durations: np.ndarray,
                   makespan: Any) -> Optional[Dict[str, float]]:
        """Per-mission share of the makespan.

        Row ``i`` ran mission base ``words[codes[i]]``.  Durations are
        summed per distinct base with one in-order ``np.bincount``, so
        the Python work is per word, not per row; keys come out sorted.
        """
        if (
            not isinstance(makespan, (int, float))
            or isinstance(makespan, bool) or makespan <= 0
        ):
            return None
        names = sorted(set(words))
        position = {word: i for i, word in enumerate(names)}
        index = np.fromiter((position[word] for word in words),
                            dtype=np.intp, count=len(words))[codes]
        sums = np.bincount(index, weights=durations, minlength=len(names))
        seen = np.bincount(index, minlength=len(names))
        return {
            names[base]: float(sums[base]) / float(makespan)
            for base in np.flatnonzero(seen).tolist()
        }

    def _scan_columnar(self, job_id: str, summary: Dict,
                       view: ColumnarArchiveView) -> JobScan:
        metadata: Optional[Dict] = None
        if self.plan.meta_keys:
            extra = view.index_extra
            if isinstance(extra, dict) and isinstance(
                extra.get("metadata"), dict
            ):
                metadata = extra["metadata"]
            else:
                # Pre-extras sidecar: metadata needs the JSON envelope,
                # but the metric columns still come off the mapping.
                metadata = self.store.handle(job_id).metadata
        group = self._group_key(job_id, summary, metadata)

        selected = view
        if self.plan.mission is not None:
            selected = selected.mission(self.plan.mission)
        if self.plan.path is not None:
            selected = selected.path(self.plan.path)
        if self.plan.metric == DURATION_METRIC:
            rows, values = selected.duration_vector()
        else:
            rows, values = selected.numeric_info_vector(self.plan.metric)

        top = self._local_top(
            values, lambda order: selected.paths_at(rows[order]), job_id)

        shares = None
        if self._need_shares:
            srows, sdur = selected.duration_vector()
            keep = srows != 0  # The root *is* the makespan; exclude it.
            bases, codes = selected.mission_base_codes(srows[keep])
            shares = self._shares_of(bases, codes, sdur[keep],
                                     summary.get("makespan"))

        timestamp = view.root_start if self._need_timestamp else None
        return JobScan(job_id, group, values, top, shares, timestamp)

    def _scan_sidecar(self, job_id: str, summary: Dict) -> Optional[JobScan]:
        """The job's scan off its sidecar, or None when it is missing or
        damaged in a column the plan reads."""
        view = self.store.columnar_view(job_id, lazy=True)
        if view is None:
            return None
        try:
            with view:
                return self._scan_columnar(job_id, summary, view)
        except SidecarError as exc:
            logger.warning("fleet scan: sidecar for %s unusable (%s); "
                           "falling back to JSON", job_id, exc)
            return None

    # -- iteration -----------------------------------------------------------

    def jobs(self) -> Iterator[JobScan]:
        """Scan matching jobs in sorted id order, one open view at a time."""
        if not self._entered:
            raise QueryError(
                "FleetScanSession must be entered (with-statement) "
                "before scanning"
            )
        filters = self.plan.filters
        for job_id in self.store.iter_jobs(**filters):
            summary = self.store.summary(job_id)
            try:
                scan = self._scan_sidecar(job_id, summary)
                degraded = scan is None
                if degraded:
                    with document_view(
                        self.store.handle(job_id).document
                    ) as view:
                        scan = self._scan_columnar(job_id, summary, view)
            except (ArchiveError, OSError, UnicodeDecodeError) as exc:
                self.jobs_failed += 1
                logger.warning(
                    "fleet scan: skipping unreadable job %s (%s)",
                    job_id, exc,
                )
                continue
            self.jobs_scanned += 1
            if degraded:
                self.degraded_jobs.append(job_id)
            yield scan

    def base_document(self, plan: FleetPlan) -> Dict[str, Any]:
        """Result fields every fleet document shares."""
        return {
            "op": plan.op,
            "plan": plan.to_document(),
            "jobs_scanned": self.jobs_scanned,
            "jobs_failed": self.jobs_failed,
            "degraded_jobs": list(self.degraded_jobs),
        }


# -- aggregation --------------------------------------------------------------


def percentile_of(sorted_values: np.ndarray, q: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending-sorted vector."""
    n = len(sorted_values)
    if n == 0:
        return None
    rank = min(max(1, math.ceil(q / 100.0 * n)), n)
    return float(sorted_values[rank - 1])


def _top_depth(plan: FleetPlan) -> Tuple[Optional[str], int]:
    """(label, k) of the plan's deepest top-k aggregation, or (None, 0).

    Shallower top lists are prefixes of the deepest one, so it is the
    only one a scan or a merge ever has to carry.
    """
    deepest = max((agg for agg in plan.aggs if agg.kind == "top"),
                  key=lambda agg: agg.k, default=None)
    return (None, 0) if deepest is None else (deepest.label, deepest.k)


def pack_samples(sorted_values: np.ndarray) -> str:
    """A sample vector in its :data:`PACKED` wire form."""
    return base64.b64encode(
        np.ascontiguousarray(sorted_values, dtype="<f8").tobytes()
    ).decode("ascii")


def unpack_samples(samples: Union[str, List[float]]) -> np.ndarray:
    """A group's ``samples`` entry, packed or a JSON list, as float64."""
    if isinstance(samples, str):
        return np.frombuffer(base64.b64decode(samples), dtype="<f8")
    return np.asarray(samples, dtype=np.float64)


class _GroupAcc:
    """Streaming accumulator for one group's metric values.

    Folds either whole jobs (:meth:`add`, a store scan) or another
    store's finished group (:meth:`add_partial`, the cluster router's
    merge) — :meth:`aggregate` is the only place an ``AggSpec`` becomes
    an output, so a single store and N merged shards cannot disagree.
    Count/sum/min/max fold in arrival order (sorted job order within a
    store, shard order across stores), so the result is deterministic
    whichever column source each job was read from.  Raw values are
    retained only when a percentile aggregation
    — or the router's sample request — needs them.
    """

    __slots__ = ("key", "jobs", "count", "total", "vmin", "vmax",
                 "parts", "top")

    def __init__(self, key: Dict[str, str]) -> None:
        self.key = key
        self.jobs = 0
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.parts: List[np.ndarray] = []
        self.top: List[Tuple[float, str, str]] = []

    def _widen(self, low: Optional[float], high: Optional[float]) -> None:
        if low is not None:
            self.vmin = low if self.vmin is None else min(self.vmin, low)
        if high is not None:
            self.vmax = high if self.vmax is None else max(self.vmax, high)

    def _keep_top(self, rows: List[Tuple[float, str, str]],
                  top_k: int) -> None:
        """k best of the candidates seen so far (exact: no job or
        shard hides a global winner behind its own local top-k)."""
        self.top.extend(rows)
        self.top.sort(key=lambda t: (-t[0], t[1], t[2]))
        del self.top[top_k:]

    def add(self, scan: JobScan, keep_values: bool, top_k: int) -> None:
        values = scan.values
        self.jobs += 1
        self.count += len(values)
        if len(values):
            self.total += float(values.sum())
            self._widen(float(values.min()), float(values.max()))
        if keep_values:
            self.parts.append(values)
        if top_k:
            self._keep_top(scan.top, top_k)

    def add_partial(self, group: Dict[str, Any],
                    top_label: Optional[str], top_k: int) -> None:
        """Fold one group entry of another store's query document.

        Sums of shard sums, means recomputed from the merged sums,
        percentiles from the concatenated ``samples`` vectors (packed
        or JSON lists), top-k from the shards' deepest top rows.
        """
        self.jobs += group.get("jobs", 0)
        stats = group.get("stats", {})
        self.count += stats.get("count", 0)
        self.total += stats.get("sum", 0.0)
        self._widen(stats.get("min"), stats.get("max"))
        self.parts.append(unpack_samples(group.get("samples", [])))
        if top_label is not None:
            self._keep_top(
                [(row.get("value"), row.get("job_id", ""),
                  row.get("path", ""))
                 for row in group.get("aggs", {}).get(top_label, [])],
                top_k,
            )

    def sorted_values(self) -> np.ndarray:
        if not self.parts:
            return np.zeros(0, dtype=np.float64)
        return np.sort(np.concatenate(self.parts))

    def aggregate(self, aggs: Tuple[AggSpec, ...],
                  include_samples: Samples) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        sorted_values: Optional[np.ndarray] = None
        for agg in aggs:
            if agg.kind == "count":
                out[agg.label] = self.count
            elif agg.kind == "sum":
                out[agg.label] = self.total
            elif agg.kind == "mean":
                out[agg.label] = (
                    self.total / self.count if self.count else None
                )
            elif agg.kind == "min":
                out[agg.label] = self.vmin
            elif agg.kind == "max":
                out[agg.label] = self.vmax
            elif agg.kind == "percentile":
                if sorted_values is None:
                    sorted_values = self.sorted_values()
                out[agg.label] = percentile_of(sorted_values, agg.q)
            elif agg.kind == "top":
                out[agg.label] = [
                    {"value": value, "job_id": job_id, "path": path}
                    for value, job_id, path in self.top[:agg.k]
                ]
        result = {
            "key": self.key,
            "jobs": self.jobs,
            "stats": {
                "count": self.count,
                "sum": self.total,
                "min": self.vmin,
                "max": self.vmax,
            },
            "aggs": out,
        }
        if include_samples:
            if sorted_values is None:
                sorted_values = self.sorted_values()
            result["samples"] = (
                pack_samples(sorted_values) if include_samples == PACKED
                else sorted_values.tolist()
            )
        return result


def _acc_for(groups: Dict[Tuple[str, ...], _GroupAcc], plan: FleetPlan,
             group: Dict[str, str]) -> _GroupAcc:
    """The accumulator of the group ``group`` names; its first
    sighting supplies the emitted ``key`` mapping."""
    key = tuple(group.get(name, "") for name in plan.group_by)
    acc = groups.get(key)
    if acc is None:
        acc = groups[key] = _GroupAcc(group)
    return acc


def _group_documents(groups: Dict[Tuple[str, ...], _GroupAcc],
                     plan: FleetPlan,
                     include_samples: Samples) -> List[Dict[str, Any]]:
    return [groups[key].aggregate(plan.aggs, include_samples)
            for key in sorted(groups)]


def reduce_single(values: np.ndarray, agg: AggSpec) -> Optional[float]:
    """One job's metric vector reduced to the series scalar."""
    if agg.kind == "count":
        return len(values)
    if agg.kind == "sum":
        return float(values.sum()) if len(values) else 0.0
    if len(values) == 0:
        return None
    if agg.kind == "mean":
        return float(values.sum()) / len(values)
    if agg.kind == "min":
        return float(values.min())
    if agg.kind == "max":
        return float(values.max())
    if agg.kind == "percentile":
        return percentile_of(np.sort(values), agg.q)
    raise QueryError(f"aggregation {agg.label!r} cannot reduce a series")


# -- plan execution -----------------------------------------------------------


def _run_query(session: FleetScanSession, plan: FleetPlan,
               include_samples: Samples) -> Dict[str, Any]:
    top_k = _top_depth(plan)[1]
    keep_values = plan.needs_values or include_samples
    groups: Dict[Tuple[str, ...], _GroupAcc] = {}
    # A group sum past the largest float reads inf, as the merge of
    # shard sums (Python floats, ``add_partial``) does, unwarned.
    with np.errstate(over="ignore"):
        for scan in session.jobs():
            _acc_for(groups, plan, scan.group).add(scan, keep_values, top_k)
    document = session.base_document(plan)
    document["groups"] = _group_documents(groups, plan, include_samples)
    return document


def _series_order(point: Dict[str, Any]) -> Tuple[bool, float, str]:
    """Series points run by timestamp; undated ones last, by job id."""
    timestamp = point.get("timestamp")
    return (
        timestamp is None,
        timestamp if timestamp is not None else 0,
        point.get("job_id", ""),
    )


def _run_series(session: FleetScanSession,
                plan: FleetPlan) -> Dict[str, Any]:
    agg = plan.aggs[0]
    points: List[Dict[str, Any]] = []
    for scan in session.jobs():
        points.append({
            "job_id": scan.job_id,
            "timestamp": scan.timestamp,
            "group": scan.group,
            "value": reduce_single(scan.values, agg),
        })
    points.sort(key=_series_order)
    document = session.base_document(plan)
    document["points"] = points
    return document


_SEVERITY_ORDER = {"critical": 0, "warning": 1}


def detect_regressions(
    cohorts: Dict[Tuple[str, ...], List[Tuple[str, Dict[str, float]]]],
    keys: Dict[Tuple[str, ...], Dict[str, str]],
    plan: FleetPlan,
) -> Tuple[List[Dict[str, Any]], int]:
    """Flag per-mission makespan shares beyond k·σ of their cohort.

    ``cohorts`` maps each group key to its jobs' (job_id, mission ->
    share) in scan order.  A job missing a mission its cohort runs
    contributes share 0.0 — skipping a whole phase *is* the anomaly.
    Returns (finding entries, cohorts large enough to judge).
    """
    entries: List[Dict[str, Any]] = []
    judged = 0
    for key in sorted(cohorts):
        jobs = cohorts[key]
        if len(jobs) < MIN_COHORT:
            continue
        judged += 1
        missions = sorted({m for _, shares in jobs for m in shares})
        for mission in missions:
            vector = np.asarray(
                [shares.get(mission, 0.0) for _, shares in jobs],
                dtype=np.float64,
            )
            mean = float(vector.mean())
            std = float(vector.std())
            if std <= 0.0:
                continue
            threshold = plan.k_sigma * std
            for (job_id, _shares), share in zip(jobs, vector.tolist()):
                deviation = abs(share - mean)
                if deviation <= threshold:
                    continue
                sigma = deviation / std
                severity = (
                    "critical"
                    if deviation > CRITICAL_FACTOR * threshold
                    else "warning"
                )
                entries.append({
                    "kind": "fleet-regression",
                    "severity": severity,
                    "job_id": job_id,
                    "mission": mission,
                    "group": keys[key],
                    "share": share,
                    "cohort_mean": mean,
                    "cohort_std": std,
                    "sigma": sigma,
                    "cohort_jobs": len(jobs),
                    "subject": f"{job_id}:{mission}",
                    "evidence": (
                        f"{mission} share {share * 100:.1f}% vs cohort "
                        f"mean {mean * 100:.1f}% ± {std * 100:.1f}% "
                        f"({sigma:.1f}σ across {len(jobs)} jobs)"
                    ),
                })
    entries.sort(key=lambda e: (
        _SEVERITY_ORDER.get(e["severity"], 9), -e["sigma"],
        e["job_id"], e["mission"],
    ))
    return entries, judged


def _judge_cohorts(document: Dict[str, Any], rows: List[Dict[str, Any]],
                   plan: FleetPlan, include_shares: bool) -> Dict[str, Any]:
    """Pool per-job share rows into cohorts and run the detection.

    ``rows`` are ``{"job_id", "group", "shares"}`` in job order within
    each cohort — one store's scan or every shard's rows pooled, so a
    cohort spanning shards is judged whole (shard-local σ over a
    partial cohort would be wrong).  ``include_shares`` passes the rows
    on, which is what lets a router pool them again.
    """
    cohorts: Dict[Tuple[str, ...], List[Tuple[str, Dict[str, float]]]] = {}
    keys: Dict[Tuple[str, ...], Dict[str, str]] = {}
    for row in rows:
        group = row.get("group", {})
        key = tuple(group.get(name, "") for name in plan.group_by)
        cohorts.setdefault(key, []).append(
            (row.get("job_id", ""), row.get("shares", {}))
        )
        keys.setdefault(key, group)
    document["findings"], document["cohorts"] = detect_regressions(
        cohorts, keys, plan
    )
    if include_shares:
        document["shares"] = rows
    return document


def _run_regressions(session: FleetScanSession, plan: FleetPlan,
                     include_shares: bool) -> Dict[str, Any]:
    rows = [
        {"job_id": scan.job_id, "group": scan.group, "shares": scan.shares}
        for scan in session.jobs()
        if scan.shares is not None  # No usable makespan: undefined.
    ]
    # Cohort by cohort, scan (job id) order within each.
    rows.sort(key=lambda row: tuple(
        row["group"][name] for name in plan.group_by
    ))
    return _judge_cohorts(
        session.base_document(plan), rows, plan, include_shares
    )


def merge_fleet_documents(
    plan: FleetPlan,
    documents: List[Dict[str, Any]],
    include_samples: Samples,
) -> Dict[str, Any]:
    """Merge per-store fleet documents into the single-store answer.

    The cluster router's half of a fan-out: each document is one
    shard's answer to ``plan``, asked with ``samples`` whenever the
    merge needs raw material (sample vectors for percentiles, packed or
    JSON lists alike, and per-job shares for regressions).  Groups fold
    through the same :class:`_GroupAcc` a store scan uses, series
    points re-sort by the one series order, and regressions re-run the
    detector over the pooled shares.
    """
    merged: Dict[str, Any] = {
        "op": plan.op,
        "plan": plan.to_document(),
        "jobs_scanned": sum(
            d.get("jobs_scanned", 0) for d in documents
        ),
        "jobs_failed": sum(d.get("jobs_failed", 0) for d in documents),
        "degraded_jobs": sorted({
            job for d in documents for job in d.get("degraded_jobs", [])
        }),
    }
    if plan.op == "series":
        merged["points"] = sorted(
            (p for d in documents for p in d.get("points", [])),
            key=_series_order,
        )
        return merged
    if plan.op == "regressions":
        rows = [r for d in documents for r in d.get("shares", [])
                if isinstance(r, dict)]
        rows.sort(key=lambda r: r.get("job_id", ""))
        return _judge_cohorts(merged, rows, plan, include_samples)
    top_label, top_k = _top_depth(plan)
    groups: Dict[Tuple[str, ...], _GroupAcc] = {}
    for document in documents:
        for group in document.get("groups", []):
            _acc_for(groups, plan, group.get("key", {})).add_partial(
                group, top_label, top_k
            )
    merged["groups"] = _group_documents(groups, plan, include_samples)
    return merged


def run_fleet_query(
    store: ArchiveStore,
    plan: FleetPlan,
    include_samples: Samples = False,
) -> Dict[str, Any]:
    """Execute one fleet plan against a store; returns the JSON document.

    Jobs are scanned off their ``.gcol`` sidecars; a job whose sidecar
    is missing, or damaged in a column the plan reads, is read from its
    JSON document's columns and reported in ``degraded_jobs``.  Values
    are identical either way;
    the sidecar is an accelerator, never an oracle.  A job that cannot
    be read at all (or whose columns cannot be encoded) is counted in
    ``jobs_failed``.
    ``include_samples`` attaches each group's sorted value vector (the
    cluster router uses this to recompute percentiles across shards),
    as a JSON float list or, for :data:`PACKED`, as packed float64.
    """
    with FleetScanSession(store, plan) as session:
        if plan.op == "series":
            return _run_series(session, plan)
        if plan.op == "regressions":
            return _run_regressions(session, plan,
                                    include_shares=include_samples)
        return _run_query(session, plan, include_samples)


def fleet_findings(document: Dict[str, Any]) -> List[Finding]:
    """A regressions document's entries as diagnosis findings."""
    return [
        Finding(
            kind=entry.get("kind", "fleet-regression"),
            subject=str(entry.get("subject", "")),
            severity=str(entry.get("severity", "warning")),
            evidence=str(entry.get("evidence", "")),
        )
        for entry in document.get("findings", [])
        if isinstance(entry, dict)
    ]


def _fmt(value: Any) -> str:
    """One scalar for the text renderer (None = no data)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_key(key: Dict[str, str]) -> str:
    return " ".join(f"{name}={value or '-'}" for name, value in key.items())


def render_fleet_text(document: Dict[str, Any]) -> str:
    """Human-readable rendering of one fleet result document."""
    from repro.core.analysis.diagnosis import render_findings

    op = document.get("op", "query")
    header = (
        f"fleet {op}: {document.get('jobs_scanned', 0)} job(s) scanned"
    )
    if document.get("jobs_failed"):
        header += f", {document['jobs_failed']} failed"
    lines = [header]
    degraded = document.get("degraded_jobs") or []
    if degraded:
        lines.append(
            f"  degraded (read from JSON, no sidecar): "
            f"{', '.join(degraded)}"
        )
    shards = document.get("degraded_shards") or []
    if shards:
        lines.append(
            "  degraded shards: "
            + ", ".join(str(index) for index in shards)
        )
    if op == "series":
        for point in document.get("points", []):
            lines.append(
                f"  {_fmt(point.get('timestamp'))}  "
                f"{point.get('job_id', '?')}  "
                f"[{_fmt_key(point.get('group', {}))}]  "
                f"{_fmt(point.get('value'))}"
            )
        if not document.get("points"):
            lines.append("  (no jobs matched)")
        return "\n".join(lines)
    if op == "regressions":
        lines.append(
            f"  cohorts judged: {document.get('cohorts', 0)}"
        )
        findings = fleet_findings(document)
        if findings:
            lines.append(render_findings(findings))
        else:
            lines.append("  no regressions detected")
        return "\n".join(lines)
    for group in document.get("groups", []):
        lines.append(
            f"  {_fmt_key(group.get('key', {}))}  "
            f"({group.get('jobs', 0)} job(s))"
        )
        for label, value in group.get("aggs", {}).items():
            if isinstance(value, list):
                lines.append(f"    {label}:")
                for entry in value:
                    lines.append(
                        f"      {_fmt(entry.get('value'))}  "
                        f"{entry.get('job_id', '?')}  "
                        f"{entry.get('path', '')}"
                    )
            else:
                lines.append(f"    {label} = {_fmt(value)}")
    if not document.get("groups"):
        lines.append("  (no jobs matched)")
    return "\n".join(lines)


__all__ = [
    "CRITICAL_FACTOR",
    "FleetScanSession",
    "JobScan",
    "PACKED",
    "detect_regressions",
    "fleet_findings",
    "merge_fleet_documents",
    "percentile_of",
    "reduce_single",
    "render_fleet_text",
    "run_fleet_query",
]
