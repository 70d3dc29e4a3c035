"""Failure diagnosis from performance archives (paper future work).

Detects, purely from archived operations:

- **recovery events**: operations the fault-tolerance machinery emits —
  ``RecoverWorker`` (crash recovery), ``RetryContainer`` (container
  relaunch), ``ReplicaFailover`` (HDFS read failover), ``RestartLoad``
  (loader restart) and ``RedistributePartitions`` (node blacklisted) —
  each attributed with its share of the job makespan;
- **stragglers**: an actor whose compute time tops its peers in a large
  majority of iterations (bad node, not bad luck);
- **imbalanced iterations**: individual supersteps with extreme
  max/mean compute skew (data skew rather than node trouble).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.analysis.completeness import assess_completeness
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive

#: An actor must be slowest in at least this fraction of iterations to
#: be called a straggler.
STRAGGLER_MAJORITY = 0.6
#: ... and its mean compute time must exceed peers' by this factor.
STRAGGLER_FACTOR = 1.25
#: Per-iteration max/mean skew beyond this flags data imbalance.
IMBALANCE_FACTOR = 1.8

#: Mission bases emitted by the fault-tolerance machinery, with what
#: each one means.  ``RedistributePartitions`` is critical (a node was
#: lost for good); the transient recoveries start as warnings and are
#: escalated by duration share.
RECOVERY_MISSIONS: Dict[str, str] = {
    "RecoverWorker": "worker relaunch + re-execution since the last checkpoint",
    "RetryContainer": "container relaunch after a failed launch attempt",
    "ReplicaFailover": "block read failed over to a remote replica",
    "RestartLoad": "loader relaunch, resumed from the last flushed offset",
    "RedistributePartitions": "node blacklisted; partitions moved to survivors",
}

#: A recovery operation covering at least this share of the makespan is
#: critical regardless of its kind.
RECOVERY_CRITICAL_SHARE = 0.02

#: Below this completeness score a salvaged archive's diagnosis is
#: flagged critical — most of the job was never measured.
COMPLETENESS_CRITICAL = 0.5


@dataclass(frozen=True)
class Finding:
    """One diagnosis result.

    Attributes:
        kind: ``"recovery"``, ``"straggler"`` or ``"imbalance"``.
        subject: the actor / iteration concerned.
        severity: ``"warning"`` or ``"critical"``.
        evidence: human-readable justification with numbers.
    """

    kind: str
    subject: str
    severity: str
    evidence: str


def _detect_incompleteness(archive: PerformanceArchive) -> List[Finding]:
    """Flag salvaged/partial archives so no diagnosis overstates itself."""
    report = assess_completeness(archive)
    if report.complete:
        return []
    severity = (
        "critical" if report.score < COMPLETENESS_CRITICAL else "warning"
    )
    return [Finding(
        kind="incomplete",
        subject="archive",
        severity=severity,
        evidence=report.render_text().replace("\n", "; "),
    )]


def _detect_recoveries(archive: PerformanceArchive) -> List[Finding]:
    findings = []
    makespan = archive.makespan
    for base, meaning in RECOVERY_MISSIONS.items():
        for op in archive.find(mission_base=base):
            if op.duration is None:
                continue
            share = (
                op.duration / makespan if makespan else None
            )
            severity = "warning"
            if base in ("RecoverWorker", "RedistributePartitions"):
                severity = "critical"
            elif share is not None and share >= RECOVERY_CRITICAL_SHARE:
                severity = "critical"
            attributed = (
                f", {share * 100:.1f}% of the makespan"
                if share is not None else ""
            )
            findings.append(Finding(
                kind="recovery",
                subject=op.mission,
                severity=severity,
                evidence=(
                    f"{op.mission} took {op.duration:.2f}s"
                    f"{attributed} ({meaning})"
                ),
            ))
    return findings


def recovery_overhead(archive: PerformanceArchive) -> Dict[str, float]:
    """Seconds spent in each recovery operation kind, plus totals.

    Returns a mapping of mission base -> summed duration for every
    recovery kind present, with two extra keys: ``"total"`` (all
    recovery seconds) and ``"share"`` (fraction of the job makespan,
    0.0 when the makespan is unknown).  Healthy archives return
    ``{"total": 0.0, "share": 0.0}``.
    """
    overhead: Dict[str, float] = {}
    total = 0.0
    for base in RECOVERY_MISSIONS:
        seconds = sum(
            op.duration for op in archive.find(mission_base=base)
            if op.duration is not None
        )
        if seconds > 0:
            overhead[base] = seconds
            total += seconds
    overhead["total"] = total
    makespan = archive.makespan
    overhead["share"] = total / makespan if makespan else 0.0
    return overhead


def _computes_by_iteration(
    archive: PerformanceArchive,
    compute_mission: str,
) -> Dict[int, List[ArchivedOperation]]:
    """The compute operations grouped by iteration, in pre-order
    (operations without an iteration index are skipped)."""
    groups: Dict[int, List[ArchivedOperation]] = {}
    for op in archive.find(mission_base=compute_mission):
        if op.iteration is not None:
            groups.setdefault(op.iteration, []).append(op)
    return groups


def _detect_stragglers(
    by_iteration: Dict[int, List[ArchivedOperation]],
) -> List[Finding]:
    if len(by_iteration) < 3:
        return []
    slowest_counts: Dict[str, int] = {}
    totals: Dict[str, List[float]] = {}
    for ops in by_iteration.values():
        timed = [(op.actor, op.duration) for op in ops
                 if op.duration is not None]
        if len(timed) < 2:
            continue
        slowest = max(timed, key=lambda t: t[1])[0]
        slowest_counts[slowest] = slowest_counts.get(slowest, 0) + 1
        for actor, duration in timed:
            totals.setdefault(actor, []).append(duration)
    findings = []
    iterations = len(by_iteration)
    for actor, count in slowest_counts.items():
        if count / iterations < STRAGGLER_MAJORITY:
            continue
        own_mean = sum(totals[actor]) / len(totals[actor])
        peers = [d for a, ds in totals.items() if a != actor for d in ds]
        if not peers:
            continue
        peer_mean = sum(peers) / len(peers)
        if own_mean > STRAGGLER_FACTOR * peer_mean:
            findings.append(Finding(
                kind="straggler",
                subject=actor,
                severity="critical",
                evidence=(
                    f"{actor} was slowest in {count}/{iterations} "
                    f"iterations; mean compute {own_mean:.2f}s vs peers "
                    f"{peer_mean:.2f}s ({own_mean / peer_mean:.2f}x)"
                ),
            ))
    return findings


def _detect_imbalance(
    by_iteration: Dict[int, List[ArchivedOperation]],
    compute_mission: str,
) -> List[Finding]:
    findings = []
    for iteration, ops in sorted(by_iteration.items()):
        durations = [op.duration for op in ops if op.duration is not None]
        if len(durations) < 2:
            continue
        mean = sum(durations) / len(durations)
        if mean <= 0:
            continue
        skew = max(durations) / mean
        if skew > IMBALANCE_FACTOR:
            findings.append(Finding(
                kind="imbalance",
                subject=f"{compute_mission}-{iteration}",
                severity="warning",
                evidence=(
                    f"max/mean compute skew {skew:.2f}x across "
                    f"{len(durations)} workers"
                ),
            ))
    return findings


def diagnose(
    archive: PerformanceArchive,
    compute_mission: str = "Compute",
) -> List[Finding]:
    """All findings for one archive, critical first.

    ``compute_mission`` names the per-worker compute operation (the
    Giraph default; pass ``"Gather"`` for PowerGraph archives).
    """
    by_iteration = _computes_by_iteration(archive, compute_mission)
    findings = (
        _detect_incompleteness(archive)
        + _detect_recoveries(archive)
        + _detect_stragglers(by_iteration)
        + _detect_imbalance(by_iteration, compute_mission)
    )
    order = {"critical": 0, "warning": 1}
    findings.sort(key=lambda f: (order.get(f.severity, 9), f.kind, f.subject))
    return findings


def render_findings(findings: List[Finding]) -> str:
    """Human-readable diagnosis report."""
    if not findings:
        return "no findings: the run looks healthy"
    lines = [f"{len(findings)} finding(s):"]
    for finding in findings:
        lines.append(
            f"  [{finding.severity}] {finding.kind} @ {finding.subject}: "
            f"{finding.evidence}"
        )
    return "\n".join(lines)
