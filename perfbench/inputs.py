"""Every input the benchmark feeds the program, derived from ``--seed``.

The program under test receives only what is generated here: synthetic
archives, truncation points, key-skew draws and request order.  The
same seed gives the same inputs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive

PLATFORMS = ("Giraph", "PowerGraph", "Hadoop", "PGX.D")
ALGORITHMS = ("bfs", "pagerank", "wcc")
DATASETS = ("dg100", "dg1000")

#: Share of key draws that go to the hot set, and the hot set's share of keys.
HOT_DRAW_SHARE = 0.8
HOT_KEY_SHARE = 0.2


def _op(uid: str, mission: str, actor: str, start: float, end: float,
        parent: Optional[ArchivedOperation] = None, **infos: Any) -> ArchivedOperation:
    # Real archives carry Duration as a derived info (the builder's
    # DurationRule); the query battery aggregates over it.
    op = ArchivedOperation(uid, mission, actor, start, end,
                           infos=dict(infos, Duration=end - start),
                           parent=parent)
    if parent is not None:
        parent.children.append(op)
    return op


def synthetic_archive(job_id: str, index: int,
                      rng: random.Random) -> PerformanceArchive:
    """One synthetic job archive of ~560 operations.

    Shaped like a monitored run: a load phase with ten per-worker
    children, then 40-59 supersteps of ten per-worker computes, with
    millisecond timestamps.  Every 37th job gets a load phase nine
    times longer, so the fleet regression sweep has outliers to flag.
    """
    workers = 10
    base = 1_000_000_000.0 + index * 60_000
    slow_load = index % 37 == 5
    load_span = (18_000.0 if slow_load else 2_000.0) + rng.random() * 500

    root = _op(f"{job_id}:root", "Job", "Client", base, base)
    load = _op(f"{job_id}:load", "LoadGraph", "Master",
               base, base + load_span, root)
    for w in range(workers):
        _op(f"{job_id}:load{w}", "LocalLoad", f"Worker-{w}", base,
            base + load_span * (0.6 + 0.04 * w), load,
            BytesRead=float(1000 * (w + 1)))
    t = base + load_span
    process = _op(f"{job_id}:proc", "ProcessGraph", "Master", t, t, root)
    for s in range(40 + rng.randrange(20)):
        span = 400.0 + rng.random() * 200
        step = _op(f"{job_id}:s{s}", f"Superstep-{s}", "Master",
                   t, t + span, process, Supersteps=float(s + 1))
        for w in range(workers):
            _op(f"{job_id}:s{s}w{w}", "Compute", f"Worker-{w}", t,
                t + span * (0.5 + 0.05 * w), step,
                ProcessedVertices=float(rng.randrange(10_000)))
        t += span
    for op, end in ((process, t), (root, t + 100.0)):
        op.end_time = end
        op.infos["Duration"] = end - op.start_time
    return PerformanceArchive(
        job_id, root, platform=PLATFORMS[index % len(PLATFORMS)],
        metadata={
            "algorithm": ALGORITHMS[(index // len(PLATFORMS))
                                    % len(ALGORITHMS)],
            "dataset": DATASETS[index % len(DATASETS)],
            "tier": "perfbench",
        },
    )


def synthetic_archives(prefix: str, count: int, rng: random.Random,
                       first: int = 0) -> List[PerformanceArchive]:
    return [
        synthetic_archive(f"{prefix}-{index:05d}", index, rng)
        for index in range(first, first + count)
    ]


def query_battery(query: Any) -> Tuple[Any, ...]:
    """The six-call selector/aggregate battery of a point query.

    Runs unchanged on a ``ColumnarArchiveView`` and a tree
    ``ArchiveQuery``; both share the surface by name.
    """
    supersteps = query.mission("Superstep")
    return (
        len(query),
        query.total(),
        query.durations(),
        supersteps.total(),
        supersteps.values("Duration"),
        query.actor("Worker").total(),
    )


def reference_battery(archive: PerformanceArchive) -> Tuple[Any, ...]:
    """What :func:`query_battery` must answer, by a plain pre-order walk.

    Sums are left folds in walk order, as the query layers promise, so
    the comparison is exact rather than within a tolerance.
    """
    ops = list(archive.walk())
    total = superstep_total = worker_total = 0.0
    superstep_values = []
    for op in ops:
        duration = op.infos["Duration"]
        total += duration
        if op.mission_base == "Superstep":
            superstep_total += duration
            superstep_values.append(duration)
        if op.actor_base == "Worker":
            worker_total += duration
    return (
        len(ops),
        total,
        [op.end_time - op.start_time for op in ops],
        superstep_total,
        superstep_values,
        worker_total,
    )


def fleet_reference(
    archives: Sequence[PerformanceArchive],
) -> Dict[str, Dict[str, float]]:
    """Per-platform operation count and duration sum over a fleet."""
    groups: Dict[str, Dict[str, float]] = {}
    for archive in archives:
        group = groups.setdefault(archive.platform,
                                  {"count": 0, "sum": 0.0})
        for op in archive.walk():
            group["count"] += 1
            group["sum"] += op.end_time - op.start_time
    return groups


class SkewedKeys:
    """80/20 key draws: most picks land on a seed-chosen fifth of the keys."""

    def __init__(self, keys: Sequence[str], rng: random.Random):
        shuffled = list(keys)
        rng.shuffle(shuffled)
        cut = max(1, int(len(shuffled) * HOT_KEY_SHARE))
        self.hot, self.cold = shuffled[:cut], shuffled[cut:] or shuffled

    def draw(self, rng: random.Random) -> str:
        pool = self.hot if rng.random() < HOT_DRAW_SHARE else self.cold
        return pool[rng.randrange(len(pool))]


def pass_schedule(rng: random.Random,
                  counts: Sequence[Tuple[str, int]]) -> List[str]:
    """The operation classes of one pass, in seed-shuffled order.

    Every pass holds exactly the same number of each class, so whole
    passes are comparable and a rare, expensive class (a fleet scan)
    cannot make one pass heavier than the next by the luck of the draw.
    """
    schedule = [name for name, count in counts for _ in range(count)]
    rng.shuffle(schedule)
    return schedule


def truncation_point(rng: random.Random, lines: int) -> int:
    """Where a crashed job's log ends: 55-75 % of the way through."""
    return max(1, int(lines * (0.55 + 0.20 * rng.random())))
