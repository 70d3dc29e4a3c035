"""Per-node CPU accounting.

Platform phases record *busy intervals* — "cores cores busy from start to
end, on behalf of <tag>".  The Granula environment monitor later samples
these intervals into a per-second "CPU time / second" series, which is the
exact quantity plotted in the paper's Figures 6 and 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ClusterError
from repro.graph.csr import group_starts


@dataclass(frozen=True)
class BusyInterval:
    """A span of simulated time during which some cores were busy.

    Attributes:
        start: interval start time (seconds, inclusive).
        end: interval end time (seconds, exclusive).
        cores: number of cores kept busy (may be fractional, e.g. a phase
            at 30% utilization of one core records ``cores=0.3``).
        tag: free-form label of the operation charging this time, used to
            map resource usage back to Granula operations.
    """

    start: float
    end: float
    cores: float
    tag: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ClusterError(
                f"busy interval ends before it starts: [{self.start}, {self.end})"
            )
        if self.cores < 0:
            raise ClusterError(f"negative core usage: {self.cores}")

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start

    @property
    def cpu_seconds(self) -> float:
        """Total CPU time consumed: cores x duration."""
        return self.cores * self.duration

    def overlap(self, t0: float, t1: float) -> float:
        """CPU seconds consumed within the window ``[t0, t1)``."""
        lo = max(self.start, t0)
        hi = min(self.end, t1)
        if hi <= lo:
            return 0.0
        return self.cores * (hi - lo)


class CpuAccount:
    """Accumulates busy intervals for a single node.

    Intervals may overlap (multiple concurrent activities); sampling adds
    their contributions.  The account also enforces the node's physical
    core limit when asked to validate.
    """

    def __init__(self, cores: int):
        if cores <= 0:
            raise ClusterError(f"node must have at least one core, got {cores}")
        self.cores = cores
        self._intervals: List[BusyInterval] = []

    @property
    def intervals(self) -> Sequence[BusyInterval]:
        """All recorded busy intervals, in insertion order."""
        return tuple(self._intervals)

    def record(self, start: float, end: float, cores: float, tag: str = "") -> BusyInterval:
        """Record a busy interval and return it.

        ``cores`` above the node's physical count is clamped — a burst of
        runnable threads cannot exceed the hardware.
        """
        interval = BusyInterval(start, end, min(cores, float(self.cores)), tag)
        self._intervals.append(interval)
        return interval

    def cpu_seconds_between(self, t0: float, t1: float) -> float:
        """Total CPU seconds consumed in ``[t0, t1)`` across all intervals."""
        return sum(iv.overlap(t0, t1) for iv in self._intervals)

    def busy_cores_at(self, t: float) -> float:
        """Instantaneous core usage at time ``t`` (sum of active intervals)."""
        return sum(iv.cores for iv in self._intervals if iv.start <= t < iv.end)

    def span(self) -> Tuple[float, float]:
        """(earliest start, latest end) over all intervals; (0, 0) if empty."""
        if not self._intervals:
            return (0.0, 0.0)
        return (
            min(iv.start for iv in self._intervals),
            max(iv.end for iv in self._intervals),
        )

    def sample(
        self,
        t0: float,
        t1: float,
        step: float = 1.0,
    ) -> "UsageSeries":
        """Sample CPU time/second over ``[t0, t1)`` at ``step`` resolution.

        Each sample at time ``t`` holds the CPU seconds consumed in
        ``[t, t+step)`` divided by ``step`` — i.e. average busy cores in
        that window, matching the "CPU time / second" axis of the paper.
        """
        if step <= 0:
            raise ClusterError(f"sample step must be positive, got {step}")
        if t1 < t0:
            raise ClusterError(f"invalid sample window [{t0}, {t1})")
        n = int(math.ceil((t1 - t0) / step)) if t1 > t0 else 0
        lo = t0 + np.arange(n, dtype=np.float64) * step
        hi = np.minimum(lo + step, t1)
        width = hi - lo
        cpu = self._fold_windows(lo, hi)
        values = np.divide(cpu, width, out=np.zeros(n, dtype=np.float64),
                           where=width > 0)
        return UsageSeries(times=lo.tolist(), values=values.tolist(),
                           step=step)

    def _fold_windows(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """CPU seconds per window ``[lo[w], hi[w])``.

        Each window sums ``cores * overlap`` of the intervals overlapping
        it, as a left fold from ``+0.0`` in insertion order: exactly
        what adding every interval's overlap to every window, one
        interval at a time, computes (non-overlapping intervals add
        ``0.0``, which changes no non-negative sum).  The bounds are
        non-decreasing, so each interval's windows are one range found
        by ``searchsorted``, and the folds run as one planned segmented
        fold.
        """
        # Imported here: repro.platforms imports the cluster package.
        from repro.platforms.vecops import FoldPlan, stable_key_sort

        n = len(lo)
        ivs = self._intervals
        if not n or not ivs:
            return np.zeros(n, dtype=np.float64)
        start = np.array([iv.start for iv in ivs], dtype=np.float64)
        end = np.array([iv.end for iv in ivs], dtype=np.float64)
        cores = np.array([iv.cores for iv in ivs], dtype=np.float64)
        first = np.searchsorted(hi, start, side="right")
        count = np.maximum(np.searchsorted(lo, end, side="left") - first, 0)
        iv = np.repeat(np.arange(len(ivs), dtype=np.int64), count)
        win = (np.arange(len(iv), dtype=np.int64)
               + np.repeat(first - (np.cumsum(count) - count), count))
        span = np.minimum(end[iv], hi[win]) - np.maximum(start[iv], lo[win])
        keep = span > 0.0
        win = win[keep]
        if not len(win):
            return np.zeros(n, dtype=np.float64)
        contrib = cores[iv[keep]] * span[keep]
        # Pairs come interval-major; a stable order by window keeps each
        # window's intervals in insertion order.
        order, win = stable_key_sort(win, n)
        starts = group_starts(win)
        return FoldPlan(starts, len(win), rows=win[starts],
                        size=n)(contrib[order])

    def by_tag(self) -> dict:
        """CPU seconds aggregated per tag."""
        totals: dict = {}
        for iv in self._intervals:
            totals[iv.tag] = totals.get(iv.tag, 0.0) + iv.cpu_seconds
        return totals

    def clear(self) -> None:
        """Drop all recorded intervals (used between independent runs)."""
        self._intervals.clear()


@dataclass
class UsageSeries:
    """A sampled CPU usage time series for one node.

    ``values[i]`` is the average number of busy cores during
    ``[times[i], times[i] + step)``.
    """

    times: List[float]
    values: List[float]
    step: float

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ClusterError(
                f"series length mismatch: {len(self.times)} times, "
                f"{len(self.values)} values"
            )

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    @property
    def total_cpu_seconds(self) -> float:
        """Integral of the series (CPU seconds represented)."""
        return sum(v * self.step for v in self.values)

    @property
    def peak(self) -> float:
        """Maximum sampled value (busy cores)."""
        return max(self.values) if self.values else 0.0

    def mean(self) -> float:
        """Mean sampled value, 0.0 for an empty series."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def window(self, t0: float, t1: float) -> "UsageSeries":
        """Sub-series with sample times in ``[t0, t1)``."""
        pairs = [(t, v) for t, v in self if t0 <= t < t1]
        return UsageSeries(
            times=[t for t, _v in pairs],
            values=[v for _t, v in pairs],
            step=self.step,
        )


def merge_series(series: Iterable[UsageSeries]) -> Optional[UsageSeries]:
    """Sum several aligned usage series (cluster-wide cumulative usage).

    All series must share the same step and sample times.  Returns ``None``
    for an empty input.
    """
    items = list(series)
    if not items:
        return None
    first = items[0]
    for s in items[1:]:
        if s.step != first.step or s.times != first.times:
            raise ClusterError("cannot merge misaligned usage series")
    summed = [sum(s.values[i] for s in items) for i in range(len(first))]
    return UsageSeries(times=list(first.times), values=summed, step=first.step)
