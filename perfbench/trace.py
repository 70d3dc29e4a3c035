"""In-memory span recorder for the traced pass.

The benchmark records a span around every call it makes into a layer's
public functions; nothing inside ``src/`` is instrumented.  Spans stay
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed call into a layer; ``counts`` holds lines/operations/bytes."""

    __slots__ = ("name", "start", "end", "parent", "workload", "op", "counts")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 workload: str, op: Optional[str],
                 counts: Dict[str, Any]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.workload = workload
        self.op = op
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records nested spans of one single-threaded run."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None,
             **counts: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.workload,
                    op, counts)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "workload": s.workload, "op": s.op,
             "counts": s.counts}
            for s in self.spans
        ]))


class _NullRecorder:
    """Tracing off: ``span`` hands back itself, a reusable no-op context.

    The same workload code runs traced and untraced, so the untraced
    cost of a ``with rec.span(...)`` must stay far below the cheapest
    operation measured (~0.3 ms); this is one call and two no-op
    methods.
    """

    enabled = False
    #: Sink for ``span.counts[key] = n``; the key set is small and fixed.
    counts: Dict[str, Any] = {}

    def span(self, name: str, op: Optional[str] = None,
             **counts: Any) -> "_NullRecorder":
        return self

    def __enter__(self) -> "_NullRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


NULL = _NullRecorder()


def self_seconds(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the part its child spans cover.

    Children may overlap (hand-built or multi-threaded traces), so the
    covered part is the union of the child intervals clipped to the
    parent, not the sum of their durations.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, edge = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(span.duration - covered)
    return out


def self_time_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Calls, total and self seconds per span name."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_seconds(spans)):
        row = table.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
    return table
