"""Per-worker compute-workload gantt (the paper's Figure 8).

For every worker and superstep, the chart shows the Compute span (light)
framed by PreStep/PostStep overhead (gray) — making workload imbalance
across supersteps and across workers, and barrier wait time, directly
visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.archive.archive import PROVENANCE_MEASURED, PerformanceArchive
from repro.core.visualize.palette import COMPUTE_COLOR, OVERHEAD_COLOR
from repro.core.visualize.render_svg import SvgCanvas
from repro.core.visualize.render_text import format_seconds
from repro.errors import VisualizationError


@dataclass(frozen=True)
class WorkerSpan:
    """One worker's activity inside one superstep."""

    worker: str
    superstep: int
    pre_start: float
    compute_start: float
    compute_end: float
    post_end: float
    #: True when any contributing operation's timing was inferred during
    #: salvage rather than measured.
    inferred: bool = False

    @property
    def compute_duration(self) -> float:
        """Seconds spent in the Compute span."""
        return self.compute_end - self.compute_start

    @property
    def overhead_duration(self) -> float:
        """Seconds spent in PreStep + PostStep (sync overhead)."""
        return (self.compute_start - self.pre_start) + (
            self.post_end - self.compute_end
        )


@dataclass
class SuperstepGantt:
    """The Figure 8 data of one job.

    Attributes:
        job_id / platform: identification.
        t0 / t1: window covered (ProcessGraph).
        spans: per (worker, superstep) activity spans.
        workers: worker names, ordered.
        supersteps: superstep indices, ordered.
    """

    job_id: str
    platform: str
    t0: float
    t1: float
    spans: List[WorkerSpan]
    workers: List[str]
    supersteps: List[int]

    def dominant_superstep(self) -> int:
        """Superstep with the largest total compute time (Compute-4 in
        the paper's run)."""
        totals: Dict[int, float] = {}
        for span in self.spans:
            totals[span.superstep] = (
                totals.get(span.superstep, 0.0) + span.compute_duration
            )
        if not totals:
            raise VisualizationError("gantt has no spans")
        return max(totals, key=lambda k: totals[k])

    def imbalance(self, superstep: int) -> float:
        """max/mean of per-worker compute time in one superstep."""
        durations = [
            s.compute_duration for s in self.spans if s.superstep == superstep
        ]
        if not durations:
            raise VisualizationError(f"no spans for superstep {superstep}")
        mean = sum(durations) / len(durations)
        return max(durations) / mean if mean > 0 else 1.0

    def overhead_fraction(self) -> float:
        """Total overhead time over total span time (sync cost)."""
        total = sum(s.post_end - s.pre_start for s in self.spans)
        overhead = sum(s.overhead_duration for s in self.spans)
        return overhead / total if total > 0 else 0.0

    def render_text(self, width: int = 72) -> str:
        """One row per worker: compute cells (#) vs overhead (.)"""
        span_total = max(self.t1 - self.t0, 1e-9)
        lines = [
            f"{self.platform} job {self.job_id}: compute-workload "
            f"distribution (#=Compute .=overhead)",
        ]
        for worker in self.workers:
            cells = ["."] * width
            for span in self.spans:
                if span.worker != worker:
                    continue
                lo = int((span.compute_start - self.t0) / span_total * width)
                hi = int((span.compute_end - self.t0) / span_total * width)
                for i in range(max(lo, 0), min(max(hi, lo + 1), width)):
                    cells[i] = "#"
            lines.append(f"{worker:>10} |{''.join(cells)}|")
        dom = self.dominant_superstep()
        lines.append("")
        lines.append(
            f"dominant superstep: Compute-{dom} "
            f"(imbalance max/mean = {self.imbalance(dom):.2f}; "
            f"overall overhead = {self.overhead_fraction() * 100:.1f}%)"
        )
        inferred = sum(1 for s in self.spans if s.inferred)
        if inferred:
            lines.append(
                f"WARNING: {inferred}/{len(self.spans)} spans have "
                f"inferred (salvaged) timing"
            )
        return "\n".join(lines)

    def render_svg(self, width: int = 760, row_height: int = 22) -> str:
        """Figure 8 as an SVG gantt chart."""
        margin_l, margin_r, margin_t, margin_b = 76, 12, 26, 30
        plot_w = width - margin_l - margin_r
        height = margin_t + margin_b + row_height * len(self.workers)
        span_total = max(self.t1 - self.t0, 1e-9)
        canvas = SvgCanvas(width, height)
        canvas.text(margin_l, 15,
                    f"{self.platform} — compute distribution ({self.job_id})",
                    size=13)

        def sx(t: float) -> float:
            return margin_l + (t - self.t0) / span_total * plot_w

        for row, worker in enumerate(self.workers):
            y = margin_t + row * row_height
            canvas.text(4, y + row_height - 8, worker, size=10)
            for span in self.spans:
                if span.worker != worker:
                    continue
                canvas.rect(sx(span.pre_start), y + 3,
                            sx(span.post_end) - sx(span.pre_start),
                            row_height - 6, fill=OVERHEAD_COLOR, stroke="none")
                canvas.rect(sx(span.compute_start), y + 3,
                            sx(span.compute_end) - sx(span.compute_start),
                            row_height - 6, fill=COMPUTE_COLOR,
                            stroke="#6a9fc6", stroke_width=0.5)
        axis_y = margin_t + row_height * len(self.workers) + 12
        for i in range(6):
            t = self.t0 + span_total * i / 5
            canvas.text(sx(t) - 12, axis_y, format_seconds(t - self.t0),
                        size=9)
        return canvas.render()


def compute_gantt(
    archive: PerformanceArchive,
    compute_mission: str = "Compute",
    pre_mission: str = "PreStep",
    post_mission: str = "PostStep",
    container_mission: str = "LocalSuperstep",
) -> SuperstepGantt:
    """Extract the Figure 8 gantt from a (Giraph-modeled) archive.

    The defaults follow the Giraph model; PowerGraph archives can be
    viewed the same way with ``compute_mission="Gather"`` etc.
    """
    containers = archive.find(mission_base=container_mission)
    if not containers:
        raise VisualizationError(
            f"archive {archive.job_id} has no {container_mission!r} "
            f"operations; was the model refined to the implementation level?"
        )
    spans: List[WorkerSpan] = []
    for container in containers:
        superstep = container.iteration
        if superstep is None:
            continue
        per_mission: Dict[str, Tuple[float, float]] = {}
        inferred = container.provenance != PROVENANCE_MEASURED
        for child in container.children:
            if child.start_time is None or child.end_time is None:
                continue
            per_mission[child.mission_base] = (
                child.start_time, child.end_time
            )
            if child.provenance != PROVENANCE_MEASURED:
                inferred = True
        if compute_mission not in per_mission:
            continue
        compute_start, compute_end = per_mission[compute_mission]
        pre_start = per_mission.get(
            pre_mission, (compute_start, compute_start)
        )[0]
        post_end = per_mission.get(post_mission, (compute_end, compute_end))[1]
        spans.append(WorkerSpan(
            worker=container.actor,
            superstep=superstep,
            pre_start=pre_start,
            compute_start=compute_start,
            compute_end=compute_end,
            post_end=post_end,
            inferred=inferred,
        ))
    if not spans:
        raise VisualizationError(
            f"archive {archive.job_id}: no compute spans found"
        )
    workers = sorted(
        {s.worker for s in spans},
        key=lambda w: (len(w), w),
    )
    supersteps = sorted({s.superstep for s in spans})
    t0 = min(s.pre_start for s in spans)
    t1 = max(s.post_end for s in spans)
    return SuperstepGantt(
        job_id=archive.job_id,
        platform=archive.platform,
        t0=t0,
        t1=t1,
        spans=spans,
        workers=workers,
        supersteps=supersteps,
    )
