"""Generic operation-tree timeline rendering."""

from __future__ import annotations

from typing import List, Optional

from repro.core.analysis.completeness import effective_makespan
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.visualize.render_text import format_seconds


def render_timeline(
    archive: PerformanceArchive,
    max_depth: Optional[int] = None,
    max_children: int = 12,
    width: int = 40,
) -> str:
    """An indented tree of operations with duration bars.

    Each line shows the operation, its duration, and a bar positioned and
    sized relative to the job window — a quick textual replacement for
    Granula's interactive timeline UI.

    Args:
        archive: the archive to render.
        max_depth: stop descending below this depth (None = unlimited) —
            the analyst's coarse/fine knob.
        max_children: elide further siblings beyond this many per parent.
        width: bar width in characters.
    """
    total = effective_makespan(archive)
    t0 = archive.root.start_time or 0.0
    lines: List[str] = [
        f"{archive.platform} job {archive.job_id} "
        f"({format_seconds(total)}, {archive.size()} operations)"
    ]

    def emit(op: ArchivedOperation, depth: int) -> None:
        if op.start_time is None or op.end_time is None:
            span = "?" * width
            duration = "?"
        else:
            lead = min(int((op.start_time - t0) / total * width), width)
            body = min(
                max(int((op.end_time - op.start_time) / total * width), 1),
                width,
            )
            span = (" " * lead + "#" * body)[:width].ljust(width)
            duration = format_seconds(op.duration or 0.0)
        label = f"{'  ' * depth}{op.mission} @ {op.actor}"
        lines.append(f"{label:<46} {duration:>9} |{span}|")
        if max_depth is not None and depth + 1 > max_depth:
            return
        shown = op.children[:max_children]
        for child in shown:
            emit(child, depth + 1)
        hidden = len(op.children) - len(shown)
        if hidden > 0:
            lines.append(f"{'  ' * (depth + 1)}... {hidden} more")

    emit(archive.root, 0)
    return "\n".join(lines)
