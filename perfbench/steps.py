"""Layer calls that more than one workload's traced pass makes.

In a traced pass the benchmark itself performs the steps a high-level
call (``WorkloadRunner.run``, ``ArchiveStore.save``) performs, each
inside a span named after the layer it enters, with the counts
(lines, operations, bytes) recorded on the same span.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from repro.core.archive.archive import PerformanceArchive
from repro.core.archive.builder import build_archive
from repro.core.archive.columnar import build_sidecar
from repro.core.archive.serialize import archive_to_json, parse_document
from repro.core.archive.store import ArchiveStore
from repro.core.model.job import JobModel
from repro.core.monitor.session import MonitoredRun

from perfbench.trace import Recorder, Span


def build(rec: Any, run: MonitoredRun, model: JobModel) -> PerformanceArchive:
    with rec.span("core.archive.builder.build") as span:
        archive, _report = build_archive(run, model)
        span.counts["operations"] = archive.size()
    return archive


def save(rec: Any, store: ArchiveStore, archive: PerformanceArchive) -> None:
    """``store.save``; traced, its two inner stages are timed beside it.

    ``save`` serializes and encodes the sidecar internally; repeating
    both outside it is measurement-only work (it shows up in
    ``trace_overhead_share``) that lets ``store.save_self_ms`` be
    save minus the two.
    """
    operations = archive.size()
    with rec.span("core.archive.store.save", operations=operations):
        store.save(archive, overwrite=True)
    if not rec.enabled:
        return
    with rec.span("core.archive.serialize.to_json",
                  operations=operations) as span:
        text = archive_to_json(archive)
        span.counts["bytes"] = len(text.encode("utf-8"))
    with rec.span("perfbench.decode"):
        document = parse_document(text, verify=False)
    with rec.span("core.archive.columnar.build",
                  operations=operations) as span:
        span.counts["bytes"] = len(build_sidecar(
            document["operations"], document["integrity"]["checksum"]))


# -- reading numbers off spans ---------------------------------------------------


def median_ms(spans: Sequence[Span]) -> float:
    return statistics.median(s.duration for s in spans) * 1e3 if spans else 0.0


def per_count(spans: Sequence[Span], key: str, scale: float = 1e6) -> float:
    """Total span time per unit of ``counts[key]`` (µs by default)."""
    units = sum(s.counts.get(key, 0) for s in spans)
    return sum(s.duration for s in spans) * scale / units if units else 0.0


def count_ratio(spans: Sequence[Span], top: str, bottom: str) -> float:
    units = sum(s.counts.get(bottom, 0) for s in spans)
    return sum(s.counts.get(top, 0) for s in spans) / units if units else 0.0


def archive_layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Builder / serialize / sidecar / store-save numbers of a traced run."""
    saves = rec.named("core.archive.store.save")
    to_json = rec.named("core.archive.serialize.to_json")
    sidecar = rec.named("core.archive.columnar.build")
    inner = [a.duration + b.duration for a, b in zip(to_json, sidecar)]
    self_ms: List[float] = [
        (save.duration - stages) * 1e3 for save, stages in zip(saves, inner)
    ]
    return {
        "core.archive.builder.build_us_per_operation": per_count(
            rec.named("core.archive.builder.build"), "operations"),
        "core.archive.serialize.to_json_us_per_operation": per_count(
            to_json, "operations"),
        "core.archive.serialize.json_bytes_per_operation": count_ratio(
            to_json, "bytes", "operations"),
        "core.archive.columnar.build_us_per_operation": per_count(
            sidecar, "operations"),
        "core.archive.columnar.gcol_bytes_per_operation": count_ratio(
            sidecar, "bytes", "operations"),
        "core.archive.store.save_ms": median_ms(saves),
        "core.archive.store.save_self_ms": (
            statistics.median(self_ms) if self_ms else 0.0),
    }
