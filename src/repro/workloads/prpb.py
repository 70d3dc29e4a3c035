"""The PageRank Pipeline Benchmark (PRPB) as a first-class workload.

PRPB (Kepner et al., "PageRank Pipeline Benchmark") measures a graph
pipeline end to end with four kernels:

* **K0 Generate** — sample a Graph500-style R-MAT edge stream;
* **K1 SortWrite** — sort the stream and write it as an edge file;
* **K2 ReadBuild** — read the file back and construct the in-memory
  graph (including its CSR form);
* **K3 PageRank** — run PageRank over the built graph.

Here K3 executes through one of the simulated platform engines
(Giraph, PowerGraph, Hadoop or PGX.D), so the benchmark is
cross-engine: the same generated pipeline input flows into whichever
PageRank implementation the platform provides (scalar reference or
vectorized kernel, per ``engine_mode``).

Unlike the ordinary monitored runs — whose archives carry *modeled*
DAS5 timings — a PRPB run is measured: every kernel's wall-clock
interval lands in the archive, so a store of PRPB archives is a
per-kernel trajectory: ``granula fleet series <store> --mission
PageRank`` plots one kernel's wall-clock across runs.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.errors import ReproError
from repro.graph.generators.kronecker import rmat_edges
from repro.graph.graph import Graph
from repro.platforms.base import JobRequest

#: Kernel names in pipeline order (mission names in the archive).
PRPB_KERNELS = ("Generate", "SortWrite", "ReadBuild", "PageRank")


@dataclass(frozen=True)
class PrpbSpec:
    """One PRPB configuration.

    Attributes:
        platform: engine that runs K3 (``"Giraph"``, ``"PowerGraph"``,
            ``"Hadoop"`` or ``"PGX.D"``).
        scale: R-MAT scale — the pipeline input has ``2**scale``
            vertices.
        edge_factor: generated edges per vertex (before dedup).
        iterations: PageRank iterations for K3.
        seed: generator seed.
        workers: platform workers for K3.
    """

    platform: str = "Giraph"
    scale: int = 12
    edge_factor: int = 8
    iterations: int = 10
    seed: int = 42
    workers: int = 8

    def __post_init__(self) -> None:
        if self.platform not in ("Giraph", "PowerGraph", "Hadoop", "PGX.D"):
            raise ReproError(
                f"unsupported platform {self.platform!r} for PRPB"
            )
        if self.scale < 0 or self.scale > 24:
            raise ReproError(f"PRPB scale out of range: {self.scale}")
        if self.edge_factor <= 0:
            raise ReproError(
                f"edge factor must be positive: {self.edge_factor}"
            )
        if self.iterations <= 0:
            raise ReproError(
                f"iterations must be positive: {self.iterations}"
            )
        if self.workers <= 0:
            raise ReproError(f"workers must be positive: {self.workers}")

    def label(self) -> str:
        """Compact identifier (job id of the archived run)."""
        return (f"prpb-{self.platform.lower()}"
                f"-s{self.scale}-e{self.edge_factor}")


@dataclass
class PrpbStage:
    """One measured pipeline kernel."""

    kernel: str
    seconds: float
    edges: int
    infos: Dict[str, Any] = field(default_factory=dict)

    @property
    def edges_per_second(self) -> float:
        """PRPB's headline throughput metric for the kernel."""
        if self.seconds <= 0:
            return float(self.edges)
        return self.edges / self.seconds


@dataclass
class PrpbResult:
    """Everything one PRPB run produced."""

    spec: PrpbSpec
    archive: PerformanceArchive
    stages: List[PrpbStage]
    num_vertices: int
    num_edges: int

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def stage(self, kernel: str) -> PrpbStage:
        for stage in self.stages:
            if stage.kernel == kernel:
                return stage
        raise ReproError(f"no PRPB stage {kernel!r}")


def _write_edges(edges, path: str) -> int:
    """Write the sorted stream as a TSV edge file; bytes written."""
    with open(path, "w", encoding="ascii") as handle:
        for src, dst in edges:
            handle.write(f"{src}\t{dst}\n")
    return os.path.getsize(path)


def _read_edges(path: str):
    """Parse the edge file back into src/dst numpy arrays."""
    pairs = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
    if pairs.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return pairs[:, 0], pairs[:, 1]


def run_prpb(
    spec: PrpbSpec,
    engine_mode: str = "auto",
    n_nodes: int = 8,
    workdir: Optional[str] = None,
    store=None,
) -> PrpbResult:
    """Execute the four-kernel pipeline and archive its timings.

    The edge file lands in ``workdir`` (a temporary directory when
    omitted, removed afterwards).  When ``store`` is given the
    measured archive is saved under the spec's label.
    """
    from repro.workloads.runner import WorkloadRunner

    stages: List[PrpbStage] = []
    # Wall-clock anchor + monotonic offsets: archive timestamps are
    # real times, but intervals never go backwards under clock slew.
    wall0 = time.time()
    perf0 = time.perf_counter()

    def now() -> float:
        return wall0 + (time.perf_counter() - perf0)

    marks = [now()]

    def finish(kernel: str, edges: int, **infos: Any) -> None:
        marks.append(now())
        seconds = marks[-1] - marks[-2]
        stages.append(PrpbStage(kernel, seconds, edges, dict(infos)))

    # K0: generate the raw R-MAT stream.
    stream = rmat_edges(spec.scale, spec.edge_factor, seed=spec.seed)
    finish("Generate", len(stream),
           Scale=spec.scale, EdgeFactor=spec.edge_factor,
           EdgesGenerated=len(stream))

    created_tmp = workdir is None
    if created_tmp:
        workdir = tempfile.mkdtemp(prefix="prpb-")
    edge_file = os.path.join(workdir, f"{spec.label()}.tsv")
    try:
        # K1: sort the stream and persist it as an edge file.
        stream.sort()
        nbytes = _write_edges(stream, edge_file)
        finish("SortWrite", len(stream),
               BytesWritten=nbytes, EdgesWritten=len(stream))
        del stream

        # K2: read it back and build the graph (adjacency + CSR).
        src, dst = _read_edges(edge_file)
        keep = src != dst
        graph = Graph.from_edge_arrays(
            1 << spec.scale, src[keep], dst[keep])
        graph.csr()
        finish("ReadBuild", graph.num_edges,
               Vertices=graph.num_vertices, Edges=graph.num_edges,
               BytesRead=nbytes)
    finally:
        try:
            os.unlink(edge_file)
            if created_tmp:
                os.rmdir(workdir)
        except OSError:
            pass

    # K3: PageRank through the selected platform engine.
    runner = WorkloadRunner(n_nodes=n_nodes, engine_mode=engine_mode)
    platform = runner.platform(spec.platform)
    dataset_name = f"prpb-rmat-s{spec.scale}-e{spec.edge_factor}"
    platform.deploy_dataset(dataset_name, graph)
    result = platform.run_job(JobRequest(
        algorithm="pagerank",
        dataset=dataset_name,
        workers=min(spec.workers, n_nodes),
        params={"iterations": spec.iterations},
        job_id=spec.label(),
    ))
    finish("PageRank", graph.num_edges * spec.iterations,
           Iterations=spec.iterations,
           Edges=graph.num_edges,
           SimulatedMakespan=result.makespan)

    archive = _build_archive(spec, stages, marks, graph)
    if store is not None:
        store.save(archive, overwrite=True)
    return PrpbResult(
        spec=spec, archive=archive, stages=stages,
        num_vertices=graph.num_vertices, num_edges=graph.num_edges,
    )


def _build_archive(
    spec: PrpbSpec,
    stages: List[PrpbStage],
    marks: List[float],
    graph: Graph,
) -> PerformanceArchive:
    """Fold the measured kernels into a standard performance archive."""
    root = ArchivedOperation(
        uid="prpb",
        mission="PrpbPipeline",
        actor=spec.platform,
        start_time=marks[0],
        end_time=marks[-1],
    )
    root.infos.update({
        "Duration": marks[-1] - marks[0],
        "Vertices": graph.num_vertices,
        "Edges": graph.num_edges,
    })
    for index, stage in enumerate(stages):
        child = ArchivedOperation(
            uid=f"k{index}",
            mission=stage.kernel,
            actor="Pipeline",
            start_time=marks[index],
            end_time=marks[index + 1],
            parent=root,
        )
        child.infos.update(stage.infos)
        child.infos["Duration"] = stage.seconds
        child.infos["EdgesPerSecond"] = stage.edges_per_second
        root.children.append(child)
    return PerformanceArchive(
        job_id=spec.label(),
        root=root,
        platform=spec.platform,
        metadata={
            "workload": "prpb",
            "algorithm": "pagerank",
            "dataset": f"rmat-s{spec.scale}",
            "scale": spec.scale,
            "edge_factor": spec.edge_factor,
            "iterations": spec.iterations,
            "seed": spec.seed,
            "workers": spec.workers,
        },
    )


def render_prpb_text(result: PrpbResult) -> str:
    """Human-readable per-kernel table for the CLI."""
    lines = [
        f"PRPB {result.spec.label()}: "
        f"{result.num_vertices} vertices, {result.num_edges} edges, "
        f"{result.spec.iterations} PageRank iteration(s) "
        f"on {result.spec.platform}",
        f"{'kernel':<12} {'seconds':>10} {'edges':>12} {'edges/s':>14}",
    ]
    for stage in result.stages:
        lines.append(
            f"{stage.kernel:<12} {stage.seconds:>10.4f} "
            f"{stage.edges:>12} {stage.edges_per_second:>14.0f}"
        )
    lines.append(
        f"{'TOTAL':<12} {result.total_seconds:>10.4f}"
    )
    return "\n".join(lines)
