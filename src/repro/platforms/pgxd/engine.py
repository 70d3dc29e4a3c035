"""The PGX.D-like platform engine.

Job workflow (matching :func:`repro.core.model.other_models.pgxd_model`)::

    PgxdJob
      Startup        SpawnRuntimes (native, per node — no Yarn/MPI)
      LoadGraph      BuildCsr per runtime (parallel slice read + CSR)
      ProcessGraph   ComputePhase-k (push or pull) ->
                         TaskBatch-k per runtime
      OffloadGraph   EmitResults
      Cleanup        StopRuntimes

The engine really executes the push-pull drivers (validated against the
references) with direction-optimizing BFS choosing push or pull per
phase, and charges time from :class:`PgxdCostModel` — fast everywhere,
which is the platform's Table 1 story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.errors import JobFailedError, PlatformError
from repro.graph.edgelist import edge_list_size_bytes
from repro.graph.graph import Graph
from repro.graph.partition.range_partition import range_partition
from repro.platforms.base import (
    JobRequest,
    JobResult,
    Platform,
    resolve_engine_mode,
)
from repro.platforms.costmodel import PgxdCostModel, execution_jitter
from repro.platforms.logging_util import GranulaLogWriter
from repro.platforms.pgxd.algorithms import (
    make_pushpull_program,
    pushpull_algorithm,
)
from repro.platforms.pgxd.vectorized import pushpull_kernel_class

#: Safety bound on phases for quiescence drivers.
_MAX_PHASES = 500


@dataclass
class _Deployed:
    """A dataset staged as an edge file on the shared filesystem."""

    path: str
    graph: Graph
    size_bytes: int


class PgxdPlatform(Platform):
    """Push-pull engine with native provisioning and parallel CSR load."""

    name = "PGX.D"

    def __init__(self, cluster: Cluster,
                 cost_model: Optional[PgxdCostModel] = None,
                 engine_mode: str = "auto"):
        super().__init__(cluster)
        self.cost = cost_model or PgxdCostModel()
        self.engine_mode = engine_mode
        #: Execution path of the most recent job ("scalar"/"vectorized");
        #: diagnostic only, never part of results or archives.
        self.last_engine_path: Optional[str] = None

    def deploy_dataset(self, name: str, graph: Graph) -> None:
        """Stage the graph as an edge file on the shared filesystem."""
        if not name:
            raise PlatformError("dataset name must be non-empty")
        path = f"/pgxd/{name}.el"
        size = edge_list_size_bytes(graph)
        self.cluster.shared_fs.put(path, size)
        self._datasets[name] = _Deployed(path, graph, size)

    def run_job(self, request: JobRequest) -> JobResult:
        self._check_workers(request.workers)
        deployed: _Deployed = self._require_dataset(request.dataset)
        graph = deployed.graph
        owner_of = range_partition(graph.num_vertices, request.workers)
        kernel_cls = pushpull_kernel_class(
            pushpull_algorithm(request.algorithm))
        use_vectorized = resolve_engine_mode(
            self.engine_mode, kernel_cls is not None, self.name,
            request.algorithm,
        )
        self.last_engine_path = "vectorized" if use_vectorized else "scalar"
        program = make_pushpull_program(
            request.algorithm, request.params, graph, owner_of,
            kernel=kernel_cls if use_vectorized else None,
        )
        job_id = self._next_job_id(request)

        self.cluster.reset()
        clock = self.cluster.clock
        cost = self.cost
        writer = GranulaLogWriter(job_id, clock)
        runtime_nodes: List[Node] = self.cluster.nodes[: request.workers]

        started_at = clock.now()
        root = writer.start("PgxdJob", "PgxClient")
        writer.info(root, "Algorithm", request.algorithm)
        writer.info(root, "Dataset", request.dataset)
        writer.info(root, "Runtimes", request.workers)

        # ---- Startup: native spawn on every node in parallel ------------
        startup = writer.start("Startup", "PgxClient", root)
        spawn = writer.start("SpawnRuntimes", "Launcher", startup)
        t0 = clock.now()
        for node in runtime_nodes:
            node.work(t0, cost.spawn_runtime_s, 0.5, "pgxd:spawn")
        clock.advance(cost.spawn_runtime_s)
        writer.end(spawn)
        writer.end(startup)

        # ---- LoadGraph: every runtime reads its slice, builds CSR --------
        load = writer.start("LoadGraph", "PgxClient", root)
        t0 = clock.now()
        span = 0.0
        degrees = np.diff(graph.csr().indptr)
        edges_per_owner = [
            int(c) for c in np.bincount(
                np.asarray(owner_of, dtype=np.int64), weights=degrees,
                minlength=request.workers,
            )
        ]
        read_total = self.cluster.shared_fs.contended_read_time(
            deployed.path, request.workers
        ) * cost.csr_read_share / request.workers
        for rank, node in enumerate(runtime_nodes):
            build_t = read_total + edges_per_owner[rank] * cost.csr_edge_s
            node.work(t0, build_t, cost.load_cores, "pgxd:load")
            csr_op = writer.span(
                "BuildCsr", f"Runtime-{rank}", load, t0, t0 + build_t
            )
            writer.info(csr_op, "LocalEdges", edges_per_owner[rank],
                        ts=t0 + build_t)
            span = max(span, build_t)
        clock.advance(span)
        writer.end(load)

        # ---- ProcessGraph: push/pull phases -------------------------------
        process = writer.start("ProcessGraph", "PgxClient", root)
        phase_index = 0
        total_edges = 0
        directions: List[str] = []
        while True:
            if phase_index >= _MAX_PHASES:
                raise JobFailedError(
                    f"driver exceeded {_MAX_PHASES} phases"
                )
            result = program.run_phase(phase_index)
            # Runtimes past the last vertex owner (more runtimes than
            # vertices) hold no vertex, so they traverse no edges.
            edges_by_rank = result.edges_by_owner + [0] * (
                request.workers - len(result.edges_by_owner))
            t0 = clock.now()
            phase_op = writer.start(f"ComputePhase-{phase_index}",
                                    "Engine", process, ts=t0)
            writer.info(phase_op, "Direction", result.direction)
            busy_ends = []
            for rank, node in enumerate(runtime_nodes):
                work_t = (
                    edges_by_rank[rank] * cost.traverse_edge_s
                ) * execution_jitter(rank, phase_index, 0.05)
                end = t0 + work_t
                batch = writer.span(f"TaskBatch-{phase_index}",
                                    f"Runtime-{rank}", phase_op, t0, end)
                writer.info(batch, "EdgesTraversed",
                            edges_by_rank[rank], ts=end)
                if work_t > 0:
                    node.work(t0, work_t, cost.compute_cores,
                              "pgxd:compute")
                busy_ends.append(end)
            apply_t = result.updates * cost.update_vertex_s / request.workers
            remote_t = self.cluster.network.transfer_time(
                result.remote_updates * cost.remote_update_bytes
            ) if result.remote_updates else 0.0
            phase_end = max(busy_ends) + apply_t + remote_t + cost.barrier_s
            writer.end(phase_op, ts=phase_end)
            clock.advance_to(phase_end)
            total_edges += sum(result.edges_by_owner)
            directions.append(result.direction)
            phase_index += 1
            if result.converged:
                break
        writer.end(process)

        # ---- OffloadGraph ---------------------------------------------------
        offload = writer.start("OffloadGraph", "PgxClient", root)
        emit = writer.start("EmitResults", "Runtime-0", offload)
        output = program.output()
        emit_t = (
            len(output) * cost.emit_vertex_s
            + self.cluster.shared_fs.write_time(10 * len(output))
        )
        runtime_nodes[0].work(clock.now(), emit_t, 2.0, "pgxd:emit")
        clock.advance(emit_t)
        writer.info(emit, "BytesWritten", 10 * len(output))
        writer.end(emit)
        writer.end(offload)

        # ---- Cleanup ---------------------------------------------------------
        cleanup = writer.start("Cleanup", "PgxClient", root)
        stop = writer.start("StopRuntimes", "Launcher", cleanup)
        t0 = clock.now()
        for node in runtime_nodes:
            node.work(t0, cost.stop_runtime_s, cost.idle_cores, "pgxd:stop")
        clock.advance(cost.stop_runtime_s)
        writer.end(stop)
        writer.end(cleanup)

        writer.end(root)
        writer.assert_all_closed()
        finished_at = clock.now()

        if len(output) != graph.num_vertices:
            raise JobFailedError(
                f"{job_id}: output covers {len(output)} of "
                f"{graph.num_vertices} vertices"
            )
        return JobResult(
            job_id=job_id,
            algorithm=request.algorithm,
            dataset=request.dataset,
            output=output,
            started_at=started_at,
            finished_at=finished_at,
            log_lines=list(writer.lines),
            stats={
                "phases": phase_index,
                "edges_traversed": total_edges,
                "directions": directions,
                "bytes_read": deployed.size_bytes,
            },
        )
