"""The PowerGraph-like platform engine.

Job workflow (mirrored in the PowerGraph performance model)::

    PowerGraphJob
      Startup        MpiStartup
      LoadGraph      StreamEdges (rank 0, sequential!),
                     FinalizeGraph -> LocalFinalize per rank
      ProcessGraph   Iteration-k -> Gather-k, Apply-k, Scatter-k per rank
                     and BarrierSync-k
      OffloadGraph   WriteResults (rank 0)
      Cleanup        MpiFinalize

The engine really executes the GAS program over a greedy vertex-cut and
charges simulated time per phase; the sequential StreamEdges phase on a
single rank is what reproduces Figures 5 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cache import content_key, default_cache
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.provisioning import MpiLauncher
from repro.errors import JobFailedError, PartitionError, PlatformError
from repro.graph.edgelist import EdgeList, edge_list_size_bytes
from repro.graph.graph import Graph
from repro.graph.partition.vertexcut import (
    VertexCut,
    cut_from_arrays,
    greedy_vertex_cut,
    random_vertex_cut,
)
from repro.platforms.base import (
    JobRequest,
    JobResult,
    Platform,
    resolve_engine_mode,
)
from repro.platforms.costmodel import PowerGraphCostModel, execution_jitter
from repro.platforms.gas.algorithms import make_gas_program
from repro.platforms.gas.loader import plan_sequential_load
from repro.platforms.gas.sync_engine import SyncGasEngine
from repro.platforms.gas.vectorized import gas_kernel_class
from repro.platforms.logging_util import GranulaLogWriter, OpenOperation

#: Wire bytes per replica synchronization at a barrier.
_SYNC_WIRE_BYTES = 24


@dataclass
class _Deployed:
    """A dataset staged as an edge file on the shared filesystem."""

    path: str
    graph: Graph
    edge_list: EdgeList
    size_bytes: int


class PowerGraphPlatform(Platform):
    """GAS engine with MPI provisioning and sequential shared-FS input."""

    name = "PowerGraph"

    def __init__(
        self,
        cluster: Cluster,
        cost_model: Optional[PowerGraphCostModel] = None,
        ingress: str = "greedy",
        engine_mode: str = "auto",
    ):
        """``ingress`` picks the edge-placement strategy, like
        PowerGraph's ``--graph_opts ingress=`` option: ``"greedy"``
        (oblivious heuristic, the default) or ``"random"`` (hashed).
        ``engine_mode`` selects the execution backend (``"auto"``,
        ``"scalar"`` or ``"vectorized"``)."""
        super().__init__(cluster)
        self.cost = cost_model or PowerGraphCostModel()
        self.mpi = MpiLauncher(cluster.nodes, cluster.clock, cluster.trace)
        if ingress not in ("greedy", "random"):
            raise PlatformError(
                f"unknown ingress {ingress!r}; choose 'greedy' or 'random'"
            )
        self.ingress = ingress
        self.engine_mode = engine_mode
        #: Which backend the last job took ("scalar"/"vectorized");
        #: diagnostic only, never part of results or archives.
        self.last_engine_path: Optional[str] = None
        # Vertex cuts are deterministic per (dataset, ranks, ingress),
        # so they are computed once and shared across jobs; engines
        # never mutate the cut.
        self._cut_cache: Dict[Tuple[str, int, str], VertexCut] = {}

    # -- dataset staging ---------------------------------------------------

    def deploy_dataset(self, name: str, graph: Graph) -> None:
        """Write ``graph`` as an edge-list file on the shared filesystem."""
        if not name:
            raise PlatformError("dataset name must be non-empty")
        edge_list = EdgeList.from_graph(graph)
        path = f"/data/{name}.el"
        size = edge_list_size_bytes(graph)
        self.cluster.shared_fs.put(path, size, payload=edge_list)
        self._datasets[name] = _Deployed(path, graph, edge_list, size)
        self._cut_cache = {
            key: cut for key, cut in self._cut_cache.items()
            if key[0] != name
        }

    # -- vertex-cut caching --------------------------------------------------

    def _load_or_build_cut(self, graph: Graph, num_ranks: int) -> VertexCut:
        """The dataset's vertex cut, disk-cached when content-addressable.

        Graphs built through :func:`repro.workloads.datasets.build_dataset`
        carry a ``content_key``; the derived cut is then itself
        content-addressed (graph key + partition count + ingress) in the
        artifact cache, so the ~seconds-long greedy streaming pass runs
        once per machine.  A cut's edges are the graph's CSR edges, so
        the entry holds only what the partitioner decided: ``part`` in
        the narrowest unsigned dtype that holds ``parts - 1``, and the
        replica ``pairs``.  An entry whose ``part`` does not cover the
        graph's edges is a miss.
        """
        graph_key = getattr(graph, "content_key", None)
        key = None
        cache = None
        if graph_key is not None:
            key = content_key("vertex-cut", {
                "graph": graph_key,
                "parts": num_ranks,
                "ingress": self.ingress,
                # Bump when the partitioning heuristic or the entry's
                # layout changes.
                "impl": 2,
            })
            cache = default_cache()
            arrays = cache.get(key)
            if arrays is not None and {"part", "pairs"} <= set(arrays):
                csr = graph.csr()
                try:
                    return cut_from_arrays(
                        num_ranks, csr.sources(), csr.indices,
                        arrays["part"], arrays["pairs"],
                    )
                except PartitionError:
                    pass  # Stale/foreign entry (e.g. a part column
                    # that does not cover the edges): recompute below.
        if self.ingress == "greedy":
            cut = greedy_vertex_cut(graph, num_ranks)
        else:
            cut = random_vertex_cut(graph, num_ranks)
        if key is not None:
            part_dtype = np.min_scalar_type(num_ranks - 1)
            try:
                cache.put(
                    key, {"part": cut.part.astype(part_dtype),
                          "pairs": cut.pairs},
                    kind="vertex-cut",
                    params={"graph": graph_key, "parts": num_ranks,
                            "ingress": self.ingress},
                )
            except OSError:
                pass  # Read-only cache location: keep the in-memory cut.
        return cut

    # -- job execution -------------------------------------------------------

    def run_job(self, request: JobRequest) -> JobResult:
        self._check_workers(request.workers)
        deployed: _Deployed = self._require_dataset(request.dataset)
        graph = deployed.graph
        program = make_gas_program(request.algorithm, request.params, graph)
        engine_cls = gas_kernel_class(program)
        use_vectorized = resolve_engine_mode(
            self.engine_mode, engine_cls is not None, self.name,
            request.algorithm,
        )
        if not use_vectorized:
            engine_cls = SyncGasEngine
        self.last_engine_path = "vectorized" if use_vectorized else "scalar"
        job_id = self._next_job_id(request)

        self.cluster.reset()
        clock = self.cluster.clock
        writer = GranulaLogWriter(job_id, clock)
        rank_nodes: List[Node] = self.cluster.nodes[: request.workers]

        started_at = clock.now()
        root = writer.start("PowerGraphJob", "MpiClient")
        writer.info(root, "Algorithm", request.algorithm)
        writer.info(root, "Dataset", request.dataset)
        writer.info(root, "Ranks", request.workers)

        allocation = self._run_startup(writer, root, rank_nodes)
        engine, load_stats = self._run_load(
            writer, root, deployed, request.workers, rank_nodes, program,
            engine_cls, request.dataset,
        )
        process_stats = self._run_process(writer, root, engine, rank_nodes)
        offload_bytes = self._run_offload(writer, root, engine, rank_nodes, job_id)
        self._run_cleanup(writer, root, allocation)

        writer.end(root)
        writer.assert_all_closed()
        finished_at = clock.now()

        output = engine.output()
        if len(output) != graph.num_vertices:
            raise JobFailedError(
                f"{job_id}: output covers {len(output)} of "
                f"{graph.num_vertices} vertices"
            )
        stats = dict(load_stats)
        stats.update(process_stats)
        stats["offload_bytes"] = offload_bytes
        return JobResult(
            job_id=job_id,
            algorithm=request.algorithm,
            dataset=request.dataset,
            output=output,
            started_at=started_at,
            finished_at=finished_at,
            log_lines=list(writer.lines),
            stats=stats,
        )

    # -- phases --------------------------------------------------------------

    def _run_startup(
        self,
        writer: GranulaLogWriter,
        root: OpenOperation,
        rank_nodes: List[Node],
    ):
        startup = writer.start("Startup", "MpiClient", root)
        mpi_op = writer.start("MpiStartup", "Mpirun", startup)
        allocation = self.mpi.launch(len(rank_nodes))
        writer.end(mpi_op)
        writer.end(startup)
        return allocation

    def _run_load(
        self,
        writer: GranulaLogWriter,
        root: OpenOperation,
        deployed: _Deployed,
        num_ranks: int,
        rank_nodes: List[Node],
        program,
        engine_cls=SyncGasEngine,
        dataset_name: str = "",
    ):
        clock = self.cluster.clock
        cost = self.cost

        fault = self.fault_plan
        cache_key = (dataset_name, num_ranks, self.ingress)
        cut = self._cut_cache.get(cache_key) if dataset_name else None
        if cut is None:
            cut = self._load_or_build_cut(deployed.graph, num_ranks)
            if dataset_name:
                self._cut_cache[cache_key] = cut
        engine = engine_cls(deployed.graph, cut, program)
        read_factor = 1.0
        link_factors = None
        if fault is not None:
            read_factor = fault.disk_factor(rank_nodes[0].name)
            link_factors = {
                rank: factor for rank, node in enumerate(rank_nodes)
                if (factor := fault.link_factor(node.name)) != 1.0
            }
        plan = plan_sequential_load(
            self.cluster.shared_fs, deployed.path, deployed.edge_list,
            cut, self.cluster.network, cost,
            read_factor=read_factor, link_factors=link_factors,
        )

        load = writer.start("LoadGraph", "MpiClient", root)

        # Sequential stream on rank 0; other ranks idle.  A scheduled
        # loader crash kills the stream mid-file: the loader relaunches
        # and resumes from its last flushed offset, replaying a small
        # overlap, while the idle ranks keep waiting.
        t0 = clock.now()
        crash = fault.loader_crash() if fault is not None else None
        stream_total = plan.stream_s
        restart_windows = []
        loader_restarts = 0
        if crash is not None:
            replay_s = crash.replay_fraction * plan.stream_s
            cursor = t0 + crash.at_fraction * plan.stream_s
            for n in range(1, crash.restarts + 1):
                restart_windows.append(
                    (n, cursor, cursor + crash.restart_s + replay_s)
                )
                cursor += crash.restart_s + replay_s
            stream_total += crash.restarts * (crash.restart_s + replay_s)
            loader_restarts = crash.restarts
        stream = writer.start("StreamEdges", "Rank-0", load, ts=t0)
        writer.info(stream, "BytesRead", plan.bytes_read)
        writer.info(stream, "EdgesParsed", plan.edges_parsed)
        rank_nodes[0].work(t0, stream_total, cost.load_cores, "powergraph:stream")
        for node in rank_nodes[1:]:
            node.work(t0, stream_total, cost.idle_cores, "powergraph:idlewait")
        for n, r_start, r_end in restart_windows:
            restart_op = writer.span(
                f"RestartLoad-{n}", "Rank-0", load, r_start, r_end
            )
            writer.info(restart_op, "ResumeOffsetFraction",
                        round(crash.at_fraction, 6), ts=r_end)
            writer.info(restart_op, "ReplaySeconds",
                        round(crash.replay_fraction * plan.stream_s, 6),
                        ts=r_end)
        clock.advance(stream_total)
        writer.end(stream)

        # Parallel finalize: all ranks build their local structures.
        t1 = clock.now()
        finalize = writer.start("FinalizeGraph", "Engine", load, ts=t1)
        span = 0.0
        for rank, node in enumerate(rank_nodes):
            duration = plan.finalize_s[rank]
            node.work(t1, duration, cost.finalize_cores, "powergraph:finalize")
            local = writer.span(
                "LocalFinalize", f"Rank-{rank}", finalize, t1, t1 + duration
            )
            writer.info(
                local, "LocalEdges", engine.ranks[rank].edge_count,
                ts=t1 + duration,
            )
            span = max(span, duration)
        clock.advance(span)
        writer.end(finalize)
        writer.end(load)

        stats = {
            "bytes_read": plan.bytes_read,
            "edges_parsed": plan.edges_parsed,
            "replication_factor": cut.replication_factor(),
        }
        if loader_restarts:
            stats["loader_restarts"] = loader_restarts
        return engine, stats

    def _run_process(
        self,
        writer: GranulaLogWriter,
        root: OpenOperation,
        engine: SyncGasEngine,
        rank_nodes: List[Node],
    ) -> Dict[str, Any]:
        clock = self.cluster.clock
        cost = self.cost
        network = self.cluster.network
        num_ranks = len(rank_nodes)

        fault = self.fault_plan
        interval = fault.interval() if fault is not None else 1
        explicit_cp = fault is not None and fault.checkpoint_interval is not None
        snapshot = engine.checkpoint() if fault is not None else None
        # Per-rank busy time of completed iterations, for crash redo.
        rank_history: List[List[float]] = [[] for _ in rank_nodes]
        checkpoints = 0
        recoveries = 0

        process = writer.start("ProcessGraph", "Engine", root)
        iteration = 0
        total_gather = 0
        total_scatter = 0
        while not engine.finished:
            t0 = clock.now()
            it_op = writer.start(f"Iteration-{iteration}", "Engine", process, ts=t0)
            step_start = t0
            if fault is not None and iteration % interval == 0:
                snapshot = engine.checkpoint()
                if explicit_cp:
                    cp_end = t0 + fault.checkpoint_write_s
                    cp_op = writer.span(
                        f"Checkpoint-{iteration}", "Engine", it_op, t0, cp_end
                    )
                    writer.info(cp_op, "Interval", interval, ts=cp_end)
                    for node in rank_nodes:
                        node.work(t0, fault.checkpoint_write_s,
                                  cost.idle_cores, "powergraph:checkpoint")
                    checkpoints += 1
                    step_start = cp_end
            work = engine.step()

            busy_ends: List[float] = []
            for rank, node in enumerate(rank_nodes):
                rname = f"Rank-{rank}"
                jitter = execution_jitter(
                    rank, iteration, cost.compute_jitter
                )
                if fault is not None:
                    jitter *= fault.slow_factor(node.name)
                gather_t = work.gather_edges[rank] * cost.gather_edge_s * jitter
                apply_t = work.apply_vertices[rank] * cost.apply_vertex_s * jitter
                scatter_t = work.scatter_edges[rank] * cost.scatter_edge_s * jitter
                sync_t = work.replica_syncs[rank] * cost.sync_replica_s
                g_end = step_start + gather_t
                a_end = g_end + apply_t
                s_end = a_end + scatter_t + sync_t
                gather_op = writer.span(
                    f"Gather-{iteration}", rname, it_op, step_start, g_end
                )
                writer.info(gather_op, "EdgesGathered",
                            work.gather_edges[rank], ts=g_end)
                writer.span(f"Apply-{iteration}", rname, it_op, g_end, a_end)
                scatter_op = writer.span(
                    f"Scatter-{iteration}", rname, it_op, a_end, s_end
                )
                writer.info(scatter_op, "EdgesScattered",
                            work.scatter_edges[rank], ts=s_end)
                duration = s_end - step_start
                if duration > 0:
                    node.work(step_start, duration, cost.compute_cores,
                              "powergraph:compute")
                busy_ends.append(s_end)

            barrier_base = max(busy_ends)
            crash = (
                fault.crash_in_superstep(iteration, num_ranks)
                if fault is not None else None
            )
            if crash is not None:
                # A rank died this iteration: roll the engine back to the
                # last checkpoint, relaunch the rank, and re-execute the
                # lost iterations (deterministic, so the replay lands in
                # the exact same state) while the healthy ranks wait.
                cp_iter = (iteration // interval) * interval
                engine.restore(snapshot)
                for _ in range(cp_iter, iteration + 1):
                    engine.step()
                redo_t = (
                    sum(rank_history[crash.worker][cp_iter:iteration])
                    + (busy_ends[crash.worker] - step_start)
                )
                recover_start = barrier_base
                recover_end = recover_start + crash.recovery_s + redo_t
                recover_op = writer.span(
                    f"RecoverWorker-{iteration}", "Engine", it_op,
                    recover_start, recover_end,
                )
                writer.info(recover_op, "Rank", f"Rank-{crash.worker}",
                            ts=recover_end)
                writer.info(recover_op, "Checkpoint", cp_iter, ts=recover_end)
                rank_nodes[crash.worker].work(
                    recover_start + crash.recovery_s, redo_t,
                    cost.compute_cores, "powergraph:recovery",
                )
                barrier_base = recover_end
                recoveries += 1
            barrier_end = barrier_base + network.allreduce_time(
                _SYNC_WIRE_BYTES, num_ranks
            )
            for node, busy_end in zip(rank_nodes, busy_ends):
                if barrier_end > busy_end:
                    node.work(busy_end, barrier_end - busy_end,
                              cost.idle_cores, "powergraph:barrier")
            writer.span(
                f"BarrierSync-{iteration}", "Engine", it_op,
                barrier_base, barrier_end,
            )
            writer.info(it_op, "ActiveVertices", work.active, ts=barrier_end)
            writer.info(it_op, "ChangedVertices", work.changed, ts=barrier_end)
            writer.end(it_op, ts=barrier_end)
            clock.advance_to(barrier_end)

            for rank, busy_end in enumerate(busy_ends):
                rank_history[rank].append(busy_end - step_start)
            total_gather += sum(work.gather_edges)
            total_scatter += sum(work.scatter_edges)
            iteration += 1

        writer.end(process)
        stats: Dict[str, Any] = {
            "iterations": iteration,
            "gather_edges": total_gather,
            "scatter_edges": total_scatter,
        }
        if checkpoints:
            stats["checkpoints"] = checkpoints
        if recoveries:
            stats["recoveries"] = recoveries
        return stats

    def _run_offload(
        self,
        writer: GranulaLogWriter,
        root: OpenOperation,
        engine: SyncGasEngine,
        rank_nodes: List[Node],
        job_id: str,
    ) -> int:
        clock = self.cluster.clock
        cost = self.cost

        offload = writer.start("OffloadGraph", "MpiClient", root)
        results = writer.start("WriteResults", "Rank-0", offload)
        nbytes = engine.output_text_bytes()
        duration = (
            self.cluster.shared_fs.write_time(nbytes)
            + engine.graph.num_vertices * cost.offload_vertex_s
        )
        rank_nodes[0].work(clock.now(), duration, 2.0, "powergraph:offload")
        clock.advance(duration)
        self.cluster.shared_fs.put(f"/data/output/{job_id}", nbytes)
        writer.info(results, "BytesWritten", nbytes)
        writer.end(results)
        writer.end(offload)
        return nbytes

    def _run_cleanup(self, writer: GranulaLogWriter, root: OpenOperation,
                     allocation) -> None:
        cleanup = writer.start("Cleanup", "MpiClient", root)
        fin = writer.start("MpiFinalize", "Mpirun", cleanup)
        self.mpi.finalize(allocation, teardown_s=self.cost.finalize_mpi_s)
        writer.end(fin)
        writer.end(cleanup)
