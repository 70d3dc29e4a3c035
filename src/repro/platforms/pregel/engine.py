"""The Giraph-like platform engine.

Executes the full job workflow of the paper's Figure 4 model::

    GiraphJob
      Startup        JobStartup, LaunchWorkers -> LocalStartup
      LoadGraph      LoadHdfsData -> LocalLoad
      ProcessGraph   Superstep-k -> LocalSuperstep-k ->
                         PreStep-k, Compute-k, Message-k, PostStep-k
                     and SyncZookeeper-k
      OffloadGraph   OffloadHdfsData -> LocalOffload
      Cleanup        JobCleanup -> AbortWorkers, ClientCleanup,
                                   ServerCleanup, ZkCleanup

Every operation is emitted as GRANULA log lines; every phase charges CPU
busy intervals on the simulated nodes; the algorithm output is the real
result of running the vertex program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.provisioning import YarnManager
from repro.errors import JobFailedError, PlatformError
from repro.graph.graph import Graph
from repro.graph.partition.hash_partition import hash_partition_array
from repro.graph.vertexstore import vertex_store_size_bytes
from repro.platforms.base import (
    JobRequest,
    JobResult,
    Platform,
    resolve_engine_mode,
)
from repro.platforms.costmodel import GiraphCostModel, execution_jitter
from repro.platforms.logging_util import GranulaLogWriter, OpenOperation
from repro.platforms.pregel.aggregators import AggregatorRegistry
from repro.platforms.pregel.algorithms import make_pregel_program
from repro.platforms.pregel.messages import OutgoingStore
from repro.platforms.pregel.vectorized import (
    VectorizedWorkerSet,
    pregel_kernel_class,
)
from repro.platforms.pregel.worker import WorkerState
from repro.platforms.pregel.zookeeper import ZooKeeperService

#: Fixed client-side submission latency (job jar upload + RPC).
_SUBMIT_S = 2.3

#: Barrier-release latency at the head of every superstep (PreStep).
_PRESTEP_S = 0.12


@dataclass
class _Deployed:
    """A dataset staged in HDFS."""

    path: str
    graph: Graph
    size_bytes: int


class GiraphPlatform(Platform):
    """Pregel/BSP engine with Yarn provisioning and HDFS input."""

    name = "Giraph"

    def __init__(
        self,
        cluster: Cluster,
        cost_model: Optional[GiraphCostModel] = None,
        engine_mode: str = "auto",
    ):
        super().__init__(cluster)
        self.cost = cost_model or GiraphCostModel()
        self.yarn = YarnManager(cluster.nodes, cluster.clock, cluster.trace)
        self.engine_mode = engine_mode
        #: Execution path of the most recent job ("scalar"/"vectorized");
        #: diagnostic only, never part of results or archives.
        self.last_engine_path: Optional[str] = None

    # -- dataset staging ---------------------------------------------------

    def deploy_dataset(self, name: str, graph: Graph) -> None:
        """Write ``graph`` as a vertex-store file into HDFS."""
        if not name:
            raise PlatformError("dataset name must be non-empty")
        path = f"/giraph/input/{name}.vs"
        size = vertex_store_size_bytes(graph)
        self.cluster.hdfs.put(path, size, payload=graph)
        self._datasets[name] = _Deployed(path, graph, size)

    # -- job execution -------------------------------------------------------

    def run_job(self, request: JobRequest) -> JobResult:
        self._check_workers(request.workers)
        deployed: _Deployed = self._require_dataset(request.dataset)
        graph = deployed.graph
        program = make_pregel_program(request.algorithm, request.params, graph)
        use_vectorized = resolve_engine_mode(
            self.engine_mode,
            pregel_kernel_class(program) is not None,
            self.name,
            request.algorithm,
        )
        self.last_engine_path = "vectorized" if use_vectorized else "scalar"
        job_id = self._next_job_id(request)

        self.cluster.reset()
        clock = self.cluster.clock
        cost = self.cost
        writer = GranulaLogWriter(job_id, clock)
        zk = ZooKeeperService(clock, self.cluster.network, cost.zookeeper_sync_s)

        requested_nodes: List[Node] = self.cluster.nodes[: request.workers]
        started_at = clock.now()
        root = writer.start("GiraphJob", "GiraphClient")
        writer.info(root, "Algorithm", request.algorithm)
        writer.info(root, "Dataset", request.dataset)
        writer.info(root, "Workers", request.workers)

        # Startup may blacklist dead nodes; the job then degrades onto
        # the surviving containers and redistributes their partitions.
        allocation, worker_nodes = self._run_startup(
            writer, root, requested_nodes
        )
        workers, load_stats = self._run_load(
            writer, root, deployed, len(worker_nodes), worker_nodes, program,
            use_vectorized,
        )
        process_stats = self._run_process(
            writer, root, workers, worker_nodes, zk
        )
        offload_bytes = self._run_offload(
            writer, root, workers, worker_nodes, job_id
        )
        self._run_cleanup(writer, root, allocation, worker_nodes, zk,
                          process_stats["supersteps"])

        writer.end(root)
        writer.assert_all_closed()
        finished_at = clock.now()

        if use_vectorized:
            output: Mapping[int, Any] = workers[0].worker_set.output()
        else:
            output = {}
            for worker in workers:
                output.update(worker.output())
        if len(output) != graph.num_vertices:
            raise JobFailedError(
                f"{job_id}: output covers {len(output)} of "
                f"{graph.num_vertices} vertices"
            )
        stats = dict(load_stats)
        stats.update(process_stats)
        stats["offload_bytes"] = offload_bytes
        if allocation.blacklisted:
            stats["blacklisted_nodes"] = list(allocation.blacklisted)
        if allocation.retries:
            stats["container_retries"] = len(allocation.retries)
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
        requested_nodes: List[Node],
    ):
        clock = self.cluster.clock
        cost = self.cost
        fault = self.fault_plan
        startup = writer.start("Startup", "GiraphClient", root)

        job_startup = writer.start("JobStartup", "GiraphClient", startup)
        requested_nodes[0].work(clock.now(), _SUBMIT_S, cost.idle_cores, "giraph:submit")
        clock.advance(_SUBMIT_S)
        writer.end(job_startup)

        launch = writer.start("LaunchWorkers", "Master", startup)
        launch_failures = None
        if fault is not None:
            launch_failures = {
                node.name: failures for node in requested_nodes
                if (failures := fault.launch_failures(node.name))
            }
        allocation = self.yarn.allocate(
            len(requested_nodes),
            launch_failures=launch_failures or None,
            retry=fault.retry if fault is not None else None,
        )
        wid_of = {
            node.name: wid for wid, node in enumerate(requested_nodes, start=1)
        }
        for record in allocation.retries:
            retry_op = writer.span(
                f"RetryContainer-{record.attempt}", "Master", launch,
                record.start, record.end,
            )
            writer.info(retry_op, "Node", record.node, ts=record.end)
            writer.info(retry_op, "Worker",
                        f"Worker-{wid_of[record.node]}", ts=record.end)
            writer.info(retry_op, "Outcome",
                        "relaunched" if record.ok else "failed",
                        ts=record.end)
        worker_nodes = list(allocation.nodes)
        t0 = clock.now()
        for wid, node in enumerate(worker_nodes, start=1):
            node.work(t0, cost.local_startup_s, 0.8, "giraph:localstartup")
            writer.span(
                "LocalStartup", f"Worker-{wid}", launch,
                t0, t0 + cost.local_startup_s,
            )
        clock.advance(cost.local_startup_s)
        writer.end(launch)

        if allocation.blacklisted:
            # Graceful degradation: the dead nodes' partitions are
            # redistributed across the survivors before loading starts,
            # so the job completes on N-1 nodes with correct output.
            redistribute_s = (
                (fault.redistribute_s if fault is not None else 1.5)
                * len(allocation.blacklisted)
            )
            t1 = clock.now()
            redistribute = writer.span(
                "RedistributePartitions", "Master", startup,
                t1, t1 + redistribute_s,
            )
            writer.info(redistribute, "FailedNodes",
                        ",".join(allocation.blacklisted),
                        ts=t1 + redistribute_s)
            writer.info(redistribute, "Partitions",
                        len(allocation.blacklisted), ts=t1 + redistribute_s)
            writer.info(redistribute, "Survivors", len(worker_nodes),
                        ts=t1 + redistribute_s)
            worker_nodes[0].work(t1, redistribute_s, cost.idle_cores,
                                 "giraph:redistribute")
            clock.advance(redistribute_s)

        worker_nodes[0].work(
            clock.now(), cost.master_coordination_s, cost.idle_cores,
            "giraph:coordination",
        )
        clock.advance(cost.master_coordination_s)
        writer.end(startup)
        return allocation, worker_nodes

    def _run_load(
        self,
        writer: GranulaLogWriter,
        root: OpenOperation,
        deployed: _Deployed,
        num_workers: int,
        worker_nodes: List[Node],
        program,
        use_vectorized: bool = False,
    ) -> Tuple[List[WorkerState], Dict[str, Any]]:
        clock = self.cluster.clock
        cost = self.cost
        hdfs = self.cluster.hdfs
        network = self.cluster.network
        graph = deployed.graph

        load = writer.start("LoadGraph", "GiraphClient", root)
        load_hdfs = writer.start("LoadHdfsData", "Master", load)
        writer.info(load_hdfs, "TotalBytes", deployed.size_bytes)

        fault = self.fault_plan
        node_names = [n.name for n in worker_nodes]
        splits = hdfs.assign_splits(deployed.path, node_names)
        t0 = clock.now()
        span_max = 0.0
        total_read = 0
        total_failovers = 0
        for wid, node in enumerate(worker_nodes, start=1):
            blocks = splits[node.name]
            local_blocks = [b for b in blocks if node.name in b.replicas]
            remote_bytes = sum(
                b.size_bytes for b in blocks if node.name not in b.replicas
            )
            # Scheduled local-read errors fail over to remote replicas.
            failing = 0
            if fault is not None:
                failing = min(
                    fault.hdfs_read_failures(node.name), len(local_blocks)
                )
            failing_blocks = local_blocks[:failing]
            local_bytes = sum(b.size_bytes for b in local_blocks[failing:])
            read_t = 0.0
            if local_bytes:
                read_t += hdfs.read_time(local_bytes, local=True)
            if remote_bytes:
                read_t += hdfs.read_time(remote_bytes, local=False)
            if fault is not None:
                read_t *= fault.disk_factor(node.name)
            failovers = []
            for block in failing_blocks:
                failovers.append(
                    (block, hdfs.read_with_failover(block.size_bytes, 1))
                )
            failover_t = sum(fo.duration_s for _, fo in failovers)
            nbytes = sum(b.size_bytes for b in blocks)
            parse_t = nbytes * cost.parse_byte_s
            # Parsed vertices are shuffled to their hash owners: all but
            # 1/num_workers of the data leaves this worker.
            shuffle_bytes = int(nbytes * (num_workers - 1) / max(1, num_workers))
            shuffle_t = network.transfer_time(shuffle_bytes) if shuffle_bytes else 0.0
            if fault is not None:
                shuffle_t *= fault.link_factor(node.name)
            duration = read_t + failover_t + parse_t + shuffle_t
            node.work(t0, duration, cost.load_cores, "giraph:load")
            local_load = writer.span(
                "LocalLoad", f"Worker-{wid}", load_hdfs, t0, t0 + duration
            )
            writer.info(local_load, "BytesRead", nbytes, ts=t0 + duration)
            cursor = t0 + read_t
            for block, fo in failovers:
                fo_op = writer.span(
                    "ReplicaFailover", f"Worker-{wid}", load_hdfs,
                    cursor, cursor + fo.duration_s,
                )
                writer.info(fo_op, "Block", block.index,
                            ts=cursor + fo.duration_s)
                writer.info(fo_op, "Attempts", fo.attempts,
                            ts=cursor + fo.duration_s)
                writer.info(fo_op, "WastedSeconds", round(fo.wasted_s, 6),
                            ts=cursor + fo.duration_s)
                cursor += fo.duration_s
                total_failovers += 1
            span_max = max(span_max, duration)
            total_read += nbytes
        clock.advance(span_max)

        # Build the in-memory partitions (the real data structures).
        owner_array = hash_partition_array(graph.num_vertices, num_workers)
        if use_vectorized:
            worker_set = VectorizedWorkerSet(
                graph, program, num_workers,
                [node.name for node in worker_nodes], owner_array,
            )
            workers = worker_set.workers
            for worker, node in zip(workers, worker_nodes):
                node.allocate_memory(worker.partition_bytes())
        else:
            owner_of = owner_array.tolist()
            partitions: List[List[int]] = [[] for _ in range(num_workers)]
            for v in graph.vertices():
                partitions[owner_of[v]].append(v)
            workers = []
            for wid, node in enumerate(worker_nodes, start=1):
                worker = WorkerState(
                    worker_id=wid - 1,
                    node_name=node.name,
                    vertices=partitions[wid - 1],
                    graph=graph,
                    num_workers=num_workers,
                    owner_of=owner_of,
                    program=program,
                )
                worker.load_partition()
                node.allocate_memory(worker.partition_bytes())
                workers.append(worker)

        writer.end(load_hdfs)
        writer.end(load)
        load_stats: Dict[str, Any] = {"bytes_read": total_read}
        if total_failovers:
            load_stats["hdfs_failovers"] = total_failovers
        return workers, load_stats

    def _run_process(
        self,
        writer: GranulaLogWriter,
        root: OpenOperation,
        workers: List[WorkerState],
        worker_nodes: List[Node],
        zk: ZooKeeperService,
    ) -> Dict[str, Any]:
        clock = self.cluster.clock
        cost = self.cost
        network = self.cluster.network
        program = workers[0].program
        num_workers = len(workers)

        process = writer.start("ProcessGraph", "Master", root)
        registry = AggregatorRegistry()
        register = getattr(program, "register_aggregators", None)
        if register is not None:
            register(registry)

        fault = self.fault_plan
        interval = fault.interval() if fault is not None else 1
        explicit_cp = fault is not None and fault.checkpoint_interval is not None
        # Per-worker busy time of every completed superstep: on a crash
        # the engine redoes everything since the last checkpoint.
        work_history: List[List[float]] = [[] for _ in workers]
        checkpoints = 0

        superstep = 0
        aggregated: Dict[str, Any] = {}
        total_messages = 0
        total_computed = 0
        while True:
            if (
                program.max_supersteps is not None
                and superstep >= program.max_supersteps
            ):
                break
            t0 = clock.now()
            ss_op = writer.start(f"Superstep-{superstep}", "Master", process, ts=t0)
            for worker in workers:
                worker.begin_superstep(superstep, aggregated)

            step_start = t0
            if explicit_cp and superstep % interval == 0:
                cp_end = t0 + fault.checkpoint_write_s
                cp_op = writer.span(
                    f"Checkpoint-{superstep}", "Master", ss_op, t0, cp_end
                )
                writer.info(cp_op, "Interval", interval, ts=cp_end)
                for node in worker_nodes:
                    node.work(t0, fault.checkpoint_write_s, cost.idle_cores,
                              "giraph:checkpoint")
                checkpoints += 1
                step_start = cp_end

            flushes: List[List[Dict[int, List[Any]]]] = []
            busy_ends: List[float] = []
            local_ops: List[OpenOperation] = []
            computed_this = 0
            pre_end = step_start + _PRESTEP_S
            for worker, node in zip(workers, worker_nodes):
                wname = f"Worker-{worker.worker_id + 1}"
                local_ss = writer.start(
                    f"LocalSuperstep-{superstep}", wname, ss_op, ts=step_start
                )
                writer.span(f"PreStep-{superstep}", wname, local_ss,
                            step_start, pre_end)
                node.work(step_start, _PRESTEP_S, cost.idle_cores,
                          "giraph:prestep")

                outgoing = OutgoingStore(
                    num_workers, worker.owner_of, program.combiner
                )
                work = worker.compute_superstep(outgoing, registry)
                flushes.append(outgoing.flush())

                compute_t = (
                    work.computed * cost.vertex_compute_s
                    + work.messages_in * cost.message_process_s
                    + work.messages_sent * cost.message_send_s
                ) * execution_jitter(
                    worker.worker_id, superstep,
                    cost.compute_jitter, cost.gc_spike,
                )
                if self.fault_plan is not None:
                    compute_t *= self.fault_plan.slow_factor(node.name)
                compute_end = pre_end + compute_t
                compute_op = writer.span(
                    f"Compute-{superstep}", wname, local_ss, pre_end, compute_end
                )
                writer.info(compute_op, "ActiveVertices", work.computed,
                            ts=compute_end)
                writer.info(compute_op, "MessagesReceived", work.messages_in,
                            ts=compute_end)
                writer.info(compute_op, "MessagesSent", work.messages_sent,
                            ts=compute_end)
                if compute_t > 0:
                    node.work(pre_end, compute_t, cost.compute_cores,
                              "giraph:compute")

                wire_bytes = work.wire_remote * cost.message_byte
                message_t = network.transfer_time(wire_bytes) if wire_bytes else 0.0
                if self.fault_plan is not None:
                    message_t *= self.fault_plan.link_factor(node.name)
                message_end = compute_end + message_t
                writer.span(
                    f"Message-{superstep}", wname, local_ss,
                    compute_end, message_end,
                )
                if message_t > 0:
                    node.work(compute_end, message_t, cost.network_cores,
                              "giraph:message")

                busy_ends.append(message_end)
                local_ops.append(local_ss)
                total_messages += work.messages_sent
                computed_this += work.computed

            barrier_base = max(busy_ends)
            crash = (
                fault.crash_in_superstep(superstep, num_workers)
                if fault is not None else None
            )
            if crash is not None:
                # Giraph checkpoint recovery: the master relaunches the
                # crashed worker's container and the work since the last
                # checkpoint is re-executed there while everyone waits.
                wid = crash.worker
                crashed_node = worker_nodes[wid]
                cp = (superstep // interval) * interval
                redo_t = (
                    sum(work_history[wid][cp:superstep])
                    + (busy_ends[wid] - pre_end)
                )
                recover_start = barrier_base
                recover_end = recover_start + crash.recovery_s + redo_t
                recover_op = writer.span(
                    f"RecoverWorker-{superstep}", "Master", ss_op,
                    recover_start, recover_end,
                )
                writer.info(recover_op, "Worker", f"Worker-{wid + 1}",
                            ts=recover_end)
                if explicit_cp:
                    writer.info(recover_op, "Checkpoint", cp, ts=recover_end)
                crashed_node.work(
                    recover_start + crash.recovery_s, redo_t,
                    cost.compute_cores, "giraph:recovery",
                )
                barrier_base = recover_end
            barrier_end = barrier_base + zk.barrier_sync_duration(num_workers)
            for worker, node, local_ss, busy_end in zip(
                workers, worker_nodes, local_ops, busy_ends
            ):
                wname = f"Worker-{worker.worker_id + 1}"
                writer.span(
                    f"PostStep-{superstep}", wname, local_ss,
                    busy_end, barrier_end,
                )
                node.work(busy_end, barrier_end - busy_end, cost.idle_cores,
                          "giraph:barrier")
                writer.end(local_ss, ts=barrier_end)
            writer.span(
                f"SyncZookeeper-{superstep}", "Master", ss_op,
                barrier_base, barrier_end,
            )
            writer.info(ss_op, "ActiveVertices", computed_this, ts=barrier_end)
            writer.end(ss_op, ts=barrier_end)
            clock.advance_to(barrier_end)
            total_computed += computed_this
            for wid, busy_end in enumerate(busy_ends):
                work_history[wid].append(busy_end - pre_end)

            # Deliver messages for the next superstep.
            for flush in flushes:
                for target, worker in enumerate(workers):
                    worker.incoming.deliver(flush[target])
            aggregated = registry.barrier()
            superstep += 1

            pending = any(w.has_pending_messages() for w in workers)
            halted = all(w.all_halted() for w in workers)
            if halted and not pending:
                break

        writer.end(process)
        stats: Dict[str, Any] = {
            "supersteps": superstep,
            "messages": total_messages,
            "vertices_computed": total_computed,
        }
        if checkpoints:
            stats["checkpoints"] = checkpoints
        return stats

    def _run_offload(
        self,
        writer: GranulaLogWriter,
        root: OpenOperation,
        workers: List[WorkerState],
        worker_nodes: List[Node],
        job_id: str,
    ) -> int:
        clock = self.cluster.clock
        cost = self.cost
        hdfs = self.cluster.hdfs

        offload = writer.start("OffloadGraph", "GiraphClient", root)
        offload_hdfs = writer.start("OffloadHdfsData", "Master", offload)
        t0 = clock.now()
        span_max = 0.0
        total_bytes = 0
        for worker, node in zip(workers, worker_nodes):
            wname = f"Worker-{worker.worker_id + 1}"
            nbytes = worker.output_text_bytes()
            duration = hdfs.write_time(nbytes) + nbytes * cost.offload_byte_s
            node.work(t0, duration, 2.0, "giraph:offload")
            local = writer.span(
                "LocalOffload", wname, offload_hdfs, t0, t0 + duration
            )
            writer.info(local, "BytesWritten", nbytes, ts=t0 + duration)
            span_max = max(span_max, duration)
            total_bytes += nbytes
        clock.advance(span_max)
        hdfs.put(f"/giraph/output/{job_id}", total_bytes)
        writer.end(offload_hdfs)
        writer.end(offload)
        return total_bytes

    def _run_cleanup(
        self,
        writer: GranulaLogWriter,
        root: OpenOperation,
        allocation,
        worker_nodes: List[Node],
        zk: ZooKeeperService,
        supersteps: int,
    ) -> None:
        clock = self.cluster.clock
        cost = self.cost

        cleanup = writer.start("Cleanup", "GiraphClient", root)
        job_cleanup = writer.start("JobCleanup", "GiraphClient", cleanup)

        abort = writer.start("AbortWorkers", "Master", job_cleanup)
        for node in worker_nodes:
            node.free_memory(node.memory_used)
        self.yarn.release(allocation, teardown_s=cost.abort_workers_s)
        writer.end(abort)

        client = writer.start("ClientCleanup", "GiraphClient", job_cleanup)
        worker_nodes[0].work(
            clock.now(), cost.cleanup_client_s, cost.idle_cores,
            "giraph:cleanup",
        )
        clock.advance(cost.cleanup_client_s)
        writer.end(client)

        server = writer.start("ServerCleanup", "Master", job_cleanup)
        worker_nodes[0].work(
            clock.now(), cost.cleanup_server_s, cost.idle_cores,
            "giraph:cleanup",
        )
        clock.advance(cost.cleanup_server_s)
        writer.end(server)

        zk_op = writer.start("ZkCleanup", "Master", job_cleanup)
        zk_t = cost.cleanup_zk_s + zk.cleanup_duration(znodes=supersteps * 4)
        worker_nodes[0].work(clock.now(), zk_t, cost.idle_cores, "giraph:zk")
        clock.advance(zk_t)
        writer.end(zk_op)

        writer.end(job_cleanup)
        writer.end(cleanup)
