"""The Hadoop-like MapReduce platform engine.

Job workflow (mirrored in the Hadoop performance model)::

    HadoopJob
      Startup        JobStartup, LaunchContainers -> LocalStartup
      LoadGraph      MaterializeInput -> LocalMaterialize per worker
      ProcessGraph   MapReduceRound-k -> RoundSetup-k and, per worker,
                         MapPhase-k, ShufflePhase-k, ReducePhase-k,
                         MaterializeState-k
      OffloadGraph   CollectOutput
      Cleanup        ReleaseContainers, ClientCleanup

Every iteration is a full MapReduce job: scheduling overhead, a scan of
every vertex record, an all-to-all shuffle, and a replicated HDFS write
of the whole state — the paper's "severe performance penalties" made
concrete and measurable under Granula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
from repro.platforms.costmodel import HadoopCostModel, execution_jitter
from repro.platforms.logging_util import GranulaLogWriter
from repro.platforms.mapreduce.algorithms import make_mapreduce_round
from repro.platforms.mapreduce.vectorized import (
    ScalarRounds,
    mapreduce_kernel_class,
)

#: Client-side submission latency per driver program.
_SUBMIT_S = 2.0

#: Hard bound on driver rounds (quiescence algorithms on pathological
#: inputs); real Hadoop drivers carry the same guard.
_MAX_ROUNDS = 200


@dataclass
class _Deployed:
    """A dataset staged in HDFS (vertex-store input file)."""

    path: str
    graph: Graph
    size_bytes: int


class HadoopPlatform(Platform):
    """Iterated-MapReduce engine with Yarn provisioning and HDFS state."""

    name = "Hadoop"

    def __init__(self, cluster: Cluster,
                 cost_model: Optional[HadoopCostModel] = None,
                 engine_mode: str = "auto"):
        super().__init__(cluster)
        self.cost = cost_model or HadoopCostModel()
        self.yarn = YarnManager(cluster.nodes, cluster.clock, cluster.trace)
        self.engine_mode = engine_mode
        #: Execution path of the most recent job ("scalar"/"vectorized");
        #: diagnostic only, never part of results or archives.
        self.last_engine_path: Optional[str] = None

    def deploy_dataset(self, name: str, graph: Graph) -> None:
        """Stage the graph as a vertex-store file in HDFS."""
        if not name:
            raise PlatformError("dataset name must be non-empty")
        path = f"/hadoop/input/{name}.vs"
        size = vertex_store_size_bytes(graph)
        self.cluster.hdfs.put(path, size, payload=graph)
        self._datasets[name] = _Deployed(path, graph, size)

    def run_job(self, request: JobRequest) -> JobResult:
        self._check_workers(request.workers)
        deployed: _Deployed = self._require_dataset(request.dataset)
        graph = deployed.graph
        driver = make_mapreduce_round(request.algorithm, request.params, graph)
        use_vectorized = resolve_engine_mode(
            self.engine_mode,
            mapreduce_kernel_class(driver) is not None,
            self.name,
            request.algorithm,
        )
        self.last_engine_path = "vectorized" if use_vectorized else "scalar"
        owner_of = hash_partition_array(graph.num_vertices, request.workers)
        executor_cls = (
            mapreduce_kernel_class(driver) if use_vectorized else ScalarRounds
        )
        executor = executor_cls(driver, graph, owner_of, request.workers)
        job_id = self._next_job_id(request)

        self.cluster.reset()
        clock = self.cluster.clock
        writer = GranulaLogWriter(job_id, clock)
        worker_nodes = self.cluster.nodes[: request.workers]

        started_at = clock.now()
        root = writer.start("HadoopJob", "HadoopClient")
        writer.info(root, "Algorithm", request.algorithm)
        writer.info(root, "Dataset", request.dataset)
        writer.info(root, "Workers", request.workers)

        allocation = self._run_startup(writer, root, worker_nodes)
        self._run_load(writer, root, deployed, worker_nodes, executor)
        rounds, emissions = self._run_process(
            writer, root, driver, executor, worker_nodes
        )
        offload_bytes = self._run_offload(
            writer, root, executor, worker_nodes, job_id
        )
        self._run_cleanup(writer, root, allocation, worker_nodes)

        writer.end(root)
        writer.assert_all_closed()
        finished_at = clock.now()

        output = executor.output()
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
                "rounds": rounds,
                "emissions": emissions,
                "bytes_read": deployed.size_bytes,
                "offload_bytes": offload_bytes,
            },
        )

    # -- phases --------------------------------------------------------------

    def _run_startup(self, writer, root, worker_nodes: List[Node]):
        clock = self.cluster.clock
        cost = self.cost
        startup = writer.start("Startup", "HadoopClient", root)
        job_startup = writer.start("JobStartup", "HadoopClient", startup)
        worker_nodes[0].work(clock.now(), _SUBMIT_S, cost.idle_cores,
                             "hadoop:submit")
        clock.advance(_SUBMIT_S)
        writer.end(job_startup)

        launch = writer.start("LaunchContainers", "Master", startup)
        allocation = self.yarn.allocate(len(worker_nodes))
        t0 = clock.now()
        local_startup_s = 6.0  # Task-tracker and JVM pool spin-up.
        for wid, node in enumerate(worker_nodes, start=1):
            node.work(t0, local_startup_s, 0.8, "hadoop:localstartup")
            writer.span("LocalStartup", f"Worker-{wid}", launch,
                        t0, t0 + local_startup_s)
        clock.advance(local_startup_s)
        writer.end(launch)
        writer.end(startup)
        return allocation

    def _run_load(self, writer, root, deployed: _Deployed,
                  worker_nodes: List[Node], executor):
        clock = self.cluster.clock
        cost = self.cost

        load = writer.start("LoadGraph", "HadoopClient", root)
        materialize = writer.start("MaterializeInput", "Master", load)
        splits = self.cluster.hdfs.assign_splits(
            deployed.path, [n.name for n in worker_nodes]
        )
        t0 = clock.now()
        span = 0.0
        for wid, node in enumerate(worker_nodes):
            nbytes = sum(b.size_bytes for b in splits[node.name])
            state_bytes = executor.initial_state_bytes(wid)
            duration = (
                self.cluster.hdfs.read_time(nbytes, local=True)
                + nbytes * cost.materialize_byte_s
                + self.cluster.hdfs.write_time(state_bytes)
            )
            node.work(t0, duration, cost.map_cores, "hadoop:load")
            local = writer.span("LocalMaterialize", f"Worker-{wid + 1}",
                                materialize, t0, t0 + duration)
            writer.info(local, "BytesRead", nbytes, ts=t0 + duration)
            span = max(span, duration)
        clock.advance(span)
        writer.end(materialize)
        writer.end(load)

    def _run_process(self, writer, root, driver, executor, worker_nodes):
        clock = self.cluster.clock
        cost = self.cost
        network = self.cluster.network

        process = writer.start("ProcessGraph", "Master", root)
        round_index = 0
        total_emissions = 0
        while True:
            if driver.max_rounds is not None and round_index >= driver.max_rounds:
                break
            if round_index >= _MAX_ROUNDS:
                raise JobFailedError(
                    f"driver exceeded {_MAX_ROUNDS} rounds without converging"
                )
            stats = executor.run_round(round_index)

            t0 = clock.now()
            round_op = writer.start(f"MapReduceRound-{round_index}",
                                    "Master", process, ts=t0)
            # A whole new MR job is scheduled for this round.
            setup_end = t0 + cost.round_setup_s
            writer.span(f"RoundSetup-{round_index}", "Master", round_op,
                        t0, setup_end)
            for node in worker_nodes:
                node.work(t0, cost.round_setup_s, cost.idle_cores,
                          "hadoop:roundsetup")

            # Map: every worker scans ALL of its records.
            map_ends: List[float] = []
            for wid, node in enumerate(worker_nodes):
                emissions = stats.emissions[wid]
                remote_emissions = stats.remote_emissions[wid]
                map_t = (
                    executor.partition_size(wid) * cost.map_record_s
                    + emissions * cost.emission_s
                ) * execution_jitter(wid, round_index, 0.08)
                map_end = setup_end + map_t
                map_op = writer.span(f"MapPhase-{round_index}",
                                     f"Worker-{wid + 1}", round_op,
                                     setup_end, map_end)
                writer.info(map_op, "RecordsScanned",
                            executor.partition_size(wid), ts=map_end)
                writer.info(map_op, "Emissions", emissions, ts=map_end)
                if map_t > 0:
                    node.work(setup_end, map_t, cost.map_cores, "hadoop:map")

                shuffle_t = network.transfer_time(
                    remote_emissions * cost.shuffle_record_bytes
                ) if remote_emissions else 0.0
                writer.span(f"ShufflePhase-{round_index}",
                            f"Worker-{wid + 1}", round_op,
                            map_end, map_end + shuffle_t)
                if shuffle_t > 0:
                    node.work(map_end, shuffle_t, cost.shuffle_cores,
                              "hadoop:shuffle")
                map_ends.append(map_end + shuffle_t)
                total_emissions += emissions

            # Reduce starts after the slowest mapper finished (the
            # shuffle barrier of a real MR job).
            reduce_start = max(map_ends)
            reduce_ends: List[float] = []
            for wid, node in enumerate(worker_nodes):
                message_count = stats.message_counts[wid]
                state_bytes = stats.state_bytes[wid]
                reduce_t = (
                    message_count * cost.reduce_message_s
                    + executor.partition_size(wid) * cost.reduce_vertex_s
                ) * execution_jitter(wid, round_index + 1000, 0.08)
                materialize_t = (
                    state_bytes * cost.materialize_byte_s
                    + self.cluster.hdfs.write_time(state_bytes)
                )
                reduce_end = reduce_start + reduce_t
                reduce_op = writer.span(f"ReducePhase-{round_index}",
                                        f"Worker-{wid + 1}", round_op,
                                        reduce_start, reduce_end)
                writer.info(reduce_op, "Messages", message_count,
                            ts=reduce_end)
                writer.span(f"MaterializeState-{round_index}",
                            f"Worker-{wid + 1}", round_op,
                            reduce_end, reduce_end + materialize_t)
                if reduce_t > 0:
                    node.work(reduce_start, reduce_t, cost.reduce_cores,
                              "hadoop:reduce")
                if materialize_t > 0:
                    node.work(reduce_end, materialize_t, 2.0,
                              "hadoop:materialize")
                reduce_ends.append(reduce_end + materialize_t)

            round_end = max(reduce_ends)
            writer.info(round_op, "Emissions", total_emissions, ts=round_end)
            writer.end(round_op, ts=round_end)
            clock.advance_to(round_end)

            round_index += 1
            if stats.converged:
                break

        writer.end(process)
        return round_index, total_emissions

    def _run_offload(self, writer, root, executor, worker_nodes, job_id):
        clock = self.cluster.clock
        cost = self.cost
        offload = writer.start("OffloadGraph", "HadoopClient", root)
        collect = writer.start("CollectOutput", "Master", offload)
        nbytes = executor.final_state_bytes()
        # Final state already sits in HDFS; collection renames + reads it.
        duration = self.cluster.hdfs.read_time(nbytes, local=True)
        worker_nodes[0].work(clock.now(), duration, 1.0, "hadoop:offload")
        clock.advance(duration)
        self.cluster.hdfs.put(f"/hadoop/output/{job_id}", nbytes)
        writer.info(collect, "BytesWritten", nbytes)
        writer.end(collect)
        writer.end(offload)
        return nbytes

    def _run_cleanup(self, writer, root, allocation, worker_nodes):
        clock = self.cluster.clock
        cost = self.cost
        cleanup = writer.start("Cleanup", "HadoopClient", root)
        release = writer.start("ReleaseContainers", "Master", cleanup)
        self.yarn.release(allocation, teardown_s=1.3)
        writer.end(release)
        client = writer.start("ClientCleanup", "HadoopClient", cleanup)
        worker_nodes[0].work(clock.now(), 1.2, cost.idle_cores,
                             "hadoop:cleanup")
        clock.advance(1.2)
        writer.end(client)
        writer.end(cleanup)
