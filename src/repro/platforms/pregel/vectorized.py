"""Vectorized execution backend for the Pregel engine.

The scalar engine in :mod:`repro.platforms.pregel.worker` runs the user
program one vertex at a time.  For the built-in Graphalytics programs the
per-superstep work is data-parallel, so this module replays it as numpy
frontier kernels over the graph's CSR arrays — one kernel per program —
while reproducing the scalar path *exactly*:

* identical per-worker per-superstep work counts (``computed``,
  ``messages_in``, ``messages_sent``, ``wire_local``/``wire_remote``
  with combiner semantics), derived by counter arithmetic over owner and
  destination arrays instead of per-message bookkeeping;
* bit-identical vertex values and aggregator results.  Float reductions
  in the scalar engine are *sequential left folds* in a fixed order
  (combiner folds per sender worker in vertex order, mailbox sums in
  worker order, aggregator folds in (worker, vertex) order), and IEEE
  addition is not associative — so the kernels reproduce those exact
  fold orders with :func:`_fold_add` and planned segmented folds
  (:class:`repro.platforms.vecops.FoldPlan`) instead of ``np.sum``
  (which reduces pairwise).

Because counts and values match exactly, the cost model sees identical
inputs and the simulated timelines, logs and archives are byte-identical
to a scalar run.  Custom programs (and built-ins with a non-default
combiner or weight function) have no kernel; the platform falls back to
the scalar path for them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.graph.algorithms.bfs import UNREACHED
from repro.graph.algorithms.sssp import default_weight
from repro.graph.edgelist import int_text_size, text_size
from repro.graph.graph import Graph
from repro.platforms.base import VertexValues
from repro.platforms.pregel.aggregators import AggregatorRegistry
from repro.platforms.pregel.algorithms import (
    BfsProgram,
    CdlpProgram,
    PageRankProgram,
    SsspProgram,
    WccProgram,
)
from repro.platforms.pregel.api import VertexProgram
from repro.platforms.pregel.messages import IncomingStore, OutgoingStore
from repro.platforms.pregel.worker import SuperstepWork
from repro.platforms.vecops import (
    FoldPlan,
    expand_edges as _expand_edges,
    fold_add as _fold_add,
    group_sizes as _group_sizes,
    group_starts as _group_starts,
    stable_key_order,
    stable_key_sort,
)


class _StepWork:
    """Per-worker work counts of one superstep (parallel int64 arrays)."""

    def __init__(
        self,
        computed: np.ndarray,
        messages_in: np.ndarray,
        messages_sent: np.ndarray,
        wire_matrix: np.ndarray,
    ):
        self.computed = computed
        self.messages_in = messages_in
        self.messages_sent = messages_sent
        # wire_matrix[sender_worker, target_worker]: post-combining
        # messages on that route.
        row = wire_matrix.sum(axis=1)
        diag = np.diagonal(wire_matrix)
        self.wire_local = diag
        self.wire_remote = row - diag

    def superstep_work(self, worker_id: int) -> SuperstepWork:
        return SuperstepWork(
            computed=int(self.computed[worker_id]),
            messages_in=int(self.messages_in[worker_id]),
            messages_sent=int(self.messages_sent[worker_id]),
            wire_remote=int(self.wire_remote[worker_id]),
            wire_local=int(self.wire_local[worker_id]),
        )


# -- kernels ---------------------------------------------------------------


class _KernelBase:
    """Shared state and routing arithmetic of the program kernels."""

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        num_workers: int,
        owner: np.ndarray,
    ):
        self.graph = graph
        self.program = program
        self.W = num_workers
        self.owner = owner
        self.n = graph.num_vertices
        csr = graph.csr()
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.deg = csr.out_degrees()
        self.m = graph.num_edges
        self.part_sizes = np.bincount(owner, minlength=num_workers)
        self.step = -1
        self.pending = False
        self.halted = False
        self.step_aggregations: List[Tuple[str, float]] = []
        self.work: Optional[_StepWork] = None

    def _count(self, vertices: np.ndarray) -> np.ndarray:
        """Per-worker counts of a vertex set."""
        return np.bincount(self.owner[vertices], minlength=self.W)

    def _weighted_count(
        self, vertices: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Per-worker integer-weighted counts of a vertex set."""
        return np.bincount(
            self.owner[vertices], weights=weights, minlength=self.W
        ).astype(np.int64)

    def _route_combined(
        self,
        sender_owner: np.ndarray,
        dsts: np.ndarray,
        values: Optional[np.ndarray] = None,
    ):
        """Combiner-side routing of one superstep's raw messages.

        Returns ``(msg_dst, msg_cnt, msg_min, wire_matrix)``: the sorted
        distinct recipients, their mailbox lengths (one combined message
        per sender worker), the per-recipient min message value (when
        ``values`` is given; min folds are order-insensitive so a flat
        reduction is exact), and the post-combining wire counts per
        (sender worker, target worker) route.
        """
        W = self.W
        order, sorted_key = stable_key_sort(dsts * W + sender_owner,
                                            self.n * W)
        pair_starts = _group_starts(sorted_key)
        pair_key = sorted_key[pair_starts]
        pair_dst = pair_key // W
        pair_sender = pair_key % W
        dst_starts = _group_starts(pair_dst)
        msg_dst = pair_dst[dst_starts]
        msg_cnt = _group_sizes(dst_starts, len(pair_dst))
        msg_min = None
        if values is not None:
            if len(order):
                pair_min = np.minimum.reduceat(values[order], pair_starts)
                msg_min = np.minimum.reduceat(pair_min, dst_starts)
            else:
                msg_min = np.empty(0, dtype=values.dtype)
        wire = np.bincount(
            pair_sender * W + self.owner[pair_dst], minlength=W * W
        ).reshape(W, W)
        return msg_dst, msg_cnt, msg_min, wire

    def advance(self, superstep: int, aggregated: Dict[str, Any]) -> None:
        raise NotImplementedError


class _FrontierKernel(_KernelBase):
    """Shared skeleton of the message-driven min-combining programs.

    BFS, WCC and SSSP share one shape: superstep 0 computes everyone and
    seeds the frontier; later supersteps compute exactly the mailbox
    recipients, update the improved ones, and those re-broadcast.  Every
    vertex votes to halt every superstep.
    """

    def __init__(self, graph, program, num_workers, owner):
        super().__init__(graph, program, num_workers, owner)
        self._mailbox: Tuple[np.ndarray, ...] = ()

    # Subclass hooks ------------------------------------------------------

    def _seed(self) -> np.ndarray:
        """Initialize values; return the superstep-0 sender set."""
        raise NotImplementedError

    def _update(self, msg_dst, msg_min) -> np.ndarray:
        """Apply combined messages; return the re-broadcasting senders."""
        raise NotImplementedError

    def _adjacency(self):
        """(indptr, indices, degrees) of the broadcast topology."""
        return self.indptr, self.indices, self.deg

    def _message_values(self, superstep, rep_src, dsts):
        """Per-edge message values (None when counts alone suffice)."""
        raise NotImplementedError

    # ---------------------------------------------------------------------

    def advance(self, superstep: int, aggregated: Dict[str, Any]) -> None:
        self.step = superstep
        W = self.W
        if superstep == 0:
            computed = self.part_sizes
            messages_in = np.zeros(W, dtype=np.int64)
            senders = self._seed()
        else:
            msg_dst, msg_cnt, msg_min = self._mailbox
            computed = self._count(msg_dst)
            messages_in = self._weighted_count(msg_dst, msg_cnt)
            senders = self._update(msg_dst, msg_min)
        indptr, indices, deg = self._adjacency()
        messages_sent = self._weighted_count(senders, deg[senders])
        rep_src, dsts = _expand_edges(indptr, indices, senders, deg)
        values = self._message_values(superstep, rep_src, dsts)
        msg_dst, msg_cnt, msg_min, wire = self._route_combined(
            self.owner[rep_src], dsts, values
        )
        self._mailbox = (msg_dst, msg_cnt, msg_min)
        self.pending = len(msg_dst) > 0
        self.halted = True
        self.work = _StepWork(computed, messages_in, messages_sent, wire)


class _BfsKernel(_FrontierKernel):
    """Level-synchronous BFS (:class:`BfsProgram`)."""

    def __init__(self, graph, program, num_workers, owner):
        super().__init__(graph, program, num_workers, owner)
        self.values = np.full(self.n, UNREACHED, dtype=np.int64)

    def _seed(self):
        source = self.program.source
        self.values[source] = 0
        return np.array([source], dtype=np.int64)

    def _update(self, msg_dst, msg_min):
        frontier = msg_dst[self.values[msg_dst] == UNREACHED]
        self.values[frontier] = self.step
        return frontier

    def _message_values(self, superstep, rep_src, dsts):
        return None  # all messages carry superstep + 1; counts suffice


class _WccKernel(_FrontierKernel):
    """Min-label propagation over the undirected view (:class:`WccProgram`)."""

    def __init__(self, graph, program, num_workers, owner):
        super().__init__(graph, program, num_workers, owner)
        undirected = graph.undirected_csr()
        self.und_indptr = undirected.indptr
        self.und_indices = undirected.indices
        self.und_deg = undirected.out_degrees()
        self.values = np.arange(self.n, dtype=np.int64)

    def _adjacency(self):
        return self.und_indptr, self.und_indices, self.und_deg

    def _seed(self):
        return np.arange(self.n, dtype=np.int64)

    def _update(self, msg_dst, msg_min):
        improved = msg_min < self.values[msg_dst]
        upd = msg_dst[improved]
        self.values[upd] = msg_min[improved]
        return upd

    def _message_values(self, superstep, rep_src, dsts):
        return self.values[rep_src]


class _SsspKernel(_FrontierKernel):
    """Bellman-Ford SSSP with the default weights (:class:`SsspProgram`)."""

    def __init__(self, graph, program, num_workers, owner):
        super().__init__(graph, program, num_workers, owner)
        self.values = np.full(self.n, np.inf, dtype=np.float64)

    def _seed(self):
        source = self.program.source
        self.values[source] = 0.0
        return np.array([source], dtype=np.int64)

    def _update(self, msg_dst, msg_min):
        improved = msg_min < self.values[msg_dst]
        upd = msg_dst[improved]
        self.values[upd] = msg_min[improved]
        return upd

    def _message_values(self, superstep, rep_src, dsts):
        # Vectorized repro.graph.algorithms.sssp.default_weight: exact
        # because the hash is integer and /65536.0 divides by a power
        # of two.
        h = ((rep_src * 2654435761) ^ (dsts * 40503)) & 0xFFFF
        return self.values[rep_src] + (1.0 + h.astype(np.float64) / 65536.0)


class _PageRankKernel(_KernelBase):
    """Aggregator-based PageRank (:class:`PageRankProgram`).

    All routing is static (every vertex with out-edges broadcasts every
    superstep), so the counter side is precomputed once.  Mailbox sums
    are two-level sequential folds: the scalar combiner folds messages
    per sender worker in vertex order, then the recipient sums one
    combined message per worker in worker order.
    """

    def __init__(self, graph, program, num_workers, owner):
        super().__init__(graph, program, num_workers, owner)
        n, W = self.n, self.W
        e_src = graph.csr().sources()
        e_dst = self.indices
        # Order edges by (dst, sender worker, src): level-1 fold segments
        # are (dst, worker) runs in sender-vertex order, level-2 fold
        # segments group those runs per dst in worker order.  CSR edges
        # come src-ascending, so a stable (dst, worker) order keeps src
        # ascending within each run, and sorting the sources beside the
        # key reads them back in that order.
        self.g_src, key1 = stable_key_sort(e_dst * W + owner[e_src], n * W,
                                           rows=e_src)
        starts1 = _group_starts(key1)
        pair_key = key1[starts1]
        pair_dst = pair_key // W
        starts2 = _group_starts(pair_dst)
        recv_dst = pair_dst[starts2]
        self.combine = FoldPlan(starts1, len(key1))
        self.mailboxes = FoldPlan(starts2, len(starts1), rows=recv_dst,
                                  size=n)
        pair_cnt = _group_sizes(starts2, len(pair_dst))
        self.static_messages_in = self._weighted_count(recv_dst, pair_cnt)
        self.static_wire = np.bincount(
            (pair_key % W) * W + owner[pair_dst], minlength=W * W
        ).reshape(W, W)
        self.static_messages_sent = np.bincount(
            owner, weights=self.deg, minlength=W
        ).astype(np.int64)
        # Aggregator folds run in the scalar engine's contribution order:
        # workers ascending, vertices ascending within a worker.
        self.ord_all = stable_key_order(owner, W)
        deg0 = np.flatnonzero(self.deg == 0)
        self.ord_deg0 = deg0[stable_key_order(owner[deg0], W)]
        self.values = (
            np.full(n, 1.0 / n, dtype=np.float64)
            if n
            else np.empty(0, dtype=np.float64)
        )

    def advance(self, superstep: int, aggregated: Dict[str, Any]) -> None:
        self.step = superstep
        program = self.program
        W, n = self.W, self.n
        zeros = np.zeros(W, dtype=np.int64)
        self.step_aggregations = []
        computed = self.part_sizes
        messages_in = self.static_messages_in if superstep > 0 else zeros
        if (
            program.tolerance > 0
            and superstep >= 2
            and aggregated.get("delta", np.inf) < program.tolerance
        ):
            # Previous iteration converged: values settle, everyone halts.
            self.pending = False
            self.halted = True
            self.work = _StepWork(
                computed, messages_in, zeros, np.zeros((W, W), dtype=np.int64)
            )
            return
        if superstep > 0:
            contrib = self.values[self.g_src] / self.deg[self.g_src]
            incoming = self.mailboxes(self.combine(contrib))
            dangling = aggregated.get("dangling", 0.0)
            new_values = (1.0 - program.damping) / n + program.damping * (
                incoming + dangling / n
            )
            delta = _fold_add(np.abs(new_values - self.values)[self.ord_all])
            self.values = new_values
            self.step_aggregations.append(("delta", delta))
        if superstep < program.iterations:
            messages_sent = self.static_messages_sent
            wire = self.static_wire
            self.pending = self.m > 0
            self.halted = False
            if len(self.ord_deg0):
                self.step_aggregations.append(
                    ("dangling", _fold_add(self.values[self.ord_deg0]))
                )
        else:
            messages_sent = zeros
            wire = np.zeros((W, W), dtype=np.int64)
            self.pending = False
            self.halted = True
        self.work = _StepWork(computed, messages_in, messages_sent, wire)


class _CdlpKernel(_KernelBase):
    """Synchronous label propagation (:class:`CdlpProgram`), no combiner."""

    def __init__(self, graph, program, num_workers, owner):
        super().__init__(graph, program, num_workers, owner)
        n, W = self.n, self.W
        e_src = graph.csr().sources()
        e_dst = self.indices
        in_csr = graph.in_csr()
        self.rev_dst = in_csr.sources()
        self.rev_src = in_csr.indices
        # Without a combiner every raw message crosses the wire.
        self.static_messages_in = np.bincount(
            owner[e_dst], minlength=W
        )
        self.static_messages_sent = np.bincount(
            owner, weights=self.deg, minlength=W
        ).astype(np.int64)
        self.static_wire = np.bincount(
            owner[e_src] * W + owner[e_dst], minlength=W * W
        ).reshape(W, W)
        self.values = np.arange(n, dtype=np.int64)

    def _propagate(self) -> None:
        """One round of mode relabeling: per recipient, the most frequent
        incoming label, ties broken toward the smallest label."""
        n = np.int64(self.n)
        _, key = stable_key_sort(self.rev_dst * n + self.values[self.rev_src],
                                 self.n * self.n)
        run_starts = _group_starts(key)
        run_dst, run_lab = np.divmod(key[run_starts], n)
        run_cnt = _group_sizes(run_starts, len(key))
        dst_starts = _group_starts(run_dst)
        best = np.maximum.reduceat(run_cnt, dst_starts)
        per_dst = _group_sizes(dst_starts, len(run_dst))
        winner = run_cnt == np.repeat(best, per_dst)
        candidates = np.where(winner, run_lab, self.n)
        self.values[run_dst[dst_starts]] = np.minimum.reduceat(
            candidates, dst_starts
        )

    def advance(self, superstep: int, aggregated: Dict[str, Any]) -> None:
        self.step = superstep
        W = self.W
        zeros = np.zeros(W, dtype=np.int64)
        computed = self.part_sizes
        messages_in = self.static_messages_in if superstep > 0 else zeros
        if superstep > 0 and self.m > 0:
            self._propagate()
        if superstep < self.program.iterations:
            messages_sent = self.static_messages_sent
            wire = self.static_wire
            self.pending = self.m > 0
            self.halted = False
        else:
            messages_sent = zeros
            wire = np.zeros((W, W), dtype=np.int64)
            self.pending = False
            self.halted = True
        self.work = _StepWork(computed, messages_in, messages_sent, wire)



# -- dispatch --------------------------------------------------------------


def pregel_kernel_class(
    program: VertexProgram,
) -> Optional[Type[_KernelBase]]:
    """The vectorized kernel for ``program``, or None to run scalar.

    Dispatch is deliberately conservative: the exact built-in program
    class with its default combiner (and for SSSP the default weight
    function).  Subclasses, custom programs and combiner-disabled
    variants of the combining programs keep the scalar path, whose
    semantics they can override.
    """
    t = type(program)
    if t is BfsProgram and program.combiner is BfsProgram.combiner:
        return _BfsKernel
    if t is WccProgram and program.combiner is WccProgram.combiner:
        return _WccKernel
    if (
        t is SsspProgram
        and program.combiner is SsspProgram.combiner
        and program.weight is default_weight
    ):
        return _SsspKernel
    if t is PageRankProgram and program.combiner is PageRankProgram.combiner:
        return _PageRankKernel
    if t is CdlpProgram and program.combiner is None:
        return _CdlpKernel
    return None


# -- worker facades --------------------------------------------------------


class VectorizedWorkerSet:
    """All workers of one job, backed by a single shared kernel.

    The engine drives one :class:`VectorizedWorker` per worker exactly
    like a scalar :class:`~repro.platforms.pregel.worker.WorkerState`;
    the first ``compute_superstep`` call of a superstep advances the
    kernel once and contributes its aggregator totals, and every worker
    reads its own slice of the per-worker work counts.
    """

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        num_workers: int,
        node_names: Sequence[str],
        owner: np.ndarray,
    ):
        kernel_class = pregel_kernel_class(program)
        if kernel_class is None:
            raise ValueError(
                f"no vectorized kernel for {type(program).__name__}"
            )
        self.program = program
        self.kernel = kernel_class(graph, program, num_workers, owner)
        self.owner = owner
        order = stable_key_order(owner, num_workers)
        bounds = np.concatenate(
            ([0], np.cumsum(self.kernel.part_sizes))
        ).tolist()
        edge_bytes = np.bincount(
            owner, weights=self.kernel.deg, minlength=num_workers
        ).astype(np.int64)
        self._partition_bytes = (
            48 * self.kernel.part_sizes + 16 * edge_bytes
        ).tolist()
        self._next_superstep = 0
        self._next_aggregated: Dict[str, Any] = {}
        self.workers = [
            VectorizedWorker(
                self, wid, node_names[wid], order[bounds[wid]:bounds[wid + 1]]
            )
            for wid in range(num_workers)
        ]

    def begin(self, superstep: int, aggregated: Dict[str, Any]) -> None:
        self._next_superstep = superstep
        self._next_aggregated = aggregated

    def output(self) -> VertexValues:
        """The whole job's per-vertex output (every worker's slice)."""
        return VertexValues(self.kernel.values)

    def compute(
        self, worker_id: int, aggregators: AggregatorRegistry
    ) -> SuperstepWork:
        kernel = self.kernel
        if kernel.step != self._next_superstep:
            kernel.advance(self._next_superstep, self._next_aggregated)
            for name, value in kernel.step_aggregations:
                aggregators.contribute(name, value)
        return kernel.work.superstep_work(worker_id)


class VectorizedWorker:
    """Duck-typed stand-in for one scalar ``WorkerState``."""

    def __init__(
        self,
        worker_set: VectorizedWorkerSet,
        worker_id: int,
        node_name: str,
        vertex_ids: np.ndarray,
    ):
        self.worker_set = worker_set
        self.worker_id = worker_id
        self.node_name = node_name
        self._vertex_ids = vertex_ids
        # The engine hands this to an OutgoingStore that stays empty.
        self.owner_of = worker_set.owner
        self.program = worker_set.program
        self.incoming = IncomingStore()

    def load_partition(self) -> None:
        """Vertex values live in the kernel; nothing to initialize."""

    def partition_bytes(self) -> int:
        return self.worker_set._partition_bytes[self.worker_id]

    def begin_superstep(self, superstep: int, aggregated: Dict[str, Any]) -> None:
        self.worker_set.begin(superstep, aggregated)

    def compute_superstep(
        self,
        outgoing: OutgoingStore,
        aggregators: AggregatorRegistry,
    ) -> SuperstepWork:
        # Messages are accounted by kernel counter arithmetic; the
        # engine-provided outgoing store stays empty and its flush
        # delivers nothing.
        return self.worker_set.compute(self.worker_id, aggregators)

    def has_pending_messages(self) -> bool:
        return self.worker_set.kernel.pending

    def all_halted(self) -> bool:
        return self.worker_set.kernel.halted

    def output_text_bytes(self) -> int:
        """Size of the ``"<vertex> <value>"`` lines this worker writes."""
        ids = self._vertex_ids
        values = self.worker_set.kernel.values[ids]
        return int_text_size(ids) + text_size(values) + 2 * len(ids)
