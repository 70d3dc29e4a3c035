"""Vectorized execution backend for the MapReduce engine.

The scalar engine materializes every emission as a Python list entry in
a per-destination mailbox dict — faithful to the programming model, but
the dominant cost of a dg1000-scale run.  For the built-in drivers the
per-round work is data-parallel, so this module replays each round as
numpy kernels over the graph's CSR arrays while reproducing the scalar
path *exactly*:

* identical per-worker work counts (``emissions``, ``remote_emissions``,
  ``message_count``, materialized ``state_bytes``), derived by
  ``np.bincount`` arithmetic over owner/destination arrays instead of
  per-message bookkeeping;
* bit-identical states and convergence decisions.  BFS and WCC reduce
  with ``min`` (order-insensitive, ``np.minimum.at`` is safe); PageRank
  sums each mailbox as a *sequential left fold* in (sender worker,
  sender vertex) order, which the kernel reproduces with
  :func:`repro.platforms.vecops.csr_rows_fold_add` over a
  destination-grouped, sender-ordered edge permutation;
* identical record byte accounting: ``Record.encoded_size`` is
  ``12 + len(str(state))``, replayed with vectorized digit counting for
  integer states and per-element ``str`` for float states.

Because counts and values match exactly, the cost model sees identical
inputs and the simulated timelines, logs and archives are byte-identical
to a scalar run.  Custom drivers (subclasses included) have no kernel;
the platform falls back to the scalar path for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Type

import numpy as np

from repro.graph.algorithms.bfs import UNREACHED
from repro.graph.edgelist import int_text_lengths
from repro.graph.graph import Graph
from repro.platforms.mapreduce.algorithms import (
    BfsMapReduce,
    PageRankMapReduce,
    WccMapReduce,
)
from repro.platforms.mapreduce.api import MapReduceRound, Record
from repro.platforms.vecops import (
    csr_rows_fold_add,
    fold_add,
    stable_key_order,
)

#: Sentinel larger than any BFS level or WCC label.
_BIG = np.int64(2 ** 62)


@dataclass
class RoundStats:
    """Per-worker work counts of one MapReduce round.

    Attributes:
        emissions: messages emitted by each worker's map tasks.
        remote_emissions: emissions crossing worker boundaries.
        message_counts: messages received by each worker's reducers.
        state_bytes: bytes of next-round state each worker materializes.
        converged: True when the driver may stop after this round.
    """

    emissions: List[int]
    remote_emissions: List[int]
    message_counts: List[int]
    state_bytes: List[int]
    converged: bool


class ScalarRounds:
    """The reference executor: per-record Python map/shuffle/reduce.

    This is the scalar engine's original round computation, verbatim —
    mailbox dicts keep per-destination message *lists* so that float
    reductions (PageRank) fold in exactly the order messages arrive.
    """

    path = "scalar"

    def __init__(self, driver: MapReduceRound, graph: Graph,
                 owner_of: Sequence[int], num_workers: int):
        self.driver = driver
        self.graph = graph
        self.owner_of = owner_of
        self.num_workers = num_workers
        self.states: Dict[int, Any] = {
            v: driver.initial_state(v, graph) for v in graph.vertices()
        }
        self.partitions: List[List[int]] = [[] for _ in range(num_workers)]
        for v in graph.vertices():
            self.partitions[owner_of[v]].append(v)

    def partition_size(self, wid: int) -> int:
        return len(self.partitions[wid])

    def initial_state_bytes(self, wid: int) -> int:
        states = self.states
        return sum(
            Record(v, states[v]).encoded_size() for v in self.partitions[wid]
        )

    def run_round(self, round_index: int) -> RoundStats:
        driver, graph, states = self.driver, self.graph, self.states
        num_workers = self.num_workers
        pre_round = getattr(driver, "pre_round", None)
        if pre_round is not None:
            pre_round(states, graph)

        # Map: every worker scans ALL of its records.
        outgoing: List[Dict[int, List[Any]]] = [
            {} for _ in range(num_workers)
        ]
        emissions = [0] * num_workers
        remote_emissions = [0] * num_workers
        for wid in range(num_workers):
            for v in self.partitions[wid]:
                record = Record(v, states[v])
                for dst, message in driver.map_record(record, graph):
                    target = self.owner_of[dst]
                    outgoing[target].setdefault(dst, []).append(message)
                    emissions[wid] += 1
                    if target != wid:
                        remote_emissions[wid] += 1

        # Reduce: combine each vertex's carry-over with its mailbox.
        new_states: Dict[int, Any] = {}
        message_counts = [0] * num_workers
        state_bytes = [0] * num_workers
        for wid in range(num_workers):
            mailbox = outgoing[wid]
            message_counts[wid] = sum(len(m) for m in mailbox.values())
            for v in self.partitions[wid]:
                new_states[v] = driver.reduce_vertex(
                    v, states[v], mailbox.get(v, []), graph
                )
                state_bytes[wid] += Record(v, new_states[v]).encoded_size()

        converged = driver.is_converged(states, new_states, round_index)
        self.states = new_states
        return RoundStats(emissions, remote_emissions, message_counts,
                          state_bytes, converged)

    def final_state_bytes(self) -> int:
        return sum(
            Record(v, s).encoded_size() for v, s in self.states.items()
        )

    def output(self) -> Dict[int, Any]:
        return {
            v: self.driver.output_value(v, state)
            for v, state in self.states.items()
        }


class _KernelRounds:
    """Shared state and counter arithmetic of the vectorized executors."""

    path = "vectorized"

    def __init__(self, driver: MapReduceRound, graph: Graph,
                 owner_of: Sequence[int], num_workers: int):
        self.driver = driver
        self.graph = graph
        self.W = num_workers
        self.n = graph.num_vertices
        self.owner = np.asarray(owner_of, dtype=np.int64)
        csr = graph.csr()
        self.indptr = csr.indptr
        self.indices = np.asarray(csr.indices, dtype=np.int64)
        self.deg = csr.out_degrees()
        self.part_sizes = np.bincount(self.owner, minlength=num_workers)
        #: Vertices in (worker, vertex) order — the scalar path's state
        #: insertion order, needed for ordered float folds.
        self.part_order = stable_key_order(self.owner, num_workers)
        self._init_bytes: Optional[np.ndarray] = None
        self.states = self._initial_states()

    # -- per-algorithm hooks ----------------------------------------------

    def _initial_states(self) -> np.ndarray:
        raise NotImplementedError

    def _state_str_lengths(self, states: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def run_round(self, round_index: int) -> RoundStats:
        raise NotImplementedError

    # -- shared accounting -------------------------------------------------

    def _directed_routes(self) -> None:
        """Per-edge src/owner arrays in source-major (CSR) order."""
        self.e_src = self.graph.csr().sources()
        self.e_dst = self.indices
        self.e_src_owner = self.owner[self.e_src]
        self.e_dst_owner = self.owner[self.e_dst]
        self.e_remote = self.e_src_owner != self.e_dst_owner

    def _per_worker(self, owners: np.ndarray,
                    weights: Optional[np.ndarray] = None) -> List[int]:
        counts = np.bincount(owners, weights=weights, minlength=self.W)
        return [int(c) for c in counts]

    def _record_bytes(self, states: np.ndarray) -> np.ndarray:
        """Per-worker materialized bytes: ``sum(12 + len(str(state)))``."""
        per_vertex = 12 + self._state_str_lengths(states)
        return np.bincount(
            self.owner, weights=per_vertex, minlength=self.W
        ).astype(np.int64)

    def partition_size(self, wid: int) -> int:
        return int(self.part_sizes[wid])

    def initial_state_bytes(self, wid: int) -> int:
        if self._init_bytes is None:
            self._init_bytes = self._record_bytes(self.states)
        return int(self._init_bytes[wid])

    def final_state_bytes(self) -> int:
        return int(self._record_bytes(self.states).sum())

    def output(self) -> Dict[int, Any]:
        # The built-in drivers output their final state as it is.
        return dict(enumerate(self.states.tolist()))


class _BfsRounds(_KernelRounds):
    """BFS: every reached vertex re-emits its level every round."""

    def __init__(self, driver, graph, owner_of, num_workers):
        super().__init__(driver, graph, owner_of, num_workers)
        self._directed_routes()

    def _initial_states(self) -> np.ndarray:
        states = np.full(self.n, UNREACHED, dtype=np.int64)
        states[self.driver.source] = 0
        return states

    def _state_str_lengths(self, states: np.ndarray) -> np.ndarray:
        return int_text_lengths(states)

    def run_round(self, round_index: int) -> RoundStats:
        states = self.states
        reached = states != UNREACHED
        rv = np.flatnonzero(reached)
        live = reached[self.e_src]

        emissions = self._per_worker(self.owner[rv], weights=self.deg[rv])
        remote = self._per_worker(self.e_src_owner[live & self.e_remote])
        messages = self._per_worker(self.e_dst_owner[live])

        sel = np.flatnonzero(live)
        proposal = np.full(self.n, _BIG, dtype=np.int64)
        np.minimum.at(proposal, self.e_dst[sel], states[self.e_src[sel]] + 1)
        new = np.where(
            reached,
            np.minimum(states, proposal),
            np.where(proposal != _BIG, proposal, np.int64(UNREACHED)),
        )
        converged = bool(np.array_equal(new, states))
        self.states = new
        state_bytes = [int(b) for b in self._record_bytes(new)]
        return RoundStats(emissions, remote, messages, state_bytes, converged)


class _WccRounds(_KernelRounds):
    """WCC: min-label flooding over the undirected view."""

    def __init__(self, driver, graph, owner_of, num_workers):
        super().__init__(driver, graph, owner_of, num_workers)
        undirected = graph.undirected_csr()
        self.u_src = undirected.sources()
        self.u_dst = undirected.indices
        und_deg = undirected.out_degrees()
        # Every vertex floods every neighbor every round, so all three
        # counters are round-invariant.
        self._emissions = self._per_worker(self.owner, weights=und_deg)
        u_remote = self.owner[self.u_src] != self.owner[self.u_dst]
        self._remote = self._per_worker(self.owner[self.u_src][u_remote])
        self._messages = self._per_worker(self.owner[self.u_dst])

    def _initial_states(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def _state_str_lengths(self, states: np.ndarray) -> np.ndarray:
        return int_text_lengths(states)

    def run_round(self, round_index: int) -> RoundStats:
        states = self.states
        proposal = np.full(self.n, _BIG, dtype=np.int64)
        np.minimum.at(proposal, self.u_dst, states[self.u_src])
        new = np.minimum(states, proposal)
        converged = bool(np.array_equal(new, states))
        self.states = new
        state_bytes = [int(b) for b in self._record_bytes(new)]
        return RoundStats(list(self._emissions), list(self._remote),
                          list(self._messages), state_bytes, converged)


class _PageRankRounds(_KernelRounds):
    """PageRank with dangling mass redistributed via a global counter.

    The scalar reducer left-folds each mailbox in (sender worker, sender
    vertex) arrival order; the kernel orders the CSR (sender-ascending)
    edge list stably by (destination, sender worker), so a segmented
    fold replays the exact same addition sequence per destination.
    """

    def __init__(self, driver, graph, owner_of, num_workers):
        super().__init__(driver, graph, owner_of, num_workers)
        self._directed_routes()
        W = self.W
        order = stable_key_order(self.e_dst * W + self.e_src_owner,
                                 self.n * W)
        self.pr_src = self.e_src[order]
        #: Mailbox boundaries: one row per destination, as in the in-CSR.
        self.pr_indptr = graph.in_csr().indptr
        self.dangling_idx = np.flatnonzero(self.deg == 0)
        self.safe_deg = np.where(self.deg > 0, self.deg, 1)
        self._emissions = self._per_worker(self.owner, weights=self.deg)
        self._remote = self._per_worker(self.e_src_owner[self.e_remote])
        self._messages = self._per_worker(self.e_dst_owner)

    def _initial_states(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n if self.n else 0.0,
                       dtype=np.float64)

    def _state_str_lengths(self, states: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (len(s) for s in map(str, states.tolist())),
            dtype=np.int64, count=self.n,
        )

    def run_round(self, round_index: int) -> RoundStats:
        driver, n, states = self.driver, self.n, self.states
        if n == 0:
            converged = driver.tolerance > 0
            return RoundStats([0] * self.W, [0] * self.W, [0] * self.W,
                              [0] * self.W, converged)
        # pre_round's Hadoop counter: dangling rank, folded in vertex
        # order exactly like the scalar generator expression.
        dangling = fold_add(states[self.dangling_idx])
        shares = states / self.safe_deg
        incoming = csr_rows_fold_add(shares[self.pr_src], self.pr_indptr)
        damping = driver.damping
        new = (1.0 - damping) / n + damping * (incoming + dangling / n)

        if driver.tolerance <= 0:
            converged = False
        else:
            # The scalar delta iterates the new-state dict in insertion
            # (worker, vertex) order; replay that fold order.
            delta = fold_add(np.abs(new - states)[self.part_order])
            converged = bool(delta < driver.tolerance)
        self.states = new
        state_bytes = [int(b) for b in self._record_bytes(new)]
        return RoundStats(list(self._emissions), list(self._remote),
                          list(self._messages), state_bytes, converged)


def mapreduce_kernel_class(
    driver: MapReduceRound,
) -> Optional[Type[_KernelRounds]]:
    """The vectorized executor for ``driver``, or None to run scalar.

    Dispatch is deliberately conservative: the exact built-in driver
    classes only.  Subclasses and custom drivers keep the scalar path,
    whose semantics they can override.
    """
    t = type(driver)
    if t is BfsMapReduce:
        return _BfsRounds
    if t is WccMapReduce:
        return _WccRounds
    if t is PageRankMapReduce:
        return _PageRankRounds
    return None
