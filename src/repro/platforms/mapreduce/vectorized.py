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
  per-message bookkeeping.  BFS keeps them as running totals: a vertex
  re-emits the same level every round once reached, so each round adds
  only the newly reached vertices' out-edges, and only those edges can
  reach a new vertex;
* bit-identical states and convergence decisions.  BFS and WCC reduce
  with ``min`` (order-insensitive, ``np.minimum.at`` is safe); PageRank
  sums each mailbox as a *sequential left fold* in (sender worker,
  sender vertex) order, which the kernel reproduces with
  a :class:`repro.platforms.vecops.FoldPlan` over a
  destination-grouped, sender-ordered edge permutation;
* identical record byte accounting: ``Record.encoded_size`` is
  ``12 + len(str(state))``, counted off the state arrays by
  :func:`repro.graph.edgelist.text_lengths` (decimal digits of integer
  states, the shortest round-trip repr of float states).

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
from repro.graph.edgelist import text_lengths
from repro.graph.graph import Graph
from repro.platforms.mapreduce.algorithms import (
    BfsMapReduce,
    PageRankMapReduce,
    WccMapReduce,
)
from repro.platforms.mapreduce.api import MapReduceRound, Record
from repro.platforms.vecops import (
    FoldPlan,
    expand_positions,
    fold_add,
    stable_key_order,
)

#: Sentinel larger than any WCC label.
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
        self.owner_of = np.asarray(owner_of).tolist()
        self.num_workers = num_workers
        self.states: Dict[int, Any] = {
            v: driver.initial_state(v, graph) for v in graph.vertices()
        }
        self.partitions: List[List[int]] = [[] for _ in range(num_workers)]
        for v in graph.vertices():
            self.partitions[self.owner_of[v]].append(v)

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
        self.states = self._initial_states()
        #: Per-worker record bytes of ``_bytes_of`` (the last states
        #: measured): the final offload re-reads the last round's.
        self._bytes_of: Optional[np.ndarray] = None
        self._bytes = np.zeros(num_workers, dtype=np.int64)

    # -- per-algorithm hooks ----------------------------------------------

    def _initial_states(self) -> np.ndarray:
        raise NotImplementedError

    def run_round(self, round_index: int) -> RoundStats:
        raise NotImplementedError

    # -- shared accounting -------------------------------------------------

    def _per_worker(self, owners: np.ndarray,
                    weights: Optional[np.ndarray] = None) -> List[int]:
        counts = np.bincount(owners, weights=weights, minlength=self.W)
        return [int(c) for c in counts]

    def _record_bytes(self, states: np.ndarray) -> np.ndarray:
        """Per-worker materialized bytes: ``sum(12 + len(str(state)))``."""
        if states is not self._bytes_of:
            self._bytes = np.bincount(
                self.owner, weights=12 + text_lengths(states),
                minlength=self.W,
            ).astype(np.int64)
            self._bytes_of = states
        return self._bytes

    def partition_size(self, wid: int) -> int:
        return int(self.part_sizes[wid])

    def initial_state_bytes(self, wid: int) -> int:
        return int(self._record_bytes(self.states)[wid])

    def final_state_bytes(self) -> int:
        return int(self._record_bytes(self.states).sum())

    def output(self) -> Dict[int, Any]:
        # The built-in drivers output their final state as it is.
        return dict(enumerate(self.states.tolist()))


class _BfsRounds(_KernelRounds):
    """BFS: every reached vertex re-emits its level every round.

    A vertex first reached in round ``r`` is ``r`` hops from the source
    and keeps level ``r``, so its emissions repeat unchanged in every
    later round and can only reach an unreached vertex in round
    ``r + 1``.  Each round therefore walks only the out-edges of last
    round's newly reached vertices (at first, the source), which all
    hold the same level.  The counters still charge the full re-emission
    the MapReduce cost model pays: a running (sender worker, receiver
    worker) count grows by those same edges.
    """

    def __init__(self, driver, graph, owner_of, num_workers):
        super().__init__(driver, graph, owner_of, num_workers)
        self._routes = np.zeros((self.W, self.W), dtype=np.int64)
        self._frontier = np.flatnonzero(self.states != UNREACHED)

    def _initial_states(self) -> np.ndarray:
        states = np.full(self.n, UNREACHED, dtype=np.int64)
        states[self.driver.source] = 0
        return states

    def run_round(self, round_index: int) -> RoundStats:
        states, W, frontier = self.states, self.W, self._frontier
        pos, _, _ = expand_positions(self.indptr, self.deg, frontier)
        dst = self.indices[pos]
        src_owner = np.repeat(self.owner[frontier], self.deg[frontier])
        self._routes += np.bincount(
            src_owner * W + self.owner[dst], minlength=W * W
        ).reshape(W, W)

        hit = np.zeros(self.n, dtype=bool)
        hit[dst] = True
        reached = np.flatnonzero(hit & (states == UNREACHED))
        state_bytes = self._record_bytes(states)
        if len(reached):
            new = states.copy()
            new[reached] = states[frontier[0]] + 1
            grown = text_lengths(new[reached]) - len(str(UNREACHED))
            state_bytes = state_bytes + np.bincount(
                self.owner[reached], weights=grown, minlength=W
            ).astype(np.int64)
            self.states = self._bytes_of = new
            self._bytes = state_bytes
        self._frontier = reached
        emissions = self._routes.sum(axis=1)
        return RoundStats(
            emissions.tolist(),
            (emissions - np.diagonal(self._routes)).tolist(),
            self._routes.sum(axis=0).tolist(),
            state_bytes.tolist(),
            not len(reached))


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
        W = self.W
        # Per-edge arrays in source-major (CSR) order.
        e_src = graph.csr().sources()
        e_src_owner = self.owner[e_src]
        e_dst_owner = self.owner[self.indices]
        order = stable_key_order(self.indices * W + e_src_owner, self.n * W)
        self.pr_src = e_src[order]
        #: Mailbox folds: one row per destination, as in the in-CSR.
        self.mailboxes = FoldPlan.of_csr(graph.in_csr().indptr)
        self.dangling_idx = np.flatnonzero(self.deg == 0)
        self.safe_deg = np.where(self.deg > 0, self.deg, 1)
        self._emissions = self._per_worker(self.owner, weights=self.deg)
        self._remote = self._per_worker(
            e_src_owner[e_src_owner != e_dst_owner])
        self._messages = self._per_worker(e_dst_owner)

    def _initial_states(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n if self.n else 0.0,
                       dtype=np.float64)

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
        incoming = self.mailboxes(shares[self.pr_src])
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
