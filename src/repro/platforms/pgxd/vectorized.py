"""Vectorized kernels for the PGX.D push-pull engine's pull phases.

Two built-in programs spend their time pulling over in-edges, and both
are replayed here off the graph's shared in-CSR
(:meth:`repro.graph.graph.Graph.in_csr`: rows keyed by destination,
sources ascending — the order ``graph.in_neighbors`` iterates):

- **BFS** (:class:`BfsPushPullKernel`).  In a pull phase every unreached
  vertex scans its sorted in-neighbors until the first frontier member
  (Beamer's early break); the position of that first hit gives both the
  edges examined and whether the vertex joins the next frontier.  Every
  phase counter is integer arithmetic (``np.bincount`` sums), so no
  float accumulation order is in play.
- **PageRank** (:class:`PageRankPushPullKernel`).  Every phase pulls
  every in-edge: ``incoming[u]`` is the sequential left fold of
  ``ranks[w] / out_degree(w)`` over ``u``'s in-row and the dangling mass
  is a left fold in vertex order — both replayed with the exact folds
  of :mod:`repro.platforms.vecops` (never ``np.sum`` / ``reduceat``,
  which reduce pairwise) — and the per-owner edge counts and remote
  updates are the same in every phase, so they are counted once.

What stays scalar, and why:

- BFS *push* phases.  A push phase iterates the frontier ``set`` and
  attributes each ``remote`` update to whichever frontier vertex the
  set yields first — that tie-break is set-iteration order, which the
  BFS kernel preserves by constructing every frontier set with the same
  insertion sequence as the reference (ascending for pull results,
  discovery order for push results).  Push frontiers are sparse by
  construction (the ALPHA/BETA switch), so the scalar loop is cheap.
- WCC and SSSP.  Both push with *in-place* updates inside a phase: a
  label or distance lowered early in the sorted frontier sweep is read
  by later vertices of the same sweep, and ``updates`` counts every
  repeated lowering of one vertex.  A data-parallel step sees only the
  phase's starting state, so it can match neither the values mid-phase
  nor the counters; they keep the reference path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

import numpy as np

from repro.graph.algorithms.bfs import UNREACHED
from repro.graph.graph import Graph
from repro.platforms.pgxd.algorithms import (
    ALPHA,
    BETA,
    BfsPushPull,
    PageRankPushPull,
    PhaseResult,
    PushPullProgram,
)
from repro.platforms.vecops import FoldPlan, fold_add


class BfsPushPullKernel(BfsPushPull):
    """Direction-optimizing BFS with vectorized pull phases."""

    def __init__(self, graph: Graph, owner_of: Sequence[int], source: int):
        PushPullProgram.__init__(self, graph, owner_of)
        n = graph.num_vertices
        self.deg = graph.csr().out_degrees()
        self.owner = np.asarray(owner_of, dtype=np.int64)
        in_csr = graph.in_csr()
        self.in_indptr = in_csr.indptr
        self.in_indices = in_csr.indices
        self.levels_arr = np.full(n, UNREACHED, dtype=np.int64)
        self.levels_arr[source] = 0
        self.frontier: Set[int] = {source}
        self.unexplored_edges = graph.num_edges

    @classmethod
    def from_program(cls, program: BfsPushPull) -> "BfsPushPullKernel":
        """Rebuild a freshly constructed scalar program as a kernel."""
        source = next(iter(program.frontier))
        return cls(program.graph, program.owner_of, source)

    def _frontier_out_edges(self) -> int:
        if not self.frontier:
            return 0
        idx = np.fromiter(self.frontier, dtype=np.int64,
                          count=len(self.frontier))
        return int(self.deg[idx].sum())

    def run_phase(self, phase_index: int) -> PhaseResult:
        frontier_edges = self._frontier_out_edges()
        if frontier_edges > self.unexplored_edges / ALPHA:
            direction = "pull"
        elif len(self.frontier) < self.graph.num_vertices / BETA:
            direction = "push"
        else:
            direction = "pull"
        next_level = phase_index + 1
        if direction == "push":
            edges, updates, remote, next_frontier = self._push(next_level)
        else:
            edges, updates, next_frontier = self._pull(next_level)
            remote = 0
        self.unexplored_edges = max(self.unexplored_edges - frontier_edges, 0)
        self.frontier = next_frontier
        return PhaseResult(direction, edges, updates, remote,
                           converged=not next_frontier)

    def _push(
        self, next_level: int
    ) -> Tuple[List[int], int, int, Set[int]]:
        edges = [0] * self.num_owners
        updates = 0
        remote = 0
        next_frontier: Set[int] = set()
        levels = self.levels_arr
        owner_of = self.owner_of
        for v in self.frontier:
            owner_v = owner_of[v]
            for u in self.graph.out_neighbors(v):
                edges[owner_v] += 1
                if levels[u] == UNREACHED:
                    levels[u] = next_level
                    next_frontier.add(u)
                    updates += 1
                    if owner_of[u] != owner_v:
                        remote += 1
        return edges, updates, remote, next_frontier

    def _pull(self, next_level: int) -> Tuple[List[int], int, Set[int]]:
        n = self.graph.num_vertices
        unreached = np.flatnonzero(self.levels_arr == np.int64(UNREACHED))
        if not len(unreached):
            return [0] * self.num_owners, 0, set()
        starts = self.in_indptr[unreached]
        ends = self.in_indptr[unreached + 1]
        examined = ends - starts
        mask = np.zeros(n, dtype=bool)
        if self.frontier:
            idx = np.fromiter(self.frontier, dtype=np.int64,
                              count=len(self.frontier))
            mask[idx] = True
        hits = np.flatnonzero(mask[self.in_indices])
        found = np.zeros(len(unreached), dtype=bool)
        if len(hits):
            pos = np.searchsorted(hits, starts)
            hit_idx = hits[np.minimum(pos, len(hits) - 1)]
            found = (pos < len(hits)) & (hit_idx < ends)
            examined = np.where(found, hit_idx - starts + 1, examined)
        counts = np.bincount(self.owner[unreached], weights=examined,
                             minlength=self.num_owners)
        newly = unreached[found]
        self.levels_arr[newly] = next_level
        return ([int(c) for c in counts], int(found.sum()),
                set(newly.tolist()))

    def output(self) -> Dict[int, int]:
        return dict(enumerate(self.levels_arr.tolist()))


class PageRankPushPullKernel(PageRankPushPull):
    """Pull-based PageRank with every phase as array folds."""

    def __init__(self, graph: Graph, owner_of: Sequence[int],
                 iterations: int = 20, damping: float = 0.85):
        PushPullProgram.__init__(self, graph, owner_of)
        self.iterations = iterations
        self.damping = damping
        n = graph.num_vertices
        deg = graph.csr().out_degrees()
        in_csr = graph.in_csr()
        self.in_folds = FoldPlan.of_csr(in_csr.indptr)
        self.in_src = in_csr.indices
        self.in_src_deg = deg[self.in_src]
        self.dangling_idx = np.flatnonzero(deg == 0)
        self.ranks_arr = np.full(n, 1.0 / n if n else 0.0, dtype=np.float64)
        # Every phase pulls every in-edge, so the work counters are the
        # same in each: in-degree per owner, and in-edges whose source
        # lives on another runtime.
        owner = np.asarray(owner_of, dtype=np.int64)
        in_deg = in_csr.out_degrees()
        self._edges = [int(c) for c in np.bincount(
            owner, weights=in_deg, minlength=self.num_owners)]
        self._remote = int(np.count_nonzero(
            owner[self.in_src] != np.repeat(owner, in_deg)))

    @classmethod
    def from_program(
        cls, program: PageRankPushPull
    ) -> "PageRankPushPullKernel":
        """Rebuild a freshly constructed scalar program as a kernel."""
        return cls(program.graph, program.owner_of,
                   iterations=program.iterations, damping=program.damping)

    def run_phase(self, phase_index: int) -> PhaseResult:
        n = self.graph.num_vertices
        ranks = self.ranks_arr
        if n:
            dangling = fold_add(ranks[self.dangling_idx])
            incoming = self.in_folds(ranks[self.in_src] / self.in_src_deg)
            self.ranks_arr = (1.0 - self.damping) / n + self.damping * (
                incoming + dangling / n
            )
        return PhaseResult("pull", list(self._edges), n, self._remote,
                           converged=phase_index + 1 >= self.iterations)

    def output(self) -> Dict[int, float]:
        return dict(enumerate(self.ranks_arr.tolist()))


def pushpull_kernel_class(
    program: PushPullProgram,
) -> Optional[Type[PushPullProgram]]:
    """The kernel for ``program``, or None when it must stay scalar.

    Dispatch is by exact type: subclasses and custom programs keep the
    reference path.  Kernel classes are built from the freshly
    constructed scalar program by their ``from_program``.
    """
    if type(program) is BfsPushPull:
        return BfsPushPullKernel
    if type(program) is PageRankPushPull:
        return PageRankPushPullKernel
    return None
