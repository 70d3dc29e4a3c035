"""Asynchronous GAS execution (PowerGraph's second engine mode).

Not part of the product: ``PowerGraphPlatform`` runs the synchronous
engine only.  This engine lives beside the engine ablation bench that
compares it with the synchronous one
(``benchmarks/test_bench_ablation_engines.py``), and
``tests/platforms/test_gas_async.py`` checks it against references.

PowerGraph ships two engines: the synchronous one
(:mod:`repro.platforms.gas.sync_engine`, used by the paper's experiments)
and an *asynchronous* engine where vertex updates apply immediately,
without iteration barriers — the mode the PowerGraph paper recommends
for algorithms with sparse, convergence-driven activity (SSSP, WCC).

This implementation is deterministic: a FIFO worklist with an in-queue
flag (each vertex appears at most once), which matches PowerGraph's
fair scheduler closely enough for work-count comparisons.  Only
convergence-driven programs are supported; fixed-round programs
(``needs_all_active``) belong to the synchronous engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.errors import PlatformError
from repro.graph.graph import Graph
from repro.graph.partition.vertexcut import VertexCut
from repro.platforms.gas.api import GasContext, GasProgram
from repro.platforms.gas.sync_engine import RankState


@dataclass
class AsyncStats:
    """Work counters of one asynchronous execution.

    Attributes:
        applies: vertex-apply operations executed.
        gather_edges: edges scanned by gathers.
        scatter_edges: edges scanned by scatters.
        activations: vertices enqueued (including re-activations).
        locks: distributed lock acquisitions (one per apply on a
            replicated vertex — the async engine's hallmark cost).
    """

    applies: int = 0
    gather_edges: int = 0
    scatter_edges: int = 0
    activations: int = 0
    locks: int = 0


class AsyncGasEngine:
    """Deterministic asynchronous GAS execution over a vertex cut."""

    def __init__(self, graph: Graph, cut: VertexCut, program: GasProgram):
        if program.needs_all_active:
            raise PlatformError(
                "the asynchronous engine supports convergence-driven "
                "programs only; fixed-round programs need the "
                "synchronous engine"
            )
        self.graph = graph
        self.cut = cut
        self.program = program
        self.num_ranks = cut.parts
        self.ranks = [RankState(r) for r in range(self.num_ranks)]
        for (src, dst), part in zip(cut.edges, cut.edge_assignment):
            state = self.ranks[part]
            state.in_edges.setdefault(dst, []).append(src)
            state.out_edges.setdefault(src, []).append(dst)
            state.edge_count += 1
        self.values: Dict[int, Any] = {
            v: program.initial_value(v, graph) for v in graph.vertices()
        }
        self.stats = AsyncStats()
        self._ctx = GasContext(graph.num_vertices)
        self._queue: deque = deque()
        self._queued: Set[int] = set()
        for v in program.initial_active(graph):
            self._enqueue(v)
        self._first_wave: Set[int] = set(self._queue)

    def _enqueue(self, v: int) -> None:
        if v not in self._queued:
            self._queued.add(v)
            self._queue.append(v)
            self.stats.activations += 1

    def _gather_neighbors(self, v: int) -> List[int]:
        direction = self.program.gather_direction
        neighbors: List[int] = []
        for state in self.ranks:
            if direction in ("in", "both"):
                neighbors.extend(state.in_edges.get(v, ()))
            if direction in ("out", "both"):
                neighbors.extend(state.out_edges.get(v, ()))
        return neighbors

    def _scatter_neighbors(self, v: int) -> List[int]:
        direction = self.program.scatter_direction
        neighbors: List[int] = []
        for state in self.ranks:
            if direction in ("out", "both"):
                neighbors.extend(state.out_edges.get(v, ()))
            if direction in ("in", "both"):
                neighbors.extend(state.in_edges.get(v, ()))
        return neighbors

    def run(self, max_applies: int = 50_000_000) -> AsyncStats:
        """Drain the worklist to quiescence; returns the work counters."""
        program = self.program
        while self._queue:
            v = self._queue.popleft()
            self._queued.discard(v)
            if self.stats.applies >= max_applies:
                raise PlatformError(
                    f"async engine exceeded {max_applies} applies "
                    f"without converging"
                )
            neighbors = self._gather_neighbors(v)
            self.stats.gather_edges += len(neighbors)
            total: Optional[Any] = None
            for u in neighbors:
                contribution = program.gather(u, v, self.values[u],
                                              self.graph)
                total = (contribution if total is None
                         else program.merge(total, contribution))
            old = self.values[v]
            new = program.apply(v, old, total, self._ctx)
            self.values[v] = new
            self.stats.applies += 1
            self.stats.locks += max(1, len(self.cut.replicas.get(v, (1,))))
            changed = program.scatter_activates(v, old, new)
            if changed or v in self._first_wave:
                self._first_wave.discard(v)
                scatter_targets = self._scatter_neighbors(v)
                self.stats.scatter_edges += len(scatter_targets)
                for u in scatter_targets:
                    self._enqueue(u)
        return self.stats

    def output(self) -> Dict[int, Any]:
        """Final per-vertex output."""
        return {
            v: self.program.output_value(v, self.values[v])
            for v in self.graph.vertices()
        }
