"""Synchronous GAS execution over a vertex-cut placement.

The engine state mirrors PowerGraph's: each rank holds the edges the
vertex-cut assigned to it (indexed by destination for gathers and by
source for scatters); vertices incident to edges on several ranks are
replicated, and every value change is synchronized to all replicas at the
iteration barrier (counted, and charged by the cost model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.errors import PlatformError
from repro.graph.graph import Graph
from repro.graph.partition.vertexcut import VertexCut
from repro.platforms.gas.api import GasContext, GasProgram
from repro.platforms.vecops import output_text_bytes


@dataclass
class IterationWork:
    """Per-rank work counts of one GAS iteration (cost-model input)."""

    gather_edges: List[int]
    apply_vertices: List[int]
    scatter_edges: List[int]
    replica_syncs: List[int]
    active: int
    changed: int


@dataclass
class RankState:
    """Edge structures one rank holds after graph finalization."""

    rank: int
    in_edges: Dict[int, List[int]] = field(default_factory=dict)
    out_edges: Dict[int, List[int]] = field(default_factory=dict)
    edge_count: int = 0


class SyncGasEngine:
    """Runs a :class:`GasProgram` to completion over a vertex cut."""

    def __init__(self, graph: Graph, cut: VertexCut, program: GasProgram):
        if cut.parts <= 0:
            raise PlatformError(f"vertex cut has no partitions: {cut.parts}")
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
        self.active: Set[int] = set(program.initial_active(graph))
        self.ctx = GasContext(graph.num_vertices)
        self.iteration = 0
        self.finished = False

    def master_of(self, v: int) -> int:
        """Master rank of a vertex (isolated vertices hash to a rank)."""
        return self.cut.masters.get(v, v % self.num_ranks)

    def replica_count(self, v: int) -> int:
        """Number of ranks holding a replica of ``v`` (min 1)."""
        return max(1, len(self.cut.replicas.get(v, ())))

    def _gather_neighbors(self, state: RankState, v: int) -> List[int]:
        direction = self.program.gather_direction
        if direction == "none":
            return []
        neighbors: List[int] = []
        if direction in ("in", "both"):
            neighbors.extend(state.in_edges.get(v, ()))
        if direction in ("out", "both"):
            neighbors.extend(state.out_edges.get(v, ()))
        return neighbors

    def _scatter_neighbors(self, state: RankState, v: int) -> List[int]:
        direction = self.program.scatter_direction
        if direction == "none":
            return []
        neighbors: List[int] = []
        if direction in ("out", "both"):
            neighbors.extend(state.out_edges.get(v, ()))
        if direction in ("in", "both"):
            neighbors.extend(state.in_edges.get(v, ()))
        return neighbors

    def step(self) -> IterationWork:
        """Execute one synchronous GAS iteration and return its work."""
        if self.finished:
            raise PlatformError("engine already finished")
        program = self.program
        self.ctx.iteration = self.iteration
        self.ctx.globals = program.pre_iteration(self.values, self.graph)
        snapshot = dict(self.values) if program.wants_post_iteration else None

        active = self.active
        gather_edges = [0] * self.num_ranks
        apply_vertices = [0] * self.num_ranks
        scatter_edges = [0] * self.num_ranks
        replica_syncs = [0] * self.num_ranks

        # Gather minor-step: per-rank partial accumulators.
        totals: Dict[int, Any] = {}
        has_total: Set[int] = set()
        for state in self.ranks:
            for v in active:
                neighbors = self._gather_neighbors(state, v)
                if not neighbors:
                    continue
                gather_edges[state.rank] += len(neighbors)
                partial: Optional[Any] = None
                for u in neighbors:
                    contribution = program.gather(u, v, self.values[u], self.graph)
                    partial = (
                        contribution if partial is None
                        else program.merge(partial, contribution)
                    )
                if v in has_total:
                    totals[v] = program.merge(totals[v], partial)
                    # Cross-rank partial reduction costs one sync.
                    replica_syncs[self.master_of(v)] += 1
                else:
                    totals[v] = partial
                    has_total.add(v)

        # Apply minor-step on each vertex's master rank.
        changed: Set[int] = set()
        first_iteration = self.iteration == 0
        for v in active:
            master = self.master_of(v)
            apply_vertices[master] += 1
            old = self.values[v]
            new = program.apply(v, old, totals.get(v), self.ctx)
            self.values[v] = new
            value_changed = program.scatter_activates(v, old, new)
            if value_changed or (first_iteration and not program.needs_all_active):
                changed.add(v)
                # Broadcast the new value to every replica.
                replica_syncs[master] += self.replica_count(v) - 1

        # Scatter minor-step: changed vertices signal their neighbors.
        next_active: Set[int] = set()
        for state in self.ranks:
            for v in changed:
                neighbors = self._scatter_neighbors(state, v)
                if not neighbors:
                    continue
                scatter_edges[state.rank] += len(neighbors)
                next_active.update(neighbors)

        work = IterationWork(
            gather_edges=gather_edges,
            apply_vertices=apply_vertices,
            scatter_edges=scatter_edges,
            replica_syncs=replica_syncs,
            active=len(active),
            changed=len(changed),
        )
        self.iteration += 1
        if program.needs_all_active:
            self.active = set(self.graph.vertices())
        else:
            self.active = next_active
        limit_hit = (
            program.max_iterations is not None
            and self.iteration >= program.max_iterations
        )
        converged = snapshot is not None and program.post_iteration(
            snapshot, self.values, self.iteration - 1
        )
        if (
            limit_hit
            or converged
            or not (self.active and (changed or program.needs_all_active))
        ):
            self.finished = True
        return work

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the engine's mutable state for crash recovery.

        The snapshot is self-contained: restoring it and re-stepping
        replays the exact same iterations (the engine is deterministic),
        which is what keeps fault archives byte-identical.
        """
        return {
            "values": dict(self.values),
            "active": set(self.active),
            "iteration": self.iteration,
            "finished": self.finished,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Roll the engine back to a :meth:`checkpoint` snapshot."""
        try:
            self.values = dict(snapshot["values"])
            self.active = set(snapshot["active"])
            self.iteration = snapshot["iteration"]
            self.finished = snapshot["finished"]
        except (KeyError, TypeError) as exc:
            raise PlatformError(f"bad engine checkpoint: {exc}") from None

    def run(self) -> List[IterationWork]:
        """Step until quiescence; returns per-iteration work records."""
        history: List[IterationWork] = []
        while not self.finished:
            history.append(self.step())
        return history

    def output(self) -> Dict[int, Any]:
        """Final per-vertex output."""
        return {
            v: self.program.output_value(v, self.values[v])
            for v in self.graph.vertices()
        }

    def output_text_bytes(self) -> int:
        """Size of the ``"<vertex> <value>"`` lines the job writes."""
        return output_text_bytes(self.output())
