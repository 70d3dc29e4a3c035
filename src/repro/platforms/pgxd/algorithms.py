"""Push-pull algorithm drivers for the PGX.D-like engine.

Each driver produces a sequence of *phases*; a phase declares its
direction (``push`` or ``pull``), really executes over the graph, and
reports the edges it traversed per vertex owner — the quantity the cost
model converts into per-runtime time.

The BFS driver implements direction-optimizing traversal [Beamer et al.,
SC'12], the technique PGX.D's push-pull model exists to express: push
while the frontier is sparse, pull while it is dense.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Type

from repro.errors import PlatformError
from repro.graph.algorithms.bfs import UNREACHED
from repro.graph.algorithms.sssp import INFINITY, default_weight
from repro.graph.graph import Graph

#: Direction-optimizing switch: pull when the frontier's out-edges exceed
#: (remaining unexplored edges / ALPHA); back to push when the frontier
#: shrinks below n / BETA vertices.  Beamer et al.'s parameters.
ALPHA = 14.0
BETA = 24.0


@dataclass
class PhaseResult:
    """Work one compute phase performed.

    Attributes:
        direction: ``"push"`` or ``"pull"``.
        edges_by_owner: edges traversed, attributed to each vertex
            owner's runtime.
        updates: vertex-value updates applied.
        remote_updates: updates crossing runtime boundaries.
        converged: True when the driver is done after this phase.
    """

    direction: str
    edges_by_owner: List[int]
    updates: int
    remote_updates: int
    converged: bool


class PushPullProgram(abc.ABC):
    """A push-pull algorithm: runs phase by phase until converged."""

    def __init__(self, graph: Graph, owner_of: Sequence[int]):
        self.graph = graph
        self.owner_of = owner_of
        self.num_owners = (max(owner_of) + 1) if len(owner_of) else 1

    @abc.abstractmethod
    def run_phase(self, phase_index: int) -> PhaseResult:
        """Execute one phase and report its work."""

    @abc.abstractmethod
    def output(self) -> Dict[int, Any]:
        """Final per-vertex results."""


class BfsPushPull(PushPullProgram):
    """Direction-optimizing BFS."""

    def __init__(self, graph: Graph, owner_of: Sequence[int], source: int):
        super().__init__(graph, owner_of)
        self.levels: Dict[int, int] = {
            v: UNREACHED for v in graph.vertices()
        }
        self.levels[source] = 0
        self.frontier: Set[int] = {source}
        self.unexplored_edges = graph.num_edges

    def _choose_direction(self) -> str:
        frontier_edges = sum(
            self.graph.out_degree(v) for v in self.frontier
        )
        if frontier_edges > self.unexplored_edges / ALPHA:
            return "pull"
        if len(self.frontier) < self.graph.num_vertices / BETA:
            return "push"
        return "pull"

    def run_phase(self, phase_index: int) -> PhaseResult:
        direction = self._choose_direction()
        next_level = phase_index + 1
        edges = [0] * self.num_owners
        updates = 0
        remote = 0
        next_frontier: Set[int] = set()
        if direction == "push":
            for v in self.frontier:
                owner_v = self.owner_of[v]
                for u in self.graph.out_neighbors(v):
                    edges[owner_v] += 1
                    if self.levels[u] == UNREACHED:
                        self.levels[u] = next_level
                        next_frontier.add(u)
                        updates += 1
                        if self.owner_of[u] != owner_v:
                            remote += 1
        else:
            for u in self.graph.vertices():
                if self.levels[u] != UNREACHED:
                    continue
                owner_u = self.owner_of[u]
                for w in self.graph.in_neighbors(u):
                    edges[owner_u] += 1
                    if w in self.frontier:
                        self.levels[u] = next_level
                        next_frontier.add(u)
                        updates += 1
                        break
        self.unexplored_edges -= sum(
            self.graph.out_degree(v) for v in self.frontier
        )
        self.unexplored_edges = max(self.unexplored_edges, 0)
        self.frontier = next_frontier
        return PhaseResult(direction, edges, updates, remote,
                           converged=not next_frontier)

    def output(self) -> Dict[int, int]:
        return dict(self.levels)


class SsspPushPull(PushPullProgram):
    """Push-based Bellman-Ford over changed-vertex frontiers."""

    def __init__(self, graph: Graph, owner_of: Sequence[int], source: int,
                 weight=default_weight):
        super().__init__(graph, owner_of)
        self.weight = weight
        self.dist: Dict[int, float] = {
            v: INFINITY for v in graph.vertices()
        }
        self.dist[source] = 0.0
        self.frontier: Set[int] = {source}

    def run_phase(self, phase_index: int) -> PhaseResult:
        edges = [0] * self.num_owners
        updates = 0
        remote = 0
        next_frontier: Set[int] = set()
        for v in sorted(self.frontier):
            owner_v = self.owner_of[v]
            for u in self.graph.out_neighbors(v):
                edges[owner_v] += 1
                candidate = self.dist[v] + self.weight(v, u)
                if candidate < self.dist[u]:
                    self.dist[u] = candidate
                    next_frontier.add(u)
                    updates += 1
                    if self.owner_of[u] != owner_v:
                        remote += 1
        self.frontier = next_frontier
        return PhaseResult("push", edges, updates, remote,
                           converged=not next_frontier)

    def output(self) -> Dict[int, float]:
        return dict(self.dist)


class WccPushPull(PushPullProgram):
    """Push-based min-label flooding over the undirected view."""

    def __init__(self, graph: Graph, owner_of: Sequence[int]):
        super().__init__(graph, owner_of)
        self.labels: Dict[int, int] = {v: v for v in graph.vertices()}
        self.frontier: Set[int] = set(graph.vertices())

    def run_phase(self, phase_index: int) -> PhaseResult:
        edges = [0] * self.num_owners
        updates = 0
        remote = 0
        next_frontier: Set[int] = set()
        for v in sorted(self.frontier):
            owner_v = self.owner_of[v]
            label = self.labels[v]
            for u in self.graph.neighbors_undirected(v):
                edges[owner_v] += 1
                if label < self.labels[u]:
                    self.labels[u] = label
                    next_frontier.add(u)
                    updates += 1
                    if self.owner_of[u] != owner_v:
                        remote += 1
        self.frontier = next_frontier
        return PhaseResult("push", edges, updates, remote,
                           converged=not next_frontier)

    def output(self) -> Dict[int, int]:
        return dict(self.labels)


def check_pagerank_params(iterations: int, damping: float) -> None:
    """Reject PageRank parameters no driver can run."""
    if iterations < 0:
        raise PlatformError(f"negative iteration count: {iterations}")
    if not (0.0 < damping < 1.0):
        raise PlatformError(f"damping must lie in (0, 1): {damping}")


class PageRankPushPull(PushPullProgram):
    """Pull-based PageRank (every iteration pulls over all in-edges)."""

    def __init__(self, graph: Graph, owner_of: Sequence[int],
                 iterations: int = 20, damping: float = 0.85):
        super().__init__(graph, owner_of)
        check_pagerank_params(iterations, damping)
        self.iterations = iterations
        self.damping = damping
        n = graph.num_vertices
        self.ranks: Dict[int, float] = {
            v: (1.0 / n if n else 0.0) for v in graph.vertices()
        }

    def run_phase(self, phase_index: int) -> PhaseResult:
        graph = self.graph
        n = graph.num_vertices
        edges = [0] * self.num_owners
        dangling = sum(
            self.ranks[v] for v in graph.vertices()
            if graph.out_degree(v) == 0
        )
        new_ranks: Dict[int, float] = {}
        remote = 0
        for u in graph.vertices():
            owner_u = self.owner_of[u]
            incoming = 0.0
            for w in graph.in_neighbors(u):
                edges[owner_u] += 1
                incoming += self.ranks[w] / graph.out_degree(w)
                if self.owner_of[w] != owner_u:
                    remote += 1
            new_ranks[u] = (1.0 - self.damping) / n + self.damping * (
                incoming + dangling / n
            )
        self.ranks = new_ranks
        return PhaseResult("pull", edges, n, remote,
                           converged=phase_index + 1 >= self.iterations)

    def output(self) -> Dict[int, float]:
        return dict(self.ranks)


#: Names accepted by :func:`make_pushpull_program`.
PGXD_ALGORITHMS = ("bfs", "pagerank", "wcc", "sssp")


def pushpull_algorithm(algorithm: str) -> str:
    """The PGX.D name of ``algorithm``; raises for one it does not run."""
    name = algorithm.lower()
    if name not in PGXD_ALGORITHMS:
        raise PlatformError(
            f"unknown algorithm {algorithm!r}; the PGX.D engine supports "
            f"{PGXD_ALGORITHMS}"
        )
    return name


def make_pushpull_program(
    algorithm: str,
    params: Dict[str, Any],
    graph: Graph,
    owner_of: Sequence[int],
    kernel: Optional[Type[PushPullProgram]] = None,
) -> PushPullProgram:
    """Instantiate the push-pull driver for ``algorithm``.

    ``kernel`` is the algorithm's vectorized driver class
    (:func:`repro.platforms.pgxd.vectorized.pushpull_kernel_class`);
    when given it is built in place of the scalar driver, from the same
    checked parameters, so the scalar driver's per-vertex state is never
    built.
    """
    name = pushpull_algorithm(algorithm)
    if name == "bfs":
        source = params.get("source", 0)
        if not (0 <= source < graph.num_vertices):
            raise PlatformError(f"BFS source {source} out of range")
        return (kernel or BfsPushPull)(graph, owner_of, source)
    if name == "sssp":
        source = params.get("source", 0)
        if not (0 <= source < graph.num_vertices):
            raise PlatformError(f"SSSP source {source} out of range")
        return SsspPushPull(graph, owner_of, source,
                            weight=params.get("weight", default_weight))
    if name == "pagerank":
        return (kernel or PageRankPushPull)(
            graph, owner_of,
            iterations=params.get("iterations", 20),
            damping=params.get("damping", 0.85),
        )
    return WccPushPull(graph, owner_of)  # "wcc", the last name left
