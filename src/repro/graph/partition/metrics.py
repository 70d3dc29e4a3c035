"""Partition quality metrics.

Edge-cut balance and cut fraction against vertex-cut replication, on
power-law vs uniform graphs: the comparison motivating PowerGraph's
design in Table 1.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.graph.partition.vertexcut import VertexCut


def _part_count(assignment: Sequence[int]) -> int:
    if not assignment:
        raise PartitionError("empty assignment")
    parts = max(assignment) + 1
    if min(assignment) < 0:
        raise PartitionError("negative partition id in assignment")
    return parts


def vertex_balance(assignment: Sequence[int], parts: int = 0) -> float:
    """Max partition vertex count divided by the ideal (>= 1.0).

    1.0 means perfectly balanced.  ``parts`` overrides the inferred
    partition count (needed when trailing partitions are empty).
    """
    k = parts or _part_count(assignment)
    counts = [0] * k
    for p in assignment:
        if p >= k:
            raise PartitionError(f"partition id {p} >= parts {k}")
        counts[p] += 1
    ideal = len(assignment) / k
    return max(counts) / ideal if ideal > 0 else 1.0


def edge_balance(graph: Graph, assignment: Sequence[int], parts: int = 0) -> float:
    """Max per-partition *edge work* (sum of out-degrees) over the ideal.

    This is the balance measure that matters for compute time: a partition
    holding the hubs of a power-law graph does far more work than its
    vertex count suggests.
    """
    if len(assignment) != graph.num_vertices:
        raise PartitionError(
            f"assignment covers {len(assignment)} vertices, "
            f"graph has {graph.num_vertices}"
        )
    k = parts or _part_count(assignment)
    work = [0] * k
    for v in graph.vertices():
        work[assignment[v]] += graph.out_degree(v)
    ideal = graph.num_edges / k
    return max(work) / ideal if ideal > 0 else 1.0


def edge_cut_fraction(graph: Graph, assignment: Sequence[int]) -> float:
    """Fraction of edges whose endpoints lie in different partitions.

    In a Pregel engine every cut edge implies a network message per
    superstep in the worst case.
    """
    if len(assignment) != graph.num_vertices:
        raise PartitionError(
            f"assignment covers {len(assignment)} vertices, "
            f"graph has {graph.num_vertices}"
        )
    if graph.num_edges == 0:
        return 0.0
    cut = sum(
        1 for src, dst in graph.edges() if assignment[src] != assignment[dst]
    )
    return cut / graph.num_edges


def replication_factor(cut: VertexCut) -> float:
    """Average replicas per vertex of a vertex-cut (PowerGraph's metric)."""
    return cut.replication_factor()


def partition_sizes(assignment: Sequence[int], parts: int = 0) -> List[int]:
    """Vertex count per partition."""
    k = parts or _part_count(assignment)
    counts = [0] * k
    for p in assignment:
        counts[p] += 1
    return counts
