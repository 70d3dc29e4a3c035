"""Graph partitioning strategies.

Giraph assigns whole vertices to workers (edge-cut, hash by default);
PowerGraph assigns *edges* to machines and replicates vertices across them
(vertex-cut), which is its key idea for power-law graphs.  Both families
live here, together with their quality metrics (balance, cut fraction,
replication factor).
"""

from repro.graph.partition.hash_partition import hash_partition
from repro.graph.partition.range_partition import range_partition
from repro.graph.partition.vertexcut import greedy_vertex_cut, random_vertex_cut
from repro.graph.partition.metrics import (
    edge_balance,
    edge_cut_fraction,
    replication_factor,
    vertex_balance,
)

__all__ = [
    "hash_partition",
    "range_partition",
    "greedy_vertex_cut",
    "random_vertex_cut",
    "edge_balance",
    "edge_cut_fraction",
    "replication_factor",
    "vertex_balance",
]
