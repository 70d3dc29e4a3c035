"""Single-source shortest paths (Dijkstra) reference implementation."""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Optional

from repro.errors import GraphError
from repro.graph.graph import Graph

#: Distance assigned to unreachable vertices.
INFINITY = math.inf

WeightFn = Callable[[int, int], float]


def default_weight(src: int, dst: int) -> float:
    """Deterministic pseudo-weights in [1, 2) derived from the edge ids.

    Graphalytics SSSP uses edge properties; synthetic graphs have none, so
    every engine and reference shares this reproducible weight function.
    """
    h = ((src * 2654435761) ^ (dst * 40503)) & 0xFFFF
    return 1.0 + h / 65536.0


def sssp_distances(
    graph: Graph,
    source: int,
    weight: Optional[WeightFn] = None,
) -> Dict[int, float]:
    """Shortest-path distance from ``source`` under ``weight``.

    Unreachable vertices get :data:`INFINITY`.  Weights must be
    non-negative (Dijkstra's requirement); a negative weight raises.
    """
    if not (0 <= source < graph.num_vertices):
        raise GraphError(
            f"source {source} out of range [0, {graph.num_vertices})"
        )
    w = weight or default_weight
    dist = {v: INFINITY for v in graph.vertices()}
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u in graph.out_neighbors(v):
            edge_w = w(v, u)
            if edge_w < 0:
                raise GraphError(
                    f"negative edge weight {edge_w} on ({v}, {u})"
                )
            nd = d + edge_w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist
