"""PowerGraph's sequential input loading path.

The paper's Figure 7 diagnosis: "only one compute node is responsible for
loading the graph dataset from the local/shared file system to memory";
the other ranks idle until the in-memory graph structure is finalized.
This module models exactly that: rank 0 streams and parses the whole edge
file, then every rank builds its local structures for the edges the
vertex cut assigned to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.cluster.filesystem import SharedFileSystem
from repro.cluster.network import NetworkModel
from repro.graph.partition.vertexcut import VertexCut
from repro.platforms.costmodel import PowerGraphCostModel

#: Approximate wire bytes per edge shipped from the loader to a rank.
EDGE_WIRE_BYTES = 16


@dataclass(frozen=True)
class LoadPlan:
    """Durations of the sequential-load phases.

    Attributes:
        stream_s: rank 0 streaming + parsing the whole file.
        finalize_s: per-rank graph finalization durations (parallel).
        bytes_read: file bytes streamed by the loader.
        edges_parsed: edges the loader ingested.
    """

    stream_s: float
    finalize_s: List[float]
    bytes_read: int
    edges_parsed: int


def plan_sequential_load(
    shared_fs: SharedFileSystem,
    path: str,
    num_edges: int,
    cut: VertexCut,
    network: NetworkModel,
    cost: PowerGraphCostModel,
    read_factor: float = 1.0,
    link_factors: Optional[Mapping[int, float]] = None,
) -> LoadPlan:
    """Compute the load-phase durations for a deployed edge file of
    ``num_edges`` edges.

    Rank 0's stream time is I/O (one reader on the shared filesystem)
    plus per-edge parse CPU.  Each rank's finalize time covers receiving
    its edge shard from the loader and building its local structures.

    ``read_factor`` stretches the loader's file I/O (a slow disk on the
    loading node); ``link_factors`` maps rank -> transfer stretch (a
    degraded link to that rank).  Both default to healthy.
    """
    size_bytes = shared_fs.get(path).size_bytes
    read_s = shared_fs.contended_read_time(path, concurrent_readers=1) * read_factor
    parse_s = num_edges * cost.parse_edge_s
    stream_s = read_s + parse_s

    finalize_s: List[float] = []
    edge_counts = cut.edge_counts()
    for part in range(cut.parts):
        local_edges = edge_counts[part]
        transfer_s = (
            network.transfer_time(local_edges * EDGE_WIRE_BYTES)
            if part != 0 and local_edges
            else network.transfer_time(local_edges * EDGE_WIRE_BYTES, local=True)
        )
        if link_factors:
            transfer_s *= link_factors.get(part, 1.0)
        build_s = local_edges * cost.finalize_edge_s
        finalize_s.append(transfer_s + build_s)

    return LoadPlan(
        stream_s=stream_s,
        finalize_s=finalize_s,
        bytes_read=size_bytes,
        edges_parsed=num_edges,
    )
