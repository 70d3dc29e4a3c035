"""Vertex-cut (edge) partitioning, PowerGraph style.

PowerGraph assigns *edges* to machines; a vertex whose edges span several
machines is replicated, with one replica chosen as master.  The greedy
heuristic below is the one from the PowerGraph paper (Gonzalez et al.,
OSDI'12): place each edge on a machine already holding one of its
endpoints when possible, preferring intersections, breaking ties by load.

The streaming heuristic is inherently sequential, so the fast path keeps
the per-edge loop but represents each vertex's replica set as a bitmask
of partitions (one machine word for realistic ``parts``) instead of a
Python set; :func:`_greedy_vertex_cut_reference` retains the literal
set-based formulation as the equivalence oracle.  Both partitioners
read the graph's CSR arrays, and a cut is its flat edge/part/replica
columns (:class:`VertexCut`), which the vectorized GAS backend and the
artifact cache use as they are.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import group_starts, pair_columns, sorted_distinct
from repro.graph.graph import Edge, Graph

_KNUTH = 2654435761  # Knuth's multiplicative constant (2^32 / phi).
_GOLDEN = 0x9E3779B9


class VertexCut:
    """Result of an edge partitioning, held as flat int64 columns.

    Attributes:
        parts: number of partitions.
        src, dst: the partitioned edges, in the graph's edge order.
        part: partition id per edge, aligned with ``src``/``dst``.
        pairs: the distinct replica incidences ``vertex * parts + part``,
            sorted, so each vertex's first pair names its master (its
            lowest partition).

    The Python tables ``edges``, ``edge_assignment``, ``replicas`` and
    ``masters`` are built from the columns on first use; the vectorized
    GAS backend and the artifact cache read the columns directly.
    """

    def __init__(
        self,
        parts: int,
        src: np.ndarray,
        dst: np.ndarray,
        part: np.ndarray,
        pairs: np.ndarray,
    ):
        self.parts = int(parts)
        self.src = src
        self.dst = dst
        self.part = part
        self.pairs = pairs
        self._edges: Optional[List[Edge]] = None
        self._assignment: Optional[List[int]] = None
        self._tables: Optional[Tuple[Dict[int, Set[int]], Dict[int, int]]] = None

    @property
    def edges(self) -> List[Edge]:
        """The partitioned edges (src, dst)."""
        if self._edges is None:
            self._edges = list(zip(self.src.tolist(), self.dst.tolist()))
        return self._edges

    @property
    def edge_assignment(self) -> List[int]:
        """Partition id per edge, aligned with ``edges``."""
        if self._assignment is None:
            self._assignment = self.part.tolist()
        return self._assignment

    @property
    def replicas(self) -> Dict[int, Set[int]]:
        """For each vertex, the set of partitions holding a replica."""
        return self._replica_tables()[0]

    @property
    def masters(self) -> Dict[int, int]:
        """The master partition of each replicated vertex."""
        return self._replica_tables()[1]

    def _replica_tables(self):
        if self._tables is None:
            replicas: Dict[int, Set[int]] = {}
            masters: Dict[int, int] = {}
            for key in self.pairs.tolist():
                v, p = divmod(key, self.parts)
                group = replicas.get(v)
                if group is None:
                    replicas[v] = {p}
                    masters[v] = p
                else:
                    group.add(p)
            self._tables = (replicas, masters)
        return self._tables

    def edges_of_part(self, part: int) -> List[Edge]:
        """Edges assigned to ``part``."""
        if not (0 <= part < self.parts):
            raise PartitionError(f"partition {part} out of range [0, {self.parts})")
        mine = self.part == part
        return list(zip(self.src[mine].tolist(), self.dst[mine].tolist()))

    def replication_factor(self) -> float:
        """Average number of replicas per (non-isolated) vertex."""
        if not len(self.pairs):
            return 0.0
        # ``pairs`` is sorted, so each vertex is one run of its column.
        vertices = len(group_starts(self.pairs // np.int64(self.parts)))
        return len(self.pairs) / vertices

    def edge_counts(self) -> List[int]:
        """Number of edges per partition."""
        return np.bincount(self.part, minlength=self.parts).tolist()


def _finalize(parts: int, src: np.ndarray, dst: np.ndarray,
              part: np.ndarray) -> VertexCut:
    """The cut of an edge placement, with its replica incidences."""
    part = np.asarray(part, dtype=np.int64)
    pairs = sorted_distinct(
        np.concatenate((src, dst)) * np.int64(parts)
        + np.concatenate((part, part))
    )
    return VertexCut(parts, src, dst, part, pairs)


def cut_to_arrays(cut: VertexCut) -> Dict[str, np.ndarray]:
    """Flat numpy columns fully describing ``cut`` (for the artifact cache).

    Returns ``src``/``dst``/``part`` per-edge columns plus the sorted
    ``pairs`` replica incidences; :func:`cut_from_arrays` inverts this
    into a cut indistinguishable from the original.
    """
    return {"src": cut.src, "dst": cut.dst, "part": cut.part,
            "pairs": cut.pairs}


def cut_from_arrays(
    parts: int,
    src: np.ndarray,
    dst: np.ndarray,
    part: np.ndarray,
    pairs: np.ndarray,
) -> VertexCut:
    """Rebuild a cut from :func:`cut_to_arrays` columns (e.g. a cache hit).

    The columns may be read-only memory maps; they are used as they are.
    """
    if parts <= 0:
        raise PartitionError(f"parts must be positive, got {parts}")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    part = np.asarray(part, dtype=np.int64)
    pairs = np.asarray(pairs, dtype=np.int64)
    if not (src.shape == dst.shape == part.shape) or src.ndim != 1:
        raise PartitionError("src/dst/part must be equal-length 1-d arrays")
    return VertexCut(parts, src, dst, part, pairs)


def random_vertex_cut(graph: Graph, parts: int) -> VertexCut:
    """Hash each edge to a partition (PowerGraph's ``random`` ingress)."""
    if parts <= 0:
        raise PartitionError(f"parts must be positive, got {parts}")
    csr = graph.csr()
    src, dst = csr.sources(), csr.indices
    # vertex_hash over uint64 columns: wrap-around multiplication keeps
    # the low 32 bits exact, so this matches the scalar hash bit for bit.
    h_src = (
        (src.astype(np.uint64) + np.uint64(1)) * np.uint64(_KNUTH)
    ) & np.uint64(0xFFFFFFFF)
    h_dst = (
        (dst.astype(np.uint64) + np.uint64(_GOLDEN + 1)) * np.uint64(_KNUTH)
    ) & np.uint64(0xFFFFFFFF)
    return _finalize(parts, src, dst, (h_src ^ h_dst) % np.uint64(parts))


def _shuffled_order(m: int, seed: int) -> List[int]:
    """The deterministic pseudo-random edge visiting order."""
    order = list(range(m))
    random.Random(seed).shuffle(order)
    return order


def greedy_vertex_cut(
    graph: Graph,
    parts: int,
    balance_slack: float = 0.10,
    seed: int = 2017,
) -> VertexCut:
    """PowerGraph's greedy heuristic (``oblivious`` ingress).

    For each edge (u, v) with current replica sets A(u), A(v) and
    per-partition edge loads:

    1. If A(u) and A(v) intersect, place the edge in the least-loaded
       partition of the intersection.
    2. Else if both are non-empty, place it in the least-loaded partition
       of the union.
    3. Else if one is non-empty, use its least-loaded partition.
    4. Else use the globally least-loaded partition.

    Two practical refinements keep the stream from snowballing into one
    partition (PowerGraph's implementation has the same safeguards):
    candidate partitions at or beyond the capacity bound
    ``(1 + balance_slack) * m / parts`` are skipped (falling through to
    the next rule), and edges are visited in a deterministic pseudo-random
    order rather than sorted order, emulating unsorted on-disk edge files.

    Replica sets live in per-vertex partition bitmasks, turning the set
    algebra above into word-wide and/or operations; the placement is
    identical to :func:`_greedy_vertex_cut_reference` edge for edge.
    """
    if parts <= 0:
        raise PartitionError(f"parts must be positive, got {parts}")
    if balance_slack < 0:
        raise PartitionError(f"negative balance slack: {balance_slack}")
    csr = graph.csr()
    src_col, dst_col = csr.sources(), csr.indices
    sources, targets = src_col.tolist(), dst_col.tolist()
    m = len(sources)
    capacity = (1.0 + balance_slack) * m / parts
    load = [0] * parts
    masks = [0] * graph.num_vertices
    assignment = [0] * m
    # Bit p stays set while partition p can take one more edge; the
    # capacity test load[p] + 1 <= capacity flips at most once per part.
    allowed = 0
    for p in range(parts):
        if load[p] + 1 <= capacity:
            allowed |= 1 << p
    part_range = range(parts)

    for index in _shuffled_order(m, seed):
        src = sources[index]
        dst = targets[index]
        mask_u = masks[src]
        mask_v = masks[dst]
        cand = mask_u & mask_v & allowed
        if not cand:
            cand = (mask_u | mask_v) & allowed
        if cand:
            chosen = -1
            best_load = -1
            bits = cand
            while bits:
                low = bits & -bits
                bits ^= low
                p = low.bit_length() - 1
                lp = load[p]
                if chosen < 0 or lp < best_load:
                    chosen = p
                    best_load = lp
        else:
            chosen = min(part_range, key=lambda p: (load[p], p))
        assignment[index] = chosen
        new_load = load[chosen] + 1
        load[chosen] = new_load
        if new_load + 1 > capacity:
            allowed &= ~(1 << chosen)
        bit = 1 << chosen
        masks[src] |= bit
        masks[dst] |= bit

    return _finalize(parts, src_col, dst_col, assignment)


def _greedy_vertex_cut_reference(
    graph: Graph,
    parts: int,
    balance_slack: float = 0.10,
    seed: int = 2017,
) -> VertexCut:
    """The literal set-based greedy heuristic (equivalence oracle)."""
    if parts <= 0:
        raise PartitionError(f"parts must be positive, got {parts}")
    if balance_slack < 0:
        raise PartitionError(f"negative balance slack: {balance_slack}")
    edges = list(graph.edges())
    capacity = (1.0 + balance_slack) * len(edges) / parts
    load = [0] * parts
    replicas: Dict[int, Set[int]] = {}
    assignment: List[int] = [0] * len(edges)

    def least_loaded(candidates: Iterable[int]) -> int:
        return min(candidates, key=lambda p: (load[p], p))

    def under_capacity(candidates: Set[int]) -> Set[int]:
        return {p for p in candidates if load[p] + 1 <= capacity}

    for index in _shuffled_order(len(edges), seed):
        src, dst = edges[index]
        a_u = replicas.get(src, set())
        a_v = replicas.get(dst, set())
        inter = under_capacity(a_u & a_v)
        union = under_capacity(a_u | a_v)
        if inter:
            chosen = least_loaded(inter)
        elif union:
            chosen = least_loaded(union)
        else:
            chosen = least_loaded(range(parts))
        assignment[index] = chosen
        load[chosen] += 1
        replicas.setdefault(src, set()).add(chosen)
        replicas.setdefault(dst, set()).add(chosen)

    return _finalize(parts, *pair_columns(edges), assignment)
