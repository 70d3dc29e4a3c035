"""Compressed sparse row (CSR) representation.

Table 1 lists CSR as the data format of PGX.D, OpenG and TOTEM; the GAS
engine also finalizes its loaded edge lists into CSR before processing.
Backed by numpy arrays for compactness.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


class CsrGraph:
    """Directed graph in CSR form: ``indptr`` (n+1) and ``indices`` (m).

    Out-neighbors of vertex ``v`` are
    ``indices[indptr[v]:indptr[v+1]]``, sorted ascending.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional")
        if len(indptr) == 0 or indptr[0] != 0:
            raise GraphError("indptr must start with 0")
        if indptr[-1] != len(indices):
            raise GraphError(
                f"indptr ends at {indptr[-1]} but there are {len(indices)} indices"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("indices out of vertex range")
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_graph(cls, graph: Graph) -> "CsrGraph":
        """Convert an adjacency :class:`Graph` into CSR.

        Vectorized: degree counting and prefix sums run as array ops and
        the adjacency lists are copied with one bulk ``fromiter`` pass.
        """
        n = graph.num_vertices
        adjacency = [graph.out_neighbors(v) for v in range(n)]
        degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.fromiter(
            itertools.chain.from_iterable(adjacency),
            dtype=np.int64,
            count=graph.num_edges,
        )
        return cls(indptr, indices)

    @classmethod
    def from_edges(cls, num_vertices: int, edges) -> "CsrGraph":
        """CSR directly from (src, dst) pairs, without an adjacency Graph.

        Accepts any iterable of pairs or an ``(m, 2)``/two-column array.
        Parallel edges are collapsed and neighbors sorted ascending,
        matching :class:`~repro.graph.graph.Graph` semantics.
        """
        if num_vertices < 0:
            raise GraphError(f"negative vertex count: {num_vertices}")
        pairs = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.int64,
        )
        if pairs.size == 0:
            return cls(np.zeros(num_vertices + 1, dtype=np.int64),
                       np.empty(0, dtype=np.int64))
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphError("edges must be (src, dst) pairs")
        src, dst = pairs[:, 0], pairs[:, 1]
        bad = (src < 0) | (src >= num_vertices) | (dst < 0) | (dst >= num_vertices)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise GraphError(
                f"edge ({int(src[i])}, {int(dst[i])}) out of range "
                f"for {num_vertices} vertices"
            )
        key = np.unique(src * np.int64(num_vertices) + dst)
        u_src = key // num_vertices
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(u_src, minlength=num_vertices), out=indptr[1:])
        return cls(indptr, key % num_vertices)

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self.indices)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` as a numpy view."""
        if not (0 <= v < self.num_vertices):
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def out_degree(self, v: int) -> int:
        """Number of out-edges of ``v``."""
        if not (0 <= v < self.num_vertices):
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
        return int(self.indptr[v + 1] - self.indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Vector of all out-degrees."""
        return np.diff(self.indptr)

    def transposed(self) -> "CsrGraph":
        """The same edges keyed by destination (the in-adjacency).

        Row ``v`` lists the sources of ``v``'s in-edges ascending — the
        order :meth:`Graph.in_neighbors` iterates — because the out-edge
        expansion is already source-sorted and the sort by destination
        is stable.
        """
        n = self.num_vertices
        sources = np.repeat(np.arange(n, dtype=np.int64), self.out_degrees())
        order = np.argsort(self.indices, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=n), out=indptr[1:])
        return CsrGraph(indptr, sources[order])

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All (src, dst) pairs, sorted by src then dst."""
        for v in range(self.num_vertices):
            for dst in self.out_neighbors(v):
                yield (v, int(dst))

    def to_graph(self) -> Graph:
        """Convert back into an adjacency :class:`Graph`."""
        return Graph(self.num_vertices, self.edges())

    def nbytes(self) -> int:
        """Memory footprint of the two index arrays."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    def __repr__(self) -> str:
        return f"CsrGraph(n={self.num_vertices}, m={self.num_edges})"
