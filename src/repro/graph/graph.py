"""In-memory directed graph with contiguous vertex ids."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CsrGraph

Edge = Tuple[int, int]


def _row(csr: CsrGraph, v: int) -> List[int]:
    """Row ``v`` of ``csr`` as a fresh list of Python ints."""
    return csr.indices[csr.indptr.item(v):csr.indptr.item(v + 1)].tolist()


def _row_length(csr: CsrGraph, v: int) -> int:
    """Length of row ``v`` as a Python int, without slicing the row."""
    return csr.indptr.item(v + 1) - csr.indptr.item(v)


class Graph:
    """A directed graph over vertices ``0 .. n-1``.

    The graph is its out-adjacency in CSR form (:meth:`csr`): int64
    ``indptr``/``indices`` arrays, rows sorted ascending, parallel edges
    collapsed, self-loops kept.  The in-adjacency (:meth:`in_csr`) and
    the undirected view (:meth:`undirected_csr`) are CSR arrays derived
    on first use and cached.  The arrays may be read-only memory maps
    from the artifact cache or shared-memory pages; they are never
    written to.  Accessors build their Python ints and lists from the
    arrays per call and keep none of them, so N processes reading the
    same mapped pages hold one physical copy of the graph.
    """

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        self._adopt(CsrGraph.from_edges(num_vertices, edges))

    @classmethod
    def from_edge_arrays(
        cls, num_vertices: int, src: np.ndarray, dst: np.ndarray
    ) -> "Graph":
        """Build a graph from parallel numpy edge arrays in bulk.

        Identical to ``Graph(num_vertices, zip(src, dst))`` without the
        Python pairs.
        """
        graph = cls.__new__(cls)
        graph._adopt(CsrGraph.from_edge_arrays(num_vertices, src, dst))
        return graph

    @classmethod
    def from_csr_arrays(
        cls, num_vertices: int, indptr: np.ndarray, indices: np.ndarray
    ) -> "Graph":
        """Rebuild a graph from its CSR arrays (e.g. a cache hit).

        The arrays are taken as already deduplicated with sorted rows —
        exactly what :meth:`csr` produced — and are used as they are,
        without a copy.
        """
        csr = CsrGraph(indptr, indices)
        if csr.num_vertices != num_vertices:
            raise GraphError(
                f"CSR arrays describe {csr.num_vertices} vertices, "
                f"expected {num_vertices}"
            )
        graph = cls.__new__(cls)
        graph._adopt(csr)
        return graph

    def _adopt(self, csr: CsrGraph) -> None:
        self._n = csr.num_vertices
        self._csr = csr
        self._in_csr: Optional[CsrGraph] = None
        self._undirected_csr: Optional[CsrGraph] = None

    def csr(self) -> CsrGraph:
        """CSR arrays of the out-adjacency."""
        return self._csr

    def in_csr(self) -> CsrGraph:
        """CSR view of the in-adjacency (built lazily, cached).

        Row ``v`` holds the sources of ``v``'s in-edges ascending, the
        order :meth:`in_neighbors` iterates; every consumer of in-edges
        (the pull kernels, :meth:`reversed`) shares this one
        transposition.
        """
        if self._in_csr is None:
            self._in_csr = self._csr.transposed()
        return self._in_csr

    def undirected_csr(self) -> CsrGraph:
        """CSR view ignoring direction (built lazily, cached).

        Row ``v`` holds ``v``'s distinct neighbours over in- and
        out-edges, ascending, without self-loops: the rows of
        :meth:`neighbors_undirected` and the adjacency of the WCC
        kernels.
        """
        if self._undirected_csr is None:
            self._undirected_csr = self._csr.undirected()
        return self._undirected_csr

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges (parallel edges collapsed)."""
        return self._csr.num_edges

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """All (src, dst) pairs, sorted by src then dst."""
        return self._csr.edges()

    def out_neighbors(self, v: int) -> List[int]:
        """Out-neighbors of ``v``, sorted."""
        self._check_vertex(v)
        return _row(self._csr, v)

    def in_neighbors(self, v: int) -> List[int]:
        """In-neighbors of ``v``, sorted."""
        self._check_vertex(v)
        return _row(self.in_csr(), v)

    def neighbors_undirected(self, v: int) -> List[int]:
        """Distinct neighbors of ``v`` ignoring direction and self-loops."""
        self._check_vertex(v)
        return _row(self.undirected_csr(), v)

    def out_degree(self, v: int) -> int:
        """Number of out-edges of ``v``."""
        self._check_vertex(v)
        return _row_length(self._csr, v)

    def in_degree(self, v: int) -> int:
        """Number of in-edges of ``v``."""
        self._check_vertex(v)
        return _row_length(self.in_csr(), v)

    def degree_undirected(self, v: int) -> int:
        """Number of distinct undirected neighbors of ``v``."""
        self._check_vertex(v)
        return _row_length(self.undirected_csr(), v)

    def has_edge(self, src: int, dst: int) -> bool:
        """True when the directed edge (src, dst) exists (binary search)."""
        self._check_vertex(src)
        self._check_vertex(dst)
        indptr = self._csr.indptr
        lo, hi = indptr.item(src), indptr.item(src + 1)
        i = lo + int(np.searchsorted(self._csr.indices[lo:hi], dst))
        return i < hi and self._csr.indices.item(i) == dst

    def reversed(self) -> "Graph":
        """A new graph with every edge direction flipped."""
        in_csr = self.in_csr()
        return Graph.from_csr_arrays(self._n, in_csr.indptr, in_csr.indices)

    def degree_histogram(self) -> Dict[int, int]:
        """Mapping out-degree -> number of vertices with that degree.

        Keys are in first-seen vertex order.
        """
        degrees, first, counts = np.unique(
            self._csr.out_degrees(), return_index=True, return_counts=True)
        order = np.argsort(first)
        return dict(zip(degrees[order].tolist(), counts[order].tolist()))

    def max_out_degree(self) -> int:
        """Largest out-degree, 0 for an empty graph."""
        if self._n == 0:
            return 0
        return int(self._csr.out_degrees().max())

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise GraphError(f"vertex {v} out of range [0, {self._n})")

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self._csr.indptr, other._csr.indptr)
                and np.array_equal(self._csr.indices, other._csr.indices))

    def __hash__(self) -> int:  # pragma: no cover - graphs are not dict keys
        return id(self)
