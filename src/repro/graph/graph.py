"""In-memory directed graph with contiguous vertex ids."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError

Edge = Tuple[int, int]


class _CsrRows:
    """Adjacency-list facade over CSR arrays.

    Behaves like the eager list-of-lists a :class:`Graph` builds from
    an edge stream, but materializes each row on demand, so a graph
    rebuilt from CSR arrays — possibly read-only, memory-mapped from
    the artifact cache, or living in a shared-memory segment — never
    mirrors the edge data into per-process Python lists.  Rows are not
    memoized: callers that need a row repeatedly hold the returned
    list, and the vectorized engines bypass adjacency entirely via
    :meth:`Graph.csr` / :meth:`Graph.in_csr`.  Degrees never
    materialize a row: a CSR-backed :class:`Graph` answers
    ``out_degree`` / ``in_degree`` / ``degree_histogram`` /
    ``max_out_degree`` from ``indptr`` differences.
    """

    __slots__ = ("_indptr", "_indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self._indptr = indptr
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indptr) - 1

    def __getitem__(self, v):
        n = len(self)
        if isinstance(v, slice):
            return [self[i] for i in range(*v.indices(n))]
        if v < 0:
            v += n
        if not 0 <= v < n:
            raise IndexError(f"vertex {v} out of range")
        return self._indices[self._indptr[v]:self._indptr[v + 1]].tolist()

    def __iter__(self):
        for v in range(len(self)):
            yield self[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, _CsrRows)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None


def _row_length(indptr: np.ndarray, v: int) -> int:
    """Length of CSR row ``v`` as a Python int, without slicing the row."""
    return indptr.item(v + 1) - indptr.item(v)


class Graph:
    """A directed graph over vertices ``0 .. n-1``.

    The out-adjacency is built eagerly; the in-adjacency and the undirected
    view are derived lazily and cached.  Self-loops are permitted; parallel
    edges are collapsed.
    """

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        if num_vertices < 0:
            raise GraphError(f"negative vertex count: {num_vertices}")
        self._n = num_vertices
        out: List[List[int]] = [[] for _ in range(num_vertices)]
        seen = set()
        m = 0
        for src, dst in edges:
            if not (0 <= src < num_vertices and 0 <= dst < num_vertices):
                raise GraphError(
                    f"edge ({src}, {dst}) out of range for {num_vertices} vertices"
                )
            if (src, dst) in seen:
                continue
            seen.add((src, dst))
            out[src].append(dst)
            m += 1
        for adj in out:
            adj.sort()
        self._out = out
        self._m = m
        self._in: Optional[List[List[int]]] = None
        self._undirected: Optional[List[List[int]]] = None
        self._csr = None
        self._in_csr = None

    @classmethod
    def from_edge_arrays(
        cls, num_vertices: int, src: np.ndarray, dst: np.ndarray
    ) -> "Graph":
        """Build a graph from parallel numpy edge arrays in bulk.

        Semantically identical to ``Graph(num_vertices, zip(src, dst))``
        — parallel edges are collapsed and adjacency lists sorted — but
        the validation, dedup and adjacency construction are vectorized.
        """
        if num_vertices < 0:
            raise GraphError(f"negative vertex count: {num_vertices}")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError("src and dst must be equal-length 1-d arrays")
        bad = (src < 0) | (src >= num_vertices) | (dst < 0) | (dst >= num_vertices)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise GraphError(
                f"edge ({int(src[i])}, {int(dst[i])}) out of range "
                f"for {num_vertices} vertices"
            )
        # Dedup + sort in one shot: pack (src, dst) into a single key.
        if len(src):
            key = np.unique(src * np.int64(num_vertices) + dst)
            u_src = key // num_vertices
            u_dst = key % num_vertices
        else:
            u_src = src
            u_dst = dst
        graph = cls.__new__(cls)
        graph._n = num_vertices
        graph._m = len(u_dst)
        counts = np.bincount(u_src, minlength=num_vertices)
        offsets = np.concatenate(
            ([0], np.cumsum(counts, dtype=np.int64))
        ).tolist()
        flat = u_dst.tolist()
        graph._out = [
            flat[offsets[v]:offsets[v + 1]] for v in range(num_vertices)
        ]
        graph._in = None
        graph._undirected = None
        graph._csr = None
        graph._in_csr = None
        return graph

    @classmethod
    def from_csr_arrays(
        cls, num_vertices: int, indptr: np.ndarray, indices: np.ndarray
    ) -> "Graph":
        """Rebuild a graph from its CSR arrays (e.g. a cache hit).

        The arrays are taken as already deduplicated with sorted
        adjacency rows — exactly what :meth:`csr` produced — so the
        result is identical to the graph the arrays came from.  The CSR
        view is pre-seeded from the same arrays (which may be read-only
        ``np.load(mmap_mode='r')`` views or shared-memory pages; they
        are never written to), and the adjacency is a lazy facade over
        them — the edge data is never copied into Python lists, so N
        processes rebuilding from the same mapped pages keep a single
        physical copy of the graph.
        """
        from repro.graph.csr import CsrGraph
        csr = CsrGraph(indptr, indices)
        if csr.num_vertices != num_vertices:
            raise GraphError(
                f"CSR arrays describe {csr.num_vertices} vertices, "
                f"expected {num_vertices}"
            )
        graph = cls.__new__(cls)
        graph._n = num_vertices
        graph._m = csr.num_edges
        graph._out = _CsrRows(csr.indptr, csr.indices)
        graph._in = None
        graph._undirected = None
        graph._csr = csr
        graph._in_csr = None
        return graph

    def csr(self):
        """CSR view of the out-adjacency (built lazily, cached)."""
        if self._csr is None:
            from repro.graph.csr import CsrGraph
            self._csr = CsrGraph.from_graph(self)
        return self._csr

    def in_csr(self):
        """CSR view of the in-adjacency (built lazily, cached).

        Row ``v`` holds the sources of ``v``'s in-edges ascending, the
        order :meth:`in_neighbors` iterates; every consumer of in-edges
        (the pull kernels, the CSR-backed adjacency facade,
        :meth:`reversed`) shares this one transposition.
        """
        if self._in_csr is None:
            self._in_csr = self.csr().transposed()
        return self._in_csr

    @property
    def _csr_backed(self) -> bool:
        """True when the adjacency is a lazy facade over CSR arrays."""
        return isinstance(self._out, _CsrRows)

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges (parallel edges collapsed)."""
        return self._m

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """All (src, dst) pairs, sorted by src then dst."""
        for src in range(self._n):
            for dst in self._out[src]:
                yield (src, dst)

    def out_neighbors(self, v: int) -> Sequence[int]:
        """Out-neighbors of ``v``, sorted."""
        self._check_vertex(v)
        return self._out[v]

    def in_neighbors(self, v: int) -> Sequence[int]:
        """In-neighbors of ``v``, sorted (built lazily)."""
        self._check_vertex(v)
        if self._in is None:
            if self._csr_backed:
                in_csr = self.in_csr()
                self._in = _CsrRows(in_csr.indptr, in_csr.indices)
            else:
                inc: List[List[int]] = [[] for _ in range(self._n)]
                for src in range(self._n):
                    for dst in self._out[src]:
                        inc[dst].append(src)
                for adj in inc:
                    adj.sort()
                self._in = inc
        return self._in[v]

    def neighbors_undirected(self, v: int) -> Sequence[int]:
        """Distinct neighbors of ``v`` ignoring direction and self-loops."""
        self._check_vertex(v)
        if self._undirected is None:
            und: List[set] = [set() for _ in range(self._n)]
            for src in range(self._n):
                for dst in self._out[src]:
                    if src != dst:
                        und[src].add(dst)
                        und[dst].add(src)
            self._undirected = [sorted(s) for s in und]
        return self._undirected[v]

    def out_degree(self, v: int) -> int:
        """Number of out-edges of ``v``."""
        self._check_vertex(v)
        if self._csr_backed:
            return _row_length(self._csr.indptr, v)
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        """Number of in-edges of ``v``."""
        if self._csr_backed:
            self._check_vertex(v)
            return _row_length(self.in_csr().indptr, v)
        return len(self.in_neighbors(v))

    def degree_undirected(self, v: int) -> int:
        """Number of distinct undirected neighbors of ``v``."""
        return len(self.neighbors_undirected(v))

    def has_edge(self, src: int, dst: int) -> bool:
        """True when the directed edge (src, dst) exists (binary search)."""
        self._check_vertex(src)
        self._check_vertex(dst)
        adj = self._out[src]
        lo, hi = 0, len(adj)
        while lo < hi:
            mid = (lo + hi) // 2
            if adj[mid] < dst:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(adj) and adj[lo] == dst

    def reversed(self) -> "Graph":
        """A new graph with every edge direction flipped."""
        if self._csr_backed:
            in_csr = self.in_csr()
            return Graph.from_csr_arrays(
                self._n, in_csr.indptr, in_csr.indices)
        return Graph(self._n, ((dst, src) for src, dst in self.edges()))

    def degree_histogram(self) -> Dict[int, int]:
        """Mapping out-degree -> number of vertices with that degree."""
        if self._csr_backed:
            # Keys in first-seen vertex order, like the loop below.
            degrees, first, counts = np.unique(
                self._csr.out_degrees(), return_index=True,
                return_counts=True)
            order = np.argsort(first)
            return dict(zip(degrees[order].tolist(), counts[order].tolist()))
        hist: Dict[int, int] = {}
        for v in range(self._n):
            d = len(self._out[v])
            hist[d] = hist.get(d, 0) + 1
        return hist

    def max_out_degree(self) -> int:
        """Largest out-degree, 0 for an empty graph."""
        if self._n == 0:
            return 0
        if self._csr_backed:
            return int(self._csr.out_degrees().max())
        return max(len(adj) for adj in self._out)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise GraphError(f"vertex {v} out of range [0, {self._n})")

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._out == other._out

    def __hash__(self) -> int:  # pragma: no cover - graphs are not dict keys
        return id(self)
