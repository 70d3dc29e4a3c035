"""Compressed sparse row (CSR) representation.

Table 1 lists CSR as the data format of PGX.D, OpenG and TOTEM; the GAS
engine also finalizes its loaded edge lists into CSR before processing.
Backed by int64 numpy arrays; it is the one in-memory form of a
:class:`~repro.graph.graph.Graph`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError


def group_starts(keys: np.ndarray) -> np.ndarray:
    """Start offsets of each run of equal values in a sorted array."""
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1)
    )


def group_sizes(starts: np.ndarray, total: int) -> np.ndarray:
    """Length of each group given its start offsets."""
    return np.diff(np.append(starts, total))


def stable_key_sort(
    key: np.ndarray, bound: int, rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows[order], key[order])`` for ``order = np.argsort(key,
    kind="stable")``, integer keys in ``[0, bound)``.

    ``rows`` defaults to the row index, so the first array is ``order``
    itself.  Each key is packed above its row into one int64,
    ``key << b | row``, and the packed values are sorted.  They are
    distinct, so every sort algorithm returns them in the same order: by
    key, and rows with equal keys by row, i.e. in input order.  That is
    the one stable permutation; the low ``b`` bits read it back and the
    high bits are the sorted keys, so neither needs a gather.  Sorting
    by a composite key ``v * R + p`` with ``0 <= p < R`` is also
    ``np.lexsort((p, v))``.  numpy sorts int64 with a vectorised
    quicksort, several times faster than its stable sort of the same
    keys; keys too wide to share 63 bits with the rows take the stable
    sort.

    ``rows`` may instead be any non-negative column that never
    decreases from one row to the next (the sources of a CSR edge
    list).  Packed beside the key it still sorts equal keys in input
    order, except among rows holding the same value, whose order does
    not show, so the low bits read back ``rows[order]`` without a
    gather.
    """
    key = np.asarray(key, dtype=np.int64)
    n = len(key)
    if rows is None:
        rows = np.arange(n, dtype=np.int64)
    else:
        rows = np.asarray(rows, dtype=np.int64)
    if n < 2 or bound <= 1:
        return rows.copy(), key.copy()
    row_bits = int(rows[-1]).bit_length()
    if (int(bound) - 1).bit_length() + row_bits > 63:
        order = np.argsort(key, kind="stable")
        return rows[order], key[order]
    packed = key << row_bits
    packed |= rows
    packed.sort()
    sorted_key = packed >> row_bits
    packed &= (1 << row_bits) - 1
    return packed, sorted_key


def stable_key_order(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for integer keys in
    ``[0, bound)``: the order half of :func:`stable_key_sort`."""
    return stable_key_sort(key, bound)[0]


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` of a 1-d array: one sort, then each run's first.

    numpy's ``unique`` hashes integer input and sorts the distinct values
    afterwards; on arrays of a million keys that is tens of times slower
    than sorting the input once.
    """
    keys = np.sort(keys)
    return keys[group_starts(keys)]


def pair_columns(edges) -> Tuple[np.ndarray, np.ndarray]:
    """(src, dst) int64 columns of edge pairs, in order: any iterable of
    pairs or an ``(m, 2)`` array."""
    pairs = np.asarray(
        edges if isinstance(edges, np.ndarray) else list(edges),
        dtype=np.int64,
    )
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError("edges must be (src, dst) pairs")
    return pairs[:, 0], pairs[:, 1]


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
    def from_edge_arrays(
        cls, num_vertices: int, src: np.ndarray, dst: np.ndarray
    ) -> "CsrGraph":
        """CSR from parallel (src, dst) arrays: the one edge builder.

        Every edge is range-checked (the first bad one is named),
        parallel edges are collapsed and each row is sorted ascending;
        self-loops are kept.
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
        key = sorted_distinct(src * np.int64(num_vertices) + dst)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        if len(key):
            np.cumsum(np.bincount(key // num_vertices, minlength=num_vertices),
                      out=indptr[1:])
            key %= num_vertices
        return cls(indptr, key)

    @classmethod
    def from_edges(cls, num_vertices: int, edges) -> "CsrGraph":
        """CSR from (src, dst) pairs (see :func:`pair_columns`)."""
        return cls.from_edge_arrays(num_vertices, *pair_columns(edges))

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

    def sources(self) -> np.ndarray:
        """The source vertex of every edge, aligned with ``indices``."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.out_degrees())

    def transposed(self) -> "CsrGraph":
        """The same edges keyed by destination (the in-adjacency).

        Row ``v`` lists the sources of ``v``'s in-edges ascending — the
        order :meth:`Graph.in_neighbors` iterates — because the out-edge
        expansion is already source-sorted and the sort by destination
        is stable.
        """
        n = self.num_vertices
        sources, _ = stable_key_sort(self.indices, n, rows=self.sources())
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=n), out=indptr[1:])
        return CsrGraph(indptr, sources)

    def undirected(self) -> "CsrGraph":
        """The undirected view: each row holds the distinct neighbours
        of ``v`` in either direction, ascending, without ``v`` itself."""
        src, dst = self.sources(), self.indices
        keep = src != dst
        src, dst = src[keep], dst[keep]
        return CsrGraph.from_edge_arrays(
            self.num_vertices,
            np.concatenate((src, dst)), np.concatenate((dst, src)))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All (src, dst) pairs, sorted by src then dst."""
        return zip(self.sources().tolist(), self.indices.tolist())

    def nbytes(self) -> int:
        """Memory footprint of the two index arrays."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    def __repr__(self) -> str:
        return f"CsrGraph(n={self.num_vertices}, m={self.num_edges})"
