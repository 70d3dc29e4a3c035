"""Edge-list text format.

PowerGraph loads edge-based text files ("src dst" per line) from local or
shared storage (Table 1).  The functions here render and parse that format
and estimate its on-disk size, so the simulated filesystems can charge
realistic I/O time while the engines really consume the edges.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import pair_columns
from repro.graph.graph import Edge, Graph


def _digit_counts(arr: np.ndarray) -> np.ndarray:
    """``len(str(x))`` per element for non-negative integer arrays."""
    digits = np.ones(len(arr), dtype=np.int64)
    limit = 10
    while True:
        over = arr >= limit
        if not over.any():
            return digits
        digits[over] += 1
        limit *= 10


class EdgeList:
    """An edge list plus its declared vertex-id space.

    Attributes:
        num_vertices: size of the id space (vertices may be isolated).
        src, dst: parallel int64 arrays, one entry per edge in file
            order.

    Deploying a dataset only needs edge *counts* and byte *sizes*, both
    of which come straight off the arrays, so the Python tuples behind
    :attr:`edges` are built on first use.
    """

    __slots__ = ("num_vertices", "src", "dst", "_edges")

    def __init__(self, num_vertices: int, edges: Iterable[Edge] = ()):
        self.num_vertices = num_vertices
        self.src, self.dst = pair_columns(edges)
        self._edges: Optional[Tuple[Edge, ...]] = None

    @classmethod
    def _of_arrays(cls, num_vertices: int, src: np.ndarray,
                   dst: np.ndarray) -> "EdgeList":
        edge_list = cls(num_vertices)
        edge_list.src = src
        edge_list.dst = dst
        return edge_list

    @classmethod
    def from_graph(cls, graph: Graph) -> "EdgeList":
        """Extract the edge list of a graph, sorted by src then dst."""
        csr = graph.csr()
        return cls._of_arrays(graph.num_vertices, csr.sources(), csr.indices)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The (src, dst) tuples (built on first use)."""
        if self._edges is None:
            self._edges = tuple(zip(self.src.tolist(), self.dst.tolist()))
        return self._edges

    def to_graph(self) -> Graph:
        """Materialize the edge list as a graph."""
        return Graph.from_edge_arrays(self.num_vertices, self.src, self.dst)

    @property
    def num_edges(self) -> int:
        """Number of edges in the list."""
        return len(self.src)

    def text_size_bytes(self) -> int:
        """Exact size of the rendered text file in bytes."""
        return int(_digit_counts(self.src).sum()
                   + _digit_counts(self.dst).sum() + 2 * len(self.src))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        return (self.num_vertices == other.num_vertices
                and np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst))

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.edges))

    def __repr__(self) -> str:
        return (f"EdgeList(num_vertices={self.num_vertices}, "
                f"num_edges={self.num_edges})")


def render_edge_list(edge_list: EdgeList) -> str:
    """Render as one ``"src dst\\n"`` line per edge."""
    return "".join(f"{src} {dst}\n" for src, dst in edge_list.edges)


def parse_edge_list(text: str, num_vertices: int) -> EdgeList:
    """Parse the text format back into an :class:`EdgeList`.

    Blank lines and ``#`` comment lines are ignored, matching the common
    SNAP/Graphalytics conventions.
    """
    src: List[int] = []
    dst: List[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphError(
                f"line {lineno}: expected 'src dst', got {line!r}"
            )
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(
                f"line {lineno}: non-integer vertex id in {line!r}"
            ) from None
        if not (0 <= u < num_vertices and 0 <= w < num_vertices):
            raise GraphError(
                f"line {lineno}: edge ({u}, {w}) out of range "
                f"for {num_vertices} vertices"
            )
        src.append(u)
        dst.append(w)
    return EdgeList._of_arrays(num_vertices, np.array(src, dtype=np.int64),
                               np.array(dst, dtype=np.int64))


def split_edges(edge_list: EdgeList, parts: int) -> List[EdgeList]:
    """Split an edge list into ``parts`` contiguous chunks (file splits)."""
    if parts <= 0:
        raise GraphError(f"parts must be positive, got {parts}")
    chunks: List[EdgeList] = []
    m = edge_list.num_edges
    base, extra = divmod(m, parts)
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(EdgeList._of_arrays(
            edge_list.num_vertices, edge_list.src[start:start + size],
            edge_list.dst[start:start + size]))
        start += size
    return chunks
