"""Edge-list text format.

PowerGraph loads edge-based text files ("src dst" per line) from local or
shared storage (Table 1).  The functions here render and parse that format
and estimate its on-disk size, so the simulated filesystems can charge
realistic I/O time while the engines really consume the edges.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import pair_columns
from repro.graph.graph import Edge, Graph


def _digit_masks(values: np.ndarray) -> Iterator[np.ndarray]:
    """Boolean masks whose per-element sum is ``len(str(x)) - 1``.

    One mask for the sign, then one per power of ten ``p`` with
    ``|x| >= p``, up to the largest magnitude present, so small values
    (BFS levels, partition ids) cost two or three array compares.
    Comparing ``x <= -p`` rather than taking ``|x|`` keeps ``-2**63``
    exact.
    """
    low, high = int(values.min()), int(values.max())
    if low < 0:
        yield values < 0
    power = 10
    while power <= high:
        yield values >= power
        power *= 10
    power = 10
    while -power >= low:
        yield values <= -power
        power *= 10


def int_text_lengths(values: np.ndarray) -> np.ndarray:
    """``len(str(x))`` per element of an integer array."""
    values = np.asarray(values, dtype=np.int64)
    lengths = np.ones(len(values), dtype=np.int64)
    if len(values):
        for mask in _digit_masks(values):
            lengths += mask
    return lengths


def int_text_size(values: np.ndarray) -> int:
    """``sum(len(str(x)) for x in values)`` without per-element lengths."""
    values = np.asarray(values, dtype=np.int64)
    if not len(values):
        return 0
    return len(values) + sum(
        int(np.count_nonzero(mask)) for mask in _digit_masks(values))


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
        return (int_text_size(self.src) + int_text_size(self.dst)
                + 2 * len(self.src))

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
