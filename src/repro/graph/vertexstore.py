"""Giraph-like vertex-store (adjacency) text format.

Table 1 lists Giraph's data format as "VertexStore": one line per vertex,
``vertex_id neighbor1 neighbor2 ...``.  Giraph's HDFS input splits are in
this format in our reproduction.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.edgelist import int_text_size
from repro.graph.graph import Graph


def render_vertex_store(graph: Graph) -> str:
    """Render a graph as one adjacency line per vertex."""
    lines = []
    for v in graph.vertices():
        neigh = " ".join(str(u) for u in graph.out_neighbors(v))
        lines.append(f"{v} {neigh}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_vertex_store(text: str, num_vertices: int) -> Graph:
    """Parse vertex-store text back into a :class:`Graph`.

    Every vertex line is optional (absent lines mean isolated vertices),
    but duplicate lines for the same vertex are an error.
    """
    edges: List[Tuple[int, int]] = []
    seen: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise GraphError(
                f"line {lineno}: non-integer vertex id in {line!r}"
            ) from None
        v, neighbors = ids[0], ids[1:]
        if not (0 <= v < num_vertices):
            raise GraphError(
                f"line {lineno}: vertex {v} out of range for {num_vertices}"
            )
        if v in seen:
            raise GraphError(f"line {lineno}: duplicate vertex line for {v}")
        seen.add(v)
        for u in neighbors:
            if not (0 <= u < num_vertices):
                raise GraphError(
                    f"line {lineno}: neighbor {u} out of range for {num_vertices}"
                )
            edges.append((v, u))
    return Graph(num_vertices, edges)


def vertex_store_size_bytes(graph: Graph) -> int:
    """Exact rendered size in bytes without building the string.

    Per vertex line: the vertex id, one `` `` + id per (sorted, distinct)
    out-neighbor, and a newline — counted off the CSR arrays so large
    graphs don't pay a per-character Python loop.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    csr = graph.csr()
    ids = np.arange(n, dtype=np.int64)
    return (
        int_text_size(ids)             # vertex ids
        + int_text_size(csr.indices)   # neighbor ids
        + len(csr.indices)             # one space per neighbor
        + n                            # newlines
    )


def split_vertex_lines(graph: Graph, parts: int) -> List[Sequence[int]]:
    """Partition vertex lines into ``parts`` contiguous ranges of vertices."""
    if parts <= 0:
        raise GraphError(f"parts must be positive, got {parts}")
    n = graph.num_vertices
    base, extra = divmod(n, parts)
    out: List[Sequence[int]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out
