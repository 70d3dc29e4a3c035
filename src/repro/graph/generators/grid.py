"""Regular 2-D grid generator.

Grids are the canonical *regular* workload: every vertex has (almost) the
same degree, so they serve as the balanced counterpoint to power-law
graphs when comparing partitioners.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import GenerationError
from repro.graph.graph import Graph


def grid_graph(rows: int, cols: int, bidirectional: bool = True) -> Graph:
    """A ``rows x cols`` lattice; vertex ``(r, c)`` has id ``r * cols + c``.

    Each vertex connects to its right and down neighbors; with
    ``bidirectional`` the reverse edges are added too (4-neighborhood).
    """
    if rows <= 0 or cols <= 0:
        raise GenerationError(f"grid dimensions must be positive: {rows}x{cols}")

    def gen() -> Iterator[Tuple[int, int]]:
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    yield (v, v + 1)
                    if bidirectional:
                        yield (v + 1, v)
                if r + 1 < rows:
                    yield (v, v + cols)
                    if bidirectional:
                        yield (v + cols, v)

    return Graph(rows * cols, gen())
