"""Contiguous range partitioning.

Assigns vertex ranges of (nearly) equal cardinality to partitions.  Range
partitioning preserves locality in id-ordered graphs but is vulnerable to
skew when degree correlates with id: on power-law graphs its edge balance
is worse than hashing's.
"""

from __future__ import annotations

from typing import List

from repro.errors import PartitionError


def range_partition(num_vertices: int, parts: int) -> List[int]:
    """Assign vertices ``0..n-1`` to ``parts`` contiguous ranges."""
    if parts <= 0:
        raise PartitionError(f"parts must be positive, got {parts}")
    if num_vertices < 0:
        raise PartitionError(f"negative vertex count: {num_vertices}")
    assignment: List[int] = []
    base, extra = divmod(num_vertices, parts)
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        assignment.extend([p] * size)
    return assignment
