"""Validation of platform outputs against the reference algorithms.

Every platform engine's job result is checked here: exact equality for
discrete outputs (BFS levels, WCC labels, CDLP labels) and tolerance-based
comparison for numeric ones (PageRank, SSSP, LCC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Union

Number = Union[int, float]


@dataclass
class ValidationReport:
    """Outcome of comparing a platform output with the reference.

    Attributes:
        ok: True when every vertex matched.
        total: number of vertices compared.
        mismatches: up to ``max_reported`` differing vertices with both
            values, for diagnostics.
    """

    ok: bool
    total: int
    mismatches: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        """One-line human-readable result."""
        if self.ok:
            return f"OK ({self.total} vertices checked)"
        return (
            f"FAILED ({len(self.mismatches)} shown of mismatching vertices, "
            f"{self.total} checked): " + "; ".join(self.mismatches[:3])
        )


def compare_exact(
    expected: Mapping[int, Number],
    actual: Mapping[int, Number],
    max_reported: int = 10,
) -> ValidationReport:
    """Exact per-vertex equality (BFS levels, WCC/CDLP labels)."""
    mismatches: List[str] = []
    keys = set(expected) | set(actual)
    for v in sorted(keys):
        e = expected.get(v, "<missing>")
        a = actual.get(v, "<missing>")
        if e != a:
            if len(mismatches) < max_reported:
                mismatches.append(f"v{v}: expected {e}, got {a}")
            else:
                break
    return ValidationReport(ok=not mismatches, total=len(keys), mismatches=mismatches)


def compare_numeric(
    expected: Mapping[int, float],
    actual: Mapping[int, float],
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-9,
    max_reported: int = 10,
) -> ValidationReport:
    """Tolerance-based per-vertex comparison (PageRank, SSSP, LCC).

    Infinities compare equal to each other (unreachable SSSP vertices).
    """
    mismatches: List[str] = []
    keys = set(expected) | set(actual)
    for v in sorted(keys):
        if v not in expected or v not in actual:
            if len(mismatches) < max_reported:
                missing = "actual" if v not in actual else "expected"
                mismatches.append(f"v{v}: missing from {missing}")
            continue
        e, a = expected[v], actual[v]
        if math.isinf(e) and math.isinf(a):
            continue
        if not math.isclose(e, a, rel_tol=rel_tol, abs_tol=abs_tol):
            if len(mismatches) < max_reported:
                mismatches.append(f"v{v}: expected {e!r}, got {a!r}")
            else:
                break
    return ValidationReport(ok=not mismatches, total=len(keys), mismatches=mismatches)
