"""Derivation rules: "the rules to transform raw info into performance
metrics" (paper Section 3.3, P1).

A rule is attached to an :class:`~repro.core.model.operation.OperationModel`
and runs during archiving on every concrete operation the model matched,
reading recorded infos (its own or its children's) and writing one
derived info.  Rules are deliberately small and composable; platform
models assemble them declaratively.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional

from repro.errors import ArchiveBuildError


class DerivationRule(abc.ABC):
    """Computes one derived info for a concrete archived operation."""

    def __init__(self, target: str):
        if not target:
            raise ArchiveBuildError("derivation rule target must be non-empty")
        self.target = target

    @abc.abstractmethod
    def compute(self, operation) -> Any:
        """Value of the target info for ``operation`` (an
        :class:`~repro.core.archive.archive.ArchivedOperation`), or
        ``None`` to skip."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(target={self.target!r})"


class DurationRule(DerivationRule):
    """``Duration = EndTime - StartTime`` (implicit on every operation)."""

    def __init__(self, target: str = "Duration"):
        super().__init__(target)

    def compute(self, operation) -> Optional[float]:
        if operation.start_time is None or operation.end_time is None:
            return None
        return operation.end_time - operation.start_time


class InfoSumRule(DerivationRule):
    """Sum a recorded info over the operation's (matching) children.

    E.g. total ``BytesRead`` of ``LoadHdfsData`` as the sum over its
    ``LocalLoad`` children.
    """

    def __init__(self, target: str, source: str,
                 child_mission: Optional[str] = None):
        super().__init__(target)
        self.source = source
        self.child_mission = child_mission

    def compute(self, operation) -> Optional[float]:
        total = 0.0
        seen = False
        for child in operation.children:
            if (
                self.child_mission is not None
                and child.mission_base != self.child_mission
            ):
                continue
            value = child.infos.get(self.source)
            if value is None:
                continue
            total += float(value)
            seen = True
        return total if seen else None


class ShareOfParentRule(DerivationRule):
    """Fraction of the parent operation's duration this operation covers.

    The quantity behind Figure 5's percentages.
    """

    def __init__(self, target: str = "ShareOfParent"):
        super().__init__(target)

    def compute(self, operation) -> Optional[float]:
        parent = operation.parent
        if parent is None or operation.duration is None:
            return None
        if parent.duration is None or parent.duration <= 0:
            return None
        return operation.duration / parent.duration


class ChildCountRule(DerivationRule):
    """Number of children with a given mission base (e.g. supersteps)."""

    def __init__(self, target: str, child_mission: str):
        super().__init__(target)
        self.child_mission = child_mission

    def compute(self, operation) -> int:
        return sum(
            1 for c in operation.children
            if c.mission_base == self.child_mission
        )


class ChildDurationStatsRule(DerivationRule):
    """Imbalance statistic over children's durations.

    ``statistic`` is one of ``"max"``, ``"min"``, ``"mean"`` or
    ``"imbalance"`` (max / mean — the straggler factor of Figure 8).
    """

    _STATS = ("max", "min", "mean", "imbalance")

    def __init__(self, target: str, child_mission: str, statistic: str = "max"):
        super().__init__(target)
        if statistic not in self._STATS:
            raise ArchiveBuildError(
                f"unknown statistic {statistic!r}; choose from {self._STATS}"
            )
        self.child_mission = child_mission
        self.statistic = statistic

    def compute(self, operation) -> Optional[float]:
        durations: List[float] = [
            c.duration
            for c in operation.children
            if c.mission_base == self.child_mission and c.duration is not None
        ]
        return self.of(durations)

    def of(self, durations: List[float]) -> Optional[float]:
        """The statistic over child durations in child order (None when
        there are none)."""
        if not durations:
            return None
        if self.statistic == "max":
            return max(durations)
        if self.statistic == "min":
            return min(durations)
        mean = sum(durations) / len(durations)
        if self.statistic == "mean":
            return mean
        return max(durations) / mean if mean > 0 else None
