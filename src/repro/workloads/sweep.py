"""Parameter sweeps over workloads.

Sweeps drive the ablations: vary one dimension (dataset size,
worker count, algorithm) while holding the rest fixed, and collect the
domain-level decomposition of every run for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional

from repro.core.process import EvaluationIteration
from repro.core.visualize.breakdown import DomainBreakdown
from repro.errors import ReproError
from repro.workloads.parallel import RunRequest
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec


@dataclass
class SweepResult:
    """One point of a sweep: the workload plus its artifacts."""

    spec: WorkloadSpec
    iteration: EvaluationIteration

    @property
    def breakdown(self) -> DomainBreakdown:
        """Domain-level decomposition of this point's run."""
        return self.iteration.breakdown

    @property
    def makespan(self) -> float:
        """End-to-end runtime of this point's run."""
        return self.iteration.run.result.makespan


class ParameterSweep:
    """Executes a base workload across variations of one dimension."""

    _DIMENSIONS = ("dataset", "workers", "algorithm", "platform")

    def __init__(self, runner: Optional[WorkloadRunner] = None):
        self.runner = runner or WorkloadRunner()

    def run(
        self,
        base: WorkloadSpec,
        dimension: str,
        values: Iterable[Any],
        model_level: Optional[int] = None,
        jobs: Optional[int] = None,
    ) -> List[SweepResult]:
        """Run ``base`` once per value of ``dimension``.

        Returns the sweep points in input order.  ``jobs > 1`` fans the
        points out across worker processes (the points are independent
        by construction); the results are identical to a serial sweep.
        """
        if dimension not in self._DIMENSIONS:
            raise ReproError(
                f"unknown sweep dimension {dimension!r}; "
                f"choose from {self._DIMENSIONS}"
            )
        specs = [replace(base, **{dimension: value}) for value in values]
        iterations = self.runner.run_many(
            [RunRequest(spec, model_level=model_level) for spec in specs],
            jobs=jobs,
        )
        return [
            SweepResult(spec=spec, iteration=iteration)
            for spec, iteration in zip(specs, iterations)
        ]

    @staticmethod
    def share_table(
        results: List[SweepResult],
        dimension: str,
    ) -> List[Dict[str, Any]]:
        """Phase-share rows per sweep point (report-friendly)."""
        rows: List[Dict[str, Any]] = []
        for result in results:
            row: Dict[str, Any] = {
                dimension: getattr(result.spec, dimension),
                "makespan_s": result.makespan,
            }
            for phase, (duration, share) in result.breakdown.phases.items():
                row[f"{phase} share"] = share
            rows.append(row)
        return rows
