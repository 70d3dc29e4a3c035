"""The end-to-end evaluation process (paper Figure 2).

One :class:`EvaluationProcess` per platform under analysis.  Each call to
:meth:`EvaluationProcess.iterate` performs one loop of the paper's four
sub-processes — modeling, monitoring, archiving, visualization — and
returns an :class:`EvaluationIteration` carrying every artifact, plus the
feedback (unmodeled operations) that guides the next refinement.

The incremental knob (requirement R3) is ``model_level``: iteration 1 can
run with the domain-level slice of the model, later iterations deepen to
system/implementation levels where the previous visuals pointed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.archive.archive import PerformanceArchive
from repro.core.archive.builder import BuildReport, build_archive
from repro.core.archive.store import ArchiveStore
from repro.core.model.job import JobModel
from repro.core.model.validation import validate_model
from repro.core.monitor.live import LiveMonitor
from repro.core.monitor.session import MonitoredRun, MonitoringSession
from repro.core.visualize.breakdown import DomainBreakdown, compute_breakdown
from repro.core.visualize.gantt import SuperstepGantt, compute_gantt
from repro.core.visualize.utilization import UtilizationChart, compute_utilization
from repro.errors import VisualizationError
from repro.platforms.base import JobRequest, Platform


@dataclass
class EvaluationIteration:
    """Artifacts of one loop through the Figure 2 process.

    Attributes:
        index: iteration number, starting at 1.
        model: the (possibly truncated) model used.
        run: the monitored execution.
        archive: the performance archive built from it.
        report: archiving diagnostics — ``report.unmodeled`` is the
            feedback feeding the next modeling step.
        breakdown / utilization / gantt: the computed visuals (gantt is
            None while the model is coarser than the implementation
            level).
    """

    index: int
    model: JobModel
    run: MonitoredRun
    archive: PerformanceArchive
    report: BuildReport
    breakdown: DomainBreakdown
    utilization: UtilizationChart
    gantt: Optional[SuperstepGantt] = None

    @property
    def feedback(self) -> List[Tuple[str, str]]:
        """(mission, actor) pairs the model did not cover."""
        return list(self.report.unmodeled)


class EvaluationProcess:
    """Drives iterative fine-grained evaluation of one platform."""

    def __init__(
        self,
        platform: Platform,
        model: JobModel,
        store: Optional[ArchiveStore] = None,
        env_step: float = 1.0,
    ):
        validate_model(model)
        self.platform = platform
        self.model = model
        self.store = store
        self.session = MonitoringSession(platform, env_step=env_step)
        #: Iterations run so far.  The process keeps no iteration: each
        #: holds a whole run's logs and archive, and the caller decides
        #: which to keep (``WorkloadRunner`` keeps one per memo key).
        self.iteration_count = 0

    def iterate(
        self,
        request: JobRequest,
        model_level: Optional[int] = None,
        live: Optional[LiveMonitor] = None,
    ) -> EvaluationIteration:
        """One modeling -> monitoring -> archiving -> visualization loop.

        Args:
            request: the job to execute under monitoring.
            model_level: cap the model at this abstraction level for this
                iteration (None uses the full model) — the coarse/fine
                trade-off control.
            live: a live monitor to publish this run into.  The
                platform's log is replayed into it in chunks (the
                simulated platforms execute a job as one discrete-event
                pass, so chunked replay is the tail-f-shaped feed a
                real deployment would produce), and the final archive
                completes it — the last snapshot a stream consumer sees
                is byte-identical to what the store persists.
        """
        # P1 Modeling: select the (possibly truncated) model.
        model = (
            self.model if model_level is None
            else self.model.truncated(model_level)
        )
        # P2 Monitoring: run the job, collect platform + environment logs.
        run = self.session.run(request)
        if live is not None:
            live.replay(run.result.log_lines, run.env_samples)
        # P3 Archiving: build, derive, optionally persist.
        archive, report = build_archive(run, model)
        if self.store is not None:
            self.store.save(archive, overwrite=True)
        if live is not None:
            live.complete(archive)
        # P4 Visualization: compute the standard visuals.
        breakdown = compute_breakdown(archive)
        utilization = compute_utilization(archive)
        gantt: Optional[SuperstepGantt] = None
        try:
            gantt = compute_gantt(archive)
        except VisualizationError:
            gantt = None  # Model not yet refined to implementation level.

        self.iteration_count += 1
        iteration = EvaluationIteration(
            index=self.iteration_count,
            model=model,
            run=run,
            archive=archive,
            report=report,
            breakdown=breakdown,
            utilization=utilization,
            gantt=gantt,
        )
        return iteration

    def refine(self, model: JobModel) -> None:
        """Adopt a refined model for subsequent iterations (P1 feedback)."""
        validate_model(model)
        model.version = self.model.version + 1
        self.model = model
