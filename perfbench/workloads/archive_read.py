"""``archive_read``: the analyst's read side, in-process.

Set-up stores several hundred synthetic archives — far more than any
cache holds — and deletes a few ``.gcol`` sidecars so the fallback
path is exercised.  Ops are drawn by the seed: mostly point queries
with an 80/20 key skew, some full tree reads with analysis, a few HTML
reports and a few fleet plans over the whole store.  Columnar, query,
fleet and the store index do the work and nothing is written, which
makes this the counter-workload to ``ingest_archive`` for any format
change.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.core.analysis.chokepoint import find_choke_points
from repro.core.analysis.diagnosis import diagnose
from repro.core.analysis.fleet import run_fleet_query
from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.query import ArchiveQuery
from repro.core.archive.store import ArchiveStore
from repro.core.visualize.breakdown import compute_breakdown
from repro.core.visualize.render_html import render_report_html

from perfbench import steps
from perfbench.harness import Op, Workload, disk_bytes
from perfbench.inputs import (
    SkewedKeys,
    fleet_reference,
    pass_schedule,
    query_battery,
    reference_battery,
    synthetic_archives,
)
from perfbench.trace import Recorder

#: One pass: 70 % point queries, 20 % tree reads, 5 % reports, 5 % fleet
#: plans (each of the four plans once).
PASS = (("point_query", 56), ("tree_read", 16), ("report", 4), ("fleet", 4))
DEGRADED_JOBS = 8

#: The fleet plans, taken round-robin.  The first groups by platform so
#: its counts and sums can be checked against the plain-walk reference.
FLEET_PLANS = (
    ("query", {"group_by": "platform", "agg": "count,sum,mean,p95,top3"}),
    ("query", {"group_by": "dataset", "agg": "mean,max",
               "metric": "ProcessedVertices"}),
    ("series", {"group_by": "platform", "agg": "sum",
                "mission": "Superstep"}),
    ("regressions", {"group_by": "platform,algorithm", "k": "2.5"}),
)


def populate(store: ArchiveStore, archives: List[Any]) -> None:
    for archive in archives:
        store.save(archive, overwrite=True)


def degrade(store: ArchiveStore, keys: SkewedKeys, count: int) -> List[str]:
    """Delete some sidecars, half of them in the hot set; the victims."""
    half = count // 2
    victims = keys.hot[:half] + keys.cold[:count - half]
    for job_id in victims:
        store.sidecar_path(job_id).unlink()
    return sorted(victims)


class ArchiveRead(Workload):
    name = "archive_read"

    def setup(self, rec: Any) -> None:
        rng = random.Random(self.ctx.seed)
        count = 24 if self.ctx.quick else 400
        directory = self.ctx.root / "read-store"
        shutil.rmtree(directory, ignore_errors=True)
        archives = synthetic_archives("fleet", count, rng)
        populate(ArchiveStore(directory), archives)
        self.reference = {a.job_id: reference_battery(a) for a in archives}
        self.makespan = {a.job_id: a.makespan for a in archives}
        self.fleet_reference = fleet_reference(archives)
        self.stored_operations = sum(a.size() for a in archives)
        self.keys = SkewedKeys(list(self.reference), rng)
        # The store as a fresh analyst process opens it.
        self.store = ArchiveStore(directory)
        self.degraded = degrade(
            self.store, self.keys, 2 if self.ctx.quick else DEGRADED_JOBS)
        self.rng = rng
        self.plans = [
            FleetPlan.from_params(params, op=op) for op, params in FLEET_PLANS
        ]
        self.next_plan = 0

    # -- one pass ------------------------------------------------------------

    def run_pass(self, rec: Any) -> List[Op]:
        handlers: Dict[str, Callable[[Any], bool]] = {
            "point_query": self._point_query, "tree_read": self._tree_read,
            "report": self._report, "fleet": self._fleet,
        }
        ops = []
        for cls in pass_schedule(self.rng, PASS):
            started = time.perf_counter()
            ok = handlers[cls](rec)
            ops.append(Op(cls, time.perf_counter() - started, ok))
        return ops

    def _point_query(self, rec: Any) -> bool:
        job_id = self.keys.draw(self.rng)
        with rec.span("core.archive.columnar.open", op=job_id):
            view = self.store.columnar_view(job_id)
        if view is None:
            archive = self._load(rec, job_id)
            with rec.span("core.archive.query.battery"):
                answer = query_battery(ArchiveQuery(archive))
        else:
            with rec.span("core.archive.columnar.battery"):
                answer = query_battery(view)
            view.close()
        return answer == self.reference[job_id]

    def _load(self, rec: Any, job_id: str) -> Any:
        with rec.span("core.archive.serialize.from_json", op=job_id) as span:
            archive = self.store.load(job_id)
            span.counts["operations"] = archive.size()
        return archive

    def _tree_read(self, rec: Any) -> bool:
        job_id = self.keys.draw(self.rng)
        archive = self._load(rec, job_id)
        with rec.span("core.visualize.compute"):
            breakdown = compute_breakdown(archive)
        with rec.span("core.analysis.diagnosis.diagnose"):
            diagnose(archive)
        with rec.span("core.analysis.chokepoint.find"):
            find_choke_points(archive)
        return (archive.size() == self.reference[job_id][0]
                and breakdown.total == self.makespan[job_id])

    def _report(self, rec: Any) -> bool:
        job_id = self.keys.draw(self.rng)
        archive = self._load(rec, job_id)
        with rec.span("core.visualize.render_html"):
            html = render_report_html([archive])
        return job_id in html

    def _fleet(self, rec: Any) -> bool:
        index = self.next_plan % len(self.plans)
        self.next_plan += 1
        plan = self.plans[index]
        with rec.span(f"core.analysis.fleet.{plan.op}") as span:
            result = run_fleet_query(self.store, plan)
            span.counts["jobs"] = result["jobs_scanned"]
            span.counts["degraded"] = len(result["degraded_jobs"])
        ok = (result["jobs_scanned"] == len(self.reference)
              and result["jobs_failed"] == 0
              and sorted(result["degraded_jobs"]) == self.degraded)
        if index == 0:
            groups = {g["key"]["platform"]: g["aggs"]
                      for g in result["groups"]}
            ok = ok and groups.keys() == self.fleet_reference.keys() and all(
                groups[name]["count"] == expect["count"]
                and math.isclose(groups[name]["sum"], expect["sum"],
                                 rel_tol=1e-9)
                for name, expect in self.fleet_reference.items())
        return ok

    def stored(self) -> Tuple[int, int]:
        return disk_bytes(self.store.directory), self.stored_operations

    # -- layer numbers ---------------------------------------------------------

    def layer_metrics(self, rec: Recorder) -> Dict[str, float]:
        directory = self.store.directory
        with rec.span("core.archive.store.open"):
            store = ArchiveStore(directory)
        with rec.span("core.archive.store.list"):
            store.list()
        # Last: it rewrites the index the passes above were reading.
        with rec.span("core.archive.store.rebuild_index"):
            store.rebuild_index()
        fleet = [s for s in rec.spans
                 if s.name.startswith("core.analysis.fleet.")]
        return {
            "core.archive.columnar.open_us": steps.median_ms(
                rec.named("core.archive.columnar.open")) * 1e3,
            "core.archive.columnar.battery_us": steps.median_ms(
                rec.named("core.archive.columnar.battery")) * 1e3,
            "core.archive.query.battery_us": steps.median_ms(
                rec.named("core.archive.query.battery")) * 1e3,
            "core.archive.serialize.from_json_us_per_operation":
                steps.per_count(
                    rec.named("core.archive.serialize.from_json"),
                    "operations"),
            "core.archive.store.open_ms": steps.median_ms(
                rec.named("core.archive.store.open")),
            "core.archive.store.list_ms": steps.median_ms(
                rec.named("core.archive.store.list")),
            "core.archive.store.rebuild_index_ms": steps.median_ms(
                rec.named("core.archive.store.rebuild_index")),
            "core.analysis.fleet.query_ms": steps.median_ms(
                rec.named("core.analysis.fleet.query")),
            "core.analysis.fleet.series_ms": steps.median_ms(
                rec.named("core.analysis.fleet.series")),
            "core.analysis.fleet.regressions_ms": steps.median_ms(
                rec.named("core.analysis.fleet.regressions")),
            "core.analysis.fleet.us_per_job": steps.per_count(fleet, "jobs"),
            "core.analysis.fleet.columnar_share": 1.0 - steps.count_ratio(
                fleet, "degraded", "jobs") if fleet else 0.0,
            "core.analysis.diagnosis.diagnose_ms": steps.median_ms(
                rec.named("core.analysis.diagnosis.diagnose")),
            "core.analysis.chokepoint.find_ms": steps.median_ms(
                rec.named("core.analysis.chokepoint.find")),
            "core.visualize.compute_ms": steps.median_ms(
                rec.named("core.visualize.compute")),
            "core.visualize.render_html_ms": steps.median_ms(
                rec.named("core.visualize.render_html")),
        }
