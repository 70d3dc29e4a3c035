"""Property-based tests (hypothesis): fleet scans are source-invariant.

For stores of random archives — random tree shapes, int/float/missing
timestamps, heterogeneous info values, partially absent metadata — a
fleet query must return the document the plain-walk reference in
``tests/core/query_reference.py`` returns (every job's tree walked)
whether each job is read from its ``.gcol`` sidecar or, on a copy of
the store without sidecars, from its JSON document's own columns; only
``degraded_jobs`` may differ.  When sidecars are corrupted or deleted,
the scan must degrade per job (reported in ``degraded_jobs``), never
change a value.  And a fleet split across several stores, merged the
way the cluster router merges its shards, must answer what one store
holding every job answers.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.fleet import (
    merge_fleet_documents,
    run_fleet_query,
)
from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.store import ArchiveStore
from tests.conftest import sidecarless_fleet_query
from tests.core.query_reference import reference_fleet_query

MISSIONS = ("Load", "Compute", "Step-0", "Step-1", "Step-12", "IO-2",
            "Step-007", "a--1", "Step-1-2", "-3", "Wörk-1")
ACTORS = ("Master", "Worker-1", "Worker-2")
INFO_KEYS = ("Duration", "Bytes", "Status")
PLATFORMS = ("Giraph", "PowerGraph", "")

timestamps = st.one_of(
    st.none(),
    st.floats(min_value=0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    st.integers(min_value=0, max_value=10**9),
)
info_values = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    st.none(),
    st.sampled_from(("SUCCEEDED", "12.5", "Infinity", "")),
)

PLANS = (
    FleetPlan.from_params(
        {"group_by": "platform,meta:flavor",
         "agg": "count,sum,mean,min,max,p50,p95,top3"}),
    FleetPlan.from_params(
        {"group_by": "platform", "agg": "count,mean,p90,top2",
         "metric": "Bytes"}),
    FleetPlan.from_params(
        {"group_by": "platform", "agg": "sum", "mission": "Step"},
        op="series"),
    FleetPlan.from_params({"group_by": "platform", "k": "1.0"},
                          op="regressions"),
    FleetPlan.from_params({"group_by": "meta:flavor", "k": "0.5",
                           "path": "*/**"}, op="regressions"),
)


@st.composite
def stores_of_archives(draw, integral=False):
    """2–5 random archives, keyed for one ArchiveStore.

    ``integral`` keeps every timestamp and info value a small whole
    number: float sums are then exact whatever the fold order, and
    equal values (top-k ties) are common.
    """
    stamps, values = timestamps, info_values
    if integral:
        stamps = st.one_of(st.none(), st.integers(0, 20))
        values = st.one_of(st.none(), st.integers(-5, 5))
    jobs = draw(st.integers(min_value=2, max_value=5))
    archives = []
    for j in range(jobs):
        count = draw(st.integers(min_value=1, max_value=10))
        ops = []
        for index in range(count):
            op = ArchivedOperation(
                uid=f"j{j}op{index}",
                mission=draw(st.sampled_from(MISSIONS)),
                actor=draw(st.sampled_from(ACTORS)),
                start_time=draw(stamps),
                end_time=draw(stamps),
                infos=draw(st.dictionaries(
                    st.sampled_from(INFO_KEYS), values,
                    max_size=2)),
            )
            if index:
                parent = ops[draw(st.integers(0, index - 1))]
                op.parent = parent
                parent.children.append(op)
            ops.append(op)
        metadata = {}
        if draw(st.booleans()):
            metadata["flavor"] = draw(st.sampled_from(("fast", "slow")))
        archives.append(PerformanceArchive(
            f"job-{j:02d}", ops[0],
            platform=draw(st.sampled_from(PLATFORMS)),
            metadata=metadata,
        ))
    return archives


class TestFleetModeInvariance:
    @given(stores_of_archives(), st.sampled_from(PLANS), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_columnar_scan_equals_tree_scan(self, archives, plan, samples):
        """``samples`` also compares what a document only carries for a
        router: sorted value vectors, and every job's per-mission
        regression shares."""
        with tempfile.TemporaryDirectory() as directory:
            store = ArchiveStore(Path(directory) / "s")
            for archive in archives:
                store.save(archive)
            columnar = run_fleet_query(store, plan,
                                       include_samples=samples)
            sidecarless = sidecarless_fleet_query(store, plan,
                                                  include_samples=samples)
            reference = reference_fleet_query(store, plan,
                                              include_samples=samples)
            assert reference["degraded_jobs"] == []
            assert columnar == reference
            assert sidecarless == dict(reference,
                                       degraded_jobs=store.list())

    @given(stores_of_archives())
    @settings(max_examples=25, deadline=None)
    def test_regression_shares_equal_the_tree(self, archives):
        plan = PLANS[3]
        with tempfile.TemporaryDirectory() as directory:
            store = ArchiveStore(Path(directory) / "s")
            for archive in archives:
                store.save(archive)
            columnar = run_fleet_query(store, plan, include_samples=True)
            sidecarless = sidecarless_fleet_query(store, plan,
                                                  include_samples=True)
            reference = reference_fleet_query(store, plan,
                                              include_samples=True)
            assert columnar["shares"] == reference["shares"]
            assert sidecarless["shares"] == reference["shares"]
            for row in columnar["shares"]:
                assert list(row["shares"]) == sorted(row["shares"])

    @given(stores_of_archives(), st.sampled_from(PLANS),
           st.data())
    @settings(max_examples=25, deadline=None)
    def test_damaged_sidecars_degrade_without_changing_values(
        self, archives, plan, data,
    ):
        with tempfile.TemporaryDirectory() as directory:
            store = ArchiveStore(Path(directory) / "s")
            for archive in archives:
                store.save(archive)
            job_ids = store.list()
            victims = sorted(data.draw(st.sets(
                st.sampled_from(job_ids), min_size=1,
                max_size=len(job_ids),
            )))
            for n, job_id in enumerate(victims):
                side = store.sidecar_path(job_id)
                if n % 2:
                    side.unlink()
                else:
                    side.write_bytes(b"GCOL not a real sidecar")
            reference = reference_fleet_query(store, plan)
            columnar = run_fleet_query(store, plan)
            assert columnar["degraded_jobs"] == victims
            assert dict(columnar, degraded_jobs=[]) == reference


class TestFleetMergeInvariance:
    @given(stores_of_archives(integral=True), st.sampled_from(PLANS),
           st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_merged_partials_equal_the_single_pass(
        self, archives, plan, partials, data,
    ):
        """Jobs dealt over 1–4 stores (some possibly left empty), each
        asked with ``samples`` and merged, answer exactly what one
        store answers: count/min/max/pNN/topK always, sum/mean because
        the values are whole numbers."""
        with tempfile.TemporaryDirectory() as directory:
            union = ArchiveStore(Path(directory) / "union")
            stores = [ArchiveStore(Path(directory) / f"part-{index}")
                      for index in range(partials)]
            for archive in archives:
                union.save(archive)
                stores[data.draw(st.integers(0, partials - 1))].save(
                    archive
                )
            merged = merge_fleet_documents(
                plan,
                [run_fleet_query(store, plan, include_samples=True)
                 for store in stores],
                False,
            )
            assert merged == run_fleet_query(union, plan)
