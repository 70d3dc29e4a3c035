"""Property-based tests (hypothesis): fleet scans are source-invariant.

For stores of random archives — random tree shapes, int/float/missing
timestamps, heterogeneous info values, partially absent metadata — a
fleet query must return the document the plain-walk reference in
``tests/core/query_reference.py`` returns (every job's tree walked)
whether each job is read from its ``.gcol`` sidecar or, on a copy of
the store without sidecars, from its JSON document's own columns; only
``degraded_jobs`` may differ.  When sidecars are corrupted or deleted,
the scan must degrade per job (reported in ``degraded_jobs``), never
change a value — and a flipped byte degrades its job exactly when it
lies in a column the plan reads.  And a fleet split across several
stores, merged the way the cluster router merges its shards, must
answer what one store holding every job answers — whether the shards
send their sample vectors as JSON float lists or packed.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.fleet import (
    PACKED,
    merge_fleet_documents,
    pack_samples,
    run_fleet_query,
    unpack_samples,
)
from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.store import ArchiveStore
from tests.conftest import sidecarless_fleet_query
from tests.core.query_reference import reference_fleet_query
from tests.core.test_fleet_verification import (
    column_spans,
    columns_read,
    data_region,
    flip,
)

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


#: Float64 edge values, NaN-free: signed zeros, the smallest subnormal
#: and normal, and the largest finite value (a sum may overflow to
#: +inf, never meet -inf).
EXTREMES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, -1.5,
            1e16, 1.7976931348623157e308)


@st.composite
def stores_of_archives(draw, integral=False, extreme=False):
    """2–5 random archives, keyed for one ArchiveStore.

    ``integral`` keeps every timestamp and info value a small whole
    number: float sums are then exact whatever the fold order, and
    equal values (top-k ties) are common.  ``extreme`` keeps the
    timestamps whole and draws info values from :data:`EXTREMES`.
    """
    stamps, values = timestamps, info_values
    if integral or extreme:
        stamps = st.one_of(st.none(), st.integers(0, 20))
        values = st.one_of(st.none(), st.integers(-5, 5))
    if extreme:
        values = st.one_of(st.none(), st.sampled_from(EXTREMES))
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


    @given(stores_of_archives(), st.sampled_from(PLANS), st.data())
    @settings(max_examples=25, deadline=None)
    def test_flips_degrade_exactly_the_jobs_whose_read_columns_moved(
        self, archives, plan, data,
    ):
        """Random single-byte flips in sidecar data regions: the
        answer stays the reference's, and a job is degraded exactly
        when a flip lands in a column its plan reads."""
        with tempfile.TemporaryDirectory() as directory:
            store = ArchiveStore(Path(directory) / "s")
            for archive in archives:
                store.save(archive)
            read = columns_read(store, plan)
            expected = []
            for job_id in store.list():
                side = store.sidecar_path(job_id)
                start, end = data_region(side)
                if not data.draw(st.booleans()) or start == end:
                    continue
                offset = data.draw(st.integers(start, end - 1))
                flip(side, offset, data.draw(st.integers(1, 255)))
                if any(at <= offset < at + nbytes
                       for name, (at, nbytes) in column_spans(side).items()
                       if name in read[job_id]):
                    expected.append(job_id)
            columnar = run_fleet_query(store, plan)
            assert columnar["degraded_jobs"] == expected
            assert dict(columnar, degraded_jobs=[]) == \
                reference_fleet_query(store, plan)


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

    @staticmethod
    def deal(directory, archives, partials, data):
        """A union store plus the archives dealt over ``partials``
        stores (some possibly left empty)."""
        union = ArchiveStore(Path(directory) / "union")
        stores = [ArchiveStore(Path(directory) / f"part-{index}")
                  for index in range(partials)]
        for archive in archives:
            union.save(archive)
            stores[data.draw(st.integers(0, partials - 1))].save(archive)
        return union, stores

    @given(stores_of_archives(integral=True), st.sampled_from(PLANS),
           st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_packed_partials_merge_like_json_partials(
        self, archives, plan, partials, data,
    ):
        """The router's wire form: shards answering with packed sample
        vectors merge to the single-store answer, and to exactly what
        JSON-sample shards merge to — with the client's own
        ``samples=1`` vectors too, still a JSON float list."""
        with tempfile.TemporaryDirectory() as directory:
            union, stores = self.deal(directory, archives, partials, data)
            packed = [run_fleet_query(store, plan, include_samples=PACKED)
                      for store in stores]
            listed = [run_fleet_query(store, plan, include_samples=True)
                      for store in stores]
            for document in packed:
                for group in document.get("groups", []):
                    assert isinstance(group["samples"], str)
            merged = merge_fleet_documents(plan, packed, False)
            assert merged == run_fleet_query(union, plan)
            assert merged == merge_fleet_documents(plan, listed, False)
            if plan.op == "query":
                with_samples = merge_fleet_documents(plan, packed, True)
                assert with_samples == run_fleet_query(
                    union, plan, include_samples=True
                )
                for group in with_samples["groups"]:
                    assert isinstance(group["samples"], list)

    @given(stores_of_archives(extreme=True),
           st.sampled_from(PLANS[:2]),
           st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_packed_partials_keep_extreme_values(
        self, archives, plan, partials, data,
    ):
        """Subnormals, signed zeros and the largest finite float cross
        the packed hop bit for bit (the packed merge's repr is the JSON
        merge's); groups with no values at all pack to an empty
        vector."""
        with tempfile.TemporaryDirectory() as directory:
            union, stores = self.deal(directory, archives, partials, data)
            packed = merge_fleet_documents(plan, [
                run_fleet_query(store, plan, include_samples=PACKED)
                for store in stores
            ], True)
            listed = merge_fleet_documents(plan, [
                run_fleet_query(store, plan, include_samples=True)
                for store in stores
            ], True)
            single = run_fleet_query(union, plan, include_samples=True)
            assert repr(packed) == repr(listed)
            assert [g["key"] for g in packed["groups"]] == \
                [g["key"] for g in single["groups"]]
            for merged, alone in zip(packed["groups"], single["groups"]):
                # Sums fold in another order across stores, and so may
                # the sign of a zero; every value must still be equal.
                assert merged["samples"] == alone["samples"]
                for label, value in alone["aggs"].items():
                    if label not in ("sum", "mean"):
                        assert merged["aggs"][label] == value


def test_pack_round_trips_every_bit():
    values = np.array(sorted(EXTREMES), dtype=np.float64)
    for vector in (values, values[:0], values[-1:]):
        packed = pack_samples(vector)
        assert isinstance(packed, str) and packed.isascii()
        assert unpack_samples(packed).tobytes() == vector.tobytes()
    assert unpack_samples([0.5, -0.0]).tolist() == [0.5, -0.0]


def test_group_sum_past_the_largest_float_reads_inf():
    """Two largest-float values in one job sum to inf without a numpy
    overflow warning, as the Python-float merge of shard sums does."""
    largest = 1.7976931348623157e308
    root = ArchivedOperation(uid="r", mission="Load", actor="Master",
                             infos={"Bytes": largest})
    child = ArchivedOperation(uid="c", mission="Step-1", actor="Master",
                              infos={"Bytes": largest})
    child.parent = root
    root.children.append(child)
    with tempfile.TemporaryDirectory() as directory:
        store = ArchiveStore(Path(directory) / "s")
        store.save(PerformanceArchive("job-00", root, platform="Giraph"))
        plan = FleetPlan.from_params(
            {"group_by": "platform", "agg": "sum", "metric": "Bytes"})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            document = run_fleet_query(store, plan)
    assert document["groups"][0]["aggs"]["sum"] == float("inf")
