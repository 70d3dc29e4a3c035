"""Unit tests for archives: structure, builder, query, serialize, store."""

import json
import math
import re
import sys
import threading

import pytest

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.builder import build_archive
from repro.core.archive.query import ArchiveQuery
from repro.core.archive import serialize
from repro.core.archive.integrity import repair_archive
from repro.core.archive.serialize import (
    archive_from_json,
    archive_to_document,
    archive_to_json,
    document_to_archive,
    payload_checksum,
)
from repro.core.archive.store import ArchiveStore
from repro.core.model.giraph_model import giraph_model
from repro.core.monitor.live import LiveMonitor
from repro.errors import ArchiveBuildError, ArchiveError, QueryError
from tests.conftest import columns_run


def make_archive():
    root = ArchivedOperation("u0", "Job", "Client", 0.0, 10.0)
    load = ArchivedOperation("u1", "LoadGraph", "Master", 0.0, 4.0,
                             parent=root)
    root.children.append(load)
    for i in range(2):
        worker_op = ArchivedOperation(
            f"u2{i}", "LocalLoad", f"Worker-{i + 1}", 0.0, 2.0 + i,
            infos={"BytesRead": 100 * (i + 1)}, parent=load,
        )
        load.children.append(worker_op)
    process = ArchivedOperation("u3", "ProcessGraph", "Master", 4.0, 10.0,
                                parent=root)
    root.children.append(process)
    for k in range(3):
        step = ArchivedOperation(
            f"u4{k}", f"Superstep-{k}", "Master", 4.0 + 2 * k,
            6.0 + 2 * k, infos={"Duration": 2.0}, parent=process,
        )
        process.children.append(step)
    return PerformanceArchive("job-x", root, platform="Test",
                              env_samples=[(0.0, "n1", 2.0), (1.0, "n1", 3.0)])


class TestArchivedOperation:
    def test_duration(self):
        assert ArchivedOperation("u", "A", "x", 1.0, 3.5).duration == 2.5
        assert ArchivedOperation("u", "A", "x").duration is None

    def test_mission_iteration_split(self):
        op = ArchivedOperation("u", "Compute-4", "Worker-2")
        assert op.mission_base == "Compute"
        assert op.iteration == 4
        assert op.actor_base == "Worker"
        assert op.actor_index == 2

    def test_path(self):
        archive = make_archive()
        local = archive.find(mission_base="LocalLoad")[0]
        assert local.path == "Job/LoadGraph/LocalLoad"

    def test_child_lookup(self):
        archive = make_archive()
        assert archive.root.child("LoadGraph").uid == "u1"
        with pytest.raises(ArchiveError):
            archive.root.child("Ghost")

    def test_children_of(self):
        archive = make_archive()
        process = archive.root.child("ProcessGraph")
        assert len(process.children_of("Superstep")) == 3


class TestPerformanceArchive:
    def test_requires_job_id(self):
        with pytest.raises(ArchiveError):
            PerformanceArchive("", ArchivedOperation("u", "A", "x"))

    def test_duplicate_uid_rejected(self):
        root = ArchivedOperation("u", "A", "x")
        child = ArchivedOperation("u", "B", "x", parent=root)
        root.children.append(child)
        with pytest.raises(ArchiveError):
            PerformanceArchive("j", root)

    def test_size_and_lookup(self):
        archive = make_archive()
        assert archive.size() == 8
        assert archive.operation("u1").mission == "LoadGraph"
        with pytest.raises(ArchiveError):
            archive.operation("ghost")

    def test_makespan(self):
        assert make_archive().makespan == 10.0

    def test_find_filters(self):
        archive = make_archive()
        assert len(archive.find(mission_base="Superstep")) == 3
        assert len(archive.find(mission="Superstep-1")) == 1
        assert len(archive.find(actor_base="Worker")) == 2
        assert len(archive.find(actor="Worker-2")) == 1
        assert archive.find(mission="Nope") == []

    def test_node_env_series(self):
        series = make_archive().node_env_series()
        assert series == {"n1": [(0.0, 2.0), (1.0, 3.0)]}


class TestBuilder:
    def test_build_minimal_tree(self):
        run = columns_run([
            "GRANULA ts=0 job=j event=start uid=a parent=- mission=Job actor=C",
            "GRANULA ts=1 job=j event=info uid=a name=Bytes value=42",
            "GRANULA ts=2 job=j event=end uid=a",
        ])
        archive, report = build_archive(run)
        assert archive.root.mission == "Job"
        assert archive.root.infos["Bytes"] == 42
        assert archive.root.infos["Duration"] == 2.0
        assert report.infos_recorded == 1

    def test_info_values_typed(self):
        run = columns_run([
            "GRANULA ts=0 job=j event=start uid=a parent=- mission=Job actor=C",
            "GRANULA ts=0 job=j event=info uid=a name=I value=7",
            "GRANULA ts=0 job=j event=info uid=a name=F value=1.5",
            "GRANULA ts=0 job=j event=info uid=a name=S value=hello",
            "GRANULA ts=1 job=j event=end uid=a",
        ])
        archive, _report = build_archive(run)
        assert archive.root.infos["I"] == 7
        assert archive.root.infos["F"] == 1.5
        assert archive.root.infos["S"] == "hello"

    def test_double_start_rejected(self):
        run = columns_run([
            "GRANULA ts=0 job=j event=start uid=a parent=- mission=A actor=C",
            "GRANULA ts=0 job=j event=start uid=a parent=- mission=A actor=C",
        ])
        with pytest.raises(ArchiveBuildError, match="operation a started twice"):
            build_archive(run)

    def test_unknown_parent_rejected(self):
        run = columns_run([
            "GRANULA ts=0 job=j event=start uid=a parent=ghost "
            "mission=A actor=C",
        ])
        with pytest.raises(ArchiveBuildError, match="operation a references unknown parent ghost"):
            build_archive(run)

    def test_end_without_start_rejected(self):
        run = columns_run(["GRANULA ts=0 job=j event=end uid=ghost"])
        with pytest.raises(ArchiveBuildError, match="end event for unknown operation ghost"):
            build_archive(run)

    def test_double_end_rejected(self):
        run = columns_run([
            "GRANULA ts=0 job=j event=start uid=a parent=- mission=A actor=C",
            "GRANULA ts=1 job=j event=end uid=a",
            "GRANULA ts=2 job=j event=end uid=a",
        ])
        with pytest.raises(ArchiveBuildError, match="operation a ended twice"):
            build_archive(run)

    def test_dangling_operation_rejected(self):
        run = columns_run([
            "GRANULA ts=0 job=j event=start uid=a parent=- mission=A actor=C",
        ])
        with pytest.raises(ArchiveBuildError, match="1 operations never ended"):
            build_archive(run)

    def test_multiple_roots_rejected(self):
        run = columns_run([
            "GRANULA ts=0 job=j event=start uid=a parent=- mission=A actor=C",
            "GRANULA ts=0 job=j event=start uid=b parent=- mission=B actor=C",
            "GRANULA ts=1 job=j event=end uid=a",
            "GRANULA ts=1 job=j event=end uid=b",
        ])
        with pytest.raises(ArchiveBuildError, match="log contains 2 root operations"):
            build_archive(run)

    def test_info_for_unknown_op_rejected(self):
        run = columns_run([
            "GRANULA ts=0 job=j event=info uid=ghost name=X value=1",
        ])
        with pytest.raises(ArchiveBuildError, match="info event for unknown operation ghost"):
            build_archive(run)

    def test_log_without_operations_rejected(self):
        with pytest.raises(ArchiveBuildError, match="no root operation"):
            build_archive(columns_run([]))

    def test_full_run_with_model(self, giraph_run):
        archive, report = build_archive(giraph_run, giraph_model())
        assert report.unmodeled == []
        assert report.rules_applied > 0
        assert archive.platform == "Giraph"
        assert archive.metadata["algorithm"] == "bfs"
        # Domain shares derived on every domain operation.
        for mission in ("Startup", "LoadGraph", "ProcessGraph",
                        "OffloadGraph", "Cleanup"):
            domain_op = archive.root.child(mission)
            assert 0.0 <= domain_op.infos["ShareOfParent"] <= 1.0

    def test_build_without_model(self, giraph_run):
        archive, report = build_archive(giraph_run, model=None)
        assert archive.platform == ""
        assert report.rules_applied == 0
        assert archive.root.infos["Duration"] > 0

    def test_unmodeled_reported_with_truncated_model(self, giraph_run):
        coarse = giraph_model().truncated(1)
        _archive, report = build_archive(giraph_run, coarse)
        assert ("Superstep", "Master") in report.unmodeled


class TestQuery:
    @pytest.fixture()
    def archive(self):
        return make_archive()

    def test_path_glob(self, archive):
        q = ArchiveQuery(archive)
        assert len(q.path("Job/ProcessGraph/Superstep-*")) == 3
        assert len(q.path("Job/*/LocalLoad")) == 2

    def test_path_glob_star_stays_in_segment(self, archive):
        # Regression: fnmatch translated * to .*, so Job/* matched
        # arbitrarily deep descendants like Job/ProcessGraph/Superstep-1.
        q = ArchiveQuery(archive)
        assert {op.mission for op in q.path("Job/*").operations()} == {
            "LoadGraph", "ProcessGraph"}
        assert len(q.path("Job/Superstep-*")) == 0

    def test_path_glob_globstar_any_depth(self, archive):
        q = ArchiveQuery(archive)
        assert len(q.path("Job/**")) == 8  # includes Job itself
        assert {op.mission for op in q.path("**/LocalLoad").operations()} \
            == {"LocalLoad"}
        assert len(q.path("Job/**/Superstep-*")) == 3
        assert len(q.path("**")) == 8

    def test_path_glob_question_mark(self, archive):
        q = ArchiveQuery(archive)
        assert len(q.path("Job/ProcessGraph/Superstep-?")) == 3
        assert len(q.path("Job/ProcessGraph/Superstep?0")) == 1

    def test_path_glob_rejects_bad_patterns(self, archive):
        q = ArchiveQuery(archive)
        with pytest.raises(QueryError):
            q.path("")
        with pytest.raises(QueryError):
            q.path("Job/Process**")

    def test_mission_and_actor(self, archive):
        q = ArchiveQuery(archive)
        assert len(q.mission("Superstep")) == 3
        assert len(q.actor("Worker")) == 2

    def test_iteration_filter(self, archive):
        q = ArchiveQuery(archive)
        assert q.iteration(2).one().mission == "Superstep-2"

    def test_where(self, archive):
        q = ArchiveQuery(archive).where(lambda op: op.duration > 5)
        assert {op.mission for op in q.operations()} == {"Job",
                                                         "ProcessGraph"}

    def test_one_requires_single(self, archive):
        with pytest.raises(QueryError):
            ArchiveQuery(archive).mission("Superstep").one()
        with pytest.raises(QueryError):
            ArchiveQuery(archive).mission("Ghost").one()

    def test_first(self, archive):
        assert ArchiveQuery(archive).mission("Superstep").first().iteration == 0
        with pytest.raises(QueryError):
            ArchiveQuery(archive).mission("Ghost").first()

    def test_values_and_total(self, archive):
        q = ArchiveQuery(archive).mission("LocalLoad")
        assert q.values("BytesRead") == [100, 200]
        assert q.total("BytesRead") == 300

    def test_mean(self, archive):
        assert ArchiveQuery(archive).mission("Superstep").mean() == 2.0
        with pytest.raises(QueryError):
            ArchiveQuery(archive).mission("Ghost").mean()

    def test_top(self, archive):
        top = ArchiveQuery(archive).mission("LocalLoad").top("BytesRead", 1)
        assert top[0].infos["BytesRead"] == 200
        with pytest.raises(QueryError):
            ArchiveQuery(archive).top("Duration", 0)

    def test_aggregation_rejects_non_numeric(self, archive):
        # Regression: a string info leaked a raw ValueError out of
        # total/mean/top instead of a typed QueryError.
        archive.operation("u20").infos["Status"] = "SUCCEEDED"
        q = ArchiveQuery(archive).mission("LocalLoad")
        with pytest.raises(QueryError, match="not numeric"):
            q.total("Status")
        with pytest.raises(QueryError, match="not numeric"):
            q.mean("Status")
        with pytest.raises(QueryError, match="not numeric"):
            q.top("Status")
        # A query is a snapshot of the archive: see a mutation through
        # a fresh one.
        archive.operation("u20").infos["Nested"] = [1, 2]
        with pytest.raises(QueryError, match="not numeric"):
            ArchiveQuery(archive).mission("LocalLoad").total("Nested")

    def test_aggregation_rejects_boolean(self, archive):
        archive.operation("u20").infos["Cached"] = True
        q = ArchiveQuery(archive).mission("LocalLoad")
        with pytest.raises(QueryError, match="boolean"):
            q.total("Cached")
        with pytest.raises(QueryError, match="boolean"):
            q.mean("Cached")

    def test_group_by_actor(self, archive):
        groups = ArchiveQuery(archive).mission("LocalLoad").group_by_actor()
        assert sorted(groups) == ["Worker-1", "Worker-2"]

    def test_group_by_iteration(self, archive):
        groups = ArchiveQuery(archive).mission("Superstep").group_by_iteration()
        assert sorted(groups) == [0, 1, 2]

    def test_durations(self, archive):
        assert ArchiveQuery(archive).mission("Superstep").durations() == [
            2.0, 2.0, 2.0]


class TestSerialize:
    def test_roundtrip(self):
        archive = make_archive()
        clone = archive_from_json(archive_to_json(archive))
        assert clone.job_id == archive.job_id
        assert clone.size() == archive.size()
        assert clone.env_samples == archive.env_samples
        local = clone.find(mission_base="LocalLoad")
        assert [op.infos["BytesRead"] for op in local] == [100, 200]

    def test_infinity_handling(self):
        root = ArchivedOperation("u", "A", "x", 0.0, 1.0,
                                 infos={"Dist": math.inf})
        archive = PerformanceArchive("j", root)
        clone = archive_from_json(archive_to_json(archive))
        assert clone.root.infos["Dist"] == math.inf

    #: A version-2 (nested operations) document as the writer removed
    #: in PR 12 wrote it, checksum included.  Nothing writes this layout
    #: any more; the reader keeps accepting it.
    NESTED_V2 = (
        '{"format":"granula-archive","format_version":2,"job_id":"j",'
        '"platform":"","metadata":{},"environment":[],'
        '"operations":{"uid":"u","mission":"A","actor":"x","start":0.0,'
        '"end":1.0,"infos":{"Label":"\\\\Infinity","Neg":"\\\\-Infinity",'
        '"Escaped":"\\\\\\\\Infinity","Dist":"Infinity",'
        '"NegDist":"-Infinity"},"children":[{"uid":"c","mission":"B",'
        '"actor":"y","start":0.0,"end":0.5,"infos":{"Hops":"Infinity"},'
        '"children":[]}]},"integrity":{"algorithm":"sha256","checksum":'
        '"95752ae8e8ac326eb7508033fe9edef451305f441b00ba65fac71008c91075f3"}}'
    )

    @pytest.mark.parametrize("version", [2, 3])
    def test_literal_infinity_string_roundtrips(self, version):
        # A *string* info value that happens to spell a sentinel must
        # not come back as a float — _decode_value used to turn any
        # value comparing equal to "Infinity" into math.inf.
        infos = {
            "Label": "Infinity",
            "Neg": "-Infinity",
            "Escaped": "\\Infinity",
            "Dist": math.inf,
            "NegDist": -math.inf,
        }
        root = ArchivedOperation("u", "A", "x", 0.0, 1.0, infos=dict(infos))
        child = ArchivedOperation("c", "B", "y", 0.0, 0.5,
                                  infos={"Hops": math.inf}, parent=root)
        root.children.append(child)
        text = (self.NESTED_V2 if version == 2
                else archive_to_json(PerformanceArchive("j", root)))
        assert f'"format_version":{version}' in text
        clone = archive_from_json(text)
        assert clone.root.infos == infos
        assert isinstance(clone.root.infos["Label"], str)
        assert isinstance(clone.root.infos["Dist"], float)
        assert clone.root.children[0].infos == {"Hops": math.inf}
        assert clone.root.children[0].parent is clone.root

    def test_rejects_non_json(self):
        with pytest.raises(ArchiveError):
            archive_from_json("{not json")

    def test_rejects_foreign_document(self):
        with pytest.raises(ArchiveError):
            archive_from_json('{"format": "something-else"}')

    def test_rejects_wrong_version(self):
        text = archive_to_json(make_archive()).replace(
            '"format_version":3', '"format_version":99')
        assert '"format_version":99' in text
        with pytest.raises(ArchiveError):
            archive_from_json(text)

    def test_giraph_archive_roundtrip(self, giraph_archive):
        clone = archive_from_json(archive_to_json(giraph_archive))
        assert clone.size() == giraph_archive.size()
        assert clone.makespan == pytest.approx(giraph_archive.makespan)


class TestStore:
    def test_save_load_list(self, tmp_path):
        store = ArchiveStore(tmp_path)
        archive = make_archive()
        path = store.save(archive)
        assert path.exists()
        assert "job-x" in store
        assert len(store) == 1
        loaded = store.load("job-x")
        assert loaded.size() == archive.size()
        assert store.list() == ["job-x"]

    def test_save_no_overwrite_by_default(self, tmp_path):
        store = ArchiveStore(tmp_path)
        store.save(make_archive())
        with pytest.raises(ArchiveError):
            store.save(make_archive())
        store.save(make_archive(), overwrite=True)

    def test_load_missing(self, tmp_path):
        with pytest.raises(ArchiveError):
            ArchiveStore(tmp_path).load("ghost")

    def test_delete(self, tmp_path):
        store = ArchiveStore(tmp_path)
        store.save(make_archive())
        store.delete("job-x")
        assert "job-x" not in store
        with pytest.raises(ArchiveError):
            store.delete("job-x")

    def test_index_survives_reopen(self, tmp_path):
        ArchiveStore(tmp_path).save(make_archive())
        reopened = ArchiveStore(tmp_path)
        assert reopened.list() == ["job-x"]
        assert reopened.summary("job-x")["platform"] == "Test"

    def test_list_filters(self, tmp_path, giraph_archive):
        store = ArchiveStore(tmp_path)
        store.save(make_archive())
        store.save(giraph_archive)
        assert store.list(platform="Giraph") == [giraph_archive.job_id]
        assert store.list(platform="Nope") == []
        assert store.list(algorithm="bfs") == [giraph_archive.job_id]
        assert store.list(dataset="tiny") == [giraph_archive.job_id]

    def test_summary_missing(self, tmp_path):
        with pytest.raises(ArchiveError):
            ArchiveStore(tmp_path).summary("ghost")

    @pytest.mark.parametrize("job_id", [
        "../escape", "a/b", "..", ".", "a\\b", "nul\x00byte", ".hidden",
    ])
    def test_path_unsafe_job_ids_rejected(self, tmp_path, job_id):
        # Regression: f"{job_id}.json" was built unvalidated, so a job
        # id carrying separators escaped the store directory.
        store = ArchiveStore(tmp_path)
        root = ArchivedOperation("u", "Job", "C", 0.0, 1.0)
        archive = PerformanceArchive(job_id, root)
        with pytest.raises(ArchiveError, match="job id"):
            store.save(archive)
        with pytest.raises(ArchiveError, match="job id"):
            store.handle(job_id)
        with pytest.raises(ArchiveError, match="job id"):
            store.delete(job_id)
        assert list(tmp_path.parent.glob("*.json")) == []

    def test_checksum_matches_handle_and_memoizes(self, tmp_path):
        store = ArchiveStore(tmp_path)
        store.save(make_archive())
        checksum = store.checksum("job-x")
        assert checksum == store.handle("job-x").checksum
        assert store.checksum("job-x") == checksum  # memoized path
        store.save(make_archive(), overwrite=True)
        assert store.checksum("job-x") == checksum  # same payload
        with pytest.raises(ArchiveError):
            store.checksum("ghost")

    def test_refresh_sees_external_writes(self, tmp_path):
        store = ArchiveStore(tmp_path)
        store.save(make_archive())
        other = ArchiveStore(tmp_path)
        other.save(make_archive_with_id("job-y"))
        assert "job-y" not in store
        assert store.refresh() is True
        assert store.list() == ["job-x", "job-y"]
        assert store.refresh() is False  # nothing changed: stat only

    def test_refresh_handles_deleted_index(self, tmp_path):
        store = ArchiveStore(tmp_path)
        store.save(make_archive())
        (tmp_path / "index.json").unlink()
        assert store.refresh() is True
        assert store.list() == ["job-x"]


def make_archive_with_id(job_id):
    root = ArchivedOperation("u0", "Job", "Client", 0.0, 5.0)
    child = ArchivedOperation("u1", "LoadGraph", "Master", 0.0, 2.0,
                              parent=root)
    root.children.append(child)
    return PerformanceArchive(job_id, root, platform="Test")


class TestHandle:
    def test_makespan_rejects_boolean_timestamps(self, tmp_path):
        # isinstance(True, int) holds, so a damaged document with
        # boolean start/end used to report a makespan of True - False.
        import json

        path = tmp_path / "b.json"
        path.write_text(json.dumps({
            "format": "granula-archive",
            "format_version": 1,
            "job_id": "b",
            "operations": {"uid": "u", "mission": "Job", "actor": "C",
                           "start": False, "end": True, "infos": {},
                           "children": []},
        }))
        from repro.core.archive.store import ArchiveHandle

        assert ArchiveHandle(path).makespan is None

    def test_checksum_computed_for_v1(self, tmp_path):
        import json

        from repro.core.archive.serialize import payload_checksum
        from repro.core.archive.store import ArchiveHandle

        document = {
            "format": "granula-archive",
            "format_version": 1,
            "job_id": "b",
            "operations": {"uid": "u", "mission": "Job", "actor": "C",
                           "start": 0.0, "end": 1.0, "infos": {},
                           "children": []},
        }
        path = tmp_path / "b.json"
        path.write_text(json.dumps(document))
        assert ArchiveHandle(path).checksum == payload_checksum(document)


def bound_text(archive, **columns):
    """The archive's JSON with some operation columns replaced and its
    checksum re-bound: a valid document around damaged columns."""
    document = json.loads(archive_to_json(archive))
    document["operations"].update(columns)
    document["integrity"]["checksum"] = payload_checksum(document)
    return json.dumps(document)


class TestTableBornArchive:
    """Built and v3-loaded archives hold their operations table; the
    tree is built on first use, and what it then says is what renders."""

    @pytest.fixture()
    def trees(self, monkeypatch):
        """Count the trees built from tables."""
        built = []
        build = serialize.tree_of_table

        def counting(table):
            built.append(table["count"])
            return build(table)

        monkeypatch.setattr(serialize, "tree_of_table", counting)
        return built

    def test_headline_fields_query_and_save_build_no_tree(
            self, trees, tmp_path, giraph_run):
        built, _report = build_archive(giraph_run, giraph_model())
        loaded = archive_from_json(archive_to_json(make_archive()))
        for archive in (built, loaded):
            assert archive.table is not None
            assert archive.size() == archive.table["count"]
            assert archive.makespan == (archive.table["end"][0]
                                        - archive.table["start"][0])
            ArchiveStore(tmp_path).save(archive, overwrite=True)
            ArchiveQuery(archive).mission("Superstep").total()
        assert trees == []
        assert loaded.operation("u1").mission == "LoadGraph"
        assert loaded.table is None and trees == [8]
        loaded.walk()
        assert trees == [8]  # Built once.

    def test_threads_share_one_tree(self, trees, giraph_run):
        """A served archive is shared by request threads: the first
        ``.root`` builds the tree once and every thread gets that tree."""
        archive, _report = build_archive(giraph_run, giraph_model())
        barrier = threading.Barrier(8)
        roots = []

        def reader():
            barrier.wait(timeout=10)
            roots.append((archive.root, archive.size(), archive.makespan))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(trees) == 1 and len(roots) == 8
        assert {id(root) for root, _size, _span in roots} == {id(archive.root)}
        assert {(size, span) for _root, size, span in roots} == \
            {(archive.size(), archive.makespan)}

    def test_query_on_the_table_matches_the_tree(self):
        loaded = archive_from_json(archive_to_json(make_archive()))
        table_query = ArchiveQuery(loaded)
        tree_query = ArchiveQuery(make_archive())
        for query in (table_query, tree_query):
            assert query.mission("Superstep").values("Duration") == \
                [2.0, 2.0, 2.0]
        assert [op.uid for op in table_query.actor("Worker").operations()] \
            == [op.uid for op in tree_query.actor("Worker").operations()]

    def test_a_repaired_table_born_archive_stores_the_repair(self, tmp_path):
        def damaged():
            archive = make_archive()
            step = archive.operation("u41")
            step.start_time, step.end_time = step.end_time, step.start_time
            archive.operation("u20").end_time = 99.0
            return archive

        stores = [ArchiveStore(tmp_path / name) for name in ("a", "b", "c")]
        loaded = archive_from_json(archive_to_json(damaged()))
        assert loaded.table is not None
        for store, archive in zip(stores, (loaded, damaged())):
            repaired, fixes = repair_archive(archive)
            assert len(fixes) == 2
            store.save(repaired)
        stores[2].save(damaged())
        checksums = [store.checksum("job-x") for store in stores]
        assert checksums[0] == checksums[1] != checksums[2]

    @pytest.mark.parametrize("columns, message", [
        (lambda c: {"uid": ["u0"] + c["uid"][:-1]},
         "duplicate operation uid 'u0'"),
        (lambda c: {"parent": c["parent"][:3] + [3] + c["parent"][4:]},
         "operation 3 has parent 3"),
        (lambda c: {"info_op": c["info_op"][:-1] + [c["count"]]},
         "info row references operation 8 of 8"),
        (lambda c: {"count": c["count"] + 1},
         "count does not match column lengths"),
    ])
    def test_damaged_columns_fail_at_load(self, columns, message):
        archive = make_archive()
        table = archive_to_document(archive)["operations"]
        text = bound_text(archive, **columns(table))
        with pytest.raises(ArchiveError, match=re.escape(message)):
            archive_from_json(text)

    def test_non_canonical_columns_load_as_a_tree(self):
        """Columns the tree would re-render differently (not pre-order,
        a repeated info key, a raw float infinity) load as the tree, so
        saving them writes what it wrote before."""
        archive = make_archive()
        table = archive_to_document(archive)["operations"]
        for columns in (
            {"parent": [-1, 0, 0, 1, 1, 0, 5, 5],
             "uid": [f"v{i}" for i in range(8)]},
            {"info_op": table["info_op"] + [0],
             "info_key": table["info_key"] + ["Duration"],
             "info_value": table["info_value"] + [1.0]},
        ):
            text = bound_text(archive, **columns)
            loaded = archive_from_json(text)
            assert loaded.table is None
            assert archive_to_json(loaded) != text  # Re-rendered from the tree.
        document = json.loads(archive_to_json(archive))
        document["operations"]["info_value"][0] = math.inf
        assert document_to_archive(document).table is None

    def test_document_columns_are_copies(self):
        loaded = archive_from_json(archive_to_json(make_archive()))
        document = archive_to_document(loaded)
        document["operations"]["uid"][0] = "edited"
        assert loaded.table["uid"][0] == "u0"

    def test_live_completion_is_the_stored_file(self, tmp_path, giraph_run):
        archive, _report = build_archive(giraph_run, giraph_model())
        store = ArchiveStore(tmp_path)
        path = store.save(archive)
        snapshot = LiveMonitor(archive.job_id, platform="Giraph").complete(
            archive)
        assert archive.table is not None
        assert snapshot.body == path.read_bytes()
