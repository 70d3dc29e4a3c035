"""Tests for salvage ingestion of damaged platform logs."""

import pytest

from repro import logformat
from repro.core.archive.archive import (
    PROVENANCE_INFERRED,
    PROVENANCE_MEASURED,
    PerformanceArchive,
)
from repro.core.archive.serialize import operations_to_columns
from repro.core.monitor.logparser import parse_log_columns
from repro.core.monitor.records import RecordColumns
from repro.core.monitor.salvage import (
    SALVAGED_ROOT_MISSION,
    UNATTRIBUTED_MISSION,
    IngestReport,
    SalvageParser,
    salvage_archive,
    salvage_table,
)
from repro.errors import IngestError, ReproError
from tests.core import salvage_reference as reference


def line(ts, event, uid, job="job-1", **extra):
    fields = {"ts": str(ts), "job": job, "event": event, "uid": uid}
    fields.update({k: str(v) for k, v in extra.items()})
    return logformat.format_line(fields)


def clean_log(job="job-1"):
    """A well-formed three-operation log."""
    return [
        line(0.0, "start", "j", job, parent="-", mission="GiraphJob",
             actor="GiraphClient"),
        line(1.0, "start", "a", job, parent="j", mission="Startup",
             actor="Master"),
        line(2.0, "info", "a", job, name="Memory", value="12"),
        line(5.0, "end", "a", job),
        line(5.0, "start", "b", job, parent="j", mission="LoadGraph",
             actor="Worker-1"),
        line(9.0, "end", "b", job),
        line(10.0, "end", "j", job),
    ]


class TestCleanIngest:
    def test_round_trip(self):
        archive, report = salvage_archive(clean_log(), platform="Giraph")
        assert report.clean
        assert report.records == 7
        assert archive.job_id == "job-1"
        assert archive.root.mission == "GiraphJob"
        assert [c.mission for c in archive.root.children] == \
            ["Startup", "LoadGraph"]
        assert archive.root.duration == 10.0
        assert all(op.provenance == PROVENANCE_MEASURED
                   for op in archive.walk())

    def test_infos_coerced(self):
        archive, _ = salvage_archive(clean_log())
        startup = archive.root.children[0]
        assert startup.infos["Memory"] == 12

    def test_metadata_records_ingest(self):
        archive, report = salvage_archive(clean_log())
        assert archive.metadata["salvaged"] is True
        assert archive.metadata["ingest"] == report.to_dict()


class TestTruncation:
    def test_missing_ends_are_synthesized(self):
        log = [l for l in clean_log() if "event=end" not in l
               or "uid=a" in l]
        archive, report = salvage_archive(log)
        assert report.inferred_ends == 2  # root j and load b
        load = archive.root.children[1]
        assert load.end_time == 5.0  # last-seen timestamp for b
        assert load.infos["InferredEnd"] is True
        assert load.provenance == PROVENANCE_INFERRED
        assert archive.root.provenance == PROVENANCE_INFERRED

    def test_end_never_before_start(self):
        log = [
            line(5.0, "start", "x", parent="-", mission="M", actor="A"),
            line(3.0, "end", "x"),
        ]
        archive, report = salvage_archive(log)
        op = archive.root
        assert op.end_time >= op.start_time
        assert op.provenance == PROVENANCE_INFERRED


class TestDedup:
    def test_exact_and_repeated_uid_duplicates_dropped(self):
        log = clean_log()
        log.insert(2, log[1])             # exact duplicate start
        log.append(line(9.5, "end", "b"))  # repeated end, new timestamp
        archive, report = salvage_archive(log)
        assert report.duplicate_records == 2
        assert report.node("Master").duplicates == 1
        # First end wins: b still closes at 9.0.
        assert archive.root.children[1].end_time == 9.0

    def test_duplicate_info_lines_dropped(self):
        log = clean_log()
        log.insert(3, log[2])
        _, report = salvage_archive(log)
        assert report.duplicate_records == 1


class TestReordering:
    def test_benign_reorder_is_sorted_and_still_clean(self):
        log = clean_log()
        log[2], log[3] = log[3], log[2]  # info/end swap, 3s apart > 1s
        archive, report = salvage_archive(log)
        assert report.reordered >= 1
        assert archive.root.children[0].end_time == 5.0

    def test_skew_violations_counted(self):
        log = clean_log()
        parser = SalvageParser(clock_skew_tolerance=0.5)
        log[2], log[3] = log[3], log[2]
        columns, report = parser.parse(log)
        assert report.skew_violations >= 1
        assert columns.timestamp == sorted(columns.timestamp)
        parser_tolerant = SalvageParser(clock_skew_tolerance=10.0)
        _, tolerant_report = parser_tolerant.parse(log)
        assert tolerant_report.skew_violations == 0


class TestTableFromUnfilteredColumns:
    """``salvage_table`` on columns that skipped ``parse``'s selection."""

    def test_repeated_start_keeps_the_first(self):
        log = clean_log()
        log.insert(2, line(1.5, "start", "a", parent="b",
                           mission="Impostor", actor="Worker-9"))
        columns, _parsed = parse_log_columns(log)
        report = IngestReport()
        table = salvage_table(columns, report)
        root = PerformanceArchive.from_table("job-1", table).root
        assert [c.mission for c in root.children] == ["Startup", "LoadGraph"]
        assert report.clean
        assert table == operations_to_columns(
            reference.build_tree(columns, IngestReport()))

    def test_no_records_is_a_typed_error(self):
        with pytest.raises(IngestError, match="no records"):
            salvage_table(RecordColumns(), IngestReport())


class TestOrphans:
    def test_unknown_parent_is_quarantined(self):
        log = clean_log() + [
            line(6.0, "start", "z", parent="nope", mission="Mystery",
                 actor="Worker-2"),
            line(7.0, "end", "z"),
        ]
        archive, report = salvage_archive(log)
        assert report.orphans_reattached == 1
        quarantine = [c for c in archive.root.children
                      if c.mission == UNATTRIBUTED_MISSION]
        assert len(quarantine) == 1
        assert [c.mission for c in quarantine[0].children] == ["Mystery"]

    def test_parent_cycle_is_quarantined(self):
        # c1 and c2 name each other as parent: no root reaches either.
        log = clean_log()[:-1] + [
            line(9.5, "start", "c1", parent="c2", mission="Cycle",
                 actor="Worker-3"),
            line(9.6, "start", "c2", parent="c1", mission="Loop",
                 actor="Worker-4"),
            line(9.8, "end", "c1"),
            clean_log()[-1],
        ]
        archive, report = salvage_archive(log)
        assert report.orphans_reattached == 1
        assert report.node("Worker-3").orphaned == 1
        assert report.inferred_ends == 1  # c2 never ended.
        quarantine = archive.root.children[-1]
        assert quarantine.mission == UNATTRIBUTED_MISSION
        [cut] = quarantine.children
        assert (cut.uid, [c.uid for c in cut.children]) == ("c1", ["c2"])
        assert archive.size() == 6

    def test_missing_root_is_synthesized(self):
        log = clean_log()[1:]  # drop the job start; "end j" dangles
        archive, report = salvage_archive(log)
        assert report.synthesized_root
        assert archive.root.mission == SALVAGED_ROOT_MISSION


class TestJobFiltering:
    def test_majority_job_selected(self):
        log = clean_log() + [
            line(50.0, "start", "q", job="job-2", parent="-",
                 mission="Other", actor="X"),
        ]
        archive, report = salvage_archive(log)
        assert archive.job_id == "job-1"
        assert report.foreign_job_records == 1

    def test_explicit_job_id_wins(self):
        log = clean_log() + [
            line(50.0, "start", "q", job="job-2", parent="-",
                 mission="Other", actor="X"),
            line(51.0, "end", "q", job="job-2"),
        ]
        archive, _ = salvage_archive(log, job_id="job-2")
        assert archive.job_id == "job-2"
        assert archive.root.mission == "Other"


class TestMalformedLines:
    def test_attributed_to_guessed_node(self):
        log = clean_log() + [
            "GRANULA ts=oops event=start uid=bad actor=Worker-9",
        ]
        _, report = salvage_archive(log)
        assert report.malformed == 1
        assert report.node("Worker-9").malformed == 1

    def test_binary_garbage_is_foreign(self):
        log = clean_log() + ["\x00\x7f\x1b garbage", ""]
        _, report = salvage_archive(log)
        assert report.foreign_lines == 2
        assert report.malformed == 0

    def test_nothing_salvageable_raises_typed_error(self):
        with pytest.raises(IngestError) as excinfo:
            salvage_archive(["no granula here", "\x00\x01"])
        assert isinstance(excinfo.value, ReproError)

    def test_mangled_lines_never_raise_raw_errors(self):
        base = clean_log()
        mangled = []
        for i, source in enumerate(base):
            mangled.append(source[: max(1, len(source) - i * 7)])
        mangled += base  # keep something salvageable
        archive, report = salvage_archive(mangled)
        assert archive.root is not None
        assert report.records > 0


class TestReportRendering:
    def test_render_text_lists_nodes(self):
        log = clean_log()
        log.insert(2, log[1])
        _, report = salvage_archive(log)
        text = report.render_text()
        assert "duplicate records" in text
        assert "Master" in text

    def test_to_dict_is_json_safe(self):
        import json

        _, report = salvage_archive(clean_log())
        assert json.loads(json.dumps(report.to_dict()))
