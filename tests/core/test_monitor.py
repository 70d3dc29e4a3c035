"""Unit tests for monitoring: log parsing, env monitor, collector, session."""

import json

import pytest

from repro.cluster.cluster import das5_cluster
from repro.core.archive.builder import build_archive
from repro.core.archive.serialize import operations_to_columns
from repro.core.monitor.collector import collect_platform_log_columns
from repro.core.monitor.envmonitor import EnvironmentMonitor
from repro.core.monitor.live import LiveMonitor
from repro.core.monitor.logparser import parse_log_columns, parse_log_line
from repro.core.monitor.records import EnvSample
from repro.core.monitor.salvage import salvage_archive
from repro.errors import LogParseError, MonitorError
from repro.platforms.base import JobResult
from tests.conftest import columns_run


def parse_one(line):
    """The single row ``parse_log_columns`` makes of one line."""
    columns, _report = parse_log_columns([line])
    (record,) = columns.records()
    return record


class TestParseLogLine:
    def test_start_event(self):
        record = parse_one(
            "GRANULA ts=1.5 job=j1 event=start uid=op1 actor=Master "
            "mission=LoadGraph parent=-"
        )
        assert record.event == "start"
        assert record.timestamp == 1.5
        assert record.job_id == "j1"
        assert record.mission == "LoadGraph"
        assert record.actor == "Master"
        assert record.parent_uid is None

    def test_start_with_parent(self):
        record = parse_one(
            "GRANULA ts=1 job=j event=start uid=op2 actor=Y mission=X "
            "parent=op1"
        )
        assert record.parent_uid == "op1"

    def test_end_event(self):
        record = parse_one("GRANULA ts=2 job=j event=end uid=op1")
        assert record.event == "end"
        assert record.mission is None and record.info_name is None

    def test_info_event(self):
        record = parse_one(
            "GRANULA ts=2 job=j event=info uid=op1 name=Bytes value=42"
        )
        assert record.event == "info"
        assert record.info_name == "Bytes"
        assert record.info_value == "42"

    def test_missing_required_field(self):
        with pytest.raises(LogParseError):
            parse_one("GRANULA ts=1 event=start uid=op1")

    def test_bad_timestamp(self):
        with pytest.raises(LogParseError):
            parse_one("GRANULA ts=abc job=j event=end uid=op1")

    def test_unknown_event(self):
        with pytest.raises(LogParseError):
            parse_one("GRANULA ts=1 job=j event=pause uid=op1")

    def test_start_missing_mission(self):
        with pytest.raises(LogParseError):
            parse_one("GRANULA ts=1 job=j event=start uid=op1 parent=-")

    def test_info_missing_value(self):
        with pytest.raises(LogParseError):
            parse_one("GRANULA ts=1 job=j event=info uid=op1 name=Bytes")

    def test_not_granula(self):
        with pytest.raises(LogParseError):
            parse_log_line("INFO normal platform logging")
        columns, report = parse_log_columns(["INFO normal platform logging"])
        assert len(columns) == 0 and report.foreign_lines == 1


#: Lines on which the token-by-token recognizer in ``_append_fast`` must
#: agree with ``parse_log_line``, one per way of leaving the canonical
#: layout: the valid ones parse to the same row, the invalid ones raise
#: the same error text.
OFF_CANONICAL = {
    "canonical start": "GRANULA ts=1 job=j event=start uid=a actor=A "
                       "mission=M parent=p",
    "canonical info": "GRANULA ts=1 job=j event=info uid=a name=n value=v",
    "escaped job, uid, mission": "GRANULA ts=1 job=j%2F1 event=start "
                                 "uid=a%20b actor=A mission=M%3D1 parent=-",
    "escaped info value": "GRANULA ts=1 job=j event=info uid=a name=n "
                          "value=50%25%20done",
    "escaped event": "GRANULA ts=1 job=j event=%65nd uid=a",
    "escaped timestamp": "GRANULA ts=1%2E5 job=j event=end uid=a",
    "reordered head": "GRANULA job=j ts=1 event=end uid=a",
    "reordered start tail": "GRANULA ts=1 job=j event=start uid=a "
                            "parent=- mission=M actor=A",
    "reordered info tail": "GRANULA ts=1 job=j event=info uid=a value=v "
                           "name=n",
    "doubled spaces": "GRANULA ts=1 job=j  event=end uid=a",
    "leading spaces": "  GRANULA ts=1 job=j event=end uid=a",
    "extra field on end": "GRANULA ts=1 job=j event=end uid=a host=n1",
    "extra field on start": "GRANULA ts=1 job=j event=start uid=a actor=A "
                            "mission=M parent=- host=n1",
    "extra field on info": "GRANULA ts=1 job=j event=info uid=a name=n "
                           "value=v host=n1",
    "too few tokens": "GRANULA ts=1 job=j",
    "prefix only": "GRANULA ",
    "empty job": "GRANULA ts=1 job= event=end uid=a",
    "empty uid": "GRANULA ts=1 job=j event=end uid=",
    "bad timestamp": "GRANULA ts=abc job=j event=end uid=a",
    "unknown event": "GRANULA ts=1 job=j event=pause uid=a",
    "start without parent": "GRANULA ts=1 job=j event=start uid=a actor=A "
                            "mission=M",
    "start without mission": "GRANULA ts=1 job=j event=start uid=a "
                             "actor=A parent=- host=n1",
    "info without value": "GRANULA ts=1 job=j event=info uid=a name=n",
    "info without name": "GRANULA ts=1 job=j event=info uid=a value=v "
                         "host=n1",
    "pair without =": "GRANULA ts=1 job=j event=end uid=a garbage",
}


class TestOffCanonicalLines:
    @pytest.mark.parametrize("case", sorted(OFF_CANONICAL))
    def test_columns_agree_with_parse_log_line(self, case):
        line = OFF_CANONICAL[case]
        try:
            expected = parse_log_line(line)
        except LogParseError as exc:
            with pytest.raises(LogParseError) as raised:
                parse_log_columns([line])
            assert str(raised.value) == str(exc)
            columns, report = parse_log_columns([line], strict=False)
            assert len(columns) == 0 and report.bad_lines == [line]
        else:
            assert parse_one(line) == expected


class TestTerminators:
    LOG = [
        "GRANULA ts=0 job=j event=start uid=a actor=C mission=Job parent=-",
        "GRANULA ts=1 job=j event=info uid=a name=Note value=hello",
        "GRANULA ts=2 job=j event=end uid=a",
    ]
    TERMINATORS = ["", "\n", "\r\n", "  ", " \t\n"]

    @pytest.mark.parametrize("terminator", TERMINATORS)
    def test_terminator_is_not_part_of_the_last_value(self, terminator):
        lines = [line + terminator for line in self.LOG]
        columns, report = parse_log_columns(lines)
        assert report.records == 3
        assert columns.uid == ["a", "a", "a"]
        assert columns.parent_uid[0] is None
        assert columns.info_value[1] == "hello"
        assert list(columns.records()) == [parse_log_line(l) for l in lines]

    def test_every_feeder_builds_one_tree(self):
        # ``for line in file`` yields terminated lines; the strict
        # build, salvage and live monitoring must not see "a\n" as a
        # different operation than "a".
        trees = []
        for terminator in self.TERMINATORS:
            lines = [line + terminator for line in self.LOG]
            built, _ = build_archive(columns_run(lines))
            salvaged, report = salvage_archive(lines)
            assert report.clean
            monitor = LiveMonitor("j")
            monitor.feed(lines)
            trees += [
                operations_to_columns(built.root),
                operations_to_columns(salvaged.root),
                json.loads(monitor.snapshot().body)["operations"],
            ]
        assert trees[0]["uid"] == ["a"]
        assert trees[0]["info_value"] == ["hello", 2.0]
        assert all(tree == trees[0] for tree in trees)


class TestParseLog:
    GOOD = [
        "2017-01-01 INFO platform noise",
        "GRANULA ts=0 job=j event=start uid=a actor=C mission=Job parent=-",
        "GRANULA ts=1 job=j event=end uid=a",
    ]

    def test_skips_foreign_lines(self):
        columns, report = parse_log_columns(self.GOOD)
        assert len(columns) == 2
        assert report.foreign_lines == 1
        assert report.bad_lines == []

    def test_strict_raises_on_malformed(self):
        lines = self.GOOD + ["GRANULA ts=zzz job=j event=end uid=a"]
        with pytest.raises(LogParseError):
            parse_log_columns(lines, strict=True)

    def test_lenient_collects_malformed(self):
        lines = self.GOOD + ["GRANULA ts=zzz job=j event=end uid=a"]
        columns, report = parse_log_columns(lines, strict=False)
        assert len(columns) == 2
        assert report.bad_lines == lines[-1:]


class TestParseReport:
    LINES = TestParseLog.GOOD + ["GRANULA ts=zzz job=j event=end uid=a"]

    def test_counts_account_for_every_line(self):
        columns, report = parse_log_columns(self.LINES, strict=False)
        assert report.total_lines == 4
        assert report.foreign_lines == 1
        assert report.records == 2
        assert report.malformed == 1
        assert len(columns) == 2

    def test_summary_is_flat(self):
        _, report = parse_log_columns(self.LINES, strict=False)
        assert report.summary() == {
            "total_lines": 4,
            "foreign_lines": 1,
            "records": 2,
            "malformed_lines": 1,
        }

    def test_strict_still_raises(self):
        with pytest.raises(LogParseError):
            parse_log_columns(self.LINES, strict=True)


class TestRunSummary:
    def test_summary_surfaces_parse_statistics(self, giraph_run):
        summary = giraph_run.summary()
        assert summary["job_id"] == giraph_run.job_id
        assert summary["records"] == len(giraph_run.columns)
        assert summary["nodes"] == len(giraph_run.node_names)
        assert summary["malformed_lines"] == 0
        assert summary["foreign_lines"] >= 0
        assert summary["makespan"] > 0


class TestRecords:
    def test_log_record_validation(self):
        # Rows are only ever made by the parser, so that is where the
        # event kind and the uid are vetted.
        with pytest.raises(MonitorError):
            parse_log_columns(["GRANULA ts=1.0 job=j event=explode uid=op1"])
        with pytest.raises(MonitorError):
            parse_log_columns(["GRANULA ts=1.0 job=j event=end uid="])

    def test_env_sample_fields(self):
        sample = EnvSample(1.0, "node1", 3.5)
        assert sample.node == "node1"
        assert sample.cpu == 3.5

    def test_select_and_extend_keep_columns_aligned(self):
        columns, _ = parse_log_columns(TestParseLog.GOOD)
        flipped = columns.select([1, 0])
        assert flipped.event == ["end", "start"]
        assert flipped.mission == [None, "Job"]
        flipped.extend(columns)
        assert len(flipped) == 4
        assert list(flipped.records())[2:] == list(columns.records())
        with pytest.raises(TypeError):
            columns.records()[0:1]


class TestEnvironmentMonitor:
    def test_rejects_bad_step(self):
        with pytest.raises(MonitorError):
            EnvironmentMonitor(das5_cluster(2), step=0)

    def test_sample_window_per_node(self):
        cluster = das5_cluster(2)
        cluster.nodes[0].work(0.0, 2.0, 4.0)
        monitor = EnvironmentMonitor(cluster)
        series = monitor.sample_window(0.0, 3.0)
        assert len(series) == 2
        busy = series[cluster.node_names[0]]
        assert busy.values == [4.0, 4.0, 0.0]

    def test_samples_flat_and_ordered(self):
        cluster = das5_cluster(2)
        cluster.nodes[1].work(0.0, 1.0, 2.0)
        samples = EnvironmentMonitor(cluster).samples(0.0, 2.0)
        assert len(samples) == 4
        timestamps = [s.timestamp for s in samples]
        assert timestamps == sorted(timestamps)

    def test_node_filter(self):
        cluster = das5_cluster(3)
        monitor = EnvironmentMonitor(cluster)
        only = monitor.sample_window(0.0, 1.0, nodes=[cluster.node_names[0]])
        assert list(only) == [cluster.node_names[0]]

    def test_cluster_series_sums(self):
        cluster = das5_cluster(2)
        cluster.nodes[0].work(0.0, 1.0, 1.0)
        cluster.nodes[1].work(0.0, 1.0, 2.0)
        merged = EnvironmentMonitor(cluster).cluster_series(0.0, 1.0)
        assert merged.values == [3.0]


class TestCollector:
    def make_result(self, lines, job_id="j"):
        return JobResult(
            job_id=job_id, algorithm="bfs", dataset="d", output={},
            started_at=0.0, finished_at=1.0, log_lines=lines,
        )

    def test_collects_records(self):
        lines = [
            "GRANULA ts=0 job=j event=start uid=a actor=Y mission=X parent=-",
            "GRANULA ts=1 job=j event=end uid=a",
        ]
        columns, report = collect_platform_log_columns(
            self.make_result(lines))
        assert len(columns) == 2
        assert report.records == 2

    def test_empty_log_rejected(self):
        with pytest.raises(MonitorError, match="no GRANULA records"):
            collect_platform_log_columns(
                self.make_result(["no granula here"]))

    def test_foreign_job_rejected(self):
        lines = [
            "GRANULA ts=0 job=OTHER event=start uid=a actor=Y mission=X "
            "parent=-",
        ]
        with pytest.raises(MonitorError, match=r"other jobs: \['OTHER'\]"):
            collect_platform_log_columns(self.make_result(lines, job_id="j"))

    def test_lenient_collection_keeps_bad_lines(self):
        lines = [
            "GRANULA ts=0 job=j event=start uid=a actor=Y mission=X parent=-",
            "GRANULA ts=zzz job=j event=end uid=a",
        ]
        with pytest.raises(LogParseError):
            collect_platform_log_columns(self.make_result(lines))
        columns, report = collect_platform_log_columns(
            self.make_result(lines), strict=False)
        assert len(columns) == 1
        assert report.bad_lines == lines[1:]


class TestMonitoringSession:
    def test_monitored_run_contents(self, giraph_run):
        assert len(giraph_run.columns)
        assert len(giraph_run.records) == len(giraph_run.columns)
        assert giraph_run.env_series
        assert giraph_run.env_samples
        assert len(giraph_run.node_names) == 8
        assert giraph_run.job_id == giraph_run.result.job_id

    def test_env_window_matches_job(self, giraph_run):
        start = giraph_run.result.started_at
        for series in giraph_run.env_series.values():
            assert series.times[0] == pytest.approx(start)

    def test_records_belong_to_job(self, giraph_run):
        assert all(r.job_id == giraph_run.job_id
                   for r in giraph_run.records)
