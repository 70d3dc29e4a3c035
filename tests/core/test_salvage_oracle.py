"""The column salvage against the tree salvage it replaced.

``salvage_archive`` and every ``LiveMonitor`` snapshot resolve a damaged
log's repairs as rows and render them through the column builder;
``tests/core/salvage_reference.py`` is the tree build (an object per
operation, the repairs as edits to the tree).  On hypothesis-drawn
damaged logs and on every engine's real dg-tiny logs, cut at many
points, both must write the same archive bytes and the same
:class:`IngestReport`, and every live snapshot must be the reference
rendering of the prefix fed so far.  The write path must not build a
tree at all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import logformat
from repro.core.archive import serialize
from repro.core.archive.archive import ArchivedOperation
from repro.core.archive.serialize import archive_to_json
from repro.core.monitor import live
from repro.core.monitor.live import LiveMonitor
from repro.core.monitor.records import EnvSample
from repro.core.monitor.salvage import salvage_archive
from repro.core.monitor.session import MonitoringSession
from repro.errors import IngestError
from repro.workloads.datasets import build_dataset
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec
from tests.core import salvage_reference as reference

JOB = "j"
#: Cut points per real log.
CUTS = 16


def outcome(salvage, lines, tolerance=1.0):
    """What a salvage gives: its archive bytes and report, or its error."""
    try:
        archive, report = salvage(lines, platform="P",
                                  clock_skew_tolerance=tolerance)
    except IngestError as exc:
        return ("error", str(exc))
    return archive_to_json(archive), report.to_dict()


def assert_same_salvage(lines, tolerance=1.0):
    assert outcome(salvage_archive, lines, tolerance) == \
        outcome(reference.salvage_archive, lines, tolerance)


def assert_snapshots_match_reference(job_id, chunks, env_chunks,
                                     platform="P", metadata=None):
    """Feed ``chunks`` one by one; each snapshot must be the reference
    rendering of everything fed so far."""
    monitor = LiveMonitor(job_id, platform=platform, metadata=metadata)
    fed, env = [], []
    snapshots = 0
    for batch, samples in zip(chunks, env_chunks):
        monitor.feed(batch, samples)
        fed += batch
        env += [(s.timestamp, s.node, s.cpu) for s in samples]
        snapshot = monitor.snapshot()
        expected = reference.live_snapshot_body(
            job_id, fed, snapshot.seq if snapshot else 1, platform=platform,
            metadata=metadata, env_samples=env)
        assert (snapshot.body if snapshot else None) == expected
        snapshots += snapshot is not None
    return snapshots


# -- drawn damaged logs --------------------------------------------------------------

MISSIONS = ("Job", "LoadGraph", "Superstep-1", "Compute-2")
ACTORS = ("Client", "Worker-1", "Worker-2", "")
#: Recorded infos include the keys salvage synthesizes.
INFO_NAMES = ("X", "BytesRead", "Duration", "Provenance", "InferredEnd")
INFO_VALUES = ("5", "1.5", "-0.0", "inferred", "measured", "True", "inf",
               "-inf", "nan", "", "abc", "Infinity", "\\Infinity", "007")
#: Uids that collide with the synthetic rows' names, or repeat.
UIDS = ("salvage:root", "salvage:root-2", "salvage:unattributed", "u0")
times = st.one_of(
    st.integers(0, 40).map(lambda half: half / 2),
    st.sampled_from([float("nan"), float("inf")]),
)
#: Parents: mostly an earlier operation; also none (another root), one
#: never started, itself, or any operation (later ones make cycles).
PARENTS = ("earlier",) * 5 + ("none", "ghost", "self", "any", "any")
#: Damage applied to the time-ordered log: a repeated line, a line moved
#: (reorders within and beyond the skew tolerance), a lost line (lost
#: parent and root starts among them), a truncation, another job's
#: line, a malformed line, platform noise.
DAMAGE = ("repeat", "move", "move", "lose", "truncate", "foreign",
          "malformed", "noise")


def _line(ts, event, uid, job=JOB, **extra):
    fields = {"ts": repr(ts), "job": job, "event": event, "uid": uid}
    fields.update(extra)
    return logformat.format_line(fields)


@st.composite
def damaged_logs(draw):
    """Lines of one job's log: a drawn operation forest with drawn infos
    and ends (some missing, some before their start), in time order,
    then drawn damage."""
    count = draw(st.integers(1, 10))
    uids = [draw(st.sampled_from(UIDS)) if draw(st.integers(0, 7)) == 0
            else f"u{k}" for k in range(count)]
    timed = []
    for k, uid in enumerate(uids):
        kind = "none" if k == 0 and draw(st.integers(0, 5)) else \
            draw(st.sampled_from(PARENTS))
        if kind == "earlier" and k == 0:
            kind = "ghost"
        parent = {
            "none": logformat.NO_PARENT,
            "ghost": "ghost",
            "self": uid,
            "earlier": uids[draw(st.integers(0, max(k - 1, 0)))],
            "any": uids[draw(st.integers(0, count - 1))],
        }[kind]
        start = draw(times)
        end = start + draw(st.integers(-4, 12)) / 2
        timed.append((start, _line(start, "start", uid, parent=parent,
                                   mission=draw(st.sampled_from(MISSIONS)),
                                   actor=draw(st.sampled_from(ACTORS)))))
        for name, value in draw(st.lists(st.tuples(
                st.sampled_from(INFO_NAMES), st.sampled_from(INFO_VALUES)),
                max_size=3)):
            # Infos around the end too: after an end that precedes its
            # start, and before it.
            at = draw(st.sampled_from(
                (start, end, start + 0.5, end - 0.5, end + 0.5)))
            timed.append((at, _line(at, "info", uid, name=name,
                                    value=value)))
        if draw(st.integers(0, 5)):
            timed.append((end, _line(end, "end", uid)))
    timed.sort(key=lambda item: item[0])
    lines = [line for _at, line in timed]
    for damage in draw(st.lists(st.sampled_from(DAMAGE), max_size=4)):
        if not lines:
            break
        pick = draw(st.integers(0, len(lines) - 1))
        if damage == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[pick])
        elif damage == "move":
            moved = lines.pop(pick)
            lines.insert(draw(st.integers(0, len(lines))), moved)
        elif damage == "lose":
            del lines[pick]
        elif damage == "truncate":
            del lines[pick:]
        elif damage == "foreign":
            lines.insert(pick, _line(1.0, "end", "u0", job="other"))
        elif damage == "malformed":
            lines.insert(pick, "GRANULA ts=zz job=j event=end uid=u0 "
                               "actor=Worker-2")
        else:
            lines.insert(pick, "INFO platform noise")
    return lines


@settings(max_examples=400, deadline=None)
@given(damaged_logs(), st.sampled_from((0.0, 1.0, 10.0)))
def test_drawn_logs_salvage_like_the_reference(lines, tolerance):
    assert_same_salvage(lines, tolerance)


@settings(max_examples=150, deadline=None)
@given(damaged_logs(), st.integers(1, 6))
def test_drawn_logs_snapshot_like_the_reference(lines, size):
    chunks = [lines[at:at + size] for at in range(0, len(lines), size)]
    env = [[EnvSample(float(k), "n1", 1.0 + k)] for k in range(len(chunks))]
    assert_snapshots_match_reference(JOB, chunks, env,
                                     metadata={"algorithm": "bfs"})


# -- named repairs ----------------------------------------------------------------

def _log(*events):
    return [_line(*event[:3], **event[3]) for event in events]


@pytest.mark.parametrize("lines", [
    # An end before its start, between two recorded infos.
    _log((0.0, "start", "r", {"parent": "-", "mission": "Job",
                              "actor": "Client"}),
         (1.0, "info", "r", {"name": "A", "value": "1"}),
         (2.0, "end", "r", {}),
         (3.0, "start", "r2", {"parent": "-", "mission": "Job",
                               "actor": "Client"}),
         (4.0, "info", "r2", {"name": "B", "value": "x"})),
    # A parent cycle hanging a child, beside an orphan and a self-parent.
    _log((0.0, "start", "r", {"parent": "-", "mission": "Job",
                              "actor": "Client"}),
         (1.0, "start", "a", {"parent": "b", "mission": "A",
                              "actor": "Worker-1"}),
         (2.0, "start", "b", {"parent": "a", "mission": "B",
                              "actor": "Worker-2"}),
         (2.5, "start", "c", {"parent": "b", "mission": "C",
                              "actor": "Worker-2"}),
         (3.0, "start", "s", {"parent": "s", "mission": "S",
                              "actor": "Worker-1"}),
         (3.5, "start", "o", {"parent": "lost", "mission": "O",
                              "actor": ""}),
         (4.0, "end", "a", {}),
         (9.0, "end", "r", {})),
    # Only a cycle: the synthetic root holds its quarantine.
    _log((1.0, "start", "a", {"parent": "b", "mission": "A",
                              "actor": "Worker-1"}),
         (2.0, "start", "b", {"parent": "a", "mission": "B",
                              "actor": "Worker-2"})),
    # Recorded Provenance and InferredEnd on a truncated operation.
    _log((0.0, "start", "r", {"parent": "-", "mission": "Job",
                              "actor": "Client"}),
         (1.0, "info", "r", {"name": "Provenance", "value": "measured"}),
         (1.5, "info", "r", {"name": "InferredEnd", "value": "True"}),
         (2.0, "info", "r", {"name": "Duration", "value": "7"})),
    # Ends and infos only: nothing started.
    _log((1.0, "end", "a", {}),
         (2.0, "info", "a", {"name": "X", "value": "1"})),
])
def test_named_repairs_salvage_like_the_reference(lines):
    assert_same_salvage(lines)
    assert_snapshots_match_reference(JOB, [lines[:2], lines[2:]],
                                     [[], [EnvSample(0.0, "n1", 1.0)]])


def test_a_cycle_is_cut_at_its_earliest_start():
    lines = _log((0.0, "start", "r", {"parent": "-", "mission": "Job",
                                      "actor": "Client"}),
                 (1.0, "start", "a", {"parent": "b", "mission": "A",
                                      "actor": "Worker-1"}),
                 (2.0, "start", "b", {"parent": "a", "mission": "B",
                                      "actor": "Worker-2"}),
                 (3.0, "end", "a", {}))
    archive, report = salvage_archive(lines)
    assert report.orphans_reattached == 1
    assert report.per_node["Worker-1"].orphaned == 1
    [quarantine] = archive.root.children
    assert [op.uid for op in quarantine.walk()] == \
        ["salvage:unattributed", "a", "b"]


# -- real logs -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def real_logs():
    """Every engine's dg-tiny bfs and pagerank log and env samples."""
    runner = WorkloadRunner()
    logs = []
    for name in ("Giraph", "PowerGraph", "Hadoop", "PGX.D"):
        platform = runner.platform(name)
        platform.deploy_dataset("dg-tiny", build_dataset("dg-tiny"))
        session = MonitoringSession(platform)
        for algorithm in ("bfs", "pagerank"):
            spec = WorkloadSpec(name, algorithm, "dg-tiny")
            run = session.run(spec.to_request(job_id=spec.label()))
            logs.append((run.job_id, name, run.result.log_lines,
                         run.env_samples))
    return logs


def _cuts(length):
    return [length * (k + 1) // CUTS for k in range(CUTS)]


def test_real_logs_salvage_like_the_reference(real_logs):
    for _job_id, _name, lines, _env in real_logs:
        for cut in _cuts(len(lines)):
            assert_same_salvage(lines[:cut])
            assert_same_salvage(lines[1:cut])  # The root's start lost.


def test_real_logs_snapshot_like_the_reference(real_logs):
    for job_id, name, lines, env in real_logs:
        cuts = [0] + _cuts(len(lines))
        chunks = [lines[a:b] for a, b in zip(cuts, cuts[1:])]
        env_cuts = [len(env) * k // CUTS for k in range(CUTS + 1)]
        env_chunks = [env[a:b] for a, b in zip(env_cuts, env_cuts[1:])]
        metadata = {"dataset": "dg-tiny"}
        assert assert_snapshots_match_reference(
            job_id, chunks, env_chunks, platform=name,
            metadata=metadata) == CUTS


# -- the write path ----------------------------------------------------------------

def test_salvage_and_live_build_no_tree(real_logs, monkeypatch):
    """Salvaged archives and live snapshots are born as tables: neither
    an operation object nor the tree-to-columns walk is made."""
    def tree_work(*args, **kwargs):
        raise AssertionError("the write path built a tree")

    rendered = []

    def to_json(archive):
        rendered.append(archive.table is not None)
        return archive_to_json(archive)

    monkeypatch.setattr(serialize, "operations_to_columns", tree_work)
    monkeypatch.setattr(ArchivedOperation, "__init__", tree_work)
    monkeypatch.setattr(live, "archive_to_json", to_json)
    job_id, name, lines, env = real_logs[0]
    archive, _report = salvage_archive(lines[:len(lines) // 2])
    to_json(archive)
    monitor = LiveMonitor(job_id, platform=name)
    size = -(-len(lines) // 8)
    for at in range(0, len(lines), size):
        monitor.feed(lines[at:at + size], env[:1])
        monitor.snapshot()
    assert rendered == [True] * 9
