"""The column builder against the tree builder it replaced.

``build_archive`` derives the archive's v3 operations table straight
from the log columns; ``tests/core/build_reference.py`` is the tree
build (an object per operation, the filter and the rules as walks).  On
hypothesis-drawn strict logs and on every platform's real logs, under
each model, each truncation of it and no model, both must give the same
table — type-exact, so an int stays an int and every float keeps its
bits — and the same :class:`BuildReport`; on damaged logs they must
fail with the same error and message.  A model with a custom rule takes
the tree fallback, which must match too.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive.builder import build_archive
from repro.core.archive.serialize import archive_to_json, operations_to_columns
from repro.core.model.giraph_model import giraph_model
from repro.core.model.library import default_library
from repro.core.model.rules import DerivationRule
from repro.core.monitor.records import RecordColumns
from repro.core.monitor.session import MonitoredRun, MonitoringSession
from repro.errors import ArchiveBuildError
from repro.graph.graph import Graph
from repro.platforms.base import JobRequest
from repro.platforms.gas.engine import PowerGraphPlatform
from repro.platforms.mapreduce.engine import HadoopPlatform
from repro.platforms.pgxd.engine import PgxdPlatform
from repro.platforms.pregel.engine import GiraphPlatform
from repro.workloads.runner import build_cluster
from tests.conftest import columns_run
from tests.core import build_reference as reference

PLATFORMS = {
    "Giraph": GiraphPlatform,
    "PowerGraph": PowerGraphPlatform,
    "Hadoop": HadoopPlatform,
    "PGX.D": PgxdPlatform,
}


class ChildInfoMax(DerivationRule):
    """A rule the table cannot run: the largest numeric child info."""

    def __init__(self, target: str, source: str):
        super().__init__(target)
        self.source = source

    def compute(self, operation):
        values = [c.infos[self.source] for c in operation.children
                  if isinstance(c.infos.get(self.source), (int, float))]
        return max(values) if values else None


def with_custom_rule(model):
    """``model`` with a custom rule on its root and its first child."""
    model = model.truncated(model.max_level())
    model.root.add_rule(ChildInfoMax("MaxChildDuration", "Duration"))
    if model.root.children:
        model.root.children[0].add_rule(ChildInfoMax("Duration", "X"))
    return model


def models_of(model):
    """The model, each truncation of it, no model, the custom fallback."""
    return ([model] + [model.truncated(level)
                       for level in range(1, model.max_level() + 1)]
            + [None, with_custom_rule(model)])


def typed(values):
    """A column as (type, repr) pairs: equal only if type-exact and, for
    floats, bit-identical (nan and -0.0 included)."""
    return [(type(v), repr(v)) for v in values]


def table_of(archive):
    return archive.table if archive.table is not None else (
        operations_to_columns(archive.root))


def outcome(build, run, model):
    """What a build gives: its table, report and text, or its error."""
    try:
        archive, report = build(run, model)
    except ArchiveBuildError as exc:
        return ("error", str(exc))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc))
    table = table_of(archive)
    return (
        "built",
        {name: typed(column) if isinstance(column, list) else column
         for name, column in table.items()},
        report,
        archive_to_json(archive),
    )


def assert_same_build(run, model):
    assert outcome(build_archive, run, model) == \
        outcome(reference.build_archive, run, model)


# -- real logs -----------------------------------------------------------------

def _graph() -> Graph:
    edges = sorted({(v, (v + 1) % 60) for v in range(60)}
                   | {(v, (v * 7 + 3) % 60) for v in range(0, 60, 3)})
    return Graph(64, edges)


@pytest.fixture(scope="module")
def real_runs():
    runs = []
    for name, platform_class in PLATFORMS.items():
        platform = platform_class(build_cluster(name))
        platform.deploy_dataset("oracle", _graph())
        session = MonitoringSession(platform)
        for algorithm, params in (("bfs", {"source": 0}),
                                  ("pagerank", {"iterations": 4})):
            runs.append((name, session.run(JobRequest(
                algorithm, "oracle", 4, params=params,
                job_id=f"{name}-{algorithm}-oracle"))))
    return runs


def test_real_logs_build_the_reference_table(real_runs):
    library = default_library()
    for name, run in real_runs:
        for model in models_of(library.get(name)):
            assert_same_build(run, model)


def test_a_filtering_model_reports_in_walk_order(real_runs):
    """The truncated models prune real subtrees, so ``unmodeled`` holds
    several keys whose order is the filter walk's."""
    library = default_library()
    seen = 0
    for name, run in real_runs:
        _archive, report = build_archive(run, library.get(name).truncated(1))
        _ref, expected = reference.build_archive(
            run, library.get(name).truncated(1))
        assert report.unmodeled == expected.unmodeled
        assert report.operations_filtered == expected.operations_filtered
        seen += len(report.unmodeled) > 1
    assert seen


# -- drawn strict logs -------------------------------------------------------------

MODEL = giraph_model()
#: (mission base, actor base, iterated) of the Giraph model, plus pairs
#: it does not cover: an unknown mission, a wrong actor, a suffix on a
#: single operation.
VOCABULARY = sorted(
    {(node.mission, node.actor_type, node.multiplicity.endswith("iterated"))
     for node in MODEL.walk()}
    | {("Mystery", "Worker", True), ("LoadGraph", "Worker", False),
       ("Startup", "GiraphClient", True)}
)
INFO_NAMES = ("BytesRead", "BytesWritten", "Duration", "ShareOfParent",
              "Supersteps", "WorkerImbalance", "X")
INFO_VALUES = ("5", "1.5", "-0.0", "inf", "-inf", "nan", "abc", "Infinity",
               "\\Infinity", "", "1e400", "007", "1_000", "2e3", "-7")
timestamps = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0, max_value=1e6),
    st.integers(min_value=-(2 ** 60), max_value=2 ** 60),
)


@st.composite
def strict_logs(draw):
    """A well-formed log as columns: a drawn tree, drawn infos, and a
    drawn interleaving where each start follows its parent's."""
    count = draw(st.integers(min_value=1, max_value=24))
    ops = []
    for index in range(count):
        if index == 0 and draw(st.integers(0, 9)):
            mission, actor = MODEL.root.mission, MODEL.root.actor_type
        else:
            base, actor_base, iterated = draw(st.sampled_from(VOCABULARY))
            mission = f"{base}-{draw(st.integers(0, 3))}" if iterated \
                else base
            actor = f"{actor_base}-{draw(st.integers(0, 2))}" \
                if draw(st.booleans()) else actor_base
        start = draw(timestamps)
        ops.append({
            "uid": f"u{index}",
            "parent": None if index == 0 else
            f"u{draw(st.integers(0, index - 1))}",
            "mission": mission,
            "actor": actor,
            "start": start,
            # A zero-length operation now and then: shares of it are None.
            "end": draw(st.one_of(st.just(start), timestamps)),
            "infos": draw(st.lists(st.tuples(
                st.sampled_from(INFO_NAMES),
                st.one_of(st.sampled_from(INFO_VALUES),
                          st.integers().map(str))), max_size=3)),
        })
    events = []
    ready = [("start", ops[0])]
    while ready:
        event = ready.pop(draw(st.integers(0, len(ready) - 1)))
        events.append(event)
        kind, op = event[0], event[-1]
        if kind == "start":
            ready.append(("end", op))
            ready.extend(("info", info, op) for info in op["infos"])
            ready.extend(("start", child) for child in ops
                         if child["parent"] == op["uid"])
    return events


def columns_of(events):
    """Events as :class:`RecordColumns` in a monitored run."""
    columns = RecordColumns()
    for event in events:
        if event[0] == "start":
            op = event[1]
            columns.append(op["start"], "j", "start", op["uid"],
                           op["parent"], op["mission"], op["actor"],
                           None, None)
        elif event[0] == "end":
            columns.append(event[1]["end"], "j", "end", event[1]["uid"],
                           None, None, None, None, None)
        else:
            (name, value), op = event[1], event[2]
            columns.append(op["start"], "j", "info", op["uid"],
                           None, None, None, name, value)
    return MonitoredRun(result=columns_run([]).result, columns=columns,
                        env_series={})


models = st.one_of(
    st.none(),
    st.sampled_from(models_of(MODEL)),
)


@settings(max_examples=300, deadline=None)
@given(strict_logs(), models)
def test_drawn_logs_build_the_reference_table(events, model):
    assert_same_build(columns_of(events), model)


def _start_rows(events):
    return [i for i, e in enumerate(events) if e[0] == "start"]


def _damage(events, kind, draw):
    """``events`` with one structural fault of the given kind."""
    events = list(events)
    starts = _start_rows(events)
    pick = draw(st.integers(0, 10 ** 6))
    if kind == "started twice":
        row = starts[pick % len(starts)]
        events.insert(draw(st.integers(row + 1, len(events))), events[row])
    elif kind in ("unknown parent", "later parent", "two roots"):
        row = starts[pick % len(starts)]
        op = dict(events[row][1])
        if kind == "unknown parent":
            op["parent"] = "ghost"
        elif kind == "two roots":
            op["parent"] = None
        else:
            later = [events[i][1]["uid"] for i in starts if i >= row]
            op["parent"] = later[pick % len(later)]
        events[row] = ("start", op)
    elif kind in ("end before start", "info before start"):
        wanted = "end" if kind.startswith("end") else "info"
        rows = [i for i, e in enumerate(events) if e[0] == wanted]
        if rows:
            row = rows[pick % len(rows)]
            event = events.pop(row)
            events.insert(pick % (row + 1), event)
    elif kind == "never ended":
        rows = [i for i, e in enumerate(events) if e[0] == "end"]
        del events[rows[pick % len(rows)]]
    elif kind == "ended twice":
        rows = [i for i, e in enumerate(events) if e[0] == "end"]
        row = rows[pick % len(rows)]
        events.insert(draw(st.integers(row, len(events))), events[row])
    elif kind == "root not in the model":
        op = dict(events[0][1], mission="Elsewhere")
        events[0] = ("start", op)
    else:  # A dropped row.
        del events[pick % len(events)]
    return events


DAMAGE = ("started twice", "unknown parent", "later parent",
          "end before start", "info before start", "two roots",
          "never ended", "ended twice", "root not in the model", "dropped")


@settings(max_examples=300, deadline=None)
@given(strict_logs(), st.sampled_from(DAMAGE), models, st.data())
def test_damaged_logs_fail_like_the_reference(events, kind, model, data):
    damaged = _damage(events, kind, data.draw)
    assert_same_build(columns_of(damaged), model)


# -- named faults ------------------------------------------------------------------

LINES = [
    "GRANULA ts=0 job=j event=start uid=a parent=- mission=GiraphJob "
    "actor=GiraphClient",
    "GRANULA ts=1 job=j event=start uid=b parent=a mission=LoadGraph "
    "actor=GiraphClient",
    "GRANULA ts=2 job=j event=info uid=b name=X value=4",
    "GRANULA ts=3 job=j event=end uid=b",
    "GRANULA ts=4 job=j event=end uid=a",
]


@pytest.mark.parametrize("lines, message", [
    (LINES[:2] + [LINES[1]] + LINES[2:], "operation b started twice"),
    ([LINES[0], LINES[1].replace("parent=a", "parent=ghost")] + LINES[2:],
     "operation b references unknown parent ghost"),
    ([LINES[0], LINES[1].replace("parent=a", "parent=b")] + LINES[2:],
     "operation b references unknown parent b"),
    ([LINES[0], LINES[3], LINES[1], LINES[2], LINES[4]],
     "end event for unknown operation b"),
    ([LINES[0], LINES[2], LINES[1], LINES[3], LINES[4]],
     "info event for unknown operation b"),
    (LINES + [LINES[3]], "operation b ended twice"),
    ([LINES[0], LINES[1].replace("parent=a", "parent=-")] + LINES[2:],
     "log contains 2 root operations: ['GiraphJob', 'LoadGraph']"),
    (LINES[:3] + LINES[4:],
     "1 operations never ended (e.g. ['LoadGraph']); incomplete log?"),
    ([], "log contains no root operation"),
])
def test_each_fault_names_its_row(lines, message):
    run = columns_run(lines)
    for model in (None, MODEL):
        with pytest.raises(ArchiveBuildError) as raised:
            build_archive(run, model)
        assert str(raised.value) == message
        assert_same_build(run, model)


def test_a_root_outside_the_model_is_refused():
    run = columns_run([line.replace("GiraphJob", "Job") for line in LINES])
    with pytest.raises(ArchiveBuildError, match="does not match the Giraph"):
        build_archive(run, MODEL)
    assert_same_build(run, MODEL)


def test_float_infinities_in_derived_infos_are_encoded():
    lines = [line.replace("ts=4 ", "ts=inf ") for line in LINES]
    archive, _report = build_archive(columns_run(lines), MODEL)
    table = archive.table
    durations = [v for k, v in zip(table["info_key"], table["info_value"])
                 if k == "Duration"]
    assert durations[0] == "Infinity"
    assert math.isinf(archive.root.infos["Duration"])
    assert_same_build(columns_run(lines), MODEL)


def test_custom_rules_run_on_the_tree():
    run = columns_run(LINES)
    archive, report = build_archive(run, with_custom_rule(MODEL))
    assert archive.table is None  # The tree was built to run the rule.
    assert archive.root.infos["MaxChildDuration"] == 2.0
    assert report.rules_applied == 2  # MaxChildDuration, ShareOfParent.
    assert_same_build(run, with_custom_rule(MODEL))

