"""Property-based tests (hypothesis) for the resilience pipeline.

Invariants under fuzzing:

- the log format round-trips through typed records;
- mangled lines (truncated mid-field, duplicated, reordered, binary
  garbage) always yield a typed error or a salvaged record — never a
  raw ``ValueError``/``KeyError``;
- JSON-prefix recovery never raises and never invents data;
- salvaged archives keep their structural invariants (end >= start,
  children inside parents' trees, consistent bookkeeping).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import logformat
from repro.core.archive.integrity import load_salvaged, recover_json
from repro.core.monitor.logparser import parse_log_columns, parse_log_line
from repro.core.monitor.salvage import salvage_archive
from repro.errors import IngestError, LogParseError, ReproError

# -- strategies -------------------------------------------------------------

uids = st.text(st.sampled_from("abcdefgh0123456789"), min_size=1,
               max_size=6)
names = st.text(st.sampled_from("ABCDEFGHabcdefgh-"), min_size=1,
                max_size=10)
timestamps = st.floats(min_value=0, max_value=1e6, allow_nan=False,
                       allow_infinity=False)


@st.composite
def start_lines(draw):
    fields = {
        "ts": repr(draw(timestamps)),
        "job": draw(uids),
        "event": "start",
        "uid": draw(uids),
        "parent": draw(st.one_of(st.just("-"), uids)),
        "mission": draw(names),
        "actor": draw(names),
    }
    return logformat.format_line(fields)


@st.composite
def tiny_logs(draw):
    """A structurally sensible log: nested starts, some ends."""
    job = draw(uids)
    count = draw(st.integers(min_value=1, max_value=8))
    lines, stack, ts = [], [], 0.0
    for index in range(count):
        ts += draw(st.floats(0.01, 5.0, allow_nan=False))
        uid = f"op{index}"
        parent = stack[-1] if stack else "-"
        lines.append(logformat.format_line({
            "ts": repr(ts), "job": job, "event": "start", "uid": uid,
            "parent": parent, "mission": draw(names),
            "actor": draw(names),
        }))
        stack.append(uid)
        if draw(st.booleans()) and stack:
            ts += draw(st.floats(0.01, 5.0, allow_nan=False))
            lines.append(logformat.format_line({
                "ts": repr(ts), "job": job, "event": "end",
                "uid": stack.pop(),
            }))
    return lines


def mangle_line(rng_choice, line, index):
    """One deterministic mangling of one line."""
    kind = rng_choice
    if kind == 0:   # truncate mid-field
        return line[: max(1, len(line) - 1 - index % max(1, len(line)))]
    if kind == 1:   # binary garbage prefix
        return "\x00\x7f\x1b" + line
    if kind == 2:   # corrupt a separator
        return line.replace("=", "", 1)
    return line     # unchanged


# -- line-level invariants ---------------------------------------------------

def parse_agreeing(line):
    """The row ``parse_log_columns`` makes of one line (None if foreign).

    Whatever the line looks like, the column parser must treat it the
    way ``parse_log_line`` does: the same row, or the same typed error.
    """
    try:
        expected = parse_log_line(line)
    except LogParseError as exc:
        expected = str(exc)
    try:
        columns, report = parse_log_columns([line])
    except LogParseError as exc:
        assert str(exc) == expected
        raise
    if report.foreign_lines:
        assert not logformat.is_granula_line(line)
        return None
    (record,) = columns.records()
    assert record == expected
    return record


class TestLineParsing:
    @given(start_lines())
    @settings(max_examples=100, deadline=None)
    def test_valid_lines_round_trip(self, line):
        record = parse_agreeing(line)
        assert record.event == "start"
        assert logformat.format_line({
            "ts": repr(record.timestamp), "job": record.job_id,
            "event": record.event, "uid": record.uid,
            "parent": record.parent_uid or "-",
            "mission": record.mission, "actor": record.actor,
        }) == line

    @given(st.text(max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text_never_raises_raw_errors(self, text):
        try:
            parse_agreeing(text)
        except ReproError:
            pass  # typed: LogParseError is fine

    @given(start_lines(), st.integers(0, 3), st.integers(0, 50))
    @settings(max_examples=150, deadline=None)
    def test_mangled_lines_typed_or_salvaged(self, line, kind, index):
        try:
            parse_agreeing(mangle_line(kind, line, index))
        except LogParseError:
            pass

    @given(st.lists(st.text(max_size=80), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_lenient_report_accounts_for_every_line(self, lines):
        columns, report = parse_log_columns(lines, strict=False)
        assert report.total_lines == len(lines)
        assert (report.foreign_lines + report.records
                + report.malformed) == len(lines)
        assert len(columns) == report.records


# -- log-level invariants ----------------------------------------------------

class TestSalvageProperties:
    @given(tiny_logs())
    @settings(max_examples=60, deadline=None)
    def test_clean_logs_salvage_to_valid_trees(self, lines):
        archive, report = salvage_archive(lines)
        for operation in archive.walk():
            if (operation.start_time is not None
                    and operation.end_time is not None):
                assert operation.end_time >= operation.start_time
        assert report.records <= report.total_lines

    @given(tiny_logs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_mangled_logs_typed_or_salvaged(self, lines, rng):
        mangled = []
        for index, line in enumerate(lines):
            mangled.append(mangle_line(rng.randint(0, 3), line, index))
            if rng.random() < 0.3:
                mangled.append(line)  # duplicate
        rng.shuffle(mangled)
        mangled = mangled[: max(1, int(len(mangled) * 0.8))]  # truncate
        try:
            archive, report = salvage_archive(mangled)
        except IngestError:
            return  # typed: nothing salvageable
        assert archive.root is not None
        for operation in archive.walk():
            if (operation.start_time is not None
                    and operation.end_time is not None):
                assert operation.end_time >= operation.start_time
        assert report.records > 0

    @given(tiny_logs())
    @settings(max_examples=30, deadline=None)
    def test_salvage_is_idempotent_on_its_own_report(self, lines):
        first, report_a = salvage_archive(lines)
        second, report_b = salvage_archive(lines)
        assert report_a.to_dict() == report_b.to_dict()
        assert [op.uid for op in first.walk()] == \
            [op.uid for op in second.walk()]


# -- JSON-recovery invariants ------------------------------------------------

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=12)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestRecoverJsonProperties:
    @given(json_values)
    @settings(max_examples=100, deadline=None)
    def test_intact_json_recovered_verbatim(self, value):
        text = json.dumps(value)
        doc, dropped = recover_json(text)
        assert doc == json.loads(text)
        assert dropped == 0

    @given(json_values, st.floats(0.1, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_truncation_never_raises(self, value, fraction):
        text = json.dumps(value)
        cut = text[: max(1, int(len(text) * fraction))]
        doc, dropped = recover_json(cut)  # must not raise
        assert dropped >= 0
        if doc is not None:
            json.dumps(doc)  # recovered value is valid JSON

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_text_never_raises(self, text):
        recover_json(text)
        archive, findings = load_salvaged(text)
        assert findings or archive is not None
