"""Parsing GRANULA platform logs into :class:`RecordColumns`.

Platform logs are plain text interleaving GRANULA lines with the
platform's own output; :func:`parse_log_columns` skips foreign lines
and appends the rest to columns, raising
:class:`~repro.errors.LogParseError` on malformed GRANULA lines (strict
mode) or collecting them (lenient mode).  The canonical writer layout
is recognized token by token; every other line goes through
:func:`parse_log_line`, the reference for what a line means and for
the error a bad one raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple
from urllib.parse import unquote

from repro import logformat
from repro.core.monitor.records import LogRecord, RecordColumns
from repro.errors import LogParseError


@dataclass
class ParseReport:
    """Statistics of one log parse — makes silent data loss visible.

    Attributes:
        total_lines: lines inspected.
        foreign_lines: non-GRANULA lines skipped (the platform's own
            output; high counts are normal).
        records: GRANULA records successfully parsed.
        bad_lines: malformed GRANULA lines collected in lenient mode.
    """

    total_lines: int = 0
    foreign_lines: int = 0
    records: int = 0
    bad_lines: List[str] = field(default_factory=list)

    @property
    def malformed(self) -> int:
        """Number of malformed GRANULA lines encountered."""
        return len(self.bad_lines)

    def summary(self) -> Dict[str, int]:
        """Counts as a flat mapping (archive/report friendly)."""
        return {
            "total_lines": self.total_lines,
            "foreign_lines": self.foreign_lines,
            "records": self.records,
            "malformed_lines": self.malformed,
        }


def parse_log_line(line: str) -> LogRecord:
    """Parse a single GRANULA line into a :class:`LogRecord`."""
    try:
        fields = logformat.parse_line(line)
    except ValueError as exc:
        raise LogParseError(line, str(exc)) from None
    missing = [key for key in ("ts", "job", "event", "uid") if key not in fields]
    if missing:
        raise LogParseError(line, f"missing fields {missing}")
    empty = [key for key in ("job", "uid") if not fields[key]]
    if empty:
        raise LogParseError(line, f"empty fields {empty}")
    try:
        timestamp = float(fields["ts"])
    except ValueError:
        raise LogParseError(line, f"bad timestamp {fields['ts']!r}") from None
    event = fields["event"]
    if event not in logformat.EVENTS:
        raise LogParseError(line, f"unknown event {event!r}")

    if event == logformat.EVENT_START:
        for key in ("mission", "actor", "parent"):
            if key not in fields:
                raise LogParseError(line, f"start event missing {key!r}")
        parent = fields["parent"]
        return LogRecord(
            timestamp=timestamp,
            job_id=fields["job"],
            event=event,
            uid=fields["uid"],
            parent_uid=None if parent == logformat.NO_PARENT else parent,
            mission=fields["mission"],
            actor=fields["actor"],
        )
    if event == logformat.EVENT_INFO:
        if "name" not in fields or "value" not in fields:
            raise LogParseError(line, "info event missing name/value")
        return LogRecord(
            timestamp=timestamp,
            job_id=fields["job"],
            event=event,
            uid=fields["uid"],
            info_name=fields["name"],
            info_value=fields["value"],
        )
    return LogRecord(
        timestamp=timestamp,
        job_id=fields["job"],
        event=event,
        uid=fields["uid"],
    )


_FAST_PREFIX = logformat.PREFIX + " "


def _unquote_fast(value: str) -> str:
    # quote(..., safe='') leaves a '%' only where escaping happened, so
    # unescaped tokens skip the urllib round trip entirely.
    return unquote(value) if "%" in value else value


def _append_fast(columns: RecordColumns, line: str) -> bool:
    """Append one canonical writer-layout line; False -> use slow path.

    The emitting side (:func:`repro.logformat.format_line`) writes a
    fixed token order per event kind, so the common case parses with
    one ``split`` and prefix checks instead of a field-map build.  Any
    deviation (reordered fields, extra spaces, damage) falls back to
    :func:`parse_log_line`, which reproduces the exact strict-mode
    error semantics.
    """
    if line[-1].isspace():
        # A terminator ("\n" from iterating a file, "\r\n", padding)
        # is not part of the last value; parse_log_line strips it too.
        line = line.rstrip()
    parts = line.split(" ")
    n = len(parts)
    if n < 5 or not (
        parts[1].startswith("ts=")
        and parts[2].startswith("job=")
        and parts[3].startswith("event=")
        and parts[4].startswith("uid=")
    ):
        return False
    job = _unquote_fast(parts[2][4:])
    uid = _unquote_fast(parts[4][4:])
    if not job or not uid:
        return False
    try:
        timestamp = float(parts[1][3:])
    except ValueError:
        return False
    event = parts[3][6:]
    if event == logformat.EVENT_START:
        if n != 8 or not (
            parts[5].startswith("actor=")
            and parts[6].startswith("mission=")
            and parts[7].startswith("parent=")
        ):
            return False
        parent = _unquote_fast(parts[7][7:])
        columns.append(
            timestamp, job, event, uid,
            None if parent == logformat.NO_PARENT else parent,
            _unquote_fast(parts[6][8:]),
            _unquote_fast(parts[5][6:]),
            None, None,
        )
        return True
    if event == logformat.EVENT_END:
        if n != 5:
            return False
        columns.append(timestamp, job, event, uid,
                       None, None, None, None, None)
        return True
    if event == logformat.EVENT_INFO:
        if n != 7 or not (
            parts[5].startswith("name=")
            and parts[6].startswith("value=")
        ):
            return False
        columns.append(
            timestamp, job, event, uid,
            None, None, None,
            _unquote_fast(parts[5][5:]),
            _unquote_fast(parts[6][6:]),
        )
        return True
    return False


def parse_log_columns(
    lines: Iterable[str],
    strict: bool = True,
) -> Tuple[RecordColumns, ParseReport]:
    """Parse a platform log into :class:`RecordColumns`.

    Non-GRANULA lines are skipped and counted (platforms log plenty of
    their own).  Malformed GRANULA lines raise
    :class:`~repro.errors.LogParseError` in strict mode; in lenient
    mode they are collected in the report's ``bad_lines``, so a lenient
    parse cannot lose data silently.
    """
    columns = RecordColumns()
    report = ParseReport()
    for line in lines:
        report.total_lines += 1
        if line.startswith(_FAST_PREFIX):
            if _append_fast(columns, line):
                report.records += 1
                continue
        elif not logformat.is_granula_line(line):
            report.foreign_lines += 1
            continue
        try:
            columns.append(*parse_log_line(line))
            report.records += 1
        except LogParseError:
            if strict:
                raise
            report.bad_lines.append(line)
    return columns, report
