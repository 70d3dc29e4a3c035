"""Typed records produced by monitoring.

:class:`RecordColumns` is the one parsed-log representation: the parser
appends rows to parallel columns, and the strict builder, salvage and
live monitoring all scan those columns — no record object is allocated
per event.  :class:`LogRecord` is the row type, built only for the
occasional non-canonical line and for :meth:`RecordColumns.records`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, List, NamedTuple, Optional, Sequence


def coerce_info_value(value: str) -> Any:
    """Best-effort typing of recorded info values (int, float, str)."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


class LogRecord(NamedTuple):
    """One parsed GRANULA platform-log event (a :class:`RecordColumns` row).

    Attributes:
        timestamp: simulated time of the event.
        job_id: owning job.
        event: ``"start"``, ``"end"`` or ``"info"``.
        uid: concrete operation instance id.
        parent_uid: parent instance id (start events only; None for
            roots and non-start events).
        mission: mission name incl. iteration suffix (start events only).
        actor: actor name incl. instance suffix (start events only).
        info_name / info_value: payload of info events.
    """

    timestamp: float
    job_id: str
    event: str
    uid: str
    parent_uid: Optional[str] = None
    mission: Optional[str] = None
    actor: Optional[str] = None
    info_name: Optional[str] = None
    info_value: Optional[str] = None


@dataclass
class RecordColumns:
    """Parsed GRANULA log events as parallel columns.

    One row per event, in log order; per-event fields that do not apply
    (e.g. ``mission`` of an end event) hold ``None``.  Columns are
    declared in :class:`LogRecord` field order.
    """

    timestamp: List[float] = field(default_factory=list)
    job_id: List[str] = field(default_factory=list)
    event: List[str] = field(default_factory=list)
    uid: List[str] = field(default_factory=list)
    parent_uid: List[Optional[str]] = field(default_factory=list)
    mission: List[Optional[str]] = field(default_factory=list)
    actor: List[Optional[str]] = field(default_factory=list)
    info_name: List[Optional[str]] = field(default_factory=list)
    info_value: List[Optional[str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.timestamp)

    def append(
        self,
        timestamp: float,
        job_id: str,
        event: str,
        uid: str,
        parent_uid: Optional[str],
        mission: Optional[str],
        actor: Optional[str],
        info_name: Optional[str],
        info_value: Optional[str],
    ) -> None:
        """Append one row given in :class:`LogRecord` field order."""
        self.timestamp.append(timestamp)
        self.job_id.append(job_id)
        self.event.append(event)
        self.uid.append(uid)
        self.parent_uid.append(parent_uid)
        self.mission.append(mission)
        self.actor.append(actor)
        self.info_name.append(info_name)
        self.info_value.append(info_value)

    def _lists(self) -> List[list]:
        return [self.timestamp, self.job_id, self.event, self.uid,
                self.parent_uid, self.mission, self.actor,
                self.info_name, self.info_value]

    def extend(self, other: "RecordColumns") -> None:
        """Append every row of ``other`` (live monitoring's feed step)."""
        for mine, theirs in zip(self._lists(), other._lists()):
            mine.extend(theirs)

    def select(self, rows: List[int]) -> "RecordColumns":
        """The given rows, in the given order, as new columns."""
        return RecordColumns(
            *[[column[i] for i in rows] for column in self._lists()]
        )

    def records(self) -> Sequence[LogRecord]:
        """Lazy row-object view: a :class:`LogRecord` per indexed row."""
        return _Rows(self)


class _Rows(Sequence):
    def __init__(self, columns: RecordColumns):
        self._lists = columns._lists()

    def __len__(self) -> int:
        return len(self._lists[0])

    def __getitem__(self, index):
        index = operator.index(index)
        return LogRecord(*[column[index] for column in self._lists])


@dataclass(frozen=True)
class EnvSample:
    """One environment-monitor sample.

    ``cpu`` is the average number of busy cores on ``node`` during the
    sample window starting at ``timestamp`` — the paper's
    "CPU time / second" quantity.
    """

    timestamp: float
    node: str
    cpu: float
