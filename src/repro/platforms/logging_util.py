"""GRANULA log emission for platform engines.

Engines instrument every operation with start/end/info log lines through
:class:`GranulaLogWriter`.  Timestamps default to the cluster clock but
can be given explicitly, because parallel per-worker operations inside a
region all start together while the global clock only advances once for
the whole region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro import logformat
from repro.cluster.clock import SimClock
from repro.errors import PlatformError


@dataclass
class OpenOperation:
    """Handle of an operation whose ``start`` line was emitted.

    Attributes:
        uid: unique id of the operation instance within the job.
        mission: mission name (may carry an iteration suffix).
        actor: executing actor name.
        parent_uid: parent operation uid, or the root placeholder.
        started_at: simulated start timestamp.
        closed: whether the ``end`` line has been emitted.
    """

    uid: str
    mission: str
    actor: str
    parent_uid: str
    started_at: float
    closed: bool = False


class GranulaLogWriter:
    """Builds a job's GRANULA platform log line by line.

    Each event kind is written by one f-string in the canonical field
    order of :func:`repro.logformat.format_line` (``ts job event uid``,
    then the rest sorted), which stays the grammar's definition: every
    line equals ``format_line`` of its fields.  Timestamps are rendered
    ``%.6f`` (digits, ``.``, ``-``, ``inf``, ``nan``), which never needs
    quoting; uids are the writer's own ``opNNNNN``; the job id is quoted
    once, and missions, actors, names and values are quoted once per
    distinct text.
    """

    def __init__(self, job_id: str, clock: SimClock):
        if not job_id:
            raise PlatformError("job id must be non-empty")
        self.job_id = job_id
        self.clock = clock
        self.lines: List[str] = []
        self._counter = 0
        self._open: dict = {}
        self._job = logformat.quote_value(job_id)
        #: Quoted form of each text seen.  Keyed by the text, never by
        #: the value: ``1``, ``1.0`` and ``True`` are equal dict keys.
        self._quoted: Dict[str, str] = {}

    def _quote(self, value: Any) -> str:
        text = str(value)
        quoted = self._quoted.get(text)
        if quoted is None:
            quoted = self._quoted[text] = logformat.quote_value(text)
        return quoted

    def start(
        self,
        mission: str,
        actor: str,
        parent: Optional[OpenOperation] = None,
        ts: Optional[float] = None,
    ) -> OpenOperation:
        """Emit a ``start`` line and return the operation handle."""
        self._counter += 1
        uid = f"op{self._counter:05d}"
        started = self.clock.now() if ts is None else ts
        parent_uid = parent.uid if parent is not None else logformat.NO_PARENT
        op = OpenOperation(uid, mission, actor, parent_uid, started)
        self._open[uid] = op
        self.lines.append(
            f"GRANULA ts={started:.6f} job={self._job} event=start "
            f"uid={uid} actor={self._quote(actor)} "
            f"mission={self._quote(mission)} parent={parent_uid}"
        )
        return op

    def end(self, op: OpenOperation, ts: Optional[float] = None) -> None:
        """Emit the ``end`` line of an open operation."""
        if op.closed:
            raise PlatformError(f"operation {op.uid} ({op.mission}) already ended")
        ended = self.clock.now() if ts is None else ts
        if ended < op.started_at:
            raise PlatformError(
                f"operation {op.uid} ends at {ended} before start {op.started_at}"
            )
        op.closed = True
        self.lines.append(
            f"GRANULA ts={ended:.6f} job={self._job} event=end uid={op.uid}"
        )

    def info(
        self,
        op: OpenOperation,
        name: str,
        value: Any,
        ts: Optional[float] = None,
    ) -> None:
        """Emit an ``info`` line attached to an operation."""
        stamp = self.clock.now() if ts is None else ts
        self.lines.append(
            f"GRANULA ts={stamp:.6f} job={self._job} event=info "
            f"uid={op.uid} name={self._quote(name)} "
            f"value={self._quote(value)}"
        )

    def span(
        self,
        mission: str,
        actor: str,
        parent: Optional[OpenOperation],
        start_ts: float,
        end_ts: float,
    ) -> OpenOperation:
        """Emit a complete start+end pair with explicit timestamps."""
        op = self.start(mission, actor, parent, ts=start_ts)
        self.end(op, ts=end_ts)
        return op

    @property
    def open_operations(self) -> List[OpenOperation]:
        """Operations whose end line has not been emitted yet."""
        return [op for op in self._open.values() if not op.closed]

    def assert_all_closed(self) -> None:
        """Raise when any operation is still open (engine bug guard)."""
        dangling = self.open_operations
        if dangling:
            names = ", ".join(f"{o.mission}@{o.actor}" for o in dangling[:5])
            raise PlatformError(
                f"job {self.job_id}: {len(dangling)} operations never ended: {names}"
            )
