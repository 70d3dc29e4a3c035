"""Live monitoring: incremental archives and snapshot streams for running jobs.

Everything in PRs 2-9 is post-mortem — an evaluation is invisible until
its archive lands in the store.  This module closes that gap (ROADMAP
item 2): a :class:`LiveMonitor` accepts platform log lines *while the
job runs*, resolves the prefix with salvage's repairs into the column
builder's table (:func:`repro.core.monitor.salvage.salvage_table` —
operations that have not closed yet get a synthesized end flagged
``inferred``, exactly like a crash-truncated log), and publishes a
sequence of **snapshots**:

- each snapshot is a complete, self-contained archive document built
  from the full event prefix seen so far — never a delta, so a consumer
  can join at any sequence number and be immediately consistent (every
  line is parsed once, when fed; a snapshot re-scans the accumulated
  columns);
- sequence numbers are strictly monotonic and bump only when the
  underlying events changed, so pollers can cheaply detect "no news";
- the **final** snapshot of a completed job carries the byte-identical
  serialization the store writes (``archive_to_json`` of the real
  built archive), so a stream consumer ends up with exactly the stored
  artifact.

The :class:`LiveJobRegistry` is the rendezvous between the workload
runner (which publishes monitors) and the service tier (which serves
them over ``GET /jobs/{id}/live`` as Server-Sent Events); it also
counts open streams so the CLI can linger until watchers have drained.

The simulated platforms execute a job as one discrete-event pass, so
the runner *replays* the finished run's log incrementally
(:meth:`LiveMonitor.replay`).  The feed shape is identical to tailing a
real platform's log directory — chunks of raw lines plus environment
samples — so the ingestion path exercised here is the one a tail-f
collector would use.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.archive.archive import PerformanceArchive
from repro.core.archive.serialize import archive_to_json
from repro.core.monitor.logparser import ParseReport, parse_log_columns
from repro.core.monitor.records import EnvSample, RecordColumns
from repro.core.monitor.salvage import (
    DEFAULT_SKEW_TOLERANCE,
    SalvageParser,
    salvage_table,
)

#: Default seconds between heartbeat comments on an idle SSE stream.
DEFAULT_HEARTBEAT = 1.0

#: Default number of chunks :meth:`LiveMonitor.replay` splits a log into.
DEFAULT_REPLAY_CHUNKS = 8


@dataclass(frozen=True)
class LiveSnapshot:
    """One consistent view of a running (or finished) job's archive.

    Attributes:
        seq: strictly monotonic sequence number (1-based); the SSE
            event id, so ``Last-Event-ID`` resume is exact.
        body: the full archive document as compact JSON bytes.  For the
            final snapshot of a completed job these are byte-identical
            to the file the store writes.
        complete: True only on the final snapshot.
        records: log records folded into this snapshot — on a partial
            snapshot those that survived job filtering and dedup, on
            the final one every record parsed from the feed — so the
            count never decreases along a stream.
        inferred_ends: operations whose close was synthesized because
            their end event has not arrived yet (provenance
            ``inferred``).
    """

    seq: int
    body: bytes
    complete: bool
    records: int = 0
    inferred_ends: int = 0


class LiveMonitor:
    """Incremental archive builder for one running job.

    Thread-safe: the runner feeds from the evaluation thread while any
    number of SSE streams wait on :meth:`wait`.  Feeding parses the
    new lines into the monitor's columns; snapshots are built lazily —
    the salvage scan over those columns happens only when a consumer
    asks and events changed since the last build.
    """

    def __init__(
        self,
        job_id: str,
        platform: str = "",
        metadata: Optional[Dict[str, object]] = None,
        clock_skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
        replay_chunks: int = DEFAULT_REPLAY_CHUNKS,
        replay_delay: float = 0.0,
    ):
        self.job_id = job_id
        self.platform = platform
        self.metadata = dict(metadata or {})
        self.replay_chunks = replay_chunks
        self.replay_delay = replay_delay
        self._parser = SalvageParser(
            clock_skew_tolerance=clock_skew_tolerance
        )
        self._cond = threading.Condition()
        self._columns = RecordColumns()
        self._parsed = ParseReport()
        self._env: List[Tuple[float, str, float]] = []
        self._dirty = False
        self._seq = 0
        self._latest: Optional[LiveSnapshot] = None
        self._complete = False
        self._error: Optional[str] = None

    # -- producer side -----------------------------------------------------

    def feed(
        self,
        lines: Iterable[str],
        env: Iterable[EnvSample] = (),
    ) -> int:
        """Append raw log lines (and env samples); wake waiting streams.

        Returns the number of lines accepted.  Feeding after
        :meth:`complete` is a silent no-op — the final archive already
        supersedes anything a straggling tail could add.
        """
        columns, parsed = parse_log_columns(lines, strict=False)
        samples = [(s.timestamp, s.node, s.cpu) for s in env]
        with self._cond:
            if self._complete:
                return 0
            self._columns.extend(columns)
            self._parsed.total_lines += parsed.total_lines
            self._parsed.foreign_lines += parsed.foreign_lines
            self._parsed.records += parsed.records
            self._parsed.bad_lines.extend(parsed.bad_lines)
            self._env.extend(samples)
            if parsed.total_lines or samples:
                self._dirty = True
                self._cond.notify_all()
        return parsed.total_lines

    def replay(
        self,
        lines: List[str],
        env: Iterable[EnvSample] = (),
        chunks: Optional[int] = None,
        delay: Optional[float] = None,
    ) -> None:
        """Feed a finished run's log as if it were being tailed.

        The simulated platforms produce the whole log atomically; this
        splits it into ``chunks`` batches (env samples follow their
        timestamps) so intermediate snapshots — with genuinely open,
        inferred-close operations — exist for stream consumers.  An
        optional inter-chunk ``delay`` makes the progression observable
        by humans; tests leave it at 0.
        """
        lines = list(lines)
        env = list(env)
        chunks = self.replay_chunks if chunks is None else chunks
        delay = self.replay_delay if delay is None else delay
        chunks = max(1, min(chunks, len(lines) or 1))
        size = max(1, (len(lines) + chunks - 1) // chunks)
        fed_env = 0
        for offset in range(0, len(lines) or 1, size):
            batch = lines[offset:offset + size]
            # Ship env samples up to the last timestamp in this batch.
            horizon = next((ts for ts in map(_line_timestamp, reversed(batch))
                            if ts is not None), None)
            take = len(env)
            if horizon is not None and offset + size < len(lines):
                take = fed_env
                while take < len(env) and env[take].timestamp <= horizon:
                    take += 1
            self.feed(batch, env[fed_env:take])
            fed_env = take
            if delay > 0:
                time.sleep(delay)
        if fed_env < len(env):
            self.feed([], env[fed_env:])

    def complete(self, archive: PerformanceArchive) -> LiveSnapshot:
        """Publish the final snapshot from the fully-built archive.

        The body is exactly what :meth:`ArchiveStore.save` writes for
        this archive — ``archive_to_json`` compact v3 — so the last SSE
        event a watcher receives is byte-identical to the stored file.
        """
        body = archive_to_json(archive).encode("utf-8")
        with self._cond:
            self._seq += 1
            snapshot = LiveSnapshot(
                seq=self._seq,
                body=body,
                complete=True,
                records=len(self._columns),
            )
            self._latest = snapshot
            self._complete = True
            self._dirty = False
            self._cond.notify_all()
        return snapshot

    def abort(self, reason: str) -> None:
        """Terminate the stream without a final archive (run failed).

        Waiting streams are released; the monitor reports complete with
        the last partial snapshot (if any) still available, and the
        failure reason surfaces in the SSE ``complete`` event.
        """
        with self._cond:
            self._complete = True
            self._error = reason
            self._dirty = False
            self._cond.notify_all()

    # -- consumer side -----------------------------------------------------

    @property
    def is_complete(self) -> bool:
        with self._cond:
            return self._complete

    @property
    def error(self) -> Optional[str]:
        with self._cond:
            return self._error

    def snapshot(self) -> Optional[LiveSnapshot]:
        """The latest consistent snapshot, building one if events changed.

        Returns None until the first parseable records arrive.  The
        sequence number bumps only when a rebuild actually happened, so
        two calls with no intervening :meth:`feed` return the identical
        snapshot object.
        """
        with self._cond:
            return self._refresh_locked()

    def wait(
        self,
        after_seq: int,
        timeout: Optional[float] = None,
    ) -> Optional[LiveSnapshot]:
        """Block until a snapshot newer than ``after_seq`` (or complete).

        Returns None on timeout — the SSE loop emits a heartbeat
        comment and waits again.  A completed monitor always returns
        its final snapshot immediately (even at the same seq) so
        streams can terminate.
        """
        with self._cond:
            deadline = None
            while True:
                snap = self._refresh_locked()
                if snap is not None and snap.seq > after_seq:
                    return snap
                if self._complete:
                    return snap
                if timeout is not None:
                    if deadline is None:
                        deadline = time.monotonic() + timeout
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    # -- internals ---------------------------------------------------------

    def _refresh_locked(self) -> Optional[LiveSnapshot]:
        """The latest snapshot, rebuilt first if events changed (lock
        held).

        A rebuild re-scans the accumulated columns from scratch:
        salvage's repairs (inferred ends, orphan quarantine) are not
        incremental — an operation open in snapshot N may close in
        N+1 — and re-deriving from the prefix is what makes every
        snapshot a valid self-contained archive.
        """
        if not self._dirty:
            return self._latest
        columns, report = self._parser.select(
            self._columns, self._parsed, job_id=self.job_id
        )
        if len(columns):
            table = salvage_table(columns, report)
            metadata = dict(self.metadata, live={
                "partial": True,
                "snapshot_seq": self._seq + 1,
                "records": report.records,
                "inferred_ends": report.inferred_ends,
            }, ingest=report.to_dict())
            archive = PerformanceArchive.from_table(
                self.job_id, table, platform=self.platform,
                metadata=metadata, env_samples=self._env)
            body = archive_to_json(archive).encode("utf-8")
            self._seq += 1
            self._latest = LiveSnapshot(
                seq=self._seq,
                body=body,
                complete=False,
                records=report.records,
                inferred_ends=report.inferred_ends,
            )
        self._dirty = False
        return self._latest


class LiveJobRegistry:
    """Rendezvous between the workload runner and the service tier.

    The runner :meth:`open`\\ s a monitor per job and feeds it; the
    service :meth:`get`\\ s monitors to serve SSE streams.  Open-stream
    accounting lets ``granula run --live-port`` linger until every
    watcher has received the final snapshot (:meth:`drain`).
    """

    def __init__(
        self,
        clock_skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
        replay_chunks: int = DEFAULT_REPLAY_CHUNKS,
        replay_delay: float = 0.0,
    ):
        self.clock_skew_tolerance = clock_skew_tolerance
        self.replay_chunks = replay_chunks
        self.replay_delay = replay_delay
        self._lock = threading.Condition()
        self._monitors: Dict[str, LiveMonitor] = {}
        self._streams = 0

    def open(
        self,
        job_id: str,
        platform: str = "",
        metadata: Optional[Dict[str, object]] = None,
    ) -> LiveMonitor:
        """Create (or replace) the monitor for a job about to run."""
        monitor = LiveMonitor(
            job_id,
            platform=platform,
            metadata=metadata,
            clock_skew_tolerance=self.clock_skew_tolerance,
            replay_chunks=self.replay_chunks,
            replay_delay=self.replay_delay,
        )
        with self._lock:
            self._monitors[job_id] = monitor
        return monitor

    def get(self, job_id: str) -> Optional[LiveMonitor]:
        with self._lock:
            return self._monitors.get(job_id)

    def jobs(self) -> List[str]:
        with self._lock:
            return sorted(self._monitors)

    # -- stream accounting -------------------------------------------------

    @property
    def active_streams(self) -> int:
        with self._lock:
            return self._streams

    def stream_opened(self) -> None:
        with self._lock:
            self._streams += 1

    def stream_closed(self) -> None:
        with self._lock:
            self._streams = max(0, self._streams - 1)
            self._lock.notify_all()

    def drain(self, timeout: float = 15.0) -> bool:
        """Wait until no SSE stream is open.  True when drained."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._streams > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._lock.wait(remaining)
            return True


# ---------------------------------------------------------------------------
# Server-Sent Events framing
# ---------------------------------------------------------------------------

def sse_event(
    data: bytes,
    event: Optional[str] = None,
    event_id: Optional[int] = None,
) -> bytes:
    """Frame one SSE event.

    Multi-line data is split into one ``data:`` field per line, as the
    spec requires; clients rejoin with ``\\n``, so payload bytes round
    trip exactly.  (Archive snapshot bodies are compact JSON — a single
    line — so their framing is a single ``data:`` field.)
    """
    out = bytearray()
    if event_id is not None:
        out += b"id: %d\n" % event_id
    if event is not None:
        out += b"event: " + event.encode("utf-8") + b"\n"
    for line in (data.split(b"\n") or [b""]):
        out += b"data: " + line + b"\n"
    out += b"\n"
    return bytes(out)


def sse_comment(text: str = "heartbeat") -> bytes:
    """An SSE comment line — keeps idle streams alive through proxies."""
    return b": " + text.encode("utf-8") + b"\n\n"


@dataclass(frozen=True)
class SseEvent:
    """One parsed Server-Sent Event (client side)."""

    event: str
    data: bytes
    event_id: Optional[int] = None


def iter_sse_events(stream) -> Iterator[SseEvent]:
    """Parse SSE events from a binary file-like object.

    Used by ``granula watch``, the live smoke and the tests.  Comment
    lines (heartbeats) are skipped; ``data:`` fields are rejoined with
    ``\\n`` so single-line payloads are byte-exact.
    """
    event_type = "message"
    event_id: Optional[int] = None
    data: List[bytes] = []
    while True:
        raw = stream.readline()
        if not raw:
            return
        line = raw.rstrip(b"\r\n")
        if not line:
            if data:
                yield SseEvent(event_type, b"\n".join(data), event_id)
            event_type = "message"
            data = []
            continue
        if line.startswith(b":"):
            continue
        field, _, value = line.partition(b":")
        if value.startswith(b" "):
            value = value[1:]
        if field == b"data":
            data.append(value)
        elif field == b"event":
            event_type = value.decode("utf-8", "replace")
        elif field == b"id":
            try:
                event_id = int(value)
            except ValueError:
                pass


def complete_payload(monitor: LiveMonitor) -> bytes:
    """The JSON body of the terminal ``complete`` SSE event."""
    snap = monitor.snapshot()
    payload = {
        "job_id": monitor.job_id,
        "final_seq": snap.seq if snap is not None else 0,
        "error": monitor.error,
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _line_timestamp(line: str) -> Optional[float]:
    """Best-effort timestamp of a GRANULA log line (None if foreign)."""
    marker = "ts="
    pos = line.find(marker)
    if pos < 0:
        return None
    end = line.find(" ", pos)
    token = line[pos + len(marker):end if end > 0 else None]
    try:
        return float(token)
    except ValueError:
        return None
