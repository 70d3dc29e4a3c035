"""Asynchronous, WAL-backed ingestion behind ``POST /jobs``.

The write path's contract, end to end:

1. ``submit()`` frames the request into a JSON envelope, appends it to
   the :class:`repro.service.wal.WriteAheadLog` (fsync'd), and only
   then hands back a tracking id — the HTTP layer's ``202 Accepted``
   therefore *is* a durability receipt;
2. a background worker drains records into ``ArchiveStore.save`` with
   exponential-backoff-plus-jitter retries on index-lock contention
   (:class:`repro.errors.StoreBusyError`), dead-lettering poison
   records instead of wedging the queue;
3. the WAL record is acked only after the save (or dead-letter)
   lands, so a crash anywhere in between is replayed on restart —
   and replay is idempotent: a record whose archive is already stored
   with an identical payload checksum counts as ingested, not as a
   duplicate or a conflict.

Robustness envelope:

- **load shedding** — the queue is bounded (by accounting, so an
  appended record is never stranded outside the queue); at capacity,
  ``submit`` raises :class:`IngestOverloadError` carrying a
  ``Retry-After`` derived from queue depth over the worker's measured
  drain rate;
- **degraded read-only mode** — an ``OSError`` from the WAL disk trips
  a circuit breaker: writes answer 503 while reads keep working, and a
  half-open probe after ``recover_after`` seconds lets the next write
  test the disk again;
- **draining** — graceful shutdown stops accepting writes, finishes
  the queue, and leaves anything unfinished safely in the WAL;
- **supervision** — a worker death (e.g. an injected
  :class:`~repro.service.chaos.WorkerCrashed`) is logged, counted, and
  answered by a fresh worker that rebuilds its queue from WAL replay.
"""

from __future__ import annotations

import json
import logging
import queue
import random
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.archive.serialize import archive_from_json, render_archive
from repro.core.archive.store import ArchiveStore, atomic_write_text
from repro.core.monitor.salvage import salvage_archive
from repro.errors import (
    ArchiveError,
    IngestError,
    IngestOverloadError,
    IngestUnavailableError,
    ReproError,
    StoreBusyError,
)
from repro.service.backpressure import retry_after_seconds
from repro.service.chaos import ChaosController, WorkerCrashed
from repro.service.wal import WalEntry, WriteAheadLog

logger = logging.getLogger(__name__)

#: Payload kinds a submission may carry.
KINDS = ("archive", "log")

#: Health states surfaced by ``/healthz``.
HEALTH_STATES = ("ok", "degraded", "draining")

#: Fallback drain rate (records/s) before the worker has measured one.
DEFAULT_DRAIN_RATE = 20.0


@dataclass
class IngestStatus:
    """Tracking-id state: pending -> ingested | failed."""

    state: str
    job_id: Optional[str] = None
    detail: str = ""
    attempts: int = 0

    def document(self, tracking_id: str) -> Dict[str, Any]:
        return {
            "tracking_id": tracking_id,
            "state": self.state,
            "job_id": self.job_id,
            "detail": self.detail,
            "attempts": self.attempts,
        }


@dataclass
class _Counters:
    accepted: int = 0
    ingested: int = 0
    shed: int = 0
    unavailable: int = 0
    retries: int = 0
    dead_letters: int = 0
    replayed: int = 0
    wal_errors: int = 0
    worker_restarts: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _Circuit:
    """WAL-disk circuit breaker: open while the disk is misbehaving.

    Consecutive trips escalate the recovery window exponentially (a
    half-open probe that fails doubles the wait before the next probe,
    capped at ``max_backoff_factor``×), so a persistently dead disk is
    probed ever less often instead of once per ``recover_after``.
    """

    recover_after: float
    max_backoff_factor: int = 8
    opened_at: Optional[float] = None
    reason: str = ""
    streak: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def trip(self, reason: str) -> None:
        with self.lock:
            self.streak += 1
            self.opened_at = time.monotonic()
            self.reason = reason

    def reset(self) -> None:
        with self.lock:
            self.opened_at = None
            self.reason = ""
            self.streak = 0

    def _window_locked(self) -> float:
        factor = min(2 ** max(0, self.streak - 1), self.max_backoff_factor)
        return self.recover_after * factor

    def state(self) -> str:
        """closed | open | half-open (probe window reached)."""
        with self.lock:
            if self.opened_at is None:
                return "closed"
            elapsed = time.monotonic() - self.opened_at
            if elapsed >= self._window_locked():
                return "half-open"
            return "open"

    def remaining(self) -> float:
        with self.lock:
            if self.opened_at is None:
                return 0.0
            elapsed = time.monotonic() - self.opened_at
            return max(0.0, self._window_locked() - elapsed)


class IngestPipeline:
    """Durable queue between ``POST /jobs`` and the archive store.

    Owns its own :class:`ArchiveStore` instance over the served
    directory (with a lock timeout, so contention surfaces as a typed
    retryable error instead of a blocked thread); readers keep their
    own instance and observe writes through the store's stamped
    ``refresh()``.
    """

    def __init__(
        self,
        store_directory: Union[str, Path],
        wal_directory: Optional[Union[str, Path]] = None,
        capacity: int = 256,
        chaos: Optional[ChaosController] = None,
        recover_after: float = 5.0,
        max_attempts: int = 5,
        backoff_base: float = 0.05,
        lock_timeout: float = 2.0,
        drain_rate_floor: float = DEFAULT_DRAIN_RATE,
    ):
        if capacity < 1:
            raise IngestError(f"queue capacity must be >= 1, got {capacity}")
        self.store = ArchiveStore(store_directory, lock_timeout=lock_timeout)
        self.wal_directory = (
            Path(wal_directory) if wal_directory is not None
            else self.store.directory / ".wal"
        )
        self.chaos = chaos
        self.capacity = capacity
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.dead_letter_dir = self.wal_directory / "deadletter"
        self.wal = WriteAheadLog(
            self.wal_directory,
            append_hook=(
                (lambda: chaos.on("wal_append")) if chaos else None
            ),
        )
        self._counters = _Counters()
        self._circuit = _Circuit(recover_after=recover_after)
        self._drain_rate = drain_rate_floor
        self._drain_rate_floor = drain_rate_floor
        #: Guards submit-vs-replay: replay rebuilds the queue from the
        #: WAL, so no append may interleave with the rebuild.
        self._submit_lock = threading.Lock()
        # Bounded by accounting (capacity checks in submit), not by
        # queue.Queue(maxsize): a record that reached the WAL must
        # always be enqueueable, never stranded durable-but-unqueued.
        self._queue: "queue.Queue[WalEntry]" = queue.Queue()
        # Bounded tracking map: oldest entries fall off once the cap is
        # reached (pending entries are at most `capacity` deep, so what
        # ages out is long-completed history, and /ingest/{id} still
        # answers for dead-lettered ids off the DLQ directory).
        self._statuses: "OrderedDict[str, IngestStatus]" = OrderedDict()
        self._status_cap = 4096
        self._status_lock = threading.Lock()
        self._draining = False
        self._stop = threading.Event()
        self._worker: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        """Replay unacked WAL records, then start the worker.

        Returns the number of replayed records (the crash backlog).
        """
        replayed = self._replay_into_queue()
        if replayed:
            logger.info(
                "ingest: replaying %d unacknowledged WAL record(s)",
                replayed,
            )
        self._spawn_worker()
        return replayed

    def _spawn_worker(self) -> None:
        self._worker = threading.Thread(
            target=self._supervise, name="granula-ingest", daemon=True
        )
        self._worker.start()

    def begin_drain(self) -> None:
        """Stop accepting writes; the queue keeps draining."""
        self._draining = True

    def drain_and_stop(self, timeout: float = 30.0) -> bool:
        """Enter draining, wait for the queue to empty, stop the worker.

        Returns whether the queue fully drained; anything left stays in
        the WAL for the next start.
        """
        self.begin_drain()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._queue.qsize() == 0 and self.wal.lag() == 0:
                break
            time.sleep(0.02)
        drained = self._queue.qsize() == 0
        self._stop.set()
        if self._worker is not None:
            self._worker.join(timeout=5.0)
        self.wal.close()
        return drained

    def wait_applied(self, timeout: float) -> bool:
        """Wait until every write accepted before the call is applied
        (stored or dead-lettered).  Returns False at once while the
        pipeline is degraded or draining, and after ``timeout``."""
        if self.health()["state"] != "ok":
            return False
        return self.wal.wait_acked(timeout)

    # -- write entry point -------------------------------------------------

    def submit(
        self,
        body: bytes,
        kind: str = "archive",
        job_id: Optional[str] = None,
        overwrite: bool = False,
    ) -> Dict[str, Any]:
        """Durably accept one write; returns the 202 document.

        Raises :class:`IngestUnavailableError` (degraded/draining),
        :class:`IngestOverloadError` (queue full), or
        :class:`repro.errors.IngestError` (malformed submission).
        """
        if kind not in KINDS:
            raise IngestError(
                f"unknown payload kind {kind!r}; expected one of "
                f"{', '.join(KINDS)}"
            )
        if not body:
            raise IngestError("empty request body")
        if self._draining:
            self._counters.unavailable += 1
            raise IngestUnavailableError(
                "service is draining; writes are disabled",
                retry_after=self.retry_after(),
            )
        circuit = self._circuit.state()
        if circuit == "open":
            self._counters.unavailable += 1
            raise IngestUnavailableError(
                f"service is degraded (read-only): {self._circuit.reason}",
                retry_after=self._circuit.remaining() or 1.0,
            )
        depth = self._queue.qsize()
        if depth >= self.capacity:
            self._counters.shed += 1
            raise IngestOverloadError(
                f"ingestion queue at capacity ({self.capacity}); "
                f"retry later",
                retry_after=self.retry_after(),
            )
        tracking_id = uuid.uuid4().hex
        envelope = {
            "id": tracking_id,
            "kind": kind,
            "job_id": job_id,
            "overwrite": bool(overwrite),
            "body": body.decode("utf-8", errors="replace"),
            "received": time.time(),
        }
        payload = json.dumps(envelope, sort_keys=True).encode("utf-8")
        with self._submit_lock:
            try:
                entry = self.wal.append(payload)
            except OSError as exc:
                # The WAL disk is the durability floor: if it fails,
                # the service must stop promising 202s.
                self._counters.wal_errors += 1
                self._counters.unavailable += 1
                self._circuit.trip(f"WAL append failed: {exc}")
                logger.error("ingest: WAL append failed; degrading: %s", exc)
                raise IngestUnavailableError(
                    f"write-ahead log unavailable: {exc}",
                    retry_after=self._circuit.recover_after,
                ) from None
            # A successful append closes a half-open circuit.
            self._circuit.reset()
            self._track(tracking_id, IngestStatus("pending", job_id=job_id))
            self._queue.put(entry)
        self._counters.accepted += 1
        return {
            "tracking_id": tracking_id,
            "state": "pending",
            "status_url": f"/ingest/{tracking_id}",
            "queue_depth": self._queue.qsize(),
        }

    def _track(self, tracking_id: str, status: IngestStatus) -> None:
        with self._status_lock:
            self._insert_locked(tracking_id, status)

    def _insert_locked(self, tracking_id: str, status: IngestStatus) -> None:
        self._statuses[tracking_id] = status
        self._statuses.move_to_end(tracking_id)
        while len(self._statuses) > self._status_cap:
            self._statuses.popitem(last=False)

    def status(self, tracking_id: str) -> Optional[Dict[str, Any]]:
        """Tracking document for one submission; None when unknown.

        Falls back to the dead-letter directory so a failed ingest is
        still reportable after a restart wiped the in-memory map.
        """
        with self._status_lock:
            status = self._statuses.get(tracking_id)
        if status is not None:
            return status.document(tracking_id)
        dead = self.dead_letter_dir / f"{tracking_id}.json"
        if dead.exists():
            try:
                record = json.loads(dead.read_text())
            except (OSError, json.JSONDecodeError):
                record = {}
            return {
                "tracking_id": tracking_id,
                "state": "failed",
                "job_id": record.get("job_id"),
                "detail": record.get("reason", "dead-lettered"),
                "attempts": record.get("attempts", 0),
            }
        return None

    # -- health / metrics --------------------------------------------------

    def health(self) -> Dict[str, Any]:
        if self._draining:
            state, reason = "draining", "graceful shutdown in progress"
        elif self._circuit.state() in ("open", "half-open"):
            state, reason = "degraded", self._circuit.reason
        elif self._queue.qsize() >= self.capacity:
            state, reason = "degraded", "ingestion queue saturated"
        else:
            state, reason = "ok", ""
        return {
            "state": state,
            "reason": reason,
            "writes_enabled": state == "ok",
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.capacity,
            "wal_lag": self.wal.lag(),
        }

    def retry_after(self) -> float:
        """Suggested client back-off: backlog over measured drain rate."""
        return retry_after_seconds(self._queue.qsize(), self._drain_rate)

    def stats(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "health": self.health(),
            "counters": self._counters.snapshot(),
            "wal": self.wal.stats(),
            "drain_rate_per_s": round(self._drain_rate, 3),
            "retry_after_s": round(self.retry_after(), 3),
        }
        if self.chaos is not None:
            document["chaos"] = self.chaos.stats()
        return document

    # -- worker ------------------------------------------------------------

    def _supervise(self) -> None:
        """Run the drain loop; resurrect it when a crash kills it."""
        while not self._stop.is_set():
            try:
                self._drain_loop()
                return  # Clean stop.
            except WorkerCrashed as exc:
                self._counters.worker_restarts += 1
                logger.error(
                    "ingest: worker crashed (%s); restarting with WAL "
                    "replay", exc,
                )
                replayed = self._replay_into_queue()
                if replayed:
                    logger.info(
                        "ingest: re-queued %d record(s) after crash",
                        replayed,
                    )

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            try:
                entry = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                self._process(entry)
            finally:
                self._queue.task_done()

    def _replay_into_queue(self) -> int:
        """Rebuild the in-memory queue from the WAL (source of truth).

        Runs only while no worker is draining (startup, post-crash), and
        under the submit lock so no fresh append lands between the WAL
        scan and the queue rebuild (which would double-enqueue it).
        """
        with self._submit_lock:
            while True:
                try:
                    self._queue.get_nowait()
                    self._queue.task_done()
                except queue.Empty:
                    break
            replayed = 0
            for entry in self.wal.replay():
                envelope = self._decode(entry)
                if envelope is not None:
                    with self._status_lock:
                        if envelope["id"] not in self._statuses:
                            self._insert_locked(
                                envelope["id"],
                                IngestStatus(
                                    "pending",
                                    job_id=envelope.get("job_id"),
                                ),
                            )
                self._queue.put(entry)
                replayed += 1
            self._counters.replayed += replayed
            return replayed

    def _decode(self, entry: WalEntry) -> Optional[Dict[str, Any]]:
        try:
            envelope = json.loads(entry.payload)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(envelope, dict) or "id" not in envelope:
            return None
        return envelope

    def _process(self, entry: WalEntry) -> None:
        envelope = self._decode(entry)
        if envelope is None:
            # Poison at the framing level: no envelope to report under.
            self._dead_letter(
                uuid.uuid4().hex,
                {"body": entry.payload.decode("utf-8", errors="replace")},
                "unparseable WAL envelope", attempts=0,
            )
            self.wal.ack(entry)
            return
        tracking_id = envelope["id"]
        try:
            archive = self._materialize(envelope)
        except (ReproError, ValueError) as exc:
            self._dead_letter(
                tracking_id, envelope,
                f"cannot materialize archive: {exc}", attempts=0,
            )
            self.wal.ack(entry)
            return
        outcome = self._save_with_retries(tracking_id, envelope, archive)
        if self.chaos is not None:
            self.chaos.on("ack")  # May raise WorkerCrashed *before* ack.
        self.wal.ack(entry)
        if outcome is not None:
            self._track(tracking_id, outcome)
            if outcome.state == "ingested":
                self._counters.ingested += 1
                self._observe_drain()

    def _materialize(self, envelope: Dict[str, Any]):
        kind = envelope.get("kind")
        body = envelope.get("body", "")
        if kind == "archive":
            return archive_from_json(body)
        if kind == "log":
            archive, report = salvage_archive(
                body.splitlines(), job_id=envelope.get("job_id") or None,
            )
            if not report.clean:
                logger.info(
                    "ingest %s: salvaged a damaged log "
                    "(%d record(s) recovered)",
                    envelope.get("id"), report.records,
                )
            return archive
        raise IngestError(f"unknown payload kind {kind!r}")

    def _save_with_retries(
        self, tracking_id: str, envelope: Dict[str, Any], archive,
    ) -> Optional[IngestStatus]:
        overwrite = bool(envelope.get("overwrite"))
        attempts = 0
        delay = self.backoff_base
        while True:
            attempts += 1
            try:
                if self.chaos is not None:
                    self.chaos.on("store_save")
                self.store.save(archive, overwrite=overwrite)
                return IngestStatus(
                    "ingested", job_id=archive.job_id, attempts=attempts
                )
            except StoreBusyError as exc:
                if attempts >= self.max_attempts:
                    self._dead_letter(
                        tracking_id, envelope,
                        f"store busy after {attempts} attempts: {exc}",
                        attempts=attempts,
                    )
                    return None
                self._counters.retries += 1
                # Exponential backoff with full jitter so N workers
                # retrying the same contended lock do not stampede.
                time.sleep(random.random() * delay)
                delay = min(delay * 2, 2.0)
            except ArchiveError as exc:
                if "already stored" in str(exc) and not overwrite:
                    resolution = self._resolve_duplicate(archive, attempts)
                    if resolution is not None:
                        return resolution
                    self._dead_letter(
                        tracking_id, envelope,
                        f"job {archive.job_id!r} already stored with "
                        f"different content (no overwrite requested)",
                        attempts=attempts,
                    )
                    return None
                self._dead_letter(
                    tracking_id, envelope, f"store rejected archive: {exc}",
                    attempts=attempts,
                )
                return None
            except OSError as exc:
                if attempts >= self.max_attempts:
                    self._dead_letter(
                        tracking_id, envelope,
                        f"store I/O failed after {attempts} attempts: "
                        f"{exc}",
                        attempts=attempts,
                    )
                    return None
                self._counters.retries += 1
                time.sleep(random.random() * delay)
                delay = min(delay * 2, 2.0)

    def _resolve_duplicate(self, archive, attempts: int):
        """Replay-idempotency: identical content counts as ingested.

        A crash between ``store.save`` and ``wal.ack`` replays the
        record against a store that already holds it; comparing payload
        checksums turns that duplicate into exactly-once semantics.
        """
        try:
            stored = self.store.checksum(archive.job_id)
            incoming = render_archive(archive)[0]["integrity"]["checksum"]
        except ArchiveError:
            return None
        if stored == incoming:
            return IngestStatus(
                "ingested", job_id=archive.job_id, attempts=attempts
            )
        return None

    def _observe_drain(self) -> None:
        """EWMA the drain rate off inter-ingest spacing."""
        now = time.monotonic()
        last = getattr(self, "_last_ingest", None)
        self._last_ingest = now
        if last is None:
            return
        gap = now - last
        if gap <= 0:
            return
        instant = 1.0 / gap
        self._drain_rate = max(
            self._drain_rate_floor * 0.05,
            0.8 * self._drain_rate + 0.2 * instant,
        )

    def _dead_letter(
        self,
        tracking_id: str,
        envelope: Dict[str, Any],
        reason: str,
        attempts: int,
    ) -> None:
        self._counters.dead_letters += 1
        logger.warning("ingest %s: dead-lettered: %s", tracking_id, reason)
        record = {
            "tracking_id": tracking_id,
            "reason": reason,
            "attempts": attempts,
            "job_id": envelope.get("job_id"),
            "kind": envelope.get("kind"),
            "received": envelope.get("received"),
            "body": envelope.get("body", ""),
        }
        try:
            self.dead_letter_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self.dead_letter_dir / f"{tracking_id}.json",
                json.dumps(record, indent=2, sort_keys=True),
            )
        except OSError as exc:  # pragma: no cover - DLQ disk also dying
            logger.error(
                "ingest %s: cannot write dead letter: %s", tracking_id, exc
            )
        self._track(tracking_id, IngestStatus(
            "failed", job_id=envelope.get("job_id"),
            detail=reason, attempts=attempts,
        ))


__all__ = ["IngestPipeline", "IngestStatus", "KINDS", "HEALTH_STATES"]
