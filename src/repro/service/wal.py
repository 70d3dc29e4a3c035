"""Durable write-ahead log for the service's ingestion path.

``POST /jobs`` must be able to answer ``202 Accepted`` *before* the
archive reaches the store — ingestion is asynchronous — without ever
losing an acknowledged write.  The WAL is what makes that promise hold:
a request is appended (and fsync'd) here first, the 202 goes out only
after the append returns, and a background worker later drains the
record into :class:`repro.core.archive.store.ArchiveStore`.  A
``kill -9`` at any point leaves every acknowledged record on disk,
where startup replay finds it.

On-disk layout (one directory per store)::

    wal/
      segment-00000001.wal     frames, append-only, fsync'd
      segment-00000001.ack     one acked record index per line
      segment-00000002.wal     the active segment
      ...

Frame format (binary, self-checking)::

    b"GWAL" | u32 payload length (BE) | 32-byte sha256(payload) | payload

The checksum makes every frame independently verifiable; the length
makes a damaged frame skippable.  An incomplete frame at the tail of
the *last* segment is the signature of a crash mid-append — the record
was never acknowledged (the 202 follows the fsync), so the tail is
truncated away on open.  A checksum mismatch anywhere else is disk
damage: the frame is counted, logged, and skipped.

Rotation is atomic: the active segment is fsync'd and closed, the next
``segment-{n+1}.wal`` is created, and the directory entry is fsync'd so
the new segment survives a crash.  A segment whose every record is
acked (and that is no longer active) is deleted together with its ack
journal, and the active segment is retired — rotated, then deleted —
as soon as it is fully acked, so after a drain no acked frame remains:
the WAL's steady-state size is its unacked backlog, not its history.
A crash between a rotation and its deletes leaves a fully acked
retired segment (or the ack journal of a deleted one), which the next
open deletes.  Acking a record of a retired segment again is a no-op.

Acks are appended to the sidecar journal with a flush but **no fsync**:
a lost ack merely re-queues the record on replay, and ingestion is
idempotent (same payload ⇒ same archive checksum ⇒ duplicate save is
recognized), so exactly-once ingestion survives ack loss while writes
stay one-fsync-per-record.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Union

from repro.errors import WalError

logger = logging.getLogger(__name__)

_MAGIC = b"GWAL"
_HEADER = struct.Struct(">4sI32s")  # magic, payload length, sha256
_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.wal$")

#: Rotate the active segment once it exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Refuse absurd frame lengths (a corrupt length field would otherwise
#: send the scanner far past the end of the file).
MAX_RECORD_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class WalEntry:
    """One durable record: its WAL identity plus the raw payload."""

    segment: int
    index: int
    payload: bytes

    @property
    def entry_id(self) -> str:
        return f"{self.segment:08d}:{self.index:06d}"


def _parse_entry_id(entry_id: str) -> tuple:
    try:
        segment, index = entry_id.split(":")
        return int(segment), int(index)
    except ValueError:
        raise WalError(f"malformed WAL entry id {entry_id!r}") from None


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a freshly created file survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


class WriteAheadLog:
    """Length+sha256-framed, fsync'd, segment-rotated write-ahead log.

    Thread-safe: ``append`` and ``ack`` may be called from different
    threads (the request handlers and the ingestion worker).

    ``append_hook`` is the fault-injection seam: called with no
    arguments immediately before each frame write, it may sleep
    (injected latency) or raise :class:`OSError` (injected disk-full) —
    the service's chaos middleware plugs in here so degraded-mode
    transitions are deterministically reproducible.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = True,
        append_hook: Optional[Callable[[], None]] = None,
    ):
        if max_segment_bytes < 1:
            raise WalError(
                f"max_segment_bytes must be >= 1, got {max_segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self.fsync = fsync
        self.append_hook = append_hook
        self._lock = threading.Lock()
        #: Notified on every ack and on close (see :meth:`wait_acked`).
        self._acked_changed = threading.Condition(self._lock)
        #: records per segment (from the initial scan plus appends).
        self._counts: Dict[int, int] = {}
        #: acked record indices per segment.
        self._acked: Dict[int, Set[int]] = {}
        self._appended_total = 0
        self._acked_total = 0
        self._corrupt_total = 0
        self._fh = None
        self._active = 0
        self._active_size = 0
        self._open_active()

    # -- segment files -----------------------------------------------------

    def _segment_path(self, segment: int) -> Path:
        return self.directory / f"segment-{segment:08d}.wal"

    def _ack_path(self, segment: int) -> Path:
        return self.directory / f"segment-{segment:08d}.ack"

    def _segments(self) -> List[int]:
        out = []
        for path in self.directory.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def _open_active(self) -> None:
        for ack in self.directory.glob("segment-*.ack"):
            # A crash between a retired segment's two unlinks leaves
            # its ack journal behind; a drained log holds only its
            # empty active segment.
            if not ack.with_suffix(".wal").exists():
                ack.unlink()
        segments = self._segments()
        for segment in segments:
            entries = self._scan_segment(segment, repair=segment == segments[-1])
            self._counts[segment] = len(entries)
            self._acked[segment] = self._load_acks(segment)
        self._active = segments[-1] if segments else 1
        path = self._segment_path(self._active)
        created = not path.exists()
        self._fh = open(path, "ab")
        self._active_size = self._fh.tell()
        self._counts.setdefault(self._active, 0)
        self._acked.setdefault(self._active, set())
        if created:
            _fsync_directory(self.directory)
        for segment in segments[:-1]:
            self._cleanup_locked(segment)

    def _load_acks(self, segment: int) -> Set[int]:
        path = self._ack_path(segment)
        if not path.exists():
            return set()
        text = path.read_text()
        whole = text[:text.rfind("\n") + 1]
        if whole != text:
            # A crash mid-ack tore the last line ("12" landing as "1"):
            # that ack never returned, and the next one must not run on
            # from it ("1" + "5\n" reading as 15).
            os.truncate(path, len(whole))
        return {int(line) for line in whole.split() if line.isdigit()}

    def _scan_segment(
        self, segment: int, repair: bool, count_corrupt: bool = True,
    ) -> List[WalEntry]:
        """Parse one segment's frames; optionally truncate a torn tail.

        Only the last (active) segment may legitimately end mid-frame —
        a crash between write and fsync.  ``repair=True`` truncates the
        file back to the last whole frame so appends resume cleanly.
        """
        path = self._segment_path(segment)
        entries: List[WalEntry] = []
        data = path.read_bytes()
        if not data:
            # Clean-empty, not a torn tail: a crash between segment
            # creation and the first append (or an idle active segment)
            # leaves a 0-byte file.  Nothing to truncate, nothing to
            # count as corrupt — appends resume into it as-is.
            return entries
        offset = 0
        good_end = 0
        index = 0
        while offset < len(data):
            header = data[offset:offset + _HEADER.size]
            if len(header) < _HEADER.size:
                break  # torn tail: incomplete header
            magic, length, digest = _HEADER.unpack(header)
            if magic != _MAGIC or length > MAX_RECORD_BYTES:
                # Unframeable from here on: without a trustworthy
                # length there is nothing to skip by.
                if count_corrupt:
                    self._corrupt_total += 1
                logger.warning(
                    "wal %s: unframeable data at offset %d; dropping "
                    "the remainder of the segment",
                    path.name, offset,
                )
                break
            payload = data[offset + _HEADER.size:
                           offset + _HEADER.size + length]
            if len(payload) < length:
                break  # torn tail: incomplete payload
            if hashlib.sha256(payload).digest() != digest:
                if count_corrupt:
                    self._corrupt_total += 1
                logger.warning(
                    "wal %s: checksum mismatch in record %d; skipping",
                    path.name, index,
                )
            else:
                entries.append(WalEntry(segment, index, payload))
            offset += _HEADER.size + length
            good_end = offset
            index += 1
        if repair and good_end < len(data):
            logger.warning(
                "wal %s: truncating torn tail (%d bytes) from a crash "
                "mid-append",
                path.name, len(data) - good_end,
            )
            with open(path, "r+b") as fh:
                fh.truncate(good_end)
                if self.fsync:
                    os.fsync(fh.fileno())
        return entries

    # -- public API --------------------------------------------------------

    def append(self, payload: bytes) -> WalEntry:
        """Durably append one record; returns only after the fsync.

        Raises whatever :class:`OSError` the disk (or the chaos hook)
        produces — the caller decides whether that degrades the service.
        """
        if not isinstance(payload, bytes) or not payload:
            raise WalError("WAL payload must be non-empty bytes")
        with self._lock:
            if self._fh is None:
                raise WalError("write-ahead log is closed")
            if (self._active_size >= self.max_segment_bytes
                    and self._counts[self._active] > 0):
                self._rotate_locked()
            if self.append_hook is not None:
                self.append_hook()
            frame = _HEADER.pack(
                _MAGIC, len(payload), hashlib.sha256(payload).digest()
            ) + payload
            self._fh.write(frame)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            index = self._counts[self._active]
            self._counts[self._active] = index + 1
            self._active_size += len(frame)
            self._appended_total += 1
            return WalEntry(self._active, index, payload)

    def _rotate_locked(self) -> None:
        old = self._active
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._fh.close()
        self._active = old + 1
        self._fh = open(self._segment_path(self._active), "ab")
        self._active_size = 0
        self._counts.setdefault(self._active, 0)
        self._acked.setdefault(self._active, set())
        _fsync_directory(self.directory)
        self._cleanup_locked(old)

    def ack(self, entry: Union[WalEntry, str]) -> None:
        """Mark one record consumed; fully-acked segments are deleted,
        the active one by retiring it (rotate, then delete)."""
        if isinstance(entry, WalEntry):
            segment, index = entry.segment, entry.index
        else:
            segment, index = _parse_entry_id(entry)
        with self._lock:
            count = self._counts.get(segment)
            if count is None and segment < self._active:
                return  # Its segment was retired: acked already.
            if count is None or index >= count:
                raise WalError(
                    f"cannot ack unknown WAL record "
                    f"{segment:08d}:{index:06d}"
                )
            acked = self._acked.setdefault(segment, set())
            if index in acked:
                return
            acked.add(index)
            self._acked_total += 1
            # Flushed, not fsync'd: losing an ack only re-queues an
            # idempotent ingest on replay (see module docstring).
            with open(self._ack_path(segment), "a") as fh:
                fh.write(f"{index}\n")
                fh.flush()
            if segment != self._active:
                self._cleanup_locked(segment)
            elif len(acked) == count and self._fh is not None:
                self._rotate_locked()
            self._acked_changed.notify_all()

    def wait_acked(self, timeout: float) -> bool:
        """Block until every record appended before the call is acked.

        Records appended after the call are not waited for, so a steady
        stream of writes cannot starve the caller (the drain acks in
        append order).  False when ``timeout`` runs out, or the log
        closes, first.
        """
        with self._acked_changed:
            target = self._acked_total + self._lag_locked()
            self._acked_changed.wait_for(
                lambda: self._acked_total >= target or self._fh is None,
                timeout,
            )
            return self._acked_total >= target

    def _cleanup_locked(self, segment: int) -> None:
        count = self._counts.get(segment, 0)
        if segment == self._active:
            return
        if len(self._acked.get(segment, ())) < count:
            return
        for path in (self._segment_path(segment), self._ack_path(segment)):
            try:
                path.unlink()
            except OSError:
                pass
        self._counts.pop(segment, None)
        self._acked.pop(segment, None)

    def replay(self) -> List[WalEntry]:
        """Every unacked record, oldest first.

        Re-reads the segment files (the scan is the source of truth) so
        a fresh :class:`WriteAheadLog` over an existing directory — the
        post-crash restart path — sees exactly what survived.
        """
        with self._lock:
            entries: List[WalEntry] = []
            for segment in sorted(self._counts):
                if not self._segment_path(segment).exists():
                    continue
                acked = self._acked.get(segment, set())
                for entry in self._scan_segment(
                    segment, repair=False, count_corrupt=False,
                ):
                    if entry.index not in acked:
                        entries.append(entry)
            return entries

    def _lag_locked(self) -> int:
        return sum(self._counts.values()) - sum(
            len(acked) for acked in self._acked.values()
        )

    def lag(self) -> int:
        """Appended-but-unacked record count (the replay backlog)."""
        with self._lock:
            return self._lag_locked()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "segments": len([
                    s for s in self._counts
                    if self._segment_path(s).exists()
                ]),
                "active_segment": self._active,
                "appended_total": self._appended_total,
                "acked_total": self._acked_total,
                "corrupt_total": self._corrupt_total,
                "lag": self._lag_locked(),
            }

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                if self.fsync:
                    try:
                        os.fsync(self._fh.fileno())
                    except OSError:  # pragma: no cover - dying disk
                        pass
                self._fh.close()
                self._fh = None
            self._acked_changed.notify_all()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["WriteAheadLog", "WalEntry", "DEFAULT_SEGMENT_BYTES"]
