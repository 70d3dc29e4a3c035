"""Archive stores: a directory of performance archives with an index.

The store is how results are shared among analysts: every archived job
lands as one JSON file, and the index supports listing and filtering
without parsing every archive.

The store is corruption-tolerant and safe under concurrent writers:

- all writes are atomic and durable (uniquely-named tmp file, fsync'd,
  then ``os.replace`` and a directory fsync), so readers never observe
  a partial file, two processes writing the same target cannot collide
  on the temporary sibling, and a save that returned survives a crash;
- the index is a sorted ``index.json`` snapshot plus an append-only
  ``index.journal`` of ``[job_id, entry|null]`` lines, so a save
  writes a line, not the whole index; once the journal outgrows the
  index it is compacted back into the snapshot;
- every index change runs under an advisory file lock, so N processes
  ``save()``-ing into one store lose no entries;
- a corrupt, missing, or stale index is rebuilt from the archive files
  on disk instead of crashing — the index is a cache, the archives are
  the truth;
- :meth:`ArchiveStore.refresh` makes a long-lived reader (e.g. the
  ``granula serve`` process) pick up archives written by concurrent
  ``granula run`` processes: two ``stat()`` calls when nothing changed,
  and only the new journal lines when something did.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import re
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Optional, Set, Tuple, Union,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.core.archive.archive import PerformanceArchive
from repro.core.archive.columnar import (
    ColumnarArchiveView,
    SidecarError,
    build_sidecar,
    load_sidecar,
    read_sidecar_header,
    sidecar_path,
)
from repro.core.archive.serialize import (
    SORTED_ENCODER,
    document_to_archive,
    is_columnar,
    parse_document,
    payload_checksum,
    render_archive,
)
from repro.errors import ArchiveError, StoreBusyError

_INDEX_NAME = "index.json"
_JOURNAL_NAME = "index.journal"
_LOCK_NAME = ".index.lock"

#: The journal is compacted into the snapshot once it holds more lines
#: than this or than the index has entries, whichever is larger: each
#: compaction rewrites at most as many entries as lines were appended
#: since the last one, so a save costs amortised O(1) index bytes.
_COMPACT_MIN_LINES = 64

#: Distinguishes temporary siblings written by concurrent processes.
_TMP_COUNTER = itertools.count()

#: The integrity block sits at the end of a serialized archive; this
#: pulls the checksum out of the file tail without a full JSON parse.
_CHECKSUM_TAIL_RE = re.compile(r'"checksum"\s*:\s*"([0-9a-f]{64})"')

logger = logging.getLogger(__name__)


def _unlink_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _stage(path: Path, data: bytes) -> Path:
    """Write ``data`` to a fresh, fsync'd temporary sibling of ``path``.

    The name embeds the pid and a process-local counter, so concurrent
    writers of one target never share a temporary file.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
    )
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            _write_all(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        _unlink_quietly(tmp)
        raise
    return tmp


def atomic_write_text(path: Path, text: str) -> None:
    """Write a file so that readers never observe a partial write.

    The text lands in a uniquely-named temporary sibling first, is
    fsync'd, and is renamed over the target (``os.replace`` is atomic
    on POSIX and Windows), so a crash leaves either the old file or the
    new one — never a truncated hybrid, and never a renamed file whose
    data did not reach the disk.  Two processes writing the same target
    concurrently each complete their own rename instead of racing on a
    shared ``.tmp`` sibling.  Making the rename itself durable is the
    caller's :func:`fsync_directory`.
    """
    tmp = _stage(path, bytes(text, "utf-8"))
    try:
        os.replace(tmp, path)
    except BaseException:
        _unlink_quietly(tmp)
        raise


def fsync_directory(directory: Path) -> None:
    """Flush a directory's entry table to disk (best effort).

    ``os.replace`` makes a rename atomic but not durable: until the
    directory inode itself is fsync'd, a crash can forget the rename
    and leave a JSON/sidecar pair torn.  Matches the WAL's durability
    discipline for segment rotation.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic fs
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def validate_job_id(job_id: str) -> str:
    """Vet a job id for use as a store file name; returns it unchanged.

    A job id becomes ``{job_id}.json`` inside the store directory, so
    ids carrying path separators, parent references, or NUL bytes would
    escape the store (``../../etc/cron.d/evil``) or address arbitrary
    files.  Raises :class:`ArchiveError` for anything path-unsafe.
    """
    if not isinstance(job_id, str) or not job_id:
        raise ArchiveError(f"job id must be a non-empty string, got {job_id!r}")
    if any(sep in job_id for sep in ("/", "\\", "\x00")):
        raise ArchiveError(
            f"path-unsafe job id {job_id!r}: separators and NUL bytes "
            f"are not allowed"
        )
    if job_id in (".", "..") or job_id.startswith("."):
        raise ArchiveError(
            f"path-unsafe job id {job_id!r}: must not be a dot name"
        )
    return job_id


class ArchiveHandle:
    """Lazy access to one stored archive file.

    Parsing the JSON and vetting the envelope (format, version,
    checksum) happens on first access; headline fields — job id,
    platform, metadata, makespan, operation count — come straight off
    the document, which for columnar (v3) archives means two list
    lookups instead of building the operation tree.  The tree is only
    constructed when :meth:`archive` is called, and cached.
    """

    def __init__(self, path: Union[str, Path], verify: bool = True):
        self.path = Path(path)
        self._verify = verify
        self._document: Optional[Dict] = None
        self._archive: Optional[PerformanceArchive] = None

    @property
    def document(self) -> Dict:
        """The parsed, envelope-checked document mapping."""
        if self._document is None:
            self._document = parse_document(
                self.path.read_text(), verify=self._verify
            )
        return self._document

    @property
    def job_id(self) -> str:
        """The archived job's id."""
        job_id = self.document.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ArchiveError(
                f"archive {self.path.name} carries no job id"
            )
        return job_id

    @property
    def platform(self) -> str:
        """The archived job's platform name."""
        return str(self.document.get("platform") or "")

    @property
    def metadata(self) -> Dict:
        """The archive's metadata mapping."""
        metadata = self.document.get("metadata")
        return metadata if isinstance(metadata, dict) else {}

    @property
    def checksum(self) -> str:
        """The archive's payload checksum (its content identity).

        Reads the stored integrity block when present; a version-1
        archive (written before checksums existed) gets the checksum
        computed from its payload, so every handle has a stable
        content-addressed identity.
        """
        integrity = self.document.get("integrity")
        if isinstance(integrity, dict):
            stored = integrity.get("checksum")
            if isinstance(stored, str) and stored:
                return stored
        return payload_checksum(self.document)

    @property
    def makespan(self) -> Optional[float]:
        """Root operation duration, read without tree construction."""
        operations = self.document.get("operations")
        if is_columnar(operations):
            starts = operations.get("start")
            ends = operations.get("end")
            start = starts[0] if isinstance(starts, list) and starts else None
            end = ends[0] if isinstance(ends, list) and ends else None
        elif isinstance(operations, dict):
            start = operations.get("start")
            end = operations.get("end")
        else:
            return None
        # Booleans are ints to isinstance(); True - False == 1 would
        # silently report a one-second makespan off a damaged document.
        if (
            isinstance(start, (int, float)) and not isinstance(start, bool)
            and isinstance(end, (int, float)) and not isinstance(end, bool)
        ):
            return end - start
        return None

    def size(self) -> int:
        """Number of archived operations, without tree construction."""
        operations = self.document.get("operations")
        if is_columnar(operations):
            uid = operations.get("uid")
            return len(uid) if isinstance(uid, list) else 0
        if not isinstance(operations, dict):
            return 0
        count = 0
        stack = [operations]
        while stack:
            node = stack.pop()
            count += 1
            children = node.get("children")
            if isinstance(children, list):
                stack.extend(c for c in children if isinstance(c, dict))
        return count

    def archive(self) -> PerformanceArchive:
        """Materialize (and cache) the full archive."""
        if self._archive is None:
            self._archive = document_to_archive(self.document)
        return self._archive

    def index_entry(self) -> Dict:
        """The store-index entry for this archive (no tree build)."""
        return {
            "platform": self.platform,
            "algorithm": self.metadata.get("algorithm", ""),
            "dataset": self.metadata.get("dataset", ""),
            "makespan": self.makespan,
            "operations": self.size(),
        }


#: Fields an index entry carries; a sidecar-header copy missing any of
#: them is ignored and the JSON is parsed instead.
_ENTRY_FIELDS = ("platform", "algorithm", "dataset", "makespan",
                 "operations")


#: (inode, mtime_ns, size) identity of a file — cheap staleness
#: detection that also tells a replaced file from a rewritten one.
_Stamp = Tuple[int, int, int]


def _stamp_of(stat: os.stat_result) -> _Stamp:
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


def _stamp(path: Path) -> Optional[_Stamp]:
    try:
        return _stamp_of(path.stat())
    except OSError:
        return None


class _IndexDamaged(Exception):
    """The snapshot or a complete journal line is unreadable."""


def _parse_snapshot(raw: bytes) -> Dict[str, Dict]:
    try:
        index = json.loads(raw)
    except ValueError as exc:  # Includes JSON and UTF-8 decode errors.
        raise _IndexDamaged(f"snapshot is not JSON ({exc})") from None
    if not isinstance(index, dict) or not all(
        isinstance(entry, dict) for entry in index.values()
    ):
        raise _IndexDamaged("snapshot has an unexpected shape")
    return index


def _parse_journal(block: bytes) -> List[list]:
    """The ``[job_id, entry|null]`` rows of complete journal lines."""
    try:
        rows = json.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")
    except ValueError as exc:
        raise _IndexDamaged(f"journal line is not JSON ({exc})") from None
    if len(rows) != block.count(b"\n") or not all(
        isinstance(row, list) and len(row) == 2
        and isinstance(row[0], str)
        and (row[1] is None or isinstance(row[1], dict))
        for row in rows
    ):
        raise _IndexDamaged("journal line has an unexpected shape")
    return rows


def _apply(index: Dict[str, Dict], rows: List[list]) -> None:
    for job_id, entry in rows:
        if entry is None:
            index.pop(job_id, None)
        else:
            index[job_id] = entry


class ArchiveStore:
    """A directory holding serialized archives plus an index file."""

    def __init__(
        self,
        directory: Union[str, Path],
        lock_timeout: Optional[float] = None,
    ):
        #: Seconds to wait for the index lock before raising
        #: :class:`StoreBusyError`; ``None`` blocks indefinitely (the
        #: historical behaviour).  Latency-budgeted callers — the
        #: service's ingestion worker — set a timeout and retry with
        #: backoff instead of pinning a thread on a contended lock.
        self.lock_timeout = lock_timeout
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._index_path = self.directory / _INDEX_NAME
        self._journal_path = self.directory / _JOURNAL_NAME
        #: The snapshot with every journal line folded in so far.
        self._index: Dict[str, Dict] = {}
        #: Stamp of the snapshot ``_index`` started from (None: absent).
        self._index_stamp: Optional[_Stamp] = None
        #: Journal read cursor: generation (the file's inode; None while
        #: absent), offset past the last complete line folded, bytes
        #: seen (a torn tail included), and complete lines folded.
        self._journal_id: Optional[int] = None
        self._journal_offset = 0
        self._journal_size = 0
        self._journal_lines = 0
        #: Serializes index state changes between threads; taken
        #: before the (cross-process) file lock.
        self._mutex = threading.RLock()
        #: job_id -> (file stamp, payload checksum) memo for cheap ETags.
        self._checksums: Dict[str, Tuple[_Stamp, str]] = {}
        self._load_index()

    # -- concurrency -------------------------------------------------------

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory exclusive lock over index read-modify-write.

        Serializes index updates across *processes* sharing the store
        directory (``flock`` on a sidecar lock file).  Without it, two
        concurrent ``save()`` calls each read the index, add their own
        entry, and write back — last writer silently dropping the
        other's entry.  On platforms without ``fcntl`` the lock is a
        no-op and the store degrades to single-process guarantees.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        fd = os.open(
            self.directory / _LOCK_NAME, os.O_CREAT | os.O_RDWR, 0o644
        )
        try:
            if self.lock_timeout is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            else:
                # Poll non-blockingly until the deadline: flock has no
                # native timeout, and a signal-based one would not be
                # thread-safe inside the serving process.
                deadline = time.monotonic() + self.lock_timeout
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            raise StoreBusyError(
                                f"store {self.directory} index lock "
                                f"busy after {self.lock_timeout:.2f}s"
                            ) from None
                        time.sleep(0.005)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def refresh(self) -> bool:
        """Fold in index changes other processes have made.

        Two ``stat()`` calls when nothing changed; a long-lived reader
        calls this before answering a listing so archives written by
        concurrent ``granula run`` processes become visible.  A new
        snapshot (a compaction or rebuild) reloads the index; otherwise
        only the journal lines appended since the last call are read.
        Writers journal an entry only once its files are in place, so a
        folded entry never runs ahead of the archive it describes.
        Returns whether the in-memory index may have changed.
        """
        with self._mutex:
            if _stamp(self._index_path) != self._index_stamp:
                self._load_index()
                return True
            try:
                return self._fold_journal()
            except _IndexDamaged:
                self._load_index()
                return True

    # -- index persistence -------------------------------------------------

    def _archive_paths(self) -> List[Path]:
        return sorted(self.directory / f"{job_id}.json"
                      for job_id in self._archive_ids())

    def _archive_ids(self) -> Set[str]:
        """File stems of the archives on disk (one directory listing)."""
        return {name[:-5] for name in os.listdir(self.directory)
                if name.endswith(".json") and name != _INDEX_NAME}

    def _load_index(self) -> None:
        """Read snapshot + journal; rebuild if damaged or stale.

        Stale means the folded index's ids are not the archives on disk.
        That can be a writer caught between its steps, so the index is
        read once more under the lock, where no writer is, before it is
        rebuilt from the files.
        """
        if self._stale_reason() is None:
            return
        with self._mutex, self._locked():
            reason = self._stale_reason()
            if reason is not None:
                logger.warning("archive store %s: %s; rebuilding from files",
                               self.directory, reason)
                self._rebuild_locked()

    def _stale_reason(self) -> Optional[str]:
        """Read the index; why it cannot stand for the store, or None."""
        try:
            self._read_index()
        except _IndexDamaged as exc:
            return f"corrupt index ({exc})"
        on_disk = self._archive_ids()
        if set(self._index) != on_disk:
            return (f"index is stale ({len(self._index)} indexed, "
                    f"{len(on_disk)} on disk)")
        return None

    def _read_index(self) -> None:
        """Load the snapshot and fold the whole journal over it.

        A compaction between the two reads would pair the old snapshot
        with the new journal, so the snapshot is checked again after
        the journal and the read repeated if it changed.
        """
        while True:
            try:
                with self._index_path.open("rb") as handle:
                    stamp = _stamp_of(os.fstat(handle.fileno()))
                    index = _parse_snapshot(handle.read())
            except FileNotFoundError:
                stamp, index = None, {}
            except OSError as exc:
                raise _IndexDamaged(str(exc)) from None
            self._index, self._index_stamp = index, stamp
            self._restart_journal(None)
            self._fold_journal()
            if _stamp(self._index_path) == stamp:
                return

    def _restart_journal(self, generation: Optional[int]) -> None:
        self._journal_id = generation
        self._journal_offset = self._journal_size = self._journal_lines = 0

    def _fold_journal(self) -> bool:
        """Fold complete journal lines past the cursor into the index.

        A torn tail (a writer died mid-line) is left unread.  Returns
        whether anything new was seen.
        """
        try:
            stat = os.stat(self._journal_path)
        except FileNotFoundError:
            if self._journal_id is not None:
                # Compaction replaces the journal, it never removes it.
                raise _IndexDamaged("journal removed") from None
            return False
        if (stat.st_ino, stat.st_size) == (self._journal_id,
                                           self._journal_size):
            return False
        with self._journal_path.open("rb") as handle:
            generation = os.fstat(handle.fileno()).st_ino
            if generation != self._journal_id:
                self._restart_journal(generation)
            handle.seek(self._journal_offset)
            tail = handle.read()
        self._journal_size = self._journal_offset + len(tail)
        end = tail.rfind(b"\n") + 1
        if end:
            self._fold(_parse_journal(tail[:end]), end)
        return True

    def _fold(self, rows: List[list], nbytes: int) -> None:
        _apply(self._index, rows)
        self._journal_offset += nbytes
        self._journal_size = max(self._journal_size, self._journal_offset)
        self._journal_lines += len(rows)

    def _catch_up(self) -> None:
        """Fold in other writers' changes; ready the journal (lock held).

        Beyond what a reader does, a writer cuts off a torn tail before
        appending, and rebuilds a damaged index, or a store whose
        snapshot is gone unless the journal alone accounts for every
        archive.
        """
        try:
            if _stamp(self._index_path) != self._index_stamp:
                self._read_index()
            else:
                self._fold_journal()
        except _IndexDamaged as exc:
            logger.warning(
                "archive store %s: corrupt index (%s); rebuilding from files",
                self.directory, exc,
            )
            self._rebuild_locked()
            return
        if (self._index_stamp is None
                and set(self._index) != self._archive_ids()):
            self._rebuild_locked()
            return
        if self._journal_size > self._journal_offset:
            os.truncate(self._journal_path, self._journal_offset)
            self._journal_size = self._journal_offset

    def _record(self, line: list) -> None:
        """Make one index change durable (lock held).

        Appended to the journal and fsync'd; a store without a snapshot
        gets its first snapshot instead.
        """
        if self._index_stamp is None:
            _apply(self._index, [line])
            self._compact()
            return
        data = (SORTED_ENCODER.encode(line) + "\n").encode("ascii")
        fd = os.open(self._journal_path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            generation = os.fstat(fd).st_ino
            _write_all(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        if generation != self._journal_id:
            # The append created the journal: make its name durable.
            fsync_directory(self.directory)
            self._restart_journal(generation)
        self._fold([line], len(data))

    def _compact(self) -> None:
        """Rewrite the snapshot from the index, then empty the journal.

        Lock held.  The new snapshot's name is made durable before the
        journal is emptied; a crash between the two steps leaves journal
        lines the new snapshot already holds, and folding whole entries
        again in order changes nothing.  The journal is emptied by
        renaming an empty file over it, not by truncating it in place: a
        reader that read the new snapshot beside the old journal then
        sees a new generation and starts over, instead of resuming at an
        offset into different lines.
        """
        atomic_write_text(self._index_path, SORTED_ENCODER.encode(self._index))
        fsync_directory(self.directory)
        self._index_stamp = _stamp(self._index_path)
        generation = None
        if self._journal_path.exists():
            atomic_write_text(self._journal_path, "")
            fsync_directory(self.directory)
            generation = os.stat(self._journal_path).st_ino
        self._restart_journal(generation)

    def _commit(self, job_id: str, entry: Optional[Dict],
                publish: Callable[[], None]) -> None:
        """Index one save or delete around ``publish`` (lock held).

        ``publish`` moves the archive files.  The index never holds an
        entry its files do not back: a job whose entry changes leaves
        the index (a ``[job_id, null]`` line) before ``publish`` runs,
        its new entry is recorded only after the files are in place,
        and each step is durable before the next starts.  A crash in
        between leaves the job on disk but unindexed, which the next
        load's id check rebuilds from the files.  A save that leaves
        the entry as it was writes no line.
        """
        old = self._index.get(job_id)
        if old is not None and old != entry:
            self._record([job_id, None])
        publish()
        fsync_directory(self.directory)
        if entry is not None and entry != old:
            self._record([job_id, entry])
        if self._journal_lines > max(_COMPACT_MIN_LINES, len(self._index)):
            self._compact()

    def _entry_from_sidecar(
        self, path: Path,
    ) -> Optional[Tuple[str, Dict]]:
        """(job_id, index entry) from the sidecar header, or ``None``.

        The sidecar header carries a copy of the index entry (written
        by :meth:`save`).  It is trusted only when the header's
        ``archive_checksum`` matches the checksum read from the JSON
        file's tail — that binding proves the copy describes the JSON
        bytes currently on disk, so the full parse can be skipped.
        Anything off — no sidecar, no embedded entry (a pre-extras
        sidecar), a checksum mismatch — returns ``None`` and the
        caller parses the JSON as before.
        """
        side = sidecar_path(path)
        if not side.exists():
            return None
        try:
            header = read_sidecar_header(side)
        except SidecarError:
            return None
        extra = header.get("index")
        if not isinstance(extra, dict):
            return None
        job_id = extra.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            return None
        if any(field not in extra for field in _ENTRY_FIELDS):
            return None
        try:
            checksum = self._read_checksum(path)
        except (ArchiveError, OSError):
            return None
        if header.get("archive_checksum") != checksum:
            return None
        return job_id, {field: extra[field] for field in _ENTRY_FIELDS}

    def _indexed(self, path: Path) -> Tuple[str, Dict]:
        """(job_id, index entry) of one archive file.

        From the sidecar header when it is bound to the JSON, else from
        the parsed JSON; raises when the archive is unreadable.
        """
        fast = self._entry_from_sidecar(path)
        if fast is not None:
            return fast
        handle = ArchiveHandle(path)
        return handle.job_id, handle.index_entry()

    def rebuild_index(self) -> Dict[str, Dict]:
        """Reconstruct the index from the archive files on disk.

        Archives whose sidecar header embeds a checksum-bound index
        entry are indexed from that header alone (a preamble read plus
        a tail scan, instead of a full JSON parse).  Unreadable
        archives are skipped with a warning — one corrupt file must
        not take the whole store down.  The result is written as the
        snapshot and the journal is emptied.  Returns the new index.
        """
        with self._mutex, self._locked():
            return dict(self._rebuild_locked())

    def _rebuild_locked(self) -> Dict[str, Dict]:
        index: Dict[str, Dict] = {}
        for path in self._archive_paths():
            try:
                job_id, entry = self._indexed(path)
            except (ArchiveError, OSError, UnicodeDecodeError) as exc:
                logger.warning(
                    "archive store %s: skipping unreadable archive %s (%s)",
                    self.directory, path.name, exc,
                )
                continue
            index[job_id] = entry
        self._index = index
        self._compact()
        return index

    def _entry(self, archive: PerformanceArchive) -> Dict:
        return {
            "platform": archive.platform,
            "algorithm": archive.metadata.get("algorithm", ""),
            "dataset": archive.metadata.get("dataset", ""),
            "makespan": archive.makespan,
            "operations": archive.size(),
        }

    # -- archive operations ------------------------------------------------

    def _archive_path(self, job_id: str) -> Path:
        return self.directory / f"{validate_job_id(job_id)}.json"

    def save(self, archive: PerformanceArchive, overwrite: bool = False) -> Path:
        """Persist an archive durably and index it; returns its file path.

        The archive is rendered once into its JSON text and a binary
        column sidecar (``{job_id}.gcol``), and both are written to
        fsync'd temporary siblings.  Under the index lock both files are
        renamed into place, the directory is fsync'd, and then the entry
        is journaled: a save that returns survives a power loss with its
        pair intact and indexed, and costs a journal line, not an index
        rewrite (:meth:`_commit` has the order).  A sidecar that cannot
        be encoded is skipped — the JSON is the durable truth, the
        sidecar only an accelerator.
        """
        path = self._archive_path(archive.job_id)
        side = sidecar_path(path)
        document, text = render_archive(archive)
        entry = self._entry(archive)
        staged = [(_stage(path, text.encode("utf-8")), path)]
        try:
            sidecar = self._stage_sidecar(side, document, entry)
            if sidecar is not None:
                staged.append((sidecar, side))
            with self._mutex, self._locked():
                self._catch_up()
                if (
                    archive.job_id in self._index or path.exists()
                ) and not overwrite:
                    raise ArchiveError(
                        f"archive {archive.job_id!r} already stored; "
                        f"pass overwrite=True to replace it"
                    )

                def publish() -> None:
                    for tmp, target in staged:
                        os.replace(tmp, target)
                    staged.clear()
                    if sidecar is None:
                        # Never leave a stale sidecar behind a rewrite.
                        _unlink_quietly(side)

                self._commit(archive.job_id, entry, publish)
        finally:
            for tmp, _target in staged:
                _unlink_quietly(tmp)
        return path

    def _stage_sidecar(self, side: Path, document: Dict,
                       entry: Dict) -> Optional[Path]:
        """Stage the binary sidecar of one archive; None if it cannot be.

        The sidecar header gets a copy of the index entry plus the
        archive's metadata, so index rebuilds and fleet scans over
        metadata group keys never touch the JSON.
        """
        try:
            return _stage(side, build_sidecar(
                document["operations"], document["integrity"]["checksum"],
                extra=dict(entry, job_id=document["job_id"],
                           metadata=document["metadata"]),
            ))
        except (SidecarError, OSError, TypeError, ValueError) as exc:
            logger.warning(
                "archive store %s: cannot write sidecar %s (%s); "
                "queries fall back to JSON",
                self.directory, side.name, exc,
            )
            return None

    def handle(self, job_id: str) -> ArchiveHandle:
        """Lazy handle on one stored archive (no tree construction)."""
        path = self._archive_path(job_id)
        if not path.exists():
            raise ArchiveError(f"no stored archive for job {job_id!r}")
        return ArchiveHandle(path)

    def load(self, job_id: str) -> PerformanceArchive:
        """Load one archive by job id."""
        return self.handle(job_id).archive()

    def sidecar_path(self, job_id: str) -> Path:
        """Where the job's binary column sidecar lives (may not exist)."""
        return sidecar_path(self._archive_path(job_id))

    def columnar_view(self, job_id: str) -> Optional[ColumnarArchiveView]:
        """Zero-copy query view of one archive, or None.

        Returns a checksum-verified :class:`ColumnarArchiveView` over
        the mmap'd ``.gcol`` sidecar when one exists and matches the
        JSON's payload checksum; any damage or staleness logs a warning
        and returns ``None`` — callers then query the JSON document's
        own columns (:func:`~repro.core.archive.columnar.document_view`).
        Raises :class:`ArchiveError` only when the archive itself is
        absent.
        """
        side = self.sidecar_path(job_id)
        checksum = self.checksum(job_id)  # Raises if the JSON is gone.
        if not side.exists():
            return None
        try:
            return load_sidecar(side, expected_checksum=checksum)
        except SidecarError as exc:
            logger.warning(
                "archive store %s: sidecar for %s unusable (%s); "
                "falling back to JSON",
                self.directory, job_id, exc,
            )
            return None

    def checksum(self, job_id: str) -> str:
        """Payload checksum of one stored archive (memoized by stamp).

        The serving layer uses this as the ETag / cache key for every
        per-archive response.  The checksum is remembered against the
        file's (mtime, size) identity, so repeated calls cost one
        ``stat()``; a cold call tries a tail scan for the integrity
        block (it is the last key of a serialized archive) before
        falling back to a full parse.
        """
        path = self._archive_path(job_id)
        stamp = _stamp(path)
        if stamp is None:
            self._checksums.pop(job_id, None)
            raise ArchiveError(f"no stored archive for job {job_id!r}")
        memo = self._checksums.get(job_id)
        if memo is not None and memo[0] == stamp:
            return memo[1]
        checksum = self._read_checksum(path)
        self._checksums[job_id] = (stamp, checksum)
        return checksum

    @staticmethod
    def _read_checksum(path: Path) -> str:
        tail_bytes = 4096
        try:
            with path.open("rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                fh.seek(max(0, size - tail_bytes))
                tail = fh.read().decode("utf-8", errors="replace")
        except OSError as exc:
            raise ArchiveError(f"cannot read archive {path}: {exc}") from None
        matches = _CHECKSUM_TAIL_RE.findall(tail)
        if matches:
            return matches[-1]
        return ArchiveHandle(path).checksum

    def delete(self, job_id: str) -> None:
        """Remove one stored archive."""
        path = self._archive_path(job_id)
        with self._mutex, self._locked():
            self._catch_up()
            if not path.exists():
                raise ArchiveError(f"no stored archive for job {job_id!r}")

            def publish() -> None:
                path.unlink()
                _unlink_quietly(sidecar_path(path))

            self._commit(job_id, None, publish)
            self._checksums.pop(job_id, None)

    def iter_jobs(
        self,
        platform: Optional[str] = None,
        algorithm: Optional[str] = None,
        dataset: Optional[str] = None,
        offset: int = 0,
        limit: Optional[int] = None,
    ) -> Iterator[str]:
        """Stream matching job ids in sorted order (one page at a time).

        The generator yields straight off the in-memory index — no
        job-id list is materialized per query, so a fleet scan over a
        10k-archive store pays for the ids it consumes, not the ids
        that exist.  ``offset``/``limit`` page through the *filtered*
        sequence.
        """
        if offset < 0:
            raise ArchiveError(f"offset must be >= 0, got {offset}")
        if limit is not None and limit < 0:
            raise ArchiveError(f"limit must be >= 0, got {limit}")
        matched = 0
        yielded = 0
        for job_id in sorted(self._index):
            meta = self._index[job_id]
            if platform is not None and meta.get("platform") != platform:
                continue
            if algorithm is not None and meta.get("algorithm") != algorithm:
                continue
            if dataset is not None and meta.get("dataset") != dataset:
                continue
            matched += 1
            if matched <= offset:
                continue
            if limit is not None and yielded >= limit:
                return
            yielded += 1
            yield job_id

    def list(
        self,
        platform: Optional[str] = None,
        algorithm: Optional[str] = None,
        dataset: Optional[str] = None,
    ) -> List[str]:
        """Job ids matching the given filters, sorted."""
        return list(self.iter_jobs(platform=platform, algorithm=algorithm,
                                   dataset=dataset))

    def listing_checksum(self) -> str:
        """Content identity of the whole store listing.

        SHA-256 over every (job id, payload checksum) pair in sorted
        order: any archive added, removed, or rewritten changes it, so
        the serving layer can derive fleet-level ETags from one value.
        Per-archive checksums come from the stamp-keyed memo in
        :meth:`checksum` — after a warm pass the cost is one ``stat()``
        per archive, no file contents are read.
        """
        digest = hashlib.sha256()
        for job_id in sorted(self._index):
            try:
                checksum = self.checksum(job_id)
            except ArchiveError:
                # Indexed but unreadable on disk: fold the gap in so
                # the identity still changes when the file comes back.
                checksum = ""
            digest.update(job_id.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(checksum.encode("ascii"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def summary(self, job_id: str) -> Dict:
        """Index entry for one job (no archive parse)."""
        try:
            return dict(self._index[job_id])
        except KeyError:
            raise ArchiveError(f"no stored archive for job {job_id!r}") from None

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._index

    def __len__(self) -> int:
        return len(self._index)
