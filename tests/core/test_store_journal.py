"""The store's index journal: write order, cost, crash points, readers.

- The archive JSON is fsync'd before its rename, the renames are made
  durable by a directory fsync, and only then is the entry journaled.
  A job whose entry changes is journaled out (``[job_id, null]``)
  before its files move, so the index never holds an entry its files
  do not back.
- A save appends a journal line; the snapshot is rewritten only once
  the journal outgrows the index, so the index bytes a store writes are
  amortised O(1) per save (counted from the files, not timed).
- For every crash point of a burst of saves, overwrites and deletes
  that crosses a compaction, the reopened store's index equals
  ``rebuild_index()``, every save that returned is there, and
  compaction writes the rebuild's exact bytes.
- Readers fold only new complete journal lines, never a torn tail,
  never an entry ahead of its files, and start over when a compaction
  replaces the journal under them.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from pathlib import Path

import pytest

from repro.core.archive import store as store_module
from repro.core.archive.store import ArchiveStore
from tests.conftest import assert_index_is_rebuild, folded_index
from tests.crashpoints import Crash, crash_at
from tests.service.conftest import make_archive


def archive(job_id: str, version: int = 0):
    """A small archive whose index entry changes with ``version``."""
    return make_archive(job_id, supersteps=1 + version)


def entry_of(job_id: str, version: int = 0) -> dict:
    saved = archive(job_id, version)
    return {"algorithm": "bfs", "dataset": "d", "makespan": saved.makespan,
            "operations": saved.size(), "platform": "Test"}


def journal_lines(directory: Path) -> list:
    path = directory / "index.journal"
    if not path.exists():
        return []
    return [json.loads(line)
            for line in path.read_bytes().split(b"\n")[:-1]]


def identity(path: Path):
    try:
        stat = path.stat()
    except FileNotFoundError:
        return None
    return stat.st_ino, stat.st_mtime_ns, stat.st_size


class TestWriteOrder:
    def test_every_rename_follows_the_fsync_of_what_it_publishes(
        self, tmp_path, monkeypatch,
    ):
        if not Path("/proc/self/fd").is_dir():
            pytest.skip("needs /proc to name fsync'd descriptors")
        store = ArchiveStore(tmp_path)
        store.save(archive("first"))  # Writes the snapshot.
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.path.realpath(f"/proc/self/fd/{fd}")))
            return real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.realpath(src),
                           os.path.realpath(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store.save(archive("second"))

        renames = [event for event in events if event[0] == "replace"]
        assert [event[2] for event in renames] == [
            os.path.realpath(tmp_path / name)
            for name in ("second.json", "second.gcol")
        ]
        # The data of every file is on disk before its name is.
        for rename in renames:
            assert ("fsync", rename[1]) in events[:events.index(rename)]
        # The names are on disk before the journal line naming them, and
        # the journal's own name (the line created it) before save
        # returns.
        directory = ("fsync", os.path.realpath(tmp_path))
        journal = ("fsync", os.path.realpath(tmp_path / "index.journal"))
        assert directory in events[events.index(renames[-1]):
                                   events.index(journal)]
        assert events[-1] == directory

    def test_a_changed_entry_leaves_the_index_before_its_files_move(
        self, tmp_path, monkeypatch,
    ):
        store = ArchiveStore(tmp_path)
        store.save(archive("a"))
        store.save(archive("b"))
        seen = []
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == "b.json":
                seen.append(journal_lines(tmp_path)[-1])
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        store.save(archive("b", 1), overwrite=True)
        assert seen == [["b", None]]
        assert journal_lines(tmp_path)[-2:] == [["b", None],
                                                ["b", entry_of("b", 1)]]
        # Saving the same entry again changes no index line.
        store.save(archive("b", 1), overwrite=True)
        assert seen == [["b", None], ["b", entry_of("b", 1)]]
        assert len(journal_lines(tmp_path)) == 3
        store.delete("b")
        assert journal_lines(tmp_path)[-1] == ["b", None]


class TestIndexCost:
    def test_index_bytes_written_are_amortised_constant_per_save(
        self, tmp_path, monkeypatch,
    ):
        # Bytes, not durability, are counted here.
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        store = ArchiveStore(tmp_path)
        files = (tmp_path / "index.json", tmp_path / "index.journal")
        seen = dict.fromkeys(files)
        written = snapshots = 0
        saves = 600
        for i in range(saves):
            # Every fourth save gives an earlier archive a new entry
            # (two lines), so lines outrun entries and compaction has
            # work to do.
            if i % 4 == 3:
                job, version = f"job-{i // 4:04d}", 1 + (i // 4) % 3
            else:
                job, version = f"job-{i:04d}", i % 3
            store.save(archive(job, version), overwrite=True)
            for path in files:
                now, before = identity(path), seen[path]
                if now is None or now == before:
                    continue
                if before is None or now[0] != before[0]:
                    written += now[2]  # A new file, all of it written.
                    snapshots += path.name == "index.json"
                elif now[2] > before[2]:
                    written += now[2] - before[2]  # Appended.
                else:
                    written += now[2]  # Rewritten in place.
                seen[path] = now
        index = folded_index(tmp_path)
        mean_entry = sum(
            len(json.dumps([job, entry], sort_keys=True,
                           separators=(",", ":"))) + 1
            for job, entry in index.items()
        ) / len(index)
        assert written <= 3 * saves * mean_entry
        # Compaction did run, and it keeps the journal within its bound.
        assert snapshots >= 3
        assert len(journal_lines(tmp_path)) <= max(64, len(index))
        assert_index_is_rebuild(tmp_path, index)


# -- crash points ----------------------------------------------------------------

#: The seed store's jobs and the journal lines it holds after seeding:
#: five below the compaction threshold of 64 lines over 4 entries.
SEED = {f"job-{i}": 0 for i in range(4)}
SEED_LINES = 59

#: Saves (job, version), overwrites and deletes (job, None); an
#: overwrite that changes the entry writes two lines, the others one,
#: so the fifth op's lines are the 65th and 66th and compaction runs
#: after it.
BURST = (
    ("job-4", 1), ("job-1", 2), ("job-2", None), ("job-5", 1),
    ("job-3", 3), ("job-5", None), ("job-2", 4),
)


def seed_store(directory: Path) -> None:
    store = ArchiveStore(directory)
    for job, version in SEED.items():
        store.save(archive(job, version))
    # Two lines per overwrite; an even number leaves job-0 at version 0.
    for number in range((SEED_LINES - (len(SEED) - 1)) // 2):
        store.save(archive("job-0", 1 - number % 2), overwrite=True)
    assert len(journal_lines(directory)) == SEED_LINES


def run_burst(store: ArchiveStore, returned: list) -> None:
    for job, version in BURST:
        if version is None:
            store.delete(job)
        else:
            store.save(archive(job, version), overwrite=True)
        returned.append((job, version))


def model(ops) -> dict:
    state = dict(SEED)
    for job, version in ops:
        if version is None:
            state.pop(job, None)
        else:
            state[job] = version
    return state


class TestCrashPoints:
    def test_every_crash_point_recovers_to_the_rebuild(self, tmp_path):
        template = tmp_path / "template"
        seed_store(template)

        clean = tmp_path / "clean"
        shutil.copytree(template, clean)
        store = ArchiveStore(clean)
        with crash_at(0) as calls:
            run_burst(store, [])
        total = calls[0]
        # The burst crossed a compaction: two lines since it.
        assert len(journal_lines(clean)) == 2
        assert folded_index(clean) == {
            job: entry_of(job, version)
            for job, version in model(BURST).items()
        }
        assert total > 40

        for n in range(1, total + 1):
            directory = tmp_path / f"crash-{n}"
            shutil.copytree(template, directory)
            store = ArchiveStore(directory)
            returned: list = []
            with pytest.raises(Crash), crash_at(n):
                run_burst(store, returned)

            reopened = ArchiveStore(directory)
            folded = {job: reopened.summary(job) for job in reopened.list()}
            # A writer carrying on: it trims a torn tail before
            # appending.
            reopened.save(archive("job-after"))
            folded["job-after"] = entry_of("job-after")
            assert_index_is_rebuild(directory, folded)

            # Every op that returned is on disk; the interrupted one
            # either happened or did not.
            before = model(returned)
            after = model(BURST[:len(returned) + 1])
            for job in set(before) | set(after) | set(SEED):
                expected = {before.get(job), after.get(job)}
                stored = folded.get(job)
                assert stored in [None if v is None else entry_of(job, v)
                                  for v in expected], (n, job)
                if before.get(job) == after.get(job):
                    assert stored == (None if before.get(job) is None
                                      else entry_of(job, before[job])), (
                        n, job)
            shutil.rmtree(directory)


# -- readers -----------------------------------------------------------------------


class TestJournal:
    def test_first_save_writes_the_snapshot_later_saves_a_line(
        self, tmp_path,
    ):
        store = ArchiveStore(tmp_path)
        store.save(archive("a"))
        assert json.loads((tmp_path / "index.json").read_bytes()) == {
            "a": entry_of("a")}
        assert not (tmp_path / "index.journal").exists()
        snapshot = identity(tmp_path / "index.json")
        store.save(archive("b"))
        store.delete("a")
        assert identity(tmp_path / "index.json") == snapshot
        assert journal_lines(tmp_path) == [["b", entry_of("b")],
                                           ["a", None]]
        assert store.list() == ["b"]

    def test_compaction_rewrites_the_sorted_compact_snapshot(self, tmp_path):
        store = ArchiveStore(tmp_path)
        store.save(archive("b"))
        store.save(archive("a"))
        for version in range(32):  # Two lines each: null, then entry.
            store.save(archive("a", 1 + version % 2), overwrite=True)
        # 65 lines > max(64, 2 entries): compacted, journal emptied.
        assert (tmp_path / "index.journal").read_bytes() == b""
        assert (tmp_path / "index.json").read_bytes() == json.dumps(
            {"a": entry_of("a", 2), "b": entry_of("b")},
            sort_keys=True, separators=(",", ":")).encode()
        assert_index_is_rebuild(tmp_path, folded_index(tmp_path))

    def test_refresh_folds_only_new_lines(self, tmp_path, monkeypatch):
        writer = ArchiveStore(tmp_path)
        writer.save(archive("a"))
        reader = ArchiveStore(tmp_path)
        writer.save(archive("b"))
        writer.delete("a")

        def no_snapshot_reads(raw):
            raise AssertionError("refresh re-read an unchanged snapshot")

        monkeypatch.setattr(store_module, "_parse_snapshot",
                            no_snapshot_reads)
        assert reader.refresh() is True
        assert reader.list() == ["b"]
        assert reader.refresh() is False

    def test_reader_starts_over_when_compaction_replaces_the_journal(
        self, tmp_path, monkeypatch,
    ):
        # The new journal gets lines of the same lengths in the same
        # order as the old one, so the reader's offset into the old
        # journal falls on a line boundary of the new one too: resuming
        # there would silently skip lines instead of failing to parse.
        writer = ArchiveStore(tmp_path)
        for number in range(41):
            writer.save(archive(f"j{number:03d}"))
        reader = ArchiveStore(tmp_path)
        real_write = store_module.atomic_write_text

        def write(path, text):
            real_write(path, text)
            # The reader reads between the snapshot rewrite and the
            # emptying of the journal: new snapshot, old journal.
            if path.name == "index.json":
                assert reader.refresh() is True

        monkeypatch.setattr(store_module, "atomic_write_text", write)
        for number in range(13):  # Line 66 > max(64, 41): compaction.
            writer.save(archive(f"j{number:03d}", 1), overwrite=True)
        monkeypatch.undo()
        assert (tmp_path / "index.journal").read_bytes() == b""
        for number in range(41, 81):
            writer.save(archive(f"j{number:03d}"))
        for number in range(41, 54):
            writer.save(archive(f"j{number:03d}", 1), overwrite=True)
        for number in range(81, 101):
            writer.save(archive(f"j{number:03d}"))
        assert (tmp_path / "index.journal").stat().st_size > \
            reader._journal_offset
        assert reader.refresh() is True
        assert {job: reader.summary(job) for job in reader.list()} == \
            {job: writer.summary(job) for job in writer.list()}
        assert_index_is_rebuild(tmp_path, folded_index(tmp_path))

    def test_compaction_between_snapshot_and_journal_reads(
        self, tmp_path, monkeypatch,
    ):
        writer = ArchiveStore(tmp_path)
        writer.save(archive("a"))
        writer.save(archive("b"))
        for version in range(31):  # 63 lines.
            writer.save(archive("a", 1 + version % 2), overwrite=True)
        real_parse = store_module._parse_snapshot

        def parse(raw):
            # The reader has the old snapshot in hand when a compaction
            # lands; the new journal no longer mentions "a".
            monkeypatch.setattr(store_module, "_parse_snapshot", real_parse)
            writer.save(archive("a", 3), overwrite=True)  # Line 65.
            writer.save(archive("b", 1), overwrite=True)
            return real_parse(raw)

        monkeypatch.setattr(store_module, "_parse_snapshot", parse)
        reader = ArchiveStore(tmp_path)
        assert journal_lines(tmp_path) == [["b", None],
                                           ["b", entry_of("b", 1)]]
        assert reader.summary("a") == entry_of("a", 3)
        assert_index_is_rebuild(tmp_path, folded_index(tmp_path))

    def test_torn_tail_is_ignored_by_readers_and_cut_by_writers(
        self, tmp_path,
    ):
        store = ArchiveStore(tmp_path)
        store.save(archive("a"))
        store.save(archive("b"))
        with (tmp_path / "index.journal").open("ab") as journal:
            journal.write(b'["c",{"platf')
        snapshot = identity(tmp_path / "index.json")
        reader = ArchiveStore(tmp_path)
        assert reader.list() == ["a", "b"]
        assert identity(tmp_path / "index.json") == snapshot  # No rebuild.
        reader.save(archive("d"))
        assert (tmp_path / "index.journal").read_bytes().endswith(b"]\n")
        assert [line[0] for line in journal_lines(tmp_path)] == ["b", "d"]
        assert_index_is_rebuild(tmp_path, folded_index(tmp_path))

    def test_corrupt_journal_line_rebuilds(self, tmp_path):
        store = ArchiveStore(tmp_path)
        store.save(archive("a"))
        store.save(archive("b"))
        with (tmp_path / "index.journal").open("ab") as journal:
            journal.write(b"garbage\n")
        reopened = ArchiveStore(tmp_path)
        assert reopened.list() == ["a", "b"]
        assert (tmp_path / "index.journal").read_bytes() == b""

    def test_reader_never_folds_an_entry_ahead_of_its_files(
        self, tmp_path, monkeypatch,
    ):
        writer = ArchiveStore(tmp_path)
        writer.save(archive("a"))
        writer.save(archive("b"))
        reader = ArchiveStore(tmp_path)
        views = []
        real_replace = os.replace

        def replace(src, dst):
            # Mid-publish: the reader refreshes before each rename.
            if Path(dst).suffix in (".json", ".gcol") and \
                    Path(dst).name != "index.json":
                reader.refresh()
                views.append({job: reader.summary(job)
                              for job in reader.list()})
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        writer.save(archive("b", 1), overwrite=True)
        writer.save(archive("c"))
        monkeypatch.undo()
        # "b" is out of the index while its files move, and "c" is not
        # listed before its files are in place.
        assert views == [{"a": entry_of("a")}] * 2 + [
            {"a": entry_of("a"), "b": entry_of("b", 1)}] * 2
        assert reader.refresh() is True
        assert "c" in reader

    def test_writer_crash_mid_publish_leaves_no_ghost(
        self, tmp_path, monkeypatch,
    ):
        # A writer dies after renaming one file, before journaling its
        # entry: a long-lived reader must not list the new job, nor show
        # the replaced job's new summary beside its old file.
        writer = ArchiveStore(tmp_path)
        writer.save(archive("a"))
        writer.save(archive("b"))
        reader = ArchiveStore(tmp_path)
        real_replace = os.replace

        class Crash(BaseException):
            pass

        def replace(src, dst):
            if Path(dst).suffix == ".gcol":
                raise Crash(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        for job, version in (("b", 1), ("c", 0)):
            with pytest.raises(Crash):
                writer.save(archive(job, version), overwrite=True)
        monkeypatch.undo()
        reader.refresh()
        assert reader.list() == ["a"]
        assert "c" not in reader
        # A full load finds both files unindexed and rebuilds from them.
        reopened = ArchiveStore(tmp_path)
        assert {job: reopened.summary(job) for job in reopened.list()} == {
            "a": entry_of("a"), "b": entry_of("b", 1), "c": entry_of("c")}
        assert_index_is_rebuild(tmp_path, folded_index(tmp_path))

    def test_a_loader_racing_a_writer_waits_instead_of_rebuilding(
        self, tmp_path, monkeypatch,
    ):
        writer = ArchiveStore(tmp_path)
        writer.save(archive("a"))
        rebuilds = []
        real_rebuild = ArchiveStore._rebuild_locked
        monkeypatch.setattr(
            ArchiveStore, "_rebuild_locked",
            lambda self: rebuilds.append(self) or real_rebuild(self))
        real_replace = os.replace
        loaders = []

        def replace(src, dst):
            result = real_replace(src, dst)
            if Path(dst).name == "b.gcol":
                # "b" is on disk, not yet journaled: a fresh store sees
                # a stale index and must wait on the writer's lock.
                loader = threading.Thread(
                    target=lambda: loaders.append(ArchiveStore(tmp_path)))
                loader.start()
                loader.join(0.3)
                assert loader.is_alive()
                loaders.append(loader)
            return result

        monkeypatch.setattr(os, "replace", replace)
        writer.save(archive("b"))
        loaders[0].join(10)
        monkeypatch.undo()
        assert rebuilds == []
        assert loaders[1].list() == ["a", "b"]

    def test_rebuild_writes_the_snapshot_and_empties_the_journal(
        self, tmp_path,
    ):
        store = ArchiveStore(tmp_path)
        store.save(archive("a"))
        store.save(archive("b"))
        assert store.rebuild_index() == {"a": entry_of("a"),
                                         "b": entry_of("b")}
        assert (tmp_path / "index.journal").read_bytes() == b""
        assert folded_index(tmp_path) == store.rebuild_index()
