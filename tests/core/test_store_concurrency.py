"""Multi-process archive store tests.

Regression suite for the concurrent-writer guarantees: N forked
processes each ``save()`` into one store, and the final index (the
snapshot with the journal folded in) must contain every entry, equal a
fresh ``rebuild_index()`` over the same files, and compact to the
rebuild's exact bytes.  Before the advisory lock,
interleaved read-modify-write cycles silently dropped entries.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.store import ArchiveStore, atomic_write_text
from tests.conftest import assert_index_is_rebuild, folded_index

WRITERS = 8
SAVES_PER_WRITER = 4


def _make_archive(job_id: str) -> PerformanceArchive:
    root = ArchivedOperation(f"{job_id}:u0", "Job", "Client", 0.0, 10.0)
    for i in range(3):
        child = ArchivedOperation(
            f"{job_id}:u{i + 1}", f"Superstep-{i}", "Master",
            float(i), float(i + 1), infos={"Duration": 1.0}, parent=root,
        )
        root.children.append(child)
    return PerformanceArchive(job_id, root, platform="Test",
                              metadata={"algorithm": "bfs", "dataset": "d"})


def _writer(directory: str, writer: int) -> None:
    store = ArchiveStore(directory)
    for i in range(SAVES_PER_WRITER):
        store.save(_make_archive(f"job-{writer}-{i}"))


@pytest.fixture()
def fork():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        pytest.skip("fork start method unavailable")


class TestConcurrentWriters:
    def test_no_index_entries_lost(self, tmp_path, fork):
        processes = [
            fork.Process(target=_writer, args=(str(tmp_path), w))
            for w in range(WRITERS)
        ]
        for p in processes:
            p.start()
        for p in processes:
            p.join(timeout=60)
            assert p.exitcode == 0

        expected = {
            f"job-{w}-{i}"
            for w in range(WRITERS)
            for i in range(SAVES_PER_WRITER)
        }
        index = folded_index(tmp_path)
        assert set(index) == expected

        # The journal-maintained index must be what a fresh
        # rebuild over the same archives produces, and compact to the
        # rebuild's bytes exactly.
        assert_index_is_rebuild(tmp_path, index)
        assert len(ArchiveStore(tmp_path)) == WRITERS * SAVES_PER_WRITER

    def test_interleaved_save_and_delete(self, tmp_path, fork):
        seed = ArchiveStore(tmp_path)
        for w in range(WRITERS):
            seed.save(_make_archive(f"stale-{w}"))

        def churn(directory: str, writer: int) -> None:
            store = ArchiveStore(directory)
            store.save(_make_archive(f"fresh-{writer}"))
            store.delete(f"stale-{writer}")

        processes = [
            fork.Process(target=churn, args=(str(tmp_path), w))
            for w in range(WRITERS)
        ]
        for p in processes:
            p.start()
        for p in processes:
            p.join(timeout=60)
            assert p.exitcode == 0

        seed.refresh()
        assert seed.list() == sorted(
            f"fresh-{w}" for w in range(WRITERS)
        )


class TestAtomicWrite:
    def test_unique_tmp_names(self, tmp_path):
        # Two concurrent writers must not share a tmp sibling; the
        # names embed pid + counter so successive writes differ.
        target = tmp_path / "file.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_failed_write_cleans_tmp(self, tmp_path):
        target = tmp_path / "file.txt"
        with pytest.raises(TypeError):
            atomic_write_text(target, 123)  # type: ignore[arg-type]
        assert list(tmp_path.iterdir()) == []
