"""Systematic querying of performance archives.

"(The) performance archive ... allows users to query the contents
systematically."  :class:`ArchiveQuery` is that query over an in-memory
archive, run on the one query core in :mod:`repro.core.archive.columnar`
(where :func:`translate_path_pattern` defines the path-glob semantics):
the archive's operations block — the one a built or loaded archive
holds, else its tree's columns — is encoded into a column table at
construction.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.columnar import (
    ColumnarArchiveView,
    _numeric,
    _split,
    table_of_columns,
    translate_path_pattern,
)
from repro.core.archive.serialize import archive_columns
from repro.errors import QueryError


class ArchiveQuery(ColumnarArchiveView):
    """A fluent query over one archive.

    The query is a snapshot: it answers for the archive as it was when
    the query was constructed.  Mutate the archive, then construct a new
    query to see the change.  An archive whose columns cannot be encoded
    (a bool timestamp, an int one beyond 2**53) raises
    :class:`QueryError` naming the value.

    Example::

        q = ArchiveQuery(archive)
        computes = q.path("GiraphJob/ProcessGraph/Superstep-*/"
                          "LocalSuperstep-*/Compute-*").operations()
        slowest = q.top("Duration", 3)
    """

    def __init__(self, archive: PerformanceArchive):
        super().__init__(table_of_columns(archive_columns(archive)))
        self.archive = archive
        # Shared by every narrowed copy; filled on first use.
        self._walk: List[ArchivedOperation] = []

    def _ops(self) -> List[ArchivedOperation]:
        """The archive's operations, indexable by row."""
        if not self._walk:
            self._walk.extend(self.archive.walk())
        return self._walk

    # -- selection ---------------------------------------------------------

    def where(self, predicate: Callable[[ArchivedOperation], bool]) -> "ArchiveQuery":
        """Narrow with an arbitrary predicate over operations."""
        ops = self._ops()
        return self._narrow(np.fromiter(
            (bool(predicate(ops[row])) for row in self._selection.tolist()),
            dtype=bool, count=len(self._selection),
        ))

    # -- extraction --------------------------------------------------------

    def operations(self) -> List[ArchivedOperation]:
        """The selected operations, in pre-order."""
        ops = self._ops()
        return [ops[row] for row in self._selection.tolist()]

    def one(self) -> ArchivedOperation:
        """Exactly one selected operation; raises otherwise."""
        if len(self) != 1:
            raise QueryError(
                f"expected exactly one operation, selection has {len(self)}"
            )
        return self.first()

    def first(self) -> ArchivedOperation:
        """The first selected operation; raises when empty."""
        if not len(self):
            raise QueryError("selection is empty")
        return self._ops()[int(self._selection[0])]

    def top(self, info: str = "Duration", n: int = 5) -> List[ArchivedOperation]:
        """The ``n`` operations with the largest value of ``info``."""
        ops = self._ops()
        return [ops[row] for row in self._ranked(info, n)[0]]

    def group_by_actor(self) -> Dict[str, List[ArchivedOperation]]:
        """Selection grouped by full actor name."""
        return self._grouped("actor", lambda actor: actor)

    def group_by_iteration(self) -> Dict[int, List[ArchivedOperation]]:
        """Selection grouped by iteration index (unindexed ops skipped)."""
        return self._grouped("mission", lambda mission: _split(mission)[1])

    def _grouped(self, name: str, key_of: Callable) -> Dict:
        """Selected operations grouped by ``key_of`` of their ``name``
        string (a ``None`` key is skipped), in pre-order."""
        ops = self._ops()
        keys = [key_of(word) for word in self._table.dictionary(name)]
        codes = self._table.codes[name][self._selection]
        groups: Dict = {}
        for row, code in zip(self._selection.tolist(), codes.tolist()):
            if keys[code] is not None:
                groups.setdefault(keys[code], []).append(ops[row])
        return groups


__all__ = ["ArchiveQuery", "translate_path_pattern", "_numeric"]
