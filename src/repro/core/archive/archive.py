"""The performance archive: concrete operation trees with info sets."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.model.operation import split_iteration
from repro.errors import ArchiveError

#: Serialises building a table-born archive's tree (see
#: ``PerformanceArchive._materialize``).
_TREE_LOCK = threading.Lock()

#: Reserved info key carrying an operation's provenance.
PROVENANCE_KEY = "Provenance"
#: Provenance values: directly observed in the platform log, ...
PROVENANCE_MEASURED = "measured"
#: ... synthesized during salvage/repair (timestamps or structure), ...
PROVENANCE_INFERRED = "inferred"
#: ... or not recoverable at all (a timestamp is absent).
PROVENANCE_MISSING = "missing"


@dataclass
class ArchivedOperation:
    """One concrete operation instance of a job run.

    Attributes:
        uid: instance id from the platform log.
        mission: mission name, possibly with iteration suffix
            (``Compute-4``).
        actor: actor name, possibly with instance suffix (``Worker-2``).
        start_time / end_time: simulated timestamps.
        infos: the operation's information set — recorded values (parsed
            from info log events) plus derived metrics (written by the
            model's rules during archiving).
        parent / children: tree links.
    """

    uid: str
    mission: str
    actor: str
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    infos: Dict[str, Any] = field(default_factory=dict)
    parent: Optional["ArchivedOperation"] = None
    children: List["ArchivedOperation"] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        """Seconds between start and end, when both are known."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def provenance(self) -> str:
        """How trustworthy this operation's timing is.

        ``measured`` (observed in the log), ``inferred`` (synthesized
        during salvage or repair) or ``missing`` (a timestamp is
        absent).  Healthy archives predate the provenance convention,
        so an absent marker with complete timestamps means measured.
        """
        if self.start_time is None or self.end_time is None:
            return PROVENANCE_MISSING
        return self.infos.get(PROVENANCE_KEY, PROVENANCE_MEASURED)

    def mark_inferred(self) -> None:
        """Flag this operation's timing as synthesized, not observed."""
        self.infos[PROVENANCE_KEY] = PROVENANCE_INFERRED

    @property
    def mission_base(self) -> str:
        """Mission without the iteration suffix (``Compute-4`` -> ``Compute``)."""
        return split_iteration(self.mission)[0]

    @property
    def iteration(self) -> Optional[int]:
        """Iteration index carried by the mission, if any."""
        return split_iteration(self.mission)[1]

    @property
    def actor_base(self) -> str:
        """Actor without the instance suffix (``Worker-2`` -> ``Worker``)."""
        return split_iteration(self.actor)[0]

    @property
    def actor_index(self) -> Optional[int]:
        """Actor instance index, if any (``Worker-2`` -> 2)."""
        return split_iteration(self.actor)[1]

    @property
    def path(self) -> str:
        """Slash-joined mission path from the root."""
        parts: List[str] = []
        node: Optional[ArchivedOperation] = self
        while node is not None:
            parts.append(node.mission)
            node = node.parent
        return "/".join(reversed(parts))

    def walk(self) -> Iterator["ArchivedOperation"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def child(self, mission: str) -> "ArchivedOperation":
        """The unique direct child with this exact mission name."""
        matches = [c for c in self.children if c.mission == mission]
        if not matches:
            raise ArchiveError(
                f"{self.mission}: no child {mission!r} "
                f"(children: {[c.mission for c in self.children]})"
            )
        if len(matches) > 1:
            raise ArchiveError(
                f"{self.mission}: {len(matches)} children named {mission!r}"
            )
        return matches[0]

    def children_of(self, mission_base: str) -> List["ArchivedOperation"]:
        """Direct children whose mission base matches."""
        return [c for c in self.children if c.mission_base == mission_base]

    def __repr__(self) -> str:
        return (
            f"ArchivedOperation({self.mission!r} @ {self.actor!r}, "
            f"[{self.start_time}, {self.end_time}], "
            f"children={len(self.children)})"
        )


class PerformanceArchive:
    """The standardized archive of one job's performance results.

    An archive is born either as an operation tree (hand-built, salvaged,
    live, or a v1/v2 document) or as its v3 operations block — the
    parallel pre-order columns :func:`~repro.core.archive.builder.build_archive`
    and :func:`~repro.core.archive.serialize.archive_from_json` produce.
    A table-born archive answers :meth:`size`, :attr:`makespan` and
    rendering from the block; :attr:`root` (and :meth:`walk`,
    :meth:`operation`, :meth:`find`) builds the tree on first access and
    drops the block, so a tree that is written to is what renders next.
    """

    #: Archive format version (serialization compatibility).  Version 2
    #: added the ``integrity`` block (payload checksum) and provenance
    #: markers; version 3 stores the operation tree in columnar form
    #: (parallel arrays in pre-order) so large archives encode, decode
    #: and index without walking a nested object tree.  Version-1 and
    #: version-2 archives are still readable.
    FORMAT_VERSION = 3

    def __init__(
        self,
        job_id: str,
        root: ArchivedOperation,
        platform: str = "",
        metadata: Optional[Dict[str, Any]] = None,
        env_samples: Optional[List[Tuple[float, str, float]]] = None,
    ):
        self._describe(job_id, platform, metadata, env_samples)
        self._table: Optional[Dict[str, Any]] = None
        self._set_root(root)

    @classmethod
    def from_table(
        cls,
        job_id: str,
        table: Dict[str, Any],
        platform: str = "",
        metadata: Optional[Dict[str, Any]] = None,
        env_samples: Optional[List[Tuple[float, str, float]]] = None,
    ) -> "PerformanceArchive":
        """An archive held as its v3 operations block.

        ``table`` must be what
        :func:`~repro.core.archive.serialize.operations_to_columns`
        renders for some tree: ``parent`` in pre-order, info rows grouped
        by operation with one row per key, values encoded, uids unique.
        Its callers (the builder, the v3 loader) check that; the archive
        does not.
        """
        archive = cls.__new__(cls)
        archive._describe(job_id, platform, metadata, env_samples)
        archive._table = table
        archive._root = None
        archive._by_uid = {}
        return archive

    def _describe(
        self,
        job_id: str,
        platform: str,
        metadata: Optional[Dict[str, Any]],
        env_samples: Optional[List[Tuple[float, str, float]]],
    ) -> None:
        if not job_id:
            raise ArchiveError("archive needs a job id")
        self.job_id = job_id
        self.platform = platform
        self.metadata: Dict[str, Any] = dict(metadata or {})
        #: (timestamp, node, cpu) environment samples over the job window.
        self.env_samples: List[Tuple[float, str, float]] = list(env_samples or [])

    def _set_root(self, root: ArchivedOperation) -> None:
        by_uid: Dict[str, ArchivedOperation] = {}
        for op in root.walk():
            if op.uid in by_uid:
                raise ArchiveError(f"duplicate operation uid {op.uid!r}")
            by_uid[op.uid] = op
        self._by_uid = by_uid
        self._root: Optional[ArchivedOperation] = root

    def _materialize(self) -> ArchivedOperation:
        """The tree, built from the held table on first call.

        Served archives are shared between request threads, so the
        build happens once, under a lock, and the table goes only after
        the tree is in place.
        """
        root = self._root
        if root is None:
            # serialize imports this module; the decoder is reached lazily.
            from repro.core.archive.serialize import tree_of_table

            with _TREE_LOCK:
                if self._root is None:
                    self._set_root(tree_of_table(self._table))
                    self._table = None
                root = self._root
        return root

    @property
    def table(self) -> Optional[Dict[str, Any]]:
        """The v3 operations block this archive holds, or None once the
        tree exists (then the tree is the archive)."""
        return self._table

    @property
    def root(self) -> ArchivedOperation:
        """The root (job) operation; builds the tree on first access."""
        return self._materialize()

    @property
    def makespan(self) -> Optional[float]:
        """Duration of the root (job) operation."""
        table = self._table
        if table is not None:
            start, end = table["start"][0], table["end"][0]
            return None if start is None or end is None else end - start
        return self.root.duration

    def operation(self, uid: str) -> ArchivedOperation:
        """Look up an operation instance by uid."""
        self._materialize()
        try:
            return self._by_uid[uid]
        except KeyError:
            raise ArchiveError(f"no operation with uid {uid!r}") from None

    def walk(self) -> Iterator[ArchivedOperation]:
        """Pre-order traversal of all archived operations."""
        return self.root.walk()

    def size(self) -> int:
        """Number of operation instances archived."""
        table = self._table
        return len(self._by_uid) if table is None else table["count"]

    def find(
        self,
        mission: Optional[str] = None,
        mission_base: Optional[str] = None,
        actor: Optional[str] = None,
        actor_base: Optional[str] = None,
    ) -> List[ArchivedOperation]:
        """Operations matching all given filters, in pre-order."""
        out: List[ArchivedOperation] = []
        for op in self.walk():
            if mission is not None and op.mission != mission:
                continue
            if mission_base is not None and op.mission_base != mission_base:
                continue
            if actor is not None and op.actor != actor:
                continue
            if actor_base is not None and op.actor_base != actor_base:
                continue
            out.append(op)
        return out

    def node_env_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """Environment samples grouped per node as (timestamp, cpu) lists."""
        series: Dict[str, List[Tuple[float, float]]] = {}
        for ts, node, cpu in self.env_samples:
            series.setdefault(node, []).append((ts, cpu))
        for values in series.values():
            values.sort()
        return series

    def __repr__(self) -> str:
        return (
            f"PerformanceArchive({self.job_id!r}, platform={self.platform!r}, "
            f"operations={self.size()})"
        )
