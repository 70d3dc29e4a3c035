"""Shared-memory CSR pages for the multi-process workload fan-out.

``execute_parallel`` forks a pool of workers that replay workloads over
the same named datasets.  Forking shares the parent's heap
copy-on-write, but CPython's reference counting dirties the page of
every object a worker merely *looks at*, so a graph inherited as
Python adjacency lists gradually unshares — peak RSS grows linearly
with the worker count.

This module instead places the immutable CSR arrays (``indptr`` +
``indices``) of each dataset into one POSIX shared-memory segment.
Workers attach read-only numpy views over the segment and rebuild
their :class:`~repro.graph.graph.Graph` via
:meth:`~repro.graph.graph.Graph.from_csr_arrays`, which holds the views
as its arrays — a graph is its CSR arrays and nothing else, so the
kernel keeps one physical copy of every graph page no matter how many
workers scan it.

Lifecycle:

* The parent owns the segments through :class:`SharedGraphPages`; it
  creates them before forking the pool and ``close()`` both closes and
  unlinks them after the pool drains.
* Workers attach in the pool initializer (:func:`attach_graph`).  On
  POSIX attaching re-registers the segment with the ``multiprocessing``
  resource tracker, but the fan-out always forks, so parent and
  workers share one tracker process whose per-type cache is a set —
  the duplicate registrations collapse and the parent's single unlink
  retires the name cleanly.  Worker mappings are closed at interpreter
  exit; the mapping itself dies with the process either way, so only
  the parent's unlink is load-bearing.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph

#: Byte alignment of the ``indices`` blob inside a segment (cache-line
#: aligned, and a multiple of the int64 itemsize).
ALIGNMENT = 64


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


@dataclass(frozen=True)
class SharedCsrHandle:
    """Picklable descriptor of one shared CSR segment.

    Carries everything a worker needs to attach: the segment name, the
    array geometry, and the dataset's content key so the worker can
    seed its dataset memo with the attached graph.
    """

    name: str
    num_vertices: int
    num_edges: int
    content_key: Optional[str] = None

    @property
    def indptr_nbytes(self) -> int:
        return (self.num_vertices + 1) * 8

    @property
    def indices_offset(self) -> int:
        return _align(self.indptr_nbytes)

    @property
    def total_nbytes(self) -> int:
        return self.indices_offset + self.num_edges * 8


def _csr_views(buffer, handle: SharedCsrHandle) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only int64 views of a segment's indptr and indices."""
    view = memoryview(buffer)
    if len(view) < handle.total_nbytes:
        raise GraphError(
            f"shared segment {handle.name!r} holds {len(view)} bytes, "
            f"need {handle.total_nbytes}"
        )
    indptr = np.frombuffer(
        view[: handle.indptr_nbytes], dtype=np.int64)
    indices = np.frombuffer(
        view[handle.indices_offset:
             handle.indices_offset + handle.num_edges * 8],
        dtype=np.int64)
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


class SharedGraphPages:
    """Parent-side owner of shared CSR segments.

    ``share()`` copies a graph's CSR arrays into a fresh segment and
    returns the picklable handle; ``close()`` closes and unlinks every
    segment.  Usable as a context manager around a pool's lifetime.
    """

    def __init__(self) -> None:
        self._segments: List = []

    def share(self, graph: Graph) -> SharedCsrHandle:
        """Place ``graph``'s CSR arrays into a new shared segment."""
        from multiprocessing import shared_memory

        csr = graph.csr()
        handle_geometry = SharedCsrHandle(
            name="", num_vertices=csr.num_vertices,
            num_edges=csr.num_edges,
        )
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, handle_geometry.total_nbytes))
        self._segments.append(segment)
        handle = SharedCsrHandle(
            name=segment.name,
            num_vertices=csr.num_vertices,
            num_edges=csr.num_edges,
            content_key=getattr(graph, "content_key", None),
        )
        view = memoryview(segment.buf)
        indptr_bytes = np.ascontiguousarray(
            csr.indptr, dtype=np.int64).tobytes()
        view[: len(indptr_bytes)] = indptr_bytes
        if handle.num_edges:
            indices_bytes = np.ascontiguousarray(
                csr.indices, dtype=np.int64).tobytes()
            view[handle.indices_offset:
                 handle.indices_offset + len(indices_bytes)] = indices_bytes
        view.release()
        return handle

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    def __enter__(self) -> "SharedGraphPages":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._segments)


#: Segments this process has attached to (worker side), kept alive for
#: the life of the process and closed at interpreter exit.
_ATTACHED: List = []


def _close_attached() -> None:
    segments, _ATTACHED[:] = list(_ATTACHED), []
    for segment in segments:
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass


def attach_graph(handle: SharedCsrHandle) -> Graph:
    """Attach to a shared segment and rebuild its graph (worker side).

    The returned graph's CSR arrays are read-only views straight into
    the shared pages.  The segment stays mapped until interpreter exit.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=handle.name)
    if not _ATTACHED:
        atexit.register(_close_attached)
    _ATTACHED.append(segment)
    indptr, indices = _csr_views(segment.buf, handle)
    graph = Graph.from_csr_arrays(handle.num_vertices, indptr, indices)
    if handle.content_key is not None:
        graph.content_key = handle.content_key
    return graph
