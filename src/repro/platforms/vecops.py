"""Shared numpy primitives for the vectorized execution backends.

Both simulated engines (the Pregel engine and the GAS engine) replay
their scalar reference paths with numpy kernels.  The kernels must be
*bit-identical* to the scalar code, which constrains how reductions may
be vectorized:

* IEEE float addition is not associative, and the scalar engines reduce
  with sequential left folds in fixed orders.  ``np.sum`` and
  ``np.add.reduceat`` reduce pairwise and therefore do NOT reproduce
  those folds; :func:`fold_add` and :class:`FoldPlan` do.
* min-folds are order-insensitive, so ``np.minimum.reduceat`` is safe.
* Work counters are derived with ``np.bincount`` over owner/destination
  arrays; counts are exact integers regardless of evaluation order.
* The folds run under ``np.errstate(invalid="ignore", over="ignore")``:
  ``inf + -inf`` is nan and ``1e308 + 1e308`` is inf in the scalar fold
  too, which Python computes silently where numpy would warn.
* Orders that decide fold sequences are *stable* orders: rows with
  equal keys keep their input order.  :func:`stable_key_sort` computes
  exactly that permutation, and the sorted keys with it, by sorting
  (key, row) packed into one int64.
* Output text sizes of integer and float values are counted off the
  arrays (:func:`repro.graph.edgelist.text_size`: decimal digits, and
  the shortest round-trip repr of floats); :func:`output_text_bytes` is
  the per-element Python oracle the scalar engines write with.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

import numpy as np

# The run primitives live with the sorted graph arrays; the kernels
# import them from here.
from repro.graph.csr import group_sizes, group_starts  # noqa: F401

#: Segment length up to which a :class:`FoldPlan` folds segments in
#: lockstep (one element per round); longer segments (hubs) fold
#: individually.
FOLD_CHUNK = 32


def stable_key_sort(
    key: np.ndarray, bound: int, rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows[order], key[order])`` for ``order = np.argsort(key,
    kind="stable")``, integer keys in ``[0, bound)``.

    ``rows`` defaults to the row index, so the first array is ``order``
    itself.  Each key is packed above its row into one int64,
    ``key << b | row``, and the packed values are sorted.  They are
    distinct, so every sort algorithm returns them in the same order: by
    key, and rows with equal keys by row, i.e. in input order.  That is
    the one stable permutation; the low ``b`` bits read it back and the
    high bits are the sorted keys, so neither needs a gather.  Sorting
    by a composite key ``v * R + p`` with ``0 <= p < R`` is also
    ``np.lexsort((p, v))``.  numpy sorts int64 with a vectorised
    quicksort, several times faster than its stable sort of the same
    keys; keys too wide to share 63 bits with the rows take the stable
    sort.

    ``rows`` may instead be any non-negative column that never
    decreases from one row to the next (the sources of a CSR edge
    list).  Packed beside the key it still sorts equal keys in input
    order, except among rows holding the same value, whose order does
    not show, so the low bits read back ``rows[order]`` without a
    gather.
    """
    key = np.asarray(key, dtype=np.int64)
    n = len(key)
    if rows is None:
        rows = np.arange(n, dtype=np.int64)
    else:
        rows = np.asarray(rows, dtype=np.int64)
    if n < 2 or bound <= 1:
        return rows.copy(), key.copy()
    row_bits = int(rows[-1]).bit_length()
    if (int(bound) - 1).bit_length() + row_bits > 63:
        order = np.argsort(key, kind="stable")
        return rows[order], key[order]
    packed = key << row_bits
    packed |= rows
    packed.sort()
    sorted_key = packed >> row_bits
    packed &= (1 << row_bits) - 1
    return packed, sorted_key


def stable_key_order(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for integer keys in
    ``[0, bound)``: the order half of :func:`stable_key_sort`."""
    return stable_key_sort(key, bound)[0]


def vertex_set(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.unique(ids)`` for vertex ids in ``[0, n)``: a vertex mask
    read back with ``flatnonzero``, sorted and distinct by construction."""
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return np.flatnonzero(mask)


def output_text_bytes(output: Mapping[int, Any]) -> int:
    """Size of the ``"<vertex> <value>\\n"`` text of an output mapping.

    The per-element reference: it works for any value type, and the
    counts off the arrays (:func:`repro.graph.edgelist.text_size`) must
    agree with it.
    """
    return sum(len(str(v)) + 1 + len(str(val)) + 1
               for v, val in output.items())


def fold_add(values: np.ndarray) -> float:
    """Sequential left fold ``((v0 + v1) + v2) + ...`` of a float array.

    ``np.cumsum`` accumulates strictly left to right, so its last element
    is bit-identical to Python's ``sum`` over the same order; ``np.sum``
    is pairwise and is NOT.
    """
    if len(values) == 0:
        return 0.0
    # The scalar fold starts from +0.0, so an all-negative-zero input
    # folds to +0.0; adding +0.0 reproduces that (and is exact for
    # every other float, including nan and inf).
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.cumsum(values)[-1]) + 0.0


class FoldPlan:
    """Sequential left folds of fixed segments, planned once.

    Segment ``i`` is ``values[starts[i]:starts[i + 1]]`` (the last ends
    at ``total``) and lands in ``out[rows[i]]`` of a zero-filled output
    of ``size`` entries (by default ``rows[i] = i``).  The float kernels
    fold the same segments (mailboxes, in-CSR rows) every iteration, so
    the plan computes their order once:

    * short segments advance in lockstep, one element per round, longest
      first so round ``k`` touches only a prefix; one precomputed gather
      index lays every round's elements out contiguously;
    * long segments (hubs) fold individually via ``cumsum``.

    Both paths perform the exact left-to-right addition sequence of the
    scalar code, starting from ``+0.0``.
    """

    def __init__(self, starts: np.ndarray, total: int,
                 rows: Optional[np.ndarray] = None,
                 size: Optional[int] = None):
        starts = np.asarray(starts, dtype=np.int64)
        nseg = len(starts)
        self.size = nseg if size is None else size
        if rows is None:
            rows = np.arange(nseg, dtype=np.int64)
        ends = np.empty(nseg, dtype=np.int64)
        ends[:-1] = starts[1:]
        ends[-1:] = total
        lens = ends - starts
        hubs = np.flatnonzero(lens > FOLD_CHUNK)
        #: (output row, start, end) of each hub.
        self.hubs = list(zip(rows[hubs].tolist(), starts[hubs].tolist(),
                             ends[hubs].tolist()))
        short = np.flatnonzero(lens <= FOLD_CHUNK)
        # Longest first; ties keep segment order.
        short = short[stable_key_order(FOLD_CHUNK - lens[short],
                                       FOLD_CHUNK + 1)]
        short_lens = lens[short]
        maxlen = int(short_lens[0]) if len(short) else 0
        #: Round ``k`` adds element ``k`` of the first ``counts[k]``
        #: short segments: those longer than ``k``.
        self.counts = np.searchsorted(
            -short_lens, -np.arange(maxlen), side="left").tolist()
        self.rows = rows[short[:self.counts[0]]] if maxlen else rows[:0]
        short_starts = starts[short]
        self.gather = np.concatenate(
            [short_starts[:c] + k for k, c in enumerate(self.counts)]
        ) if maxlen else np.empty(0, dtype=np.int64)

    @classmethod
    def of_csr(cls, indptr: np.ndarray) -> "FoldPlan":
        """Folds of each CSR row ``values[indptr[i]:indptr[i+1]]``.

        Empty rows fold to ``+0.0`` (the scalar accumulators' start
        value).  Only the non-empty rows are segments: the start of the
        next non-empty row is the end of this one, so their starts alone
        delimit them.
        """
        rows = np.flatnonzero(indptr[1:] > indptr[:-1])
        return cls(indptr[rows], int(indptr[-1]), rows, len(indptr) - 1)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            for row, start, end in self.hubs:
                out[row] = np.cumsum(values[start:end])[-1] + 0.0
            if self.counts:
                picked = values[self.gather]
                acc = np.zeros(self.counts[0], dtype=np.float64)
                offset = 0
                for count in self.counts:
                    acc[:count] += picked[offset:offset + count]
                    offset += count
                out[self.rows] = acc
        return out


def expand_edges(
    indptr: np.ndarray,
    indices: np.ndarray,
    srcs: np.ndarray,
    deg: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (src, dst) edge endpoints out of the ``srcs`` frontier."""
    pos, _, _ = expand_positions(indptr, deg, srcs)
    return np.repeat(srcs, deg[srcs]), indices[pos]


def expand_positions(
    indptr: np.ndarray,
    deg: np.ndarray,
    sel: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency-slot positions for each selected vertex, concatenated.

    Returns ``(pos, seg_starts, nz)``: ``pos`` indexes the flat
    adjacency arrays for ``sel``'s slots in selection order,
    ``seg_starts`` marks each non-empty vertex's segment start within
    ``pos``, and ``nz`` is the boolean mask of ``sel`` entries with at
    least one slot (``seg_starts`` aligns with ``sel[nz]``).
    """
    d = deg[sel]
    total = int(d.sum())
    nz = d > 0
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, nz
    # Slot j of vertex i's run (which starts at starts[i]) is
    # indptr[sel[i]] + (j - starts[i]): one repeat of the per-run shift.
    starts = np.cumsum(d) - d
    pos = (np.arange(total, dtype=np.int64)
           + np.repeat(indptr[sel] - starts, d))
    return pos, starts[nz], nz
