"""Shared numpy primitives for the vectorized execution backends.

Both simulated engines (the Pregel engine and the GAS engine) replay
their scalar reference paths with numpy kernels.  The kernels must be
*bit-identical* to the scalar code, which constrains how reductions may
be vectorized:

* IEEE float addition is not associative, and the scalar engines reduce
  with sequential left folds in fixed orders.  ``np.sum`` and
  ``np.add.reduceat`` reduce pairwise and therefore do NOT reproduce
  those folds; :func:`fold_add` and :func:`segmented_fold_add` do.
* min-folds are order-insensitive, so ``np.minimum.reduceat`` is safe.
* Work counters are derived with ``np.bincount`` over owner/destination
  arrays; counts are exact integers regardless of evaluation order.
* The folds run under ``np.errstate(invalid="ignore", over="ignore")``:
  ``inf + -inf`` is nan and ``1e308 + 1e308`` is inf in the scalar fold
  too, which Python computes silently where numpy would warn.
* Orders that decide fold sequences are *stable* orders: rows with
  equal keys keep their input order.  :func:`stable_key_order` computes
  exactly that permutation by sorting (key, row) packed into one int64.
* Output text sizes of integer values are counted off the arrays
  (:func:`repro.graph.edgelist.int_text_size`); :func:`output_text_bytes`
  is the per-element Python oracle, kept for float values.
"""

from __future__ import annotations

from typing import Any, Mapping, Tuple

import numpy as np

# The run primitives live with the sorted graph arrays; the kernels
# import them from here.
from repro.graph.csr import group_sizes, group_starts  # noqa: F401

#: Segment length up to which :func:`segmented_fold_add` folds segments
#: in lockstep (one element per round); longer segments (hubs) fold
#: individually.
FOLD_CHUNK = 32


def stable_key_order(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for integer keys in ``[0, bound)``.

    Each key is packed above its row index into one int64,
    ``key << b | row``, and the packed values are sorted.  They are
    distinct, so every sort algorithm returns them in the same order: by
    key, and rows with equal keys by row, i.e. in input order.  That is
    the one stable permutation, and the low ``b`` bits read it back.  It
    is also ``np.lexsort((p, v))`` for a composite key ``v * R + p`` with
    ``0 <= p < R``.  numpy sorts int64 with a vectorised quicksort,
    several times faster than its stable sort of the same keys; keys too
    wide to share 63 bits with the row index take the stable sort.
    """
    key = np.asarray(key, dtype=np.int64)
    n = len(key)
    if n < 2 or bound <= 1:
        return np.arange(n, dtype=np.int64)
    row_bits = (n - 1).bit_length()
    if (int(bound) - 1).bit_length() + row_bits > 63:
        return np.argsort(key, kind="stable")
    packed = key << row_bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << row_bits) - 1
    return packed


def vertex_set(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.unique(ids)`` for vertex ids in ``[0, n)``: a vertex mask
    read back with ``flatnonzero``, sorted and distinct by construction."""
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return np.flatnonzero(mask)


def output_text_bytes(output: Mapping[int, Any]) -> int:
    """Size of the ``"<vertex> <value>\\n"`` text of an output mapping.

    The per-element reference: it works for any value type, and the
    integer counts off the arrays (:func:`int_text_size`) must agree
    with it.
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


def segmented_fold_add(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sequential left fold of each segment ``values[starts[i]:starts[i+1]]``.

    Short segments advance in lockstep, one element per round, over a
    length-descending ordering so round ``k`` touches only a prefix;
    long segments (hubs) fold individually via ``cumsum``.  Both paths
    perform the exact left-to-right addition sequence of the scalar code.
    """
    nseg = len(starts)
    out = np.empty(nseg, dtype=np.float64)
    if nseg == 0:
        return out
    ends = np.empty(nseg, dtype=np.int64)
    ends[:-1] = starts[1:]
    ends[-1] = len(values)
    lens = ends - starts
    long_idx = np.flatnonzero(lens > FOLD_CHUNK)
    short = np.flatnonzero(lens <= FOLD_CHUNK)
    with np.errstate(invalid="ignore", over="ignore"):
        for i in long_idx:
            out[i] = np.cumsum(values[starts[i]:ends[i]])[-1] + 0.0
        if len(short):
            # Longest first; ties keep segment order.
            order = stable_key_order(FOLD_CHUNK - lens[short], FOLD_CHUNK + 1)
            s_starts = starts[short][order]
            neg_lens = -lens[short][order]
            acc = np.zeros(len(short), dtype=np.float64)
            maxlen = int(-neg_lens[0])
            for k in range(maxlen):
                cnt = int(np.searchsorted(neg_lens, -k, side="left"))
                acc[:cnt] += values[s_starts[:cnt] + k]
            out[short[order]] = acc
    return out


def csr_rows_fold_add(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sequential left fold of each CSR row ``values[indptr[i]:indptr[i+1]]``.

    Empty rows fold to ``+0.0`` (the scalar accumulators' start value).
    Only the non-empty rows reach :func:`segmented_fold_add`: the start
    of the next non-empty row is the end of this one, so their starts
    alone delimit the segments.
    """
    out = np.zeros(len(indptr) - 1, dtype=np.float64)
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    out[rows] = segmented_fold_add(values, indptr[rows])
    return out


def expand_edges(
    indptr: np.ndarray,
    indices: np.ndarray,
    srcs: np.ndarray,
    deg: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (src, dst) edge endpoints out of the ``srcs`` frontier."""
    d = deg[srcs]
    total = int(d.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rep_src = np.repeat(srcs, d)
    cum = np.cumsum(d)
    offs = np.arange(total, dtype=np.int64) - np.repeat(cum - d, d)
    dsts = indices[np.repeat(indptr[srcs], d) + offs]
    return rep_src, dsts


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
    cum = np.cumsum(d)
    seg_starts = (cum - d)[nz]
    offs = np.arange(total, dtype=np.int64) - np.repeat(cum - d, d)
    pos = np.repeat(indptr[sel], d) + offs
    return pos, seg_starts, nz
