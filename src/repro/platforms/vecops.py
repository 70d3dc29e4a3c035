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
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Segment length up to which :func:`segmented_fold_add` folds segments
#: in lockstep (one element per round); longer segments (hubs) fold
#: individually.
FOLD_CHUNK = 32


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
            order = np.argsort(-lens[short], kind="stable")
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


def group_starts(keys: np.ndarray) -> np.ndarray:
    """Start offsets of each run of equal values in a sorted array."""
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1)
    )


def group_sizes(starts: np.ndarray, total: int) -> np.ndarray:
    """Length of each group given its start offsets."""
    return np.diff(np.append(starts, total))


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
