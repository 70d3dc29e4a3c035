"""Vectorized execution backend for the GAS engine.

The scalar engine in :mod:`repro.platforms.gas.sync_engine` walks Python
dict-of-list edge structures one vertex at a time.  For the built-in
Graphalytics programs each minor-step is data-parallel, so this module
replays the iteration as numpy kernels over flat edge arrays — one
engine subclass per program — while reproducing the scalar path
*exactly*:

* identical per-rank per-iteration work counts (``gather_edges``,
  ``apply_vertices``, ``scatter_edges``, ``replica_syncs``, active and
  changed vertex counts), derived by counter arithmetic over the
  vertex-cut's part/master/replica arrays;
* bit-identical vertex values.  The scalar gather folds per-rank
  partials in edge-list order and merges them rank-ascending; min-folds
  are order-insensitive (BFS, SSSP, WCC) and label histograms are
  order-free (CDLP), but PageRank's float additions are not — those are
  reproduced with the exact two-level sequential folds from
  :mod:`repro.platforms.vecops`.

Because counts and values match exactly, the cost model sees identical
inputs and the simulated timelines, logs and archives are byte-identical
to a scalar run.  Custom programs (and SSSP with a non-default weight
function) have no kernel; the platform falls back to the scalar path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.errors import PlatformError
from repro.graph.algorithms.bfs import UNREACHED
from repro.graph.algorithms.sssp import INFINITY, default_weight
from repro.graph.edgelist import int_text_size
from repro.graph.graph import Graph
from repro.graph.partition.vertexcut import VertexCut
from repro.platforms.gas.algorithms import (
    BfsGas,
    CdlpGas,
    PageRankGas,
    SsspGas,
    WccGas,
)
from repro.platforms.gas.api import GasProgram
from repro.platforms.gas.sync_engine import IterationWork
from repro.platforms.vecops import (
    expand_positions,
    fold_add,
    group_sizes,
    group_starts,
    output_text_bytes,
    segmented_fold_add,
    stable_key_order,
    vertex_set,
)


class _RankMeta:
    """Stand-in for :class:`RankState` exposing what the platform logs."""

    __slots__ = ("rank", "edge_count")

    def __init__(self, rank: int, edge_count: int):
        self.rank = rank
        self.edge_count = edge_count


def _orient(
    src: np.ndarray,
    dst: np.ndarray,
    part: np.ndarray,
    direction: str,
    minor_step: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vertex, neighbor, part) rows of one minor-step's adjacency.

    ``"both"`` concatenates the blocks in the scalar engine's visiting
    order (gather: in then out; scatter: out then in); downstream stable
    orders keep that relative order within each vertex.
    """
    in_rows = (dst, src, part)
    out_rows = (src, dst, part)
    if direction == "in":
        return in_rows
    if direction == "out":
        return out_rows
    if direction == "both":
        first, second = (
            (in_rows, out_rows) if minor_step == "gather"
            else (out_rows, in_rows)
        )
        return tuple(
            np.concatenate((a, b)) for a, b in zip(first, second)
        )
    empty = np.empty(0, dtype=np.int64)
    return empty, empty, empty


class VectorizedSyncGasEngine:
    """Drop-in replacement for :class:`SyncGasEngine` on array kernels.

    Subclasses implement :meth:`_initial_values` and :meth:`_apply` for
    one specific program type; :func:`gas_kernel_class` picks the
    subclass (or ``None`` for unsupported programs).
    """

    def __init__(self, graph: Graph, cut: VertexCut, program: GasProgram):
        if cut.parts <= 0:
            raise PlatformError(f"vertex cut has no partitions: {cut.parts}")
        self.graph = graph
        self.cut = cut
        self.program = program
        self.num_ranks = R = cut.parts
        self.n = n = graph.num_vertices
        e_src, e_dst, e_part = cut.src, cut.dst, cut.part
        self.e_src = e_src
        self.e_dst = e_dst
        self.e_part = e_part

        counts = np.bincount(e_part, minlength=R)
        self.ranks = [_RankMeta(r, int(c)) for r, c in enumerate(counts)]

        # Master rank and replica count per vertex, matching
        # SyncGasEngine.master_of / replica_count (isolated vertices
        # hash to ``v % R`` with a single replica).
        masters = (np.arange(n, dtype=np.int64) % R)
        rep_minus1 = np.zeros(n, dtype=np.int64)
        # Sorted (vertex*R + part) incidences: each vertex is one run,
        # whose first part is its minimum, i.e. the master.
        pair_v = cut.pairs // np.int64(R)
        first = group_starts(pair_v)
        uniq = pair_v[first]
        masters[uniq] = cut.pairs[first] % np.int64(R)
        rep_minus1[uniq] = group_sizes(first, len(pair_v)) - 1
        self.masters = masters
        self.rep_minus1 = rep_minus1

        # Gather arrangement: rows in stable (vertex, part) order, so
        # ties keep the scalar per-rank neighbor-list order (edge-list
        # order within each vertex).
        g_v, g_u, g_p = _orient(
            e_src, e_dst, e_part, program.gather_direction, "gather"
        )
        g_key = g_v * R + g_p
        order = stable_key_order(g_key, n * R)
        g_key = g_key[order]
        self.g_v = g_v = g_v[order]
        self.g_u = g_u[order]
        self.g_p = g_p[order]
        g_deg = np.bincount(g_v, minlength=n)
        self.g_deg = g_deg
        self.g_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(g_deg, out=self.g_indptr[1:])
        # Cross-rank gather merges: one replica sync per additional rank
        # holding gather neighbors of a vertex.
        self.g_pair_starts = pair_starts = group_starts(g_key)
        pairs_per_v = np.bincount(g_v[pair_starts], minlength=n)
        self.gather_sync_w = np.maximum(pairs_per_v - 1, 0)

        # Scatter arrangement, grouped by vertex.
        s_v, s_u, s_p = _orient(
            e_src, e_dst, e_part, program.scatter_direction, "scatter"
        )
        order = stable_key_order(s_v, n)
        self.s_u = s_u[order]
        self.s_p = s_p[order]
        s_deg = np.bincount(s_v[order], minlength=n)
        self.s_deg = s_deg
        self.s_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(s_deg, out=self.s_indptr[1:])

        self.values = self._initial_values()
        init = np.fromiter(program.initial_active(graph), dtype=np.int64)
        self.active = vertex_set(init, n)
        self._all = np.arange(n, dtype=np.int64)
        self.iteration = 0
        self.finished = False
        self._output: Optional[Dict[int, Any]] = None
        self._post_init()

    # -- program-specific hooks -------------------------------------------

    def _post_init(self) -> None:
        """Extra static precomputation (subclass hook)."""

    def _initial_values(self) -> np.ndarray:
        raise NotImplementedError

    def _apply(
        self,
        act: np.ndarray,
        old: np.ndarray,
        pos: np.ndarray,
        seg_starts: np.ndarray,
        nz: np.ndarray,
    ) -> np.ndarray:
        """New values for ``act`` from the gathered adjacency slots."""
        raise NotImplementedError

    def _converged(self, old: np.ndarray, new: np.ndarray) -> bool:
        """Post-iteration convergence check (subclass hook)."""
        return False

    # -- engine surface ----------------------------------------------------

    def master_of(self, v: int) -> int:
        """Master rank of a vertex (isolated vertices hash to a rank)."""
        return int(self.masters[v])

    def replica_count(self, v: int) -> int:
        """Number of ranks holding a replica of ``v`` (min 1)."""
        return int(self.rep_minus1[v]) + 1

    def step(self) -> IterationWork:
        """Execute one synchronous GAS iteration and return its work."""
        if self.finished:
            raise PlatformError("engine already finished")
        program = self.program
        R = self.num_ranks
        act = self.active

        # Gather minor-step.
        pos, seg_starts, nz = expand_positions(self.g_indptr, self.g_deg, act)
        gather_edges = np.bincount(self.g_p[pos], minlength=R)
        replica_syncs = np.bincount(
            self.masters[act], weights=self.gather_sync_w[act], minlength=R
        ).astype(np.int64)

        # Apply minor-step on each vertex's master rank.  All supported
        # programs use the default ``scatter_activates`` (value change),
        # so the changed set is an elementwise comparison.
        apply_vertices = np.bincount(self.masters[act], minlength=R)
        old = self.values[act]
        new = self._apply(act, old, pos, seg_starts, nz)
        changed_mask = new != old
        if self.iteration == 0 and not program.needs_all_active:
            changed_mask = np.ones(len(act), dtype=bool)
        self.values[act] = new
        changed = act[changed_mask]
        replica_syncs += np.bincount(
            self.masters[changed], weights=self.rep_minus1[changed],
            minlength=R,
        ).astype(np.int64)

        # Scatter minor-step: changed vertices signal their neighbors.
        pos2, _, _ = expand_positions(self.s_indptr, self.s_deg, changed)
        scatter_edges = np.bincount(self.s_p[pos2], minlength=R)
        next_active = vertex_set(self.s_u[pos2], self.n)

        work = IterationWork(
            gather_edges=gather_edges.tolist(),
            apply_vertices=apply_vertices.tolist(),
            scatter_edges=scatter_edges.tolist(),
            replica_syncs=replica_syncs.tolist(),
            active=int(len(act)),
            changed=int(len(changed)),
        )
        self.iteration += 1
        self.active = self._all if program.needs_all_active else next_active
        limit_hit = (
            program.max_iterations is not None
            and self.iteration >= program.max_iterations
        )
        converged = self._converged(old, new)
        if (
            limit_hit
            or converged
            or not (
                len(self.active)
                and (len(changed) or program.needs_all_active)
            )
        ):
            self.finished = True
        self._output = None
        return work

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the engine's mutable state for crash recovery."""
        return {
            "values": self.values.copy(),
            "active": self.active.copy(),
            "iteration": self.iteration,
            "finished": self.finished,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Roll the engine back to a :meth:`checkpoint` snapshot."""
        try:
            self.values = snapshot["values"].copy()
            self.active = snapshot["active"].copy()
            self.iteration = snapshot["iteration"]
            self.finished = snapshot["finished"]
        except (AttributeError, KeyError, TypeError) as exc:
            raise PlatformError(f"bad engine checkpoint: {exc}") from None
        self._output = None

    def run(self) -> List[IterationWork]:
        """Step until quiescence; returns per-iteration work records."""
        history: List[IterationWork] = []
        while not self.finished:
            history.append(self.step())
        return history

    def _output_values(self) -> np.ndarray:
        """Per-vertex ``program.output_value`` (subclass hook)."""
        return self.values

    def output(self) -> Dict[int, Any]:
        """Final per-vertex output (native Python values, cached)."""
        if self._output is None:
            self._output = dict(enumerate(self._output_values().tolist()))
        return self._output

    def output_text_bytes(self) -> int:
        """Size of the ``"<vertex> <value>"`` lines the job writes."""
        values = self._output_values()
        if values.dtype.kind != "i":
            return output_text_bytes(self.output())
        return int_text_size(self._all) + int_text_size(values) + 2 * self.n


class _MinFoldEngine(VectorizedSyncGasEngine):
    """Shared apply for the min-merge programs (BFS, SSSP, WCC)."""

    def _contributions(self, pos: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply(self, act, old, pos, seg_starts, nz):
        new = old.copy()
        if len(seg_starts):
            totals = np.minimum.reduceat(self._contributions(pos), seg_starts)
            new[nz] = np.minimum(old[nz], totals)
        return new


class _BfsEngine(_MinFoldEngine):
    def _initial_values(self) -> np.ndarray:
        values = np.full(self.n, INFINITY, dtype=np.float64)
        values[self.program.source] = 0.0
        return values

    def _contributions(self, pos):
        return self.values[self.g_u[pos]] + 1.0

    def _output_values(self):
        # BfsGas.output_value: UNREACHED for inf, else int(level).
        out = np.full(self.n, UNREACHED, dtype=np.int64)
        reached = ~np.isinf(self.values)
        out[reached] = self.values[reached].astype(np.int64)
        return out


class _SsspEngine(_MinFoldEngine):
    def _post_init(self) -> None:
        # default_weight on int64 arrays: products stay < 2**63 for any
        # realistic vertex id, and the final /65536.0 is exact.
        h = ((self.g_u * 2654435761) ^ (self.g_v * 40503)) & 0xFFFF
        self._weights = 1.0 + h.astype(np.float64) / 65536.0

    def _initial_values(self) -> np.ndarray:
        values = np.full(self.n, INFINITY, dtype=np.float64)
        values[self.program.source] = 0.0
        return values

    def _contributions(self, pos):
        return self.values[self.g_u[pos]] + self._weights[pos]


class _WccEngine(_MinFoldEngine):
    def _initial_values(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def _contributions(self, pos):
        return self.values[self.g_u[pos]]


class _PageRankEngine(VectorizedSyncGasEngine):
    """PageRank with the scalar path's exact float fold orders.

    The scalar gather folds contributions per (vertex, rank) in
    edge-list order, then merges rank partials rank-ascending; the
    dangling mass and the convergence delta fold vertex-ascending.  All
    four folds are reproduced with sequential segmented folds.
    """

    def _post_init(self) -> None:
        program = self.program
        self._lvl1_starts = self.g_pair_starts
        lvl1_v = self.g_v[self._lvl1_starts]
        self._lvl2_starts = group_starts(lvl1_v)
        self._recv = lvl1_v[self._lvl2_starts]
        out_deg = np.asarray(self.graph.csr().out_degrees())
        self._gdeg_u = out_deg[self.g_u].astype(np.float64)
        self._deg0 = np.flatnonzero(out_deg == 0)
        self._damping = program.damping
        self._tolerance = program.tolerance
        self._t1 = (1.0 - program.damping) / self.n

    def _initial_values(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n, dtype=np.float64)

    def _apply(self, act, old, pos, seg_starts, nz):
        n = self.n
        dangling = fold_add(self.values[self._deg0])
        incoming = np.zeros(n, dtype=np.float64)
        if len(self._lvl1_starts):
            contrib = self.values[self.g_u] / self._gdeg_u
            lvl1 = segmented_fold_add(contrib, self._lvl1_starts)
            incoming[self._recv] = segmented_fold_add(
                lvl1, self._lvl2_starts
            )
        return self._t1 + self._damping * (incoming + dangling / n)

    def _converged(self, old, new):
        if self._tolerance <= 0:
            return False
        delta = fold_add(np.abs(new - old))
        return delta < self._tolerance


class _CdlpEngine(VectorizedSyncGasEngine):
    """CDLP: the in-neighbor label mode, computed from sorted label runs."""

    def _initial_values(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def _apply(self, act, old, pos, seg_starts, nz):
        # ``act`` is always every vertex (needs_all_active), so ``new``
        # is indexed directly by vertex id.
        new = old.copy()
        m = len(self.e_src)
        if m == 0:
            return new
        labels = self.values[self.e_src]
        key = self.e_dst * np.int64(self.n) + labels
        order = stable_key_order(key, self.n * self.n)
        by_dst = self.e_dst[order]
        by_lab = labels[order]
        run_starts = group_starts(key[order])
        run_dst = by_dst[run_starts]
        run_lab = by_lab[run_starts]
        run_cnt = group_sizes(run_starts, m)
        dst_starts = group_starts(run_dst)
        best = np.maximum.reduceat(run_cnt, dst_starts)
        reps = group_sizes(dst_starts, len(run_dst))
        is_best = run_cnt == np.repeat(best, reps)
        # Labels are vertex ids < n, so n is a safe "not best" sentinel.
        winner = np.minimum.reduceat(
            np.where(is_best, run_lab, self.n), dst_starts
        )
        new[run_dst[dst_starts]] = winner
        return new


def gas_kernel_class(
    program: GasProgram,
) -> Optional[Type[VectorizedSyncGasEngine]]:
    """Vectorized engine class for ``program``, or ``None``.

    Dispatch is on the exact program type so subclasses with overridden
    behaviour never silently take the fast path; SSSP additionally
    requires the default weight function.
    """
    kind = type(program)
    if kind is BfsGas:
        return _BfsEngine
    if kind is SsspGas:
        return _SsspEngine if program.weight is default_weight else None
    if kind is WccGas:
        return _WccEngine
    if kind is PageRankGas:
        return _PageRankEngine
    if kind is CdlpGas:
        return _CdlpEngine
    return None
