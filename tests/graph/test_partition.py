"""Unit tests for partitioning strategies and quality metrics."""

import hashlib
import shutil

import numpy as np
import pytest

from repro.cache import CACHE_DIR_ENV, content_key, default_cache
from repro.errors import PartitionError
from repro.graph.generators import powerlaw_graph, uniform_random_graph
from repro.graph.graph import Graph
from repro.graph.partition import (
    edge_balance,
    edge_cut_fraction,
    greedy_vertex_cut,
    hash_partition,
    random_vertex_cut,
    range_partition,
    replication_factor,
    vertex_balance,
)
from repro.graph.partition.metrics import partition_sizes
from repro.graph.partition.vertexcut import cut_from_arrays, cut_to_arrays
from repro.platforms.gas import engine as gas_engine
from repro.platforms.gas.engine import PowerGraphPlatform
from repro.workloads.datasets import build_dataset

from tests.conftest import make_powergraph_cluster

#: SHA-256 of each ``cut_to_arrays`` column (little-endian int64 bytes)
#: of dg-tiny cut 8 ways, computed at commit 8146030, when a cut still
#: kept eager Python tables beside its columns.
_CUT_GOLDEN = {
    "greedy": {
        "src": "dbc57b4f0aa257f36da7a3cbf60c882274e94b79ebe99983c7b9dee048b5b2ef",
        "dst": "2b96eb69187295b982044633a859efe60a5a15b914d12abe2f405d823f6d960f",
        "part": "a07c5b865a476507eb77fbae0ae16d9f4bf2bef004416bdadd84f6307179a037",
        "pairs": "82f2f42f47789f72ac4eeb6b8c4b32fdf9f3981ae8f726b04a59fe206fe6141f",
    },
    "random": {
        "src": "dbc57b4f0aa257f36da7a3cbf60c882274e94b79ebe99983c7b9dee048b5b2ef",
        "dst": "2b96eb69187295b982044633a859efe60a5a15b914d12abe2f405d823f6d960f",
        "part": "9893ca4112d583a718227590e5c0859e5a0528644ea9e154ccde81ef1d276a46",
        "pairs": "1495be32d3b0355191566a0ab09086039e5268b803395a4509b294539f118494",
    },
}

_PARTITIONERS = {"greedy": greedy_vertex_cut, "random": random_vertex_cut}


class TestHashPartition:
    def test_covers_all_vertices(self):
        assignment = hash_partition(100, 4)
        assert len(assignment) == 100
        assert set(assignment) == {0, 1, 2, 3}

    def test_roughly_balanced(self):
        assignment = hash_partition(8000, 8)
        assert vertex_balance(assignment, 8) < 1.1

    def test_deterministic(self):
        assert hash_partition(50, 3) == hash_partition(50, 3)

    def test_rejects_bad_params(self):
        with pytest.raises(PartitionError):
            hash_partition(10, 0)
        with pytest.raises(PartitionError):
            hash_partition(-1, 2)


class TestRangePartition:
    def test_contiguous_ranges(self):
        assignment = range_partition(10, 3)
        assert assignment == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_perfect_vertex_balance(self):
        assert vertex_balance(range_partition(1000, 8), 8) < 1.01

    def test_rejects_bad_params(self):
        with pytest.raises(PartitionError):
            range_partition(10, -1)


class TestVertexCut:
    @pytest.fixture(scope="class")
    def pl_graph(self):
        return powerlaw_graph(1500, 9000, seed=3)

    def test_greedy_assigns_every_edge(self, pl_graph):
        cut = greedy_vertex_cut(pl_graph, 8)
        assert len(cut.edge_assignment) == pl_graph.num_edges
        assert sum(cut.edge_counts()) == pl_graph.num_edges

    def test_greedy_respects_capacity(self, pl_graph):
        cut = greedy_vertex_cut(pl_graph, 8, balance_slack=0.1)
        ideal = pl_graph.num_edges / 8
        assert max(cut.edge_counts()) <= 1.1 * ideal + 1

    def test_greedy_beats_random_replication(self, pl_graph):
        greedy = greedy_vertex_cut(pl_graph, 8)
        rand = random_vertex_cut(pl_graph, 8)
        assert replication_factor(greedy) < replication_factor(rand)

    def test_replicas_consistent_with_edges(self, pl_graph):
        cut = greedy_vertex_cut(pl_graph, 4)
        for (src, dst), part in zip(cut.edges, cut.edge_assignment):
            assert part in cut.replicas[src]
            assert part in cut.replicas[dst]

    def test_masters_are_replicas(self, pl_graph):
        cut = greedy_vertex_cut(pl_graph, 4)
        for v, master in cut.masters.items():
            assert master in cut.replicas[v]

    def test_edges_of_part(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        cut = greedy_vertex_cut(g, 2)
        collected = sorted(
            e for p in range(2) for e in cut.edges_of_part(p)
        )
        assert collected == list(g.edges())

    def test_edges_of_part_range_checked(self):
        cut = greedy_vertex_cut(Graph(2, [(0, 1)]), 2)
        with pytest.raises(PartitionError):
            cut.edges_of_part(5)

    def test_single_partition_rf_one(self, pl_graph):
        cut = greedy_vertex_cut(pl_graph, 1)
        assert replication_factor(cut) == 1.0

    def test_deterministic(self, pl_graph):
        a = greedy_vertex_cut(pl_graph, 4)
        b = greedy_vertex_cut(pl_graph, 4)
        assert a.edge_assignment == b.edge_assignment

    def test_rejects_bad_params(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(PartitionError):
            greedy_vertex_cut(g, 0)
        with pytest.raises(PartitionError):
            greedy_vertex_cut(g, 2, balance_slack=-0.5)
        with pytest.raises(PartitionError):
            random_vertex_cut(g, 0)

    def test_empty_graph_rf_zero(self):
        cut = greedy_vertex_cut(Graph(3, []), 2)
        assert cut.replication_factor() == 0.0


@pytest.fixture(scope="module")
def dg_tiny():
    return build_dataset("dg-tiny")


def _digest(column: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(column, dtype="<i8").tobytes()).hexdigest()


def _assert_tables_are_the_columns(cut):
    """Every Python table of ``cut`` equals one computed here from its
    edge columns with plain loops."""
    src, dst, part = (cut.src.tolist(), cut.dst.tolist(), cut.part.tolist())
    replicas = {}
    for u, v, p in zip(src, dst, part):
        replicas.setdefault(u, set()).add(p)
        replicas.setdefault(v, set()).add(p)
    assert cut.edges == list(zip(src, dst))
    assert cut.edge_assignment == part
    assert cut.replicas == replicas
    assert cut.masters == {v: min(ps) for v, ps in replicas.items()}
    assert cut.pairs.tolist() == sorted(
        v * cut.parts + p for v, ps in replicas.items() for p in ps)
    assert cut.edge_counts() == [part.count(p) for p in range(cut.parts)]
    assert cut.replication_factor() == pytest.approx(
        sum(map(len, replicas.values())) / len(replicas) if replicas else 0.0)
    for p in range(cut.parts):
        assert cut.edges_of_part(p) == [
            (u, v) for u, v, q in zip(src, dst, part) if q == p]


class TestCutColumns:
    @pytest.mark.parametrize("ingress", sorted(_PARTITIONERS))
    def test_columns_match_parent_commit(self, dg_tiny, ingress):
        arrays = cut_to_arrays(_PARTITIONERS[ingress](dg_tiny, 8))
        assert {name: _digest(column) for name, column in arrays.items()} \
            == _CUT_GOLDEN[ingress]
        assert all(column.dtype == np.int64 for column in arrays.values())

    @pytest.mark.parametrize("ingress", sorted(_PARTITIONERS))
    def test_tables_are_the_columns(self, dg_tiny, ingress):
        cut = _PARTITIONERS[ingress](dg_tiny, 8)
        _assert_tables_are_the_columns(cut)
        rebuilt = cut_from_arrays(8, **cut_to_arrays(cut))
        _assert_tables_are_the_columns(rebuilt)
        assert rebuilt.edges == cut.edges
        assert rebuilt.replicas == cut.replicas

    @pytest.mark.parametrize("ingress", sorted(_PARTITIONERS))
    def test_empty_graph_cut(self, ingress):
        cut = _PARTITIONERS[ingress](Graph(3, []), 2)
        _assert_tables_are_the_columns(cut)
        _assert_tables_are_the_columns(
            cut_from_arrays(2, **cut_to_arrays(cut)))

    def test_cut_from_arrays_checks_shapes(self):
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(PartitionError):
            cut_from_arrays(0, one, one, one, one)
        with pytest.raises(PartitionError):
            cut_from_arrays(2, one, np.zeros(2, dtype=np.int64), one, one)


class TestCutCacheEntry:
    """PowerGraph's artifact-cache entry of a cut holds only what the
    partitioner decided (``part`` and ``pairs``); the edges come from
    the graph."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        return default_cache()

    @pytest.fixture
    def partitioner_calls(self, monkeypatch):
        calls = []

        def counted(graph, parts):
            calls.append(parts)
            return greedy_vertex_cut(graph, parts)

        monkeypatch.setattr(gas_engine, "greedy_vertex_cut", counted)
        return calls

    @staticmethod
    def _load(graph, parts):
        # A fresh platform holds no cut in memory: only the disk cache.
        platform = PowerGraphPlatform(make_powergraph_cluster())
        return platform._load_or_build_cut(graph, parts)

    @staticmethod
    def _entries(cache):
        return [entry for entry in cache.ls() if entry.kind == "vertex-cut"]

    @staticmethod
    def _assert_is_the_fresh_cut(cut, graph, parts):
        _assert_tables_are_the_columns(cut)
        fresh = greedy_vertex_cut(graph, parts)
        for name, column in cut_to_arrays(fresh).items():
            assert getattr(cut, name).dtype == np.int64, name
            assert np.array_equal(getattr(cut, name), column), name

    @pytest.mark.parametrize("parts,dtype", [(8, np.uint8),
                                             (257, np.uint16)])
    def test_entry_rebuilds_the_fresh_cut(self, cache, dg_tiny,
                                          partitioner_calls, parts, dtype):
        self._load(dg_tiny, parts)
        [entry] = self._entries(cache)
        assert entry.arrays == ["pairs", "part"]
        assert cache.get(entry.key)["part"].dtype == dtype
        cut = self._load(dg_tiny, parts)
        assert partitioner_calls == [parts]  # the second load hit
        self._assert_is_the_fresh_cut(cut, dg_tiny, parts)

    def test_wrong_length_entry_is_recomputed(self, cache, dg_tiny,
                                              partitioner_calls):
        self._load(dg_tiny, 8)
        [entry] = self._entries(cache)
        arrays = {name: np.array(column)
                  for name, column in cache.get(entry.key).items()}
        shutil.rmtree(entry.path)
        cache.put(entry.key, {"part": arrays["part"][:-1],
                              "pairs": arrays["pairs"]}, kind="vertex-cut")
        cut = self._load(dg_tiny, 8)
        assert partitioner_calls == [8, 8]
        self._assert_is_the_fresh_cut(cut, dg_tiny, 8)

    def test_impl_1_entry_is_not_read(self, cache, dg_tiny,
                                      partitioner_calls):
        # The layout before: full src/dst/part/pairs columns, impl 1.
        old_key = content_key("vertex-cut", {
            "graph": dg_tiny.content_key, "parts": 8, "ingress": "greedy",
            "impl": 1})
        cache.put(old_key, cut_to_arrays(greedy_vertex_cut(dg_tiny, 8)),
                  kind="vertex-cut")
        cut = self._load(dg_tiny, 8)
        assert partitioner_calls == [8]
        assert sorted(e.arrays for e in self._entries(cache)) == [
            ["dst", "pairs", "part", "src"], ["pairs", "part"]]
        self._assert_is_the_fresh_cut(cut, dg_tiny, 8)


class TestMetrics:
    def test_vertex_balance_perfect(self):
        assert vertex_balance([0, 1, 0, 1]) == 1.0

    def test_vertex_balance_skewed(self):
        assert vertex_balance([0, 0, 0, 1]) == pytest.approx(1.5)

    def test_vertex_balance_with_empty_part(self):
        assert vertex_balance([0, 0], parts=2) == pytest.approx(2.0)

    def test_vertex_balance_rejects_out_of_range(self):
        with pytest.raises(PartitionError):
            vertex_balance([0, 3], parts=2)

    def test_edge_balance_counts_work(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        skewed = edge_balance(g, [0, 1, 1, 1], parts=2)
        assert skewed == pytest.approx(2.0)  # all 3 edges in part 0

    def test_edge_balance_assignment_length_checked(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(PartitionError):
            edge_balance(g, [0, 1])

    def test_edge_cut_fraction_bounds(self):
        g = uniform_random_graph(200, 1000, seed=6)
        frac = edge_cut_fraction(g, hash_partition(200, 4))
        assert 0.5 < frac <= 1.0  # hash cut is ~ (k-1)/k

    def test_edge_cut_zero_single_part(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert edge_cut_fraction(g, [0, 0, 0]) == 0.0

    def test_edge_cut_empty_graph(self):
        assert edge_cut_fraction(Graph(2, []), [0, 1]) == 0.0

    def test_partition_sizes(self):
        assert partition_sizes([0, 1, 1, 2]) == [1, 2, 1]

    def test_metrics_reject_empty_assignment(self):
        with pytest.raises(PartitionError):
            vertex_balance([])

    def test_range_partition_skew_on_powerlaw(self):
        """The ablation insight: range partitioning is skewed by degree."""
        g = powerlaw_graph(2000, 12000, alpha=0.8, seed=5)
        range_skew = edge_balance(g, range_partition(2000, 8), parts=8)
        hash_skew = edge_balance(g, hash_partition(2000, 8), parts=8)
        assert range_skew > hash_skew
