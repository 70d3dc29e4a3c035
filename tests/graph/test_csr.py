"""Unit tests for the CSR representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import csr as csr_module
from repro.graph.csr import CsrGraph
from repro.graph.graph import Graph
from repro.platforms import vecops


class TestCsrConstruction:
    def test_from_graph_roundtrip(self):
        g = Graph(4, [(0, 1), (0, 3), (2, 1)])
        csr = g.csr()
        assert Graph.from_csr_arrays(4, csr.indptr, csr.indices) == g

    def test_counts(self):
        g = Graph(3, [(0, 1), (1, 2)])
        csr = g.csr()
        assert csr.num_vertices == 3
        assert csr.num_edges == 2

    def test_empty_graph(self):
        csr = Graph(0, []).csr()
        assert csr.num_vertices == 0
        assert csr.num_edges == 0

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_must_end_at_edge_count(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([0, 2]), np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_indices_in_range(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([0, 1]), np.array([5]))

    def test_empty_indptr_rejected(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([]), np.array([]))


class TestCsrAccess:
    @pytest.fixture()
    def csr(self):
        return Graph(4, [(0, 1), (0, 2), (2, 3)]).csr()

    def test_out_neighbors(self, csr):
        assert list(csr.out_neighbors(0)) == [1, 2]
        assert list(csr.out_neighbors(1)) == []

    def test_out_degree(self, csr):
        assert csr.out_degree(0) == 2
        assert csr.out_degree(3) == 0

    def test_out_degrees_vector(self, csr):
        assert list(csr.out_degrees()) == [2, 0, 1, 0]

    def test_edges_iteration(self, csr):
        assert list(csr.edges()) == [(0, 1), (0, 2), (2, 3)]

    def test_vertex_range_checked(self, csr):
        with pytest.raises(GraphError):
            csr.out_neighbors(4)
        with pytest.raises(GraphError):
            csr.out_degree(-1)

    def test_nbytes_positive(self, csr):
        assert csr.nbytes() > 0


@st.composite
def raw_csrs(draw):
    """A CsrGraph straight from its arrays: rows may repeat a neighbour,
    hold self-loops and come in any order, which no builder produces."""
    n = draw(st.integers(1, 20))
    degrees = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    indices = draw(st.lists(st.integers(0, n - 1), min_size=sum(degrees),
                            max_size=sum(degrees)))
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    return CsrGraph(indptr, np.array(indices, dtype=np.int64))


def argsort_transpose(csr):
    """The in-adjacency as a stable argsort of the destinations."""
    order = np.argsort(csr.indices, kind="stable")
    counts = np.bincount(csr.indices, minlength=csr.num_vertices)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return indptr, csr.sources()[order]


class TestTransposed:
    @given(csr=raw_csrs())
    @settings(max_examples=80, deadline=None)
    def test_matches_stable_argsort(self, csr):
        indptr, indices = argsort_transpose(csr)
        flipped = csr.transposed()
        assert flipped.indptr.tolist() == indptr.tolist()
        assert flipped.indices.tolist() == indices.tolist()
        assert flipped.indices.dtype == np.int64

    def test_twice_gives_back_a_built_graph(self):
        g = Graph(6, [(0, 5), (0, 1), (3, 3), (4, 0), (5, 2), (2, 0)])
        csr = g.csr()
        again = csr.transposed().transposed()
        assert np.array_equal(again.indptr, csr.indptr)
        assert np.array_equal(again.indices, csr.indices)

    @pytest.mark.parametrize("n, edges, rows", [
        (0, [], []),
        (1, [], [[]]),
        (3, [(2, 0)], [[2], [], []]),
        (2, [(1, 1)], [[], [1]]),
    ])
    def test_graphs_too_small_to_sort(self, n, edges, rows):
        flipped = Graph(n, edges).csr().transposed()
        assert flipped.num_vertices == n
        assert [flipped.out_neighbors(v).tolist() for v in range(n)] == rows

    def test_kernels_share_the_graph_sort(self):
        assert vecops.stable_key_sort is csr_module.stable_key_sort
        assert vecops.stable_key_order is csr_module.stable_key_order
