"""Unit tests for the CSR representation."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CsrGraph
from repro.graph.graph import Graph


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
