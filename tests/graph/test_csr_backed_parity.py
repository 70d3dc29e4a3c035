"""A CSR-backed graph answers every accessor like its list-backed twin.

``Graph.from_csr_arrays`` (disk-cache hits, shared-memory workers) keeps
the adjacency as a lazy facade over the CSR arrays; the in-adjacency is
a facade over the shared transposed CSR (``Graph.in_csr``) and degrees
are ``indptr`` differences.  None of that may be observable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import graph as graph_module
from repro.graph.graph import Graph

from tests.conftest import csr_twin


@st.composite
def graphs(draw):
    """Small directed graphs; self-loops, duplicates and n = 0 allowed."""
    n = draw(st.integers(0, 20))
    if n == 0:
        return Graph(0, [])
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n,
    ))
    return Graph(n, edges)


class TestAccessorParity:
    @given(graph=graphs())
    @settings(max_examples=60, deadline=None)
    def test_neighbors_and_degrees_agree(self, graph):
        twin = csr_twin(graph)
        for v in graph.vertices():
            assert list(twin.out_neighbors(v)) == graph.out_neighbors(v)
            assert list(twin.in_neighbors(v)) == graph.in_neighbors(v)
            assert (list(twin.neighbors_undirected(v))
                    == graph.neighbors_undirected(v))
            assert twin.out_degree(v) == graph.out_degree(v)
            assert twin.in_degree(v) == graph.in_degree(v)
            assert twin.degree_undirected(v) == graph.degree_undirected(v)
            assert type(twin.out_degree(v)) is int
            assert type(twin.in_degree(v)) is int

    @given(graph=graphs())
    @settings(max_examples=60, deadline=None)
    def test_aggregates_agree(self, graph):
        twin = csr_twin(graph)
        histogram = twin.degree_histogram()
        assert histogram == graph.degree_histogram()
        # Same key order too: it shows in reprs and JSON dumps.
        assert list(histogram) == list(graph.degree_histogram())
        assert all(type(k) is int and type(c) is int
                   for k, c in histogram.items())
        assert twin.max_out_degree() == graph.max_out_degree()
        assert type(twin.max_out_degree()) is int

    @given(graph=graphs())
    @settings(max_examples=60, deadline=None)
    def test_reversed_agrees(self, graph):
        twin = csr_twin(graph)
        assert twin.reversed() == graph.reversed()
        assert list(twin.reversed().edges()) == list(graph.reversed().edges())
        assert twin.reversed().num_edges == graph.num_edges
        assert twin.reversed().reversed() == graph

    @given(graph=graphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_has_edge_agrees(self, graph, data):
        n = graph.num_vertices
        if n == 0:
            return
        twin = csr_twin(graph)
        src = data.draw(st.integers(0, n - 1))
        for dst in range(n):
            assert twin.has_edge(src, dst) == graph.has_edge(src, dst)

    @given(graph=graphs())
    @settings(max_examples=60, deadline=None)
    def test_in_csr_rows_equal_in_neighbors(self, graph):
        for g in (graph, csr_twin(graph)):
            in_csr = g.in_csr()
            assert in_csr.num_vertices == g.num_vertices
            assert in_csr.num_edges == g.num_edges
            for v in g.vertices():
                assert (in_csr.out_neighbors(v).tolist()
                        == list(g.in_neighbors(v)))

    def test_in_csr_is_cached(self):
        graph = Graph(3, [(0, 1), (2, 1)])
        assert graph.in_csr() is graph.in_csr()
        assert graph.in_csr().out_neighbors(1).tolist() == [0, 2]


class TestDegreesNeverMaterializeRows:
    @pytest.fixture()
    def twin(self, monkeypatch):
        graph = csr_twin(Graph(5, [(0, 1), (0, 2), (3, 3), (4, 1), (2, 1)]))

        def refuse(self, v):
            raise AssertionError("a degree query materialized a row")

        monkeypatch.setattr(graph_module._CsrRows, "__getitem__", refuse)
        return graph

    def test_degrees_read_indptr_only(self, twin):
        assert [twin.out_degree(v) for v in twin.vertices()] == [2, 0, 1, 1, 1]
        assert [twin.in_degree(v) for v in twin.vertices()] == [0, 3, 1, 1, 0]
        assert twin.degree_histogram() == {2: 1, 0: 1, 1: 3}
        assert twin.max_out_degree() == 2
        assert twin.reversed().out_degree(1) == 3

    def test_degree_range_is_still_checked(self, twin):
        for bad in (-1, 5):
            with pytest.raises(GraphError):
                twin.out_degree(bad)
            with pytest.raises(GraphError):
                twin.in_degree(bad)

    def test_read_only_arrays_are_enough(self):
        indptr = np.array([0, 2, 2, 3], dtype=np.int64)
        indices = np.array([1, 2, 0], dtype=np.int64)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        graph = Graph.from_csr_arrays(3, indptr, indices)
        assert list(graph.in_neighbors(0)) == [2]
        assert graph.in_degree(2) == 1
        assert graph.reversed().out_neighbors(2) == [0]
