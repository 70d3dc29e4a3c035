"""Every :class:`Graph` accessor against a plain-Python reference.

A graph is its CSR arrays; the accessors build Python values from them
per call.  The reference here is built from the drawn edge tuples with
sets, sorts and dicts only: sorted distinct out/in rows, undirected rows
without self-loops, the out-degree histogram in first-seen vertex order,
``has_edge`` by set membership, the reversed graph and the ``edges()``
order.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import graph as graph_module
from repro.graph.graph import Graph


@st.composite
def edge_sets(draw):
    """(n, edges): self-loops, duplicates and n = 0 allowed."""
    n = draw(st.integers(0, 20))
    if n == 0:
        return 0, []
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n,
    ))
    return n, edges


class Reference:
    """The graph's accessors computed from edge tuples in plain Python."""

    def __init__(self, n: int, edges: List[Tuple[int, int]]):
        distinct = set(edges)
        self.n = n
        self.distinct = distinct
        self.edges = sorted(distinct)
        self.out = [sorted(d for s, d in distinct if s == v)
                    for v in range(n)]
        self.inn = [sorted(s for s, d in distinct if d == v)
                    for v in range(n)]
        self.undirected = [
            sorted({d for s, d in distinct if s == v and d != v}
                   | {s for s, d in distinct if d == v and s != v})
            for v in range(n)
        ]
        self.histogram: Dict[int, int] = {}
        for row in self.out:
            self.histogram[len(row)] = self.histogram.get(len(row), 0) + 1


def _ints(values) -> bool:
    return all(type(x) is int for x in values)


class TestAccessorsMatchReference:
    @given(drawn=edge_sets())
    @settings(max_examples=80, deadline=None)
    def test_rows_and_degrees(self, drawn):
        graph, ref = Graph(*drawn), Reference(*drawn)
        for v in graph.vertices():
            rows = (graph.out_neighbors(v), graph.in_neighbors(v),
                    graph.neighbors_undirected(v))
            assert rows == (ref.out[v], ref.inn[v], ref.undirected[v])
            assert all(type(row) is list and _ints(row) for row in rows)
            degrees = (graph.out_degree(v), graph.in_degree(v),
                       graph.degree_undirected(v))
            assert degrees == tuple(map(len, rows))
            assert _ints(degrees)

    @given(drawn=edge_sets())
    @settings(max_examples=80, deadline=None)
    def test_edges_in_order(self, drawn):
        graph, ref = Graph(*drawn), Reference(*drawn)
        edges = list(graph.edges())
        assert edges == ref.edges
        assert all(type(e) is tuple and _ints(e) for e in edges)
        assert graph.num_edges == len(ref.distinct)
        assert graph.num_vertices == ref.n

    @given(drawn=edge_sets())
    @settings(max_examples=80, deadline=None)
    def test_histogram_in_first_seen_order(self, drawn):
        graph, ref = Graph(*drawn), Reference(*drawn)
        histogram = graph.degree_histogram()
        # Same key order too: it shows in reprs and JSON dumps.
        assert list(histogram.items()) == list(ref.histogram.items())
        assert _ints(histogram) and _ints(histogram.values())
        assert graph.max_out_degree() == max(ref.histogram, default=0)
        assert type(graph.max_out_degree()) is int

    @given(drawn=edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_has_edge_is_membership(self, drawn):
        graph, ref = Graph(*drawn), Reference(*drawn)
        for src in graph.vertices():
            for dst in graph.vertices():
                found = graph.has_edge(src, dst)
                assert type(found) is bool
                assert found == ((src, dst) in ref.distinct)

    @given(drawn=edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_reversed(self, drawn):
        graph, ref = Graph(*drawn), Reference(*drawn)
        flipped = graph.reversed()
        assert list(flipped.edges()) == sorted((d, s) for s, d in ref.edges)
        assert [flipped.out_neighbors(v) for v in graph.vertices()] \
            == ref.inn
        assert flipped == Graph(ref.n, [(d, s) for s, d in drawn[1]])
        assert flipped.reversed() == graph

    @given(drawn=edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_derived_csr_rows(self, drawn):
        graph, ref = Graph(*drawn), Reference(*drawn)
        for csr, rows in ((graph.csr(), ref.out), (graph.in_csr(), ref.inn),
                          (graph.undirected_csr(), ref.undirected)):
            assert csr.num_vertices == ref.n
            assert csr.indices.dtype == np.int64
            assert [csr.out_neighbors(v).tolist()
                    for v in graph.vertices()] == rows

    @given(drawn=edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_every_builder_gives_one_graph(self, drawn):
        n, edges = drawn
        graph = Graph(n, edges)
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        assert Graph.from_edge_arrays(n, pairs[:, 0], pairs[:, 1]) == graph
        assert Graph(n, iter(edges)) == graph
        csr = graph.csr()
        assert Graph.from_csr_arrays(n, csr.indptr, csr.indices) == graph

    def test_equality_is_edge_set_equality(self):
        assert Graph(3, [(0, 1), (1, 2), (0, 1)]) == Graph(3, [(1, 2), (0, 1)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 0)])
        assert Graph(3, []) != Graph(4, [])

    def test_hub_rows_keep_source_order(self):
        # A row long enough that an unstable sort would shuffle it.
        n = 300
        edges = [(v, 0) for v in range(n)] + [(v, v // 2) for v in range(n)]
        graph, ref = Graph(n, edges), Reference(n, edges)
        assert [graph.in_neighbors(v) for v in graph.vertices()] == ref.inn
        assert [graph.neighbors_undirected(v) for v in graph.vertices()] \
            == ref.undirected

    def test_derived_csrs_are_cached(self):
        graph = Graph(3, [(0, 1), (2, 1)])
        assert graph.in_csr() is graph.in_csr()
        assert graph.undirected_csr() is graph.undirected_csr()
        assert graph.in_csr().out_neighbors(1).tolist() == [0, 2]


class TestOneRepresentation:
    @given(drawn=edge_sets())
    @settings(max_examples=30, deadline=None)
    def test_graph_holds_no_list_valued_attribute(self, drawn):
        graph = Graph(*drawn)
        for v in graph.vertices():
            graph.out_neighbors(v)
            graph.in_neighbors(v)
            graph.neighbors_undirected(v)
        list(graph.edges())
        graph.degree_histogram()
        for value in vars(graph).values():
            assert not isinstance(value, (list, tuple, dict, set))
        for csr in (graph.csr(), graph.in_csr(), graph.undirected_csr()):
            assert isinstance(csr.indptr, np.ndarray)
            assert isinstance(csr.indices, np.ndarray)


class TestDegreesNeverMaterializeRows:
    @pytest.fixture()
    def graph(self, monkeypatch):
        graph = Graph(5, [(0, 1), (0, 2), (3, 3), (4, 1), (2, 1)])

        def refuse(csr, v):
            raise AssertionError("a degree query materialized a row")

        monkeypatch.setattr(graph_module, "_row", refuse)
        return graph

    def test_degrees_read_indptr_only(self, graph):
        assert [graph.out_degree(v) for v in graph.vertices()] \
            == [2, 0, 1, 1, 1]
        assert [graph.in_degree(v) for v in graph.vertices()] \
            == [0, 3, 1, 1, 0]
        assert [graph.degree_undirected(v) for v in graph.vertices()] \
            == [2, 3, 2, 0, 1]
        assert graph.degree_histogram() == {2: 1, 0: 1, 1: 3}
        assert graph.max_out_degree() == 2
        assert graph.reversed().out_degree(1) == 3
        with pytest.raises(AssertionError):
            graph.out_neighbors(0)

    def test_degree_range_is_still_checked(self, graph):
        for bad in (-1, 5):
            for degree in (graph.out_degree, graph.in_degree,
                           graph.degree_undirected):
                with pytest.raises(GraphError):
                    degree(bad)

    def test_read_only_arrays_are_enough(self):
        indptr = np.array([0, 2, 2, 3], dtype=np.int64)
        indices = np.array([1, 2, 0], dtype=np.int64)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        graph = Graph.from_csr_arrays(3, indptr, indices)
        assert graph.csr().indices is indices
        assert list(graph.in_neighbors(0)) == [2]
        assert graph.in_degree(2) == 1
        assert graph.neighbors_undirected(0) == [1, 2]
        assert graph.reversed().out_neighbors(2) == [0]
