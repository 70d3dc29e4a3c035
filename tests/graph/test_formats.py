"""Unit tests for the edge-list and vertex-store text formats."""

import pytest

from repro.errors import GraphError
from repro.graph.edgelist import (
    EdgeList,
    edge_list_size_bytes,
    parse_edge_list,
    render_edge_list,
    split_edges,
)
from repro.graph.graph import Graph
from repro.graph.vertexstore import (
    parse_vertex_store,
    render_vertex_store,
    split_vertex_lines,
    vertex_store_size_bytes,
)
from repro.workloads.datasets import build_dataset


class TestEdgeList:
    def test_roundtrip(self):
        g = Graph(4, [(0, 1), (2, 3), (3, 0)])
        el = EdgeList.from_graph(g)
        text = render_edge_list(el)
        parsed = parse_edge_list(text, 4)
        assert parsed.to_graph() == g

    def test_text_size_matches_render(self):
        g = Graph(12, [(0, 11), (10, 3)])
        el = EdgeList.from_graph(g)
        assert el.text_size_bytes() == len(render_edge_list(el))

    @pytest.mark.parametrize("graph", [
        Graph(0, []),
        Graph(5, []),
        Graph(12, [(0, 11), (10, 3), (10, 0), (11, 11)]),
        Graph(1001, [(999, 1000), (1000, 7), (3, 999), (0, 1)]),
    ])
    def test_size_from_degrees_matches_render(self, graph):
        # Isolated vertices start no line; the rest start one per edge.
        text = render_edge_list(EdgeList.from_graph(graph))
        assert edge_list_size_bytes(graph) == len(text)

    def test_size_from_degrees_on_dg_tiny(self):
        graph = build_dataset("dg-tiny")
        edge_list = EdgeList.from_graph(graph)
        assert edge_list_size_bytes(graph) == edge_list.text_size_bytes() \
            == len(render_edge_list(edge_list))

    def test_parse_skips_comments_and_blanks(self):
        text = "# header\n\n0 1\n  \n1 0\n"
        el = parse_edge_list(text, 2)
        assert el.num_edges == 2

    def test_parse_rejects_bad_arity(self):
        with pytest.raises(GraphError):
            parse_edge_list("0 1 2\n", 3)

    def test_parse_rejects_non_integer(self):
        with pytest.raises(GraphError):
            parse_edge_list("a b\n", 3)

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            parse_edge_list("0 5\n", 3)

    def test_split_edges_partitions_all(self):
        g = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
        chunks = split_edges(EdgeList.from_graph(g), 3)
        assert [c.num_edges for c in chunks] == [4, 3, 3]
        merged = [e for c in chunks for e in c.edges]
        assert merged == list(g.edges())

    def test_split_edges_more_parts_than_edges(self):
        el = EdgeList(3, ((0, 1),))
        chunks = split_edges(el, 3)
        assert [c.num_edges for c in chunks] == [1, 0, 0]

    def test_split_edges_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            split_edges(EdgeList(2, ()), 0)


class TestVertexStore:
    def test_roundtrip(self):
        g = Graph(5, [(0, 1), (0, 2), (3, 4), (4, 0)])
        text = render_vertex_store(g)
        assert parse_vertex_store(text, 5) == g

    def test_size_matches_render(self):
        g = Graph(30, [(0, 29), (15, 7), (15, 8)])
        assert vertex_store_size_bytes(g) == len(render_vertex_store(g))

    def test_empty_graph(self):
        g = Graph(0, [])
        assert render_vertex_store(g) == ""
        assert vertex_store_size_bytes(g) == 0

    def test_isolated_vertices_kept(self):
        g = Graph(3, [(0, 1)])
        parsed = parse_vertex_store(render_vertex_store(g), 3)
        assert parsed.num_vertices == 3
        assert parsed.out_degree(2) == 0

    def test_parse_rejects_duplicate_vertex(self):
        with pytest.raises(GraphError):
            parse_vertex_store("0 1\n0 2\n", 3)

    def test_parse_rejects_bad_ids(self):
        with pytest.raises(GraphError):
            parse_vertex_store("9 1\n", 3)
        with pytest.raises(GraphError):
            parse_vertex_store("0 9\n", 3)
        with pytest.raises(GraphError):
            parse_vertex_store("x\n", 3)

    def test_split_vertex_lines(self):
        g = Graph(10, [])
        parts = split_vertex_lines(g, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert [v for p in parts for v in p] == list(range(10))

    def test_split_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            split_vertex_lines(Graph(2, []), 0)
