"""Property-based tests (hypothesis) on core data structures and
invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import logformat
from repro.cluster.cpu import CpuAccount
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.serialize import archive_from_json, archive_to_json
from repro.graph.algorithms.bfs import UNREACHED, bfs_levels
from repro.graph.algorithms.pagerank import pagerank
from repro.graph.algorithms.wcc import weakly_connected_components
from repro.graph.csr import CsrGraph
from repro.graph.edgelist import EdgeList, parse_edge_list, render_edge_list
from repro.graph.graph import Graph
from repro.graph.partition.hash_partition import hash_partition
from repro.graph.partition.vertexcut import greedy_vertex_cut
from repro.graph.vertexstore import parse_vertex_store, render_vertex_store

# -- strategies -------------------------------------------------------------

@st.composite
def graphs(draw, max_vertices=24):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m,
    ))
    return Graph(n, edges)


field_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=0, max_size=20,
)
field_keys = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz_"),
    min_size=1, max_size=10,
)


# -- graph invariants ---------------------------------------------------------

class TestGraphProperties:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_count_equals_degree_sums(self, g):
        assert sum(g.out_degree(v) for v in g.vertices()) == g.num_edges
        assert sum(g.in_degree(v) for v in g.vertices()) == g.num_edges

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_reverse_preserves_counts(self, g):
        r = g.reversed()
        assert r.num_edges == g.num_edges
        assert r.reversed() == g

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_undirected_neighbor_symmetry(self, g):
        for v in g.vertices():
            for u in g.neighbors_undirected(v):
                assert v in g.neighbors_undirected(u)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_csr_roundtrip(self, g):
        csr = CsrGraph.from_edges(g.num_vertices, g.edges())
        assert Graph.from_csr_arrays(
            g.num_vertices, csr.indptr, csr.indices) == g

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_edge_list_roundtrip(self, g):
        el = EdgeList.from_graph(g)
        text = render_edge_list(el)
        assert parse_edge_list(text, g.num_vertices).to_graph() == g
        assert el.text_size_bytes() == len(text)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_vertex_store_roundtrip(self, g):
        assert parse_vertex_store(
            render_vertex_store(g), g.num_vertices) == g


class TestAlgorithmProperties:
    @given(graphs(), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_bfs_levels_consistent(self, g, seed):
        source = seed % g.num_vertices
        levels = bfs_levels(g, source)
        assert levels[source] == 0
        for v in g.vertices():
            if levels[v] > 0:
                # Some in-neighbor sits exactly one level above.
                assert any(
                    levels[u] == levels[v] - 1 for u in g.in_neighbors(v)
                )
            # Edges never skip levels downward.
            if levels[v] != UNREACHED:
                for u in g.out_neighbors(v):
                    assert levels[u] != UNREACHED
                    assert levels[u] <= levels[v] + 1

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_pagerank_is_distribution(self, g):
        ranks = pagerank(g, iterations=10)
        assert abs(sum(ranks.values()) - 1.0) < 1e-9
        assert all(r > 0 for r in ranks.values())

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_wcc_labels_closed_under_edges(self, g):
        labels = weakly_connected_components(g)
        for src, dst in g.edges():
            assert labels[src] == labels[dst]
        # Labels are canonical minima.
        for v, label in labels.items():
            assert label <= v


class TestPartitionProperties:
    @given(graphs(), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_hash_partition_total(self, g, parts):
        assignment = hash_partition(g.num_vertices, parts)
        assert len(assignment) == g.num_vertices
        assert all(0 <= p < parts for p in assignment)

    @given(graphs(), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_vertex_cut_invariants(self, g, parts):
        cut = greedy_vertex_cut(g, parts)
        # Every edge assigned to exactly one partition.
        assert len(cut.edge_assignment) == g.num_edges
        assert sum(cut.edge_counts()) == g.num_edges
        # Replica sets contain the edge's partition; masters are replicas.
        for (src, dst), p in zip(cut.edges, cut.edge_assignment):
            assert p in cut.replicas[src]
            assert p in cut.replicas[dst]
        for v, master in cut.masters.items():
            assert master in cut.replicas[v]
        # Replication factor bounded by partition count.
        if cut.replicas:
            assert 1.0 <= cut.replication_factor() <= parts


class TestLogFormatProperties:
    @given(st.dictionaries(field_keys, field_values, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_format_parse_roundtrip(self, fields):
        line = logformat.format_line(fields)
        assert logformat.parse_line(line) == {
            k: str(v) for k, v in fields.items()
        }


class TestCpuProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 50, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
                st.floats(0, 8, allow_nan=False),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sampling_conserves_cpu_seconds(self, intervals):
        account = CpuAccount(16)
        for start, duration, cores in intervals:
            account.record(start, start + duration, cores)
        series = account.sample(0.0, 64.0, step=1.0)
        expected = account.cpu_seconds_between(0.0, 64.0)
        assert math.isclose(series.total_cpu_seconds, expected,
                            rel_tol=1e-9, abs_tol=1e-9)


class TestArchiveProperties:
    @st.composite
    @staticmethod
    def archives(draw):
        counter = [0]

        def build(depth, start, end):
            counter[0] += 1
            op = ArchivedOperation(
                uid=f"u{counter[0]}",
                mission=draw(st.sampled_from(
                    ["Load", "Compute-1", "Step-2", "Sync"])),
                actor=draw(st.sampled_from(["Master", "Worker-1"])),
                start_time=start, end_time=end,
                infos={"N": draw(st.integers(0, 100))},
            )
            for _ in range(draw(st.integers(0, 2)) if depth < 2 else 0):
                lo = draw(st.floats(start, end, allow_nan=False))
                hi = draw(st.floats(lo, end, allow_nan=False))
                child = build(depth + 1, lo, hi)
                child.parent = op
                op.children.append(child)
            return op

        root = build(0, 0.0, 100.0)
        return PerformanceArchive("job", root, platform="T")

    @given(archives())
    @settings(max_examples=50, deadline=None)
    def test_serialization_roundtrip(self, archive):
        clone = archive_from_json(archive_to_json(archive))
        assert clone.size() == archive.size()
        for original, copied in zip(archive.walk(), clone.walk()):
            assert original.mission == copied.mission
            assert original.actor == copied.actor
            assert original.infos == copied.infos
            assert original.start_time == copied.start_time
            assert original.end_time == copied.end_time

    @given(archives())
    @settings(max_examples=50, deadline=None)
    def test_children_nested_within_parents(self, archive):
        for op in archive.walk():
            for child in op.children:
                assert child.start_time >= op.start_time
                assert child.end_time <= op.end_time
