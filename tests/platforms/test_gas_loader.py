"""Unit tests for the PowerGraph sequential-load planner."""

import pytest

from repro.cluster.filesystem import SharedFileSystem, StorageModel
from repro.cluster.network import das5_network
from repro.errors import FileSystemError
from repro.graph.edgelist import EdgeList
from repro.graph.generators import powerlaw_graph
from repro.graph.partition.vertexcut import greedy_vertex_cut
from repro.platforms.costmodel import PowerGraphCostModel
from repro.platforms.gas.loader import plan_sequential_load


@pytest.fixture(scope="module")
def setup():
    graph = powerlaw_graph(600, 3600, seed=4)
    edge_list = EdgeList.from_graph(graph)
    shared = SharedFileSystem(StorageModel(read_bps=1e8, seek_s=0.001))
    shared.put("/g.el", edge_list.text_size_bytes(), payload=edge_list)
    cut = greedy_vertex_cut(graph, 4)
    return shared, edge_list, cut


class TestPlanSequentialLoad:
    def test_stream_time_has_read_and_parse(self, setup):
        shared, edge_list, cut = setup
        cost = PowerGraphCostModel()
        plan = plan_sequential_load(shared, "/g.el", edge_list.num_edges, cut,
                                    das5_network(), cost)
        parse_only = edge_list.num_edges * cost.parse_edge_s
        assert plan.stream_s > parse_only
        assert plan.bytes_read == edge_list.text_size_bytes()
        assert plan.edges_parsed == edge_list.num_edges

    def test_finalize_per_rank(self, setup):
        shared, edge_list, cut = setup
        plan = plan_sequential_load(shared, "/g.el", edge_list.num_edges, cut,
                                    das5_network(), PowerGraphCostModel())
        assert len(plan.finalize_s) == cut.parts
        assert all(f >= 0 for f in plan.finalize_s)

    def test_finalize_tracks_edge_counts(self, setup):
        shared, edge_list, cut = setup
        plan = plan_sequential_load(shared, "/g.el", edge_list.num_edges, cut,
                                    das5_network(), PowerGraphCostModel())
        counts = cut.edge_counts()
        # Ranks with more edges finalize no faster than emptier ranks.
        pairs = sorted(zip(counts, plan.finalize_s))
        durations = [d for _c, d in pairs]
        # Tolerate the rank-0 local-transfer discount.
        assert durations[-1] >= durations[0]

    def test_stream_scales_with_parse_cost(self, setup):
        shared, edge_list, cut = setup
        cheap = plan_sequential_load(
            shared, "/g.el", edge_list.num_edges, cut, das5_network(),
            PowerGraphCostModel(parse_edge_s=1e-5))
        expensive = plan_sequential_load(
            shared, "/g.el", edge_list.num_edges, cut, das5_network(),
            PowerGraphCostModel(parse_edge_s=1e-3))
        assert expensive.stream_s > 10 * cheap.stream_s

    def test_missing_file_raises(self, setup):
        shared, edge_list, cut = setup
        with pytest.raises(FileSystemError):
            plan_sequential_load(shared, "/missing.el", edge_list.num_edges, cut,
                                 das5_network(), PowerGraphCostModel())

    def test_no_edges_is_the_read_alone(self, setup):
        shared, _edge_list, cut = setup
        plan = plan_sequential_load(shared, "/g.el", 0, cut, das5_network(),
                                    PowerGraphCostModel())
        assert plan.edges_parsed == 0
        assert plan.stream_s == shared.contended_read_time(
            "/g.el", concurrent_readers=1)

    def test_edge_count_feeds_parse_only(self, setup):
        shared, edge_list, cut = setup
        cost = PowerGraphCostModel()
        m = edge_list.num_edges
        one = plan_sequential_load(shared, "/g.el", m, cut, das5_network(),
                                   cost)
        two = plan_sequential_load(shared, "/g.el", 2 * m, cut,
                                   das5_network(), cost)
        assert two.stream_s - one.stream_s == pytest.approx(
            m * cost.parse_edge_s)
        assert two.finalize_s == one.finalize_s
        assert two.bytes_read == one.bytes_read
