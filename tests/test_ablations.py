"""Ablations: the design trade-offs behind the paper's findings.

Each test sweeps one knob and asserts the *shape* of the effect at the
smallest scale that still shows it:

* strong scaling (worker count) and dataset size move Figure 5's
  domain-level shares the way the decomposition predicts;
* model granularity is the R3 cost curve: deeper models archive more;
* Figure 7's sequential loader loses to a parallel one at every size,
  by an amount that grows with the data;
* greedy vertex-cut replicates less than random placement, and least on
  power-law graphs (PowerGraph's motivation).

The runs go through the experiments' process-wide runner, so the
Giraph BFS jobs the experiment suite already ran are reused.
"""

import pytest

from repro.cluster.filesystem import SharedFileSystem
from repro.cluster.network import das5_network
from repro.core.archive.builder import build_archive
from repro.core.model.giraph_model import giraph_model
from repro.experiments.common import GIRAPH_BFS, shared_runner
from repro.graph.edgelist import edge_list_size_bytes
from repro.graph.generators import powerlaw_graph, uniform_random_graph
from repro.graph.generators.datagen import datagen_graph
from repro.graph.partition import (
    greedy_vertex_cut,
    random_vertex_cut,
    replication_factor,
)
from repro.platforms.costmodel import PowerGraphCostModel
from repro.platforms.gas.loader import plan_sequential_load
from repro.workloads.spec import WorkloadSpec
from repro.workloads.sweep import ParameterSweep

RANKS = 8


@pytest.fixture(scope="module")
def sweep():
    return ParameterSweep(shared_runner())


def test_strong_scaling(sweep):
    """Processing and I/O parallelize with workers while setup is
    constant, so setup's share grows with scale-out: the effect behind
    Giraph's 30.9% setup share on 8 nodes.  On dg-tiny per-superstep
    overhead dominates and processing barely scales, so the sweep runs
    on dg100-scaled."""
    base = WorkloadSpec("Giraph", "bfs", "dg100-scaled", workers=1)
    results = sweep.run(base, "workers", [1, 2, 4, 8])
    processing = {}
    setup = {}
    for result in results:
        workers = result.spec.workers
        processing[workers] = result.breakdown.phases["Processing"][0]
        setup[workers] = result.breakdown.phases["Setup"][0]

    # Strong scaling: processing shrinks with workers...
    assert processing[8] < processing[2] < processing[1]
    # ... while setup stays roughly constant, so its share grows.
    assert setup[8] < 1.5 * setup[1]
    share_1 = setup[1] / results[0].breakdown.total
    share_8 = setup[8] / results[-1].breakdown.total
    assert share_8 > share_1


def test_dataset_scaling(sweep):
    """Setup cost is constant while I/O grows with the data, so Giraph's
    setup share shrinks as the graph grows and the I/O share grows
    toward the paper's 43%.  The largest point is the paper's own run."""
    base = WorkloadSpec("Giraph", "bfs", "dg-tiny", workers=8)
    results = sweep.run(base, "dataset",
                        ["dg-tiny", "dg100-scaled", "dg1000-scaled"])
    setup_shares = [r.breakdown.phases["Setup"][1] for r in results]
    io_shares = [r.breakdown.phases["Input/output"][1] for r in results]

    # Setup share falls, I/O share rises with scale.
    assert setup_shares == sorted(setup_shares, reverse=True)
    assert io_shares == sorted(io_shares)


def test_model_granularity():
    """Archive size per Giraph model level, from the domain level (1) to
    the full implementation level (4): the paper's "investment of effort
    versus comprehensiveness of results" trade-off."""
    run = shared_runner().run(GIRAPH_BFS).run
    sizes = {
        level: build_archive(run, giraph_model().truncated(level))[0].size()
        for level in (1, 2, 3, 4)
    }

    assert sizes[1] > 0
    # The cost curve is monotone: deeper models archive more.
    assert sizes[1] < sizes[2] < sizes[3] < sizes[4]
    # The full model leaves nothing unmodeled.
    full_archive, full_report = build_archive(run, giraph_model())
    assert full_report.unmodeled == []
    assert full_archive.size() == sizes[4]


def _load_times(num_vertices):
    """Simulated LoadGraph time of PowerGraph's sequential path, and of
    a hypothetical parallel path where each rank streams and parses
    1/RANKS of the file."""
    graph = datagen_graph(num_vertices, avg_degree=8, seed=3)
    shared = SharedFileSystem()
    shared.put("/g.el", edge_list_size_bytes(graph))
    cost = PowerGraphCostModel()
    plan = plan_sequential_load(shared, "/g.el", graph.num_edges,
                                greedy_vertex_cut(graph, RANKS),
                                das5_network(), cost)
    sequential = plan.stream_s + max(plan.finalize_s)
    # Each parallel reader sees shared-FS contention.
    read_s = shared.contended_read_time("/g.el", RANKS) / RANKS
    parse_s = (graph.num_edges / RANKS) * cost.parse_edge_s
    parallel = read_s + parse_s + max(plan.finalize_s)
    return sequential, parallel


def test_sequential_vs_parallel_load():
    """What parallel loading would buy PowerGraph (Figure 7's diagnosis:
    one node loads the whole graph while the others idle)."""
    times = [_load_times(n) for n in (1_000, 3_000, 10_000)]
    speedups = [seq / par for seq, par in times]

    # Parallel loading wins at every scale; because both paths are
    # parse-dominated the speed-up saturates just below the rank count
    # (shared-FS contention eats the rest).
    assert all(2.0 < s <= RANKS for s in speedups)
    # The absolute time saved grows with dataset size — the Figure 7
    # penalty is size-proportional.
    saved = [seq - par for seq, par in times]
    assert saved == sorted(saved)


def test_greedy_vs_random_partitioning():
    """Greedy against random vertex-cut placement on power-law and
    uniform graphs of 1 000 vertices and average degree 8."""
    graphs = {
        "powerlaw": powerlaw_graph(1000, 8000, alpha=0.7, seed=11),
        "uniform": uniform_random_graph(1000, 8000, seed=11),
    }
    quality = {
        family: {
            "greedy_rf": replication_factor(greedy_vertex_cut(graph, RANKS)),
            "random_rf": replication_factor(random_vertex_cut(graph, RANKS)),
        }
        for family, graph in graphs.items()
    }

    # Shape assertions (PowerGraph's motivation).
    for family in graphs:
        assert quality[family]["greedy_rf"] < quality[family]["random_rf"]
    # Greedy replicates less on power-law than on uniform graphs.
    assert quality["powerlaw"]["greedy_rf"] <= quality["uniform"]["greedy_rf"]
