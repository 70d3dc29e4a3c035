"""Scalar-vs-vectorized equivalence for the simulated execution backends.

The vectorized CSR backends must be *observationally invisible*: for
every supported program, a run in ``vectorized`` mode must produce the
same outputs, the same per-worker/per-rank work counts (hence the same
simulated timestamps and log lines), and byte-identical archives as the
scalar reference path.  These tests pin that contract with
property-based random graphs, fault-plan runs, and full-pipeline
archive comparisons, plus unit coverage for the shared numpy fold
primitives and the partitioner fast paths.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import logformat
from repro.core.archive.serialize import archive_to_json
from repro.errors import PlatformError, ReproError
from repro.graph.graph import Graph
from repro.graph.partition.hash_partition import vertex_hash
from repro.graph.partition.vertexcut import (
    _greedy_vertex_cut_reference,
    greedy_vertex_cut,
    random_vertex_cut,
)
from repro.platforms.base import (
    JobRequest,
    VertexValues,
    resolve_engine_mode,
)
from repro.platforms.faults import FaultPlan, SlowNode, WorkerCrash
from repro.platforms.gas.algorithms import BfsGas, make_gas_program
from repro.platforms.gas.engine import PowerGraphPlatform
from repro.platforms.gas.vectorized import gas_kernel_class
from repro.platforms import vecops
from repro.platforms.mapreduce.api import Record
from repro.platforms.mapreduce.engine import HadoopPlatform
from repro.platforms.pgxd.algorithms import (
    BfsPushPull,
    PageRankPushPull,
    make_pushpull_program,
)
from repro.platforms.pgxd.engine import PgxdPlatform
from repro.platforms.pgxd.vectorized import (
    BfsPushPullKernel,
    PageRankPushPullKernel,
    pushpull_kernel_class,
)
from repro.platforms.pregel.algorithms import BfsProgram, make_pregel_program
from repro.platforms.pregel.engine import GiraphPlatform
from repro.platforms.pregel.vectorized import pregel_kernel_class
from repro.platforms.vecops import (
    FOLD_CHUNK,
    FoldPlan,
    expand_positions,
    fold_add,
    group_sizes,
    group_starts,
)
from repro.workloads.runner import WorkloadRunner, build_cluster
from repro.workloads.spec import WorkloadSpec

from tests.conftest import (
    make_giraph_cluster,
    make_powergraph_cluster,
)

_PLATFORMS = {
    "Giraph": (GiraphPlatform, make_giraph_cluster),
    "PowerGraph": (PowerGraphPlatform, make_powergraph_cluster),
    "Hadoop": (HadoopPlatform, lambda: build_cluster("Hadoop")),
    "PGX.D": (PgxdPlatform, lambda: build_cluster("PGX.D")),
}

#: Every Giraph / PowerGraph program with a vectorized kernel, with
#: non-trivial parameters.
_CASES = [
    ("bfs", {"source": 0}),
    ("pagerank", {"iterations": 6}),
    ("pagerank", {"iterations": 40, "tolerance": 1e-3}),
    ("wcc", {}),
    ("sssp", {"source": 0}),
    ("cdlp", {"iterations": 4}),
]

_HADOOP_CASES = [
    ("bfs", {"source": 0}),
    ("pagerank", {"iterations": 6}),
    ("pagerank", {"iterations": 40, "tolerance": 1e-3}),
    ("wcc", {}),
]

#: PGX.D: WCC and SSSP have no kernel (see pgxd/vectorized.py).
_PGXD_CASES = [
    ("bfs", {"source": 0}),
    ("bfs", {"source": 1}),
    ("pagerank", {"iterations": 0}),
    ("pagerank", {"iterations": 1}),
    ("pagerank", {"iterations": 6}),
    ("pagerank", {"iterations": 3, "damping": 0.6}),
]

_CASES_BY_PLATFORM = {
    "Giraph": _CASES,
    "PowerGraph": _CASES,
    "Hadoop": _HADOOP_CASES,
    "PGX.D": _PGXD_CASES,
}


@st.composite
def small_graphs(draw):
    """Random small directed graphs (self-loops and duplicates allowed)."""
    n = draw(st.integers(2, 24))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    return Graph(n, edges)


def _fingerprint(platform_name, mode, graph, algo, params,
                 workers=4, faults=None):
    """Everything observable about one run, in comparable form."""
    platform_cls, make_cluster = _PLATFORMS[platform_name]
    platform = platform_cls(make_cluster(), engine_mode=mode)
    platform.deploy_dataset("g", graph)
    platform.inject_faults(faults)
    try:
        result = platform.run_job(
            JobRequest(algo, "g", workers, params=params, job_id="eq")
        )
    finally:
        platform.inject_faults(None)
    assert platform.last_engine_path == mode
    return (
        result.log_lines,
        sorted((k, repr(v)) for k, v in result.stats.items()),
        {k: repr(v) for k, v in result.output.items()},
        repr(result.started_at),
        repr(result.finished_at),
    )


class TestEngineEquivalence:
    """All four engines, every kernel, random graphs and worker counts."""

    @given(graph=small_graphs(), case=st.sampled_from(_CASES),
           workers=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_giraph_runs_identically(self, graph, case, workers):
        algo, params = case
        assert (
            _fingerprint("Giraph", "scalar", graph, algo, params, workers)
            == _fingerprint("Giraph", "vectorized", graph, algo, params,
                            workers)
        )

    @given(graph=small_graphs(), case=st.sampled_from(_CASES),
           workers=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_powergraph_runs_identically(self, graph, case, workers):
        algo, params = case
        assert (
            _fingerprint("PowerGraph", "scalar", graph, algo, params,
                         workers)
            == _fingerprint("PowerGraph", "vectorized", graph, algo, params,
                            workers)
        )

    @given(graph=small_graphs(), case=st.sampled_from(_HADOOP_CASES),
           workers=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_hadoop_runs_identically(self, graph, case, workers):
        algo, params = case
        assert (
            _fingerprint("Hadoop", "scalar", graph, algo, params, workers)
            == _fingerprint("Hadoop", "vectorized", graph, algo, params,
                            workers)
        )

    @given(graph=small_graphs(), case=st.sampled_from(_PGXD_CASES),
           workers=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_pgxd_runs_identically(self, graph, case, workers):
        algo, params = case
        assert (
            _fingerprint("PGX.D", "scalar", graph, algo, params, workers)
            == _fingerprint("PGX.D", "vectorized", graph, algo, params,
                            workers)
        )

    @pytest.mark.parametrize("case", _PGXD_CASES, ids=repr)
    def test_pgxd_cases_identical_on_hubs(self, case):
        # Vertex 0 pulls from more than FOLD_CHUNK in-neighbors (the
        # per-hub fold), 1 is dangling, 2 has a self-loop, the last
        # vertex is isolated.
        n = FOLD_CHUNK + 12
        edges = [(v, 0) for v in range(2, n - 1)]
        edges += [(0, 1), (0, 3), (2, 2), (3, 4), (4, 1), (5, 3)]
        graph = Graph(n, edges)
        algo, params = case
        assert (
            _fingerprint("PGX.D", "scalar", graph, algo, params)
            == _fingerprint("PGX.D", "vectorized", graph, algo, params)
        )

    def test_zero_iteration_jobs_identical(self, line_graph):
        for platform_name, cases in _CASES_BY_PLATFORM.items():
            for algo in sorted({a for a, p in cases if "iterations" in p}):
                params = {"iterations": 0}
                assert (
                    _fingerprint(platform_name, "scalar", line_graph, algo,
                                 params)
                    == _fingerprint(platform_name, "vectorized", line_graph,
                                    algo, params)
                )


class TestFaultEquivalence:
    """Fault hooks observe identical work counts on both paths."""

    _PLANS = [
        FaultPlan(events=(WorkerCrash(worker=1, superstep=2),)),
        FaultPlan(events=(WorkerCrash(worker=2, superstep=3),),
                  checkpoint_interval=2),
    ]

    @pytest.mark.parametrize("platform_name,algo,params", [
        ("Giraph", "bfs", {"source": 0}),
        ("Giraph", "pagerank", {}),
        ("PowerGraph", "bfs", {"source": 0}),
        ("PowerGraph", "pagerank", {}),
    ])
    def test_identical_under_faults(self, tiny_graph, platform_name, algo,
                                    params):
        for plan in self._PLANS:
            assert (
                _fingerprint(platform_name, "scalar", tiny_graph, algo,
                             params, workers=5, faults=plan)
                == _fingerprint(platform_name, "vectorized", tiny_graph,
                                algo, params, workers=5, faults=plan)
            )

    def test_identical_under_slow_node(self, tiny_graph):
        for platform_name in _PLATFORMS:
            platform_cls, make_cluster = _PLATFORMS[platform_name]
            node = sorted(make_cluster().node_names)[1]
            plan = FaultPlan(events=(SlowNode(node, 2.5),))
            assert (
                _fingerprint(platform_name, "scalar", tiny_graph, "bfs",
                             {"source": 0}, workers=5, faults=plan)
                == _fingerprint(platform_name, "vectorized", tiny_graph,
                                "bfs", {"source": 0}, workers=5, faults=plan)
            )


class TestArchiveEquivalence:
    """Full pipeline: serialized archives are byte-identical."""

    @pytest.mark.parametrize("algo,platform_name", [
        pytest.param(algo, name, id=f"{algo}-{name}")
        for name, cases in _CASES_BY_PLATFORM.items()
        for algo in dict(cases)
    ])
    def test_archive_bytes_identical(self, platform_name, algo):
        blobs = {}
        for mode in ("scalar", "vectorized"):
            runner = WorkloadRunner(n_nodes=8, engine_mode=mode)
            spec = WorkloadSpec(platform_name, algo, "dg-tiny", workers=4)
            iteration = runner.run(spec)
            assert runner.platform(platform_name).last_engine_path == mode
            blobs[mode] = archive_to_json(iteration.archive)
        assert blobs["scalar"] == blobs["vectorized"]


class TestDispatch:
    """Mode selection: auto falls back, forced vectorized demands a kernel."""

    def test_lcc_has_no_kernel(self, line_graph):
        assert pregel_kernel_class(
            make_pregel_program("lcc", {}, line_graph)) is None
        assert gas_kernel_class(
            make_gas_program("lcc", {}, line_graph)) is None

    def test_subclasses_stay_scalar(self):
        class TracingBfsProgram(BfsProgram):
            pass

        class TracingBfsGas(BfsGas):
            pass

        assert pregel_kernel_class(TracingBfsProgram(0)) is None
        assert gas_kernel_class(TracingBfsGas(0)) is None

    def test_custom_weight_stays_scalar(self, line_graph):
        params = {"source": 0, "weight": lambda u, v: 1.0}
        assert pregel_kernel_class(
            make_pregel_program("sssp", params, line_graph)) is None
        assert gas_kernel_class(
            make_gas_program("sssp", params, line_graph)) is None

    def test_disabled_combiner_stays_scalar(self, line_graph):
        program = make_pregel_program(
            "bfs", {"source": 0, "combiner": False}, line_graph)
        assert pregel_kernel_class(program) is None

    @pytest.mark.parametrize("platform_name", ["Giraph", "PowerGraph"])
    def test_forced_vectorized_rejects_lcc(self, platform_name, line_graph):
        platform_cls, make_cluster = _PLATFORMS[platform_name]
        platform = platform_cls(make_cluster(), engine_mode="vectorized")
        platform.deploy_dataset("g", line_graph)
        with pytest.raises(PlatformError, match="no vectorized kernel"):
            platform.run_job(JobRequest("lcc", "g", 4))

    def test_auto_falls_back_for_lcc(self, line_graph):
        platform = GiraphPlatform(make_giraph_cluster(), engine_mode="auto")
        platform.deploy_dataset("g", line_graph)
        platform.run_job(JobRequest("lcc", "g", 4))
        assert platform.last_engine_path == "scalar"

    def test_pgxd_dispatches_bfs_and_pagerank_only(self, line_graph):
        owner_of = [0, 0, 1, 1, 1]
        expected = {"bfs": BfsPushPullKernel,
                    "PageRank": PageRankPushPullKernel,
                    "wcc": None, "sssp": None, "cdlp": None}
        for algo, kernel in expected.items():
            assert pushpull_kernel_class(algo) is kernel
            if kernel is not None:
                program = make_pushpull_program(
                    algo, {"source": 0}, line_graph, owner_of, kernel=kernel)
                assert type(program) is kernel

    def test_pgxd_kernels_check_parameters(self, line_graph):
        # The kernels are built without the scalar driver, so they must
        # reject what the scalar driver rejects.
        owner_of = [0, 0, 1, 1, 1]
        for params in ({"iterations": -1}, {"damping": 1.0}):
            with pytest.raises(PlatformError):
                make_pushpull_program("pagerank", params, line_graph,
                                      owner_of, kernel=PageRankPushPullKernel)
        with pytest.raises(PlatformError, match="out of range"):
            make_pushpull_program("bfs", {"source": 5}, line_graph,
                                  owner_of, kernel=BfsPushPullKernel)

    @pytest.mark.parametrize("algo", ["wcc", "sssp"])
    def test_pgxd_forced_vectorized_rejects_push_programs(self, algo,
                                                          line_graph):
        platform = PgxdPlatform(build_cluster("PGX.D"),
                                engine_mode="vectorized")
        platform.deploy_dataset("g", line_graph)
        with pytest.raises(PlatformError, match="no vectorized kernel"):
            platform.run_job(JobRequest(algo, "g", 4))

    @pytest.mark.parametrize("algo", ["wcc", "sssp"])
    def test_pgxd_auto_falls_back_for_push_programs(self, algo, line_graph):
        platform = PgxdPlatform(build_cluster("PGX.D"), engine_mode="auto")
        platform.deploy_dataset("g", line_graph)
        platform.run_job(JobRequest(algo, "g", 4))
        assert platform.last_engine_path == "scalar"

    def test_job_life_matrix_never_falls_back(self):
        # perfbench's job_life matrix: a built-in program that silently
        # loses its kernel shows here, not as a slow benchmark.
        runner = WorkloadRunner()
        for platform_name in _PLATFORMS:
            for algo in ("bfs", "pagerank"):
                runner.run(WorkloadSpec(platform_name, algo, "dg-tiny"))
                path = runner.platform(platform_name).last_engine_path
                assert path == "vectorized", (platform_name, algo)

    def test_job_life_matrix_stays_on_arrays(self, monkeypatch):
        # The matrix's output and record bytes are counted off arrays: a
        # state dtype that falls back to per-element ``str`` fails here.
        # Log lines come from the writer's per-kind f-strings (the
        # grammar's field-map renderer is their oracle only), PGX.D
        # builds its kernels without the scalar drivers' per-vertex
        # dicts, and no job output is turned into Python values.
        def per_element(*args, **kwargs):
            raise AssertionError("per-element text accounting")

        def scalar_path(*args, **kwargs):
            raise AssertionError("scalar per-vertex set-up")

        oracle = vecops.output_text_bytes
        for module in list(sys.modules.values()):
            if getattr(module, "output_text_bytes", None) is oracle:
                monkeypatch.setattr(module, "output_text_bytes", per_element)
        monkeypatch.setattr(Record, "encoded_size", per_element)
        monkeypatch.setattr(logformat, "format_line", per_element)
        monkeypatch.setattr(BfsPushPull, "__init__", scalar_path)
        monkeypatch.setattr(PageRankPushPull, "__init__", scalar_path)
        runner = WorkloadRunner()
        for platform_name in _PLATFORMS:
            for algo in ("bfs", "pagerank"):
                iteration = runner.run(
                    WorkloadSpec(platform_name, algo, "dg-tiny"))
                path = runner.platform(platform_name).last_engine_path
                assert path == "vectorized", (platform_name, algo)
                output = iteration.run.result.output
                assert type(output) is VertexValues, (platform_name, algo)
                assert output._values is None, (platform_name, algo)

    def test_resolve_rejects_unknown_mode(self):
        with pytest.raises(PlatformError):
            resolve_engine_mode("turbo", True, "Giraph", "bfs")

    def test_runner_rejects_unknown_mode(self):
        with pytest.raises(ReproError):
            WorkloadRunner(engine_mode="turbo")


class TestVecops:
    """The shared numpy primitives reproduce Python left folds exactly."""

    @given(st.lists(st.floats(allow_nan=False, width=64), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_fold_add_matches_left_fold(self, xs):
        acc = 0.0
        for x in xs:
            acc += x
        # repr-compare so inf - inf = nan counts as equal on both paths.
        assert repr(fold_add(np.asarray(xs, dtype=np.float64))) == repr(acc)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_segmented_fold_matches_per_segment_fold(self, data):
        # Segment lengths straddle FOLD_CHUNK so both the lockstep and
        # the per-hub cumsum paths are exercised.
        lens = data.draw(st.lists(
            st.integers(0, FOLD_CHUNK + 8), min_size=1, max_size=10))
        values = data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e6, max_value=1e6, width=64),
            min_size=sum(lens), max_size=sum(lens)))
        arr = np.asarray(values, dtype=np.float64)
        starts = np.concatenate(
            ([0], np.cumsum(lens)[:-1])).astype(np.int64)
        out = FoldPlan(starts, len(arr))(arr)
        offset = 0
        for i, length in enumerate(lens):
            acc = 0.0
            for x in values[offset:offset + length]:
                acc += x
            assert out[i] == acc
            offset += length

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_fold_plan_reused_over_values_and_placed_in_rows(self, data):
        # One plan folds several value arrays; segment i lands in
        # out[rows[i]] and every other row stays +0.0.  Signed zeros
        # are compared by repr: the folds start from +0.0.
        lens = data.draw(st.lists(
            st.integers(0, FOLD_CHUNK + 8), max_size=10))
        size = len(lens) + data.draw(st.integers(0, 3))
        rows = data.draw(st.permutations(range(size)))[:len(lens)]
        starts = np.concatenate(
            ([0], np.cumsum(lens)[:-1])).astype(np.int64)[:len(lens)]
        plan = FoldPlan(starts, sum(lens), np.asarray(rows, dtype=np.int64),
                        size)
        element = st.one_of(
            st.floats(min_value=-1e6, max_value=1e6, width=64),
            st.sampled_from([0.0, -0.0]))
        for _ in range(2):
            values = data.draw(st.lists(element, min_size=sum(lens),
                                        max_size=sum(lens)))
            expected = [0.0] * size
            offset = 0
            for row, length in zip(rows, lens):
                acc = 0.0
                for x in values[offset:offset + length]:
                    acc += x
                expected[row] = acc
                offset += length
            out = plan(np.asarray(values, dtype=np.float64))
            assert [repr(v) for v in out.tolist()] == [
                repr(v) for v in expected]

    def test_non_finite_folds_match_python_silently(self):
        # inf + -inf is nan and 1e308 + 1e308 is inf in a Python fold;
        # numpy computes the same but would warn about both.
        inf = float("inf")
        short = [inf, -inf, 1.0, 1e308, 1e308]
        hub = [1e308] * (FOLD_CHUNK + 1) + [-inf, inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert math.isnan(fold_add(np.asarray(short)))
            assert fold_add(np.asarray([1e308, 1e308])) == inf
            out = FoldPlan(np.asarray([0, len(short)]),
                           len(short + hub))(np.asarray(short + hub))
            rows = FoldPlan.of_csr(np.asarray([0, 2, 2, 4]))(
                np.asarray([1e308, 1e308, inf, -inf]))
        assert math.isnan(out[0]) and math.isnan(out[1])
        assert rows[0] == inf and rows[1] == 0.0 and math.isnan(rows[2])

    def test_csr_fold_plan_scatters_empty_rows(self):
        # Rows: [], [1, 2], [], [], [3], [] — empty first, middle, last.
        indptr = np.array([0, 0, 2, 2, 2, 3, 3], dtype=np.int64)
        values = np.array([0.1, 0.2, 0.3], dtype=np.float64)
        out = FoldPlan.of_csr(indptr)(values)
        assert out.tolist() == [0.0, 0.1 + 0.2, 0.0, 0.0, 0.3, 0.0]
        assert FoldPlan.of_csr(np.zeros(4, dtype=np.int64))(
            np.empty(0)).tolist() == [0.0] * 3
        assert len(FoldPlan.of_csr(np.zeros(1, dtype=np.int64))(
            np.empty(0))) == 0

    def test_group_starts_and_sizes(self):
        keys = np.array([3, 3, 5, 9, 9, 9], dtype=np.int64)
        starts = group_starts(keys)
        assert starts.tolist() == [0, 2, 3]
        assert group_sizes(starts, len(keys)).tolist() == [2, 1, 3]
        assert group_starts(np.empty(0, dtype=np.int64)).tolist() == []

    def test_expand_positions_enumerates_slots(self):
        deg = np.array([2, 0, 3, 1], dtype=np.int64)
        indptr = np.array([0, 2, 2, 5, 6], dtype=np.int64)
        sel = np.array([2, 0, 1], dtype=np.int64)
        pos, seg_starts, nz = expand_positions(indptr, deg, sel)
        assert pos.tolist() == [2, 3, 4, 0, 1]
        assert seg_starts.tolist() == [0, 3]
        assert nz.tolist() == [True, True, False]

    def test_expand_positions_empty_selection(self):
        deg = np.array([1], dtype=np.int64)
        indptr = np.array([0, 1], dtype=np.int64)
        pos, seg_starts, nz = expand_positions(
            indptr, deg, np.empty(0, dtype=np.int64))
        assert len(pos) == 0 and len(seg_starts) == 0 and len(nz) == 0


class TestPartitionerFastPaths:
    """The rewritten vertex-cut builders match their scalar oracles."""

    @given(graph=small_graphs(), parts=st.integers(1, 6),
           slack=st.sampled_from([0.0, 0.1, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_greedy_bitmask_matches_reference(self, graph, parts, slack):
        fast = greedy_vertex_cut(graph, parts, balance_slack=slack)
        ref = _greedy_vertex_cut_reference(graph, parts, balance_slack=slack)
        assert fast.edge_assignment == ref.edge_assignment
        assert fast.replicas == ref.replicas
        assert fast.masters == ref.masters

    @given(graph=small_graphs(), parts=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_random_cut_matches_scalar_hash(self, graph, parts):
        cut = random_vertex_cut(graph, parts)
        for (src, dst), part in zip(cut.edges, cut.edge_assignment):
            expected = (
                vertex_hash(src) ^ vertex_hash(dst + 0x9E3779B9)
            ) % parts
            assert part == expected

    @given(graph=small_graphs(), parts=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_edge_counts_agree_with_assignment(self, graph, parts):
        cut = random_vertex_cut(graph, parts)
        counts = [0] * parts
        for p in cut.edge_assignment:
            counts[p] += 1
        assert cut.edge_counts() == counts
