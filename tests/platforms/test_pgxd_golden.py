"""Cross-commit byte identity of PGX.D archives.

The scalar-vs-vectorized suite compares two paths of the *same* commit;
this test pins the stored-archive payload checksums themselves, so a
change that moves both paths together (or the graph accessors under
them) still shows.  The literals were computed at commit 32872f4 —
before PGX.D PageRank had a kernel and before ``Graph.in_csr()``
existed — on the scalar path over a list-backed graph.
"""

from __future__ import annotations

import pytest

from repro.core.archive.store import ArchiveStore
from repro.core.model.library import default_library
from repro.core.process import EvaluationProcess
from repro.graph.graph import Graph
from repro.platforms.base import JobRequest
from repro.platforms.pgxd.engine import PgxdPlatform
from repro.workloads.runner import build_cluster

#: 12 vertices: 5 is dangling (in-edges only), 3 has a self-loop, 11 is
#: isolated, 0 is a small hub; 4 workers own 3 vertices each.
_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 6),
    (1, 2), (1, 5), (2, 0), (2, 5), (3, 3), (3, 7),
    (4, 5), (4, 8), (6, 7), (6, 9), (7, 8), (7, 0),
    (8, 9), (8, 10), (9, 10), (9, 6), (10, 4), (10, 5),
]

_GOLDEN = {
    "pagerank": (
        "7f6500a00d474b0ccfc2078513923e13"
        "2cf7573abfcdc0fe02a3c0ed409bd2f9"
    ),
    "bfs": (
        "1961b45c90b1eeb66ddfe288cc611fb7"
        "c9be27e24f8ba3c4ff4f458042a69760"
    ),
}

#: Per-vertex results at the same commit (archives carry work counts and
#: timestamps, not values, so the output is pinned beside the checksum).
_GOLDEN_OUTPUT = {
    "pagerank": [
        0.08841868203017832, 0.042572864087791484, 0.059489591659807946,
        0.07121802622770917, 0.08526152252400548, 0.14564563840877914,
        0.08248250030178325, 0.0898470672153635, 0.09833251906721535,
        0.10068487462277091, 0.1077196598079561, 0.028327054046639228,
    ],
    "bfs": [0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 3, -1],
}

_PARAMS = {"pagerank": {"iterations": 5, "damping": 0.8},
           "bfs": {"source": 0}}


@pytest.mark.parametrize("mode", ["scalar", "auto"])
@pytest.mark.parametrize("algo", sorted(_GOLDEN))
def test_stored_checksum_matches_parent_commit(tmp_path, algo, mode):
    platform = PgxdPlatform(build_cluster("PGX.D"), engine_mode=mode)
    platform.deploy_dataset("golden", Graph(12, _EDGES))
    store = ArchiveStore(tmp_path)
    process = EvaluationProcess(
        platform, default_library().get("PGX.D"), store=store)
    job_id = f"pgxd-{algo}-golden"
    iteration = process.iterate(JobRequest(
        algo, "golden", 4, params=_PARAMS[algo], job_id=job_id))
    assert store.checksum(job_id) == _GOLDEN[algo]
    output = iteration.run.result.output
    assert [output[v] for v in range(12)] == _GOLDEN_OUTPUT[algo]
