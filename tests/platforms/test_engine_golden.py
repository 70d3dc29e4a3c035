"""Cross-commit byte identity of every engine's archives.

``test_vectorized_equivalence.py`` compares the scalar and vectorized
paths of the *same* commit, so a change to a helper both paths share
(``platforms/vecops.py``, the graph accessors, the text-size counters)
would move them together unseen.  This test pins the stored-archive
payload checksums and a digest of the per-vertex output for Giraph,
PowerGraph, Hadoop and PGX.D × bfs/pagerank/wcc on one small fixture
graph, on both paths.  The literals were computed at commit 9047439, on
the scalar path, before the engines' per-vertex Python became array
kernels; regenerate them (``python -m tests.platforms.test_engine_golden``)
only for a meant change to what the engines write.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.archive.store import ArchiveStore
from repro.core.model.library import default_library
from repro.core.process import EvaluationProcess
from repro.graph.graph import Graph
from repro.platforms.base import JobRequest
from repro.platforms.gas.engine import PowerGraphPlatform
from repro.platforms.mapreduce.engine import HadoopPlatform
from repro.platforms.pgxd.engine import PgxdPlatform
from repro.platforms.pregel.engine import GiraphPlatform
from repro.workloads.runner import build_cluster

_PLATFORMS = {
    "Giraph": GiraphPlatform,
    "PowerGraph": PowerGraphPlatform,
    "Hadoop": HadoopPlatform,
    "PGX.D": PgxdPlatform,
}

#: 130 vertices, so ids and BFS depths cross the 10 and 100 digit
#: boundaries: a ring of 0..99 with chords, a self-loop on 7, a second
#: component 100..119 (unreached from 0), dangling sinks 120..128 and an
#: isolated vertex 129.
_N = 130


def _edges():
    edges = [(v, (v + 1) % 100) for v in range(100)]
    edges += [(v, (v * 7 + 3) % 100) for v in range(0, 100, 3)]
    edges += [(v, 120 + v % 9) for v in range(0, 100, 11)]
    edges += [(100 + i, 100 + (i * 3 + 1) % 20) for i in range(20)]
    edges.append((7, 7))
    return sorted(set(edges))


_PARAMS = {
    "bfs": {"source": 0},
    "pagerank": {"iterations": 5, "damping": 0.85},
    "wcc": {},
}

_GOLDEN = {
    "Giraph/bfs": (
        "5dd63a377926bdfdd1aa1a8d0d905ca1182271a259ee904edf557328645d94f3",
        "0cec2b3a08b2666aca687eba444689cd7572035e8598f69f2baaa3c0e6f0ec01",
    ),
    "Giraph/pagerank": (
        "8e44fd6871c2510aeaab7c2d92288340ed4003c15470044b533fffc7a7b85bb7",
        "16967bcb7731a5853f398d4cc806a78cb2e034460f91c41252e0224c5998b3cf",
    ),
    "Giraph/wcc": (
        "eff8e66bc6a12517e17027ef66239641f349c5593dbfa831f63636a426438b8b",
        "2aeb65ba06fc771e3522dced3a58c0348a7b260e82ac420b2d4bb129f52b0ae9",
    ),
    "PowerGraph/bfs": (
        "bdcdfa82b924c3ed99b9332ffc4ef836d827bae3a7b8e41836213cab9ea9aeb0",
        "0cec2b3a08b2666aca687eba444689cd7572035e8598f69f2baaa3c0e6f0ec01",
    ),
    "PowerGraph/pagerank": (
        "c9d42afeb9ed8a6c1f19ddafacde485f64f133a08d4e692ee752c25ee2011237",
        "5fec0575f4cad7fd62699bade67e53c34ce38cafc8c0ff66f46f09a25794dc75",
    ),
    "PowerGraph/wcc": (
        "e1897463b29ff56bde47c9ddb15ec1e62419ba01739a52464bb6bbe144f8f760",
        "2aeb65ba06fc771e3522dced3a58c0348a7b260e82ac420b2d4bb129f52b0ae9",
    ),
    "Hadoop/bfs": (
        "fab4b41f0d73a35114c8abb6a4b9db44a0152fdb54fb07d01f7851511eed0970",
        "0cec2b3a08b2666aca687eba444689cd7572035e8598f69f2baaa3c0e6f0ec01",
    ),
    "Hadoop/pagerank": (
        "1189a0f095cac63ab59f17005615a36f3ae126b5c70b9d41698118d798461cd5",
        "5fec0575f4cad7fd62699bade67e53c34ce38cafc8c0ff66f46f09a25794dc75",
    ),
    "Hadoop/wcc": (
        "85b7d4c631990168eefd86b330417c0797a1dc6184653107cbe082718ec50e02",
        "2aeb65ba06fc771e3522dced3a58c0348a7b260e82ac420b2d4bb129f52b0ae9",
    ),
    "PGX.D/bfs": (
        "e03280e180891dd700c5d7e1ec307801379fdf925a97459103d5fda4be8fd02c",
        "0cec2b3a08b2666aca687eba444689cd7572035e8598f69f2baaa3c0e6f0ec01",
    ),
    "PGX.D/pagerank": (
        "c9b15b700738586bc75d62c7c6726c9a12b87b89cadbf9cf990e15f6a24e18f9",
        "5fec0575f4cad7fd62699bade67e53c34ce38cafc8c0ff66f46f09a25794dc75",
    ),
    "PGX.D/wcc": (
        "b06aa2d11d1461e9c6791981522cf9076d3160cdeac19a6a4361926e321760d7",
        "2aeb65ba06fc771e3522dced3a58c0348a7b260e82ac420b2d4bb129f52b0ae9",
    ),
}


def _output_digest(output):
    values = [output[v] for v in range(_N)]
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _run(tmp_path, platform_name, algo, mode):
    platform = _PLATFORMS[platform_name](
        build_cluster(platform_name), engine_mode=mode)
    platform.deploy_dataset("golden", Graph(_N, _edges()))
    store = ArchiveStore(tmp_path)
    process = EvaluationProcess(
        platform, default_library().get(platform_name), store=store)
    job_id = f"{platform_name.replace('.', '')}-{algo}-golden"
    iteration = process.iterate(JobRequest(
        algo, "golden", 4, params=_PARAMS[algo], job_id=job_id))
    return store.checksum(job_id), _output_digest(iteration.run.result.output)


@pytest.mark.parametrize("mode", ["scalar", "auto"])
@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_stored_checksum_matches_parent_commit(tmp_path, case, mode):
    platform_name, algo = case.split("/")
    assert _run(tmp_path, platform_name, algo, mode) == _GOLDEN[case]


if __name__ == "__main__":  # pragma: no cover - literal (re)generation
    import tempfile
    from pathlib import Path

    for name in _PLATFORMS:
        for algo in _PARAMS:
            with tempfile.TemporaryDirectory() as tmp:
                checksum, digest = _run(Path(tmp), name, algo, "scalar")
            print(f'    "{name}/{algo}": (\n        "{checksum}",\n'
                  f'        "{digest}",\n    ),')
