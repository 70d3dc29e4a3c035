"""Shared fixtures.

Expensive artifacts (graphs, monitored runs, the dg1000-scaled
experiment runner) are session-scoped: every test sees identical,
deterministic state without re-running the simulations.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.cluster.cluster import Cluster, DAS5_GIRAPH_NODES, DAS5_POWERGRAPH_NODES
from repro.cluster.node import das5_node
from repro.core.analysis.fleet import run_fleet_query
from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.builder import build_archive
from repro.core.archive.store import ArchiveStore
from repro.core.model.giraph_model import giraph_model
from repro.core.model.powergraph_model import powergraph_model
from repro.core.monitor.logparser import parse_log_columns
from repro.core.monitor.session import MonitoredRun, MonitoringSession
from repro.graph.generators.datagen import datagen_graph
from repro.graph.graph import Graph
from repro.platforms.base import JobRequest, JobResult
from repro.platforms.gas.engine import PowerGraphPlatform
from repro.platforms.pregel.engine import GiraphPlatform

#: HDFS block size matching the scaled datasets.
TEST_HDFS_BLOCK = 1 << 16


def make_giraph_cluster() -> Cluster:
    """A fresh 8-node Giraph-style cluster."""
    return Cluster(
        [das5_node(n) for n in DAS5_GIRAPH_NODES],
        hdfs_block_size=TEST_HDFS_BLOCK,
    )


def make_powergraph_cluster() -> Cluster:
    """A fresh 8-node PowerGraph-style cluster."""
    return Cluster(
        [das5_node(n) for n in DAS5_POWERGRAPH_NODES],
        hdfs_block_size=TEST_HDFS_BLOCK,
    )


def columns_run(lines, job_id="j", env_samples=()) -> MonitoredRun:
    """Literal log lines as a monitored run, parsed the way sessions parse."""
    lines = list(lines)
    columns, report = parse_log_columns(lines)
    result = JobResult(job_id=job_id, algorithm="bfs", dataset="d",
                       output={}, started_at=0.0, finished_at=1.0,
                       log_lines=lines)
    return MonitoredRun(result=result, columns=columns, env_series={},
                        env_samples=list(env_samples), node_names=["n1"],
                        parse_report=report)


def folded_index(directory) -> Dict[str, Dict]:
    """A store's index as its files state it, read without the store.

    The ``index.json`` snapshot with every complete ``index.journal``
    line (``[job_id, entry]`` or ``[job_id, null]``) applied in order.
    """
    directory = Path(directory)
    index = json.loads((directory / "index.json").read_bytes())
    journal = directory / "index.journal"
    if journal.exists():
        for line in journal.read_bytes().split(b"\n")[:-1]:
            job_id, entry = json.loads(line)
            if entry is None:
                index.pop(job_id, None)
            else:
                index[job_id] = entry
    return index


def assert_index_is_rebuild(directory, folded: Dict[str, Dict]) -> None:
    """``folded`` is ``rebuild_index()``, and compacting the store's
    index writes exactly the bytes the rebuild writes."""
    directory = Path(directory)
    store = ArchiveStore(directory)
    assert {job_id: store.summary(job_id) for job_id in store.list()} \
        == folded
    with store._mutex, store._locked():
        store._compact()
    compacted = (directory / "index.json").read_bytes()
    assert store.rebuild_index() == folded
    assert (directory / "index.json").read_bytes() == compacted


def sidecarless_fleet_query(store: ArchiveStore, plan: FleetPlan,
                            include_samples: bool = False) -> Dict[str, Any]:
    """``plan``'s document from a copy of ``store`` without sidecars.

    Every ``.gcol`` is left out of the copy, so each job is read from
    its JSON document's own columns, as a job with a missing sidecar is
    in production, and is reported in ``degraded_jobs``.  Compare it
    with a sidecar scan of ``store`` field by field, ignoring only
    ``degraded_jobs``.
    """
    with tempfile.TemporaryDirectory(prefix="granula-tree-") as scratch:
        copy = Path(scratch) / "store"
        shutil.copytree(store.directory, copy,
                        ignore=shutil.ignore_patterns("*.gcol"))
        return run_fleet_query(ArchiveStore(copy), plan,
                               include_samples=include_samples)


@pytest.fixture(scope="session")
def tiny_graph() -> Graph:
    """A small, connected Datagen-like graph (shared, do not mutate)."""
    return datagen_graph(600, avg_degree=6, seed=11)


@pytest.fixture(scope="session")
def small_graph() -> Graph:
    """A mid-size Datagen-like graph for engine validation."""
    return datagen_graph(3000, avg_degree=7, seed=5)


@pytest.fixture()
def line_graph() -> Graph:
    """0 -> 1 -> 2 -> 3 -> 4 (easy to reason about by hand)."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture()
def diamond_graph() -> Graph:
    """0 -> {1, 2} -> 3 plus an isolated vertex 4."""
    return Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture(scope="session")
def giraph_run(tiny_graph):
    """One monitored Giraph BFS run on the tiny graph (shared)."""
    platform = GiraphPlatform(make_giraph_cluster())
    platform.deploy_dataset("tiny", tiny_graph)
    session = MonitoringSession(platform)
    return session.run(JobRequest(
        algorithm="bfs", dataset="tiny", workers=8, params={"source": 0},
    ))


@pytest.fixture(scope="session")
def giraph_archive(giraph_run):
    """The archive of the shared Giraph run, built with the full model."""
    archive, _report = build_archive(giraph_run, giraph_model())
    return archive


@pytest.fixture(scope="session")
def powergraph_run(tiny_graph):
    """One monitored PowerGraph BFS run on the tiny graph (shared)."""
    platform = PowerGraphPlatform(make_powergraph_cluster())
    platform.deploy_dataset("tiny", tiny_graph)
    session = MonitoringSession(platform)
    return session.run(JobRequest(
        algorithm="bfs", dataset="tiny", workers=8, params={"source": 0},
    ))


@pytest.fixture(scope="session")
def powergraph_archive(powergraph_run):
    """The archive of the shared PowerGraph run."""
    archive, _report = build_archive(powergraph_run, powergraph_model())
    return archive
