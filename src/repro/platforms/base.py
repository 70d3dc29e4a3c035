"""Platform interface: job requests, job results, and the Platform ABC."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, List, Mapping, Optional,
)

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import PlatformError
from repro.graph.graph import Graph

if TYPE_CHECKING:  # imported lazily to avoid a platforms.base cycle
    from repro.platforms.faults import FaultPlan

#: Execution-backend selection modes accepted by the simulated engines.
ENGINE_MODES = ("auto", "scalar", "vectorized")


def resolve_engine_mode(
    mode: str, supported: bool, platform: str, algorithm: str
) -> bool:
    """Decide whether a job takes the vectorized execution path.

    ``auto`` uses the vectorized backend whenever a kernel exists for the
    job's program and falls back to the scalar path otherwise;
    ``scalar`` forces the reference path; ``vectorized`` demands a
    kernel and raises when the program has none (custom programs,
    non-default combiners or weight functions).
    """
    if mode == "scalar":
        return False
    if mode == "vectorized":
        if not supported:
            raise PlatformError(
                f"{platform}: no vectorized kernel for {algorithm!r} with "
                f"these parameters; rerun with engine mode 'auto' or "
                f"'scalar'"
            )
        return True
    if mode == "auto":
        return supported
    raise PlatformError(
        f"unknown engine mode {mode!r}; expected one of {ENGINE_MODES}"
    )


@dataclass(frozen=True)
class JobRequest:
    """A request to run one graph-processing job.

    Attributes:
        algorithm: algorithm name; both engines implement ``"bfs"``,
            ``"pagerank"``, ``"wcc"``, ``"sssp"``, ``"cdlp"`` and
            ``"lcc"``.
        dataset: name of a dataset previously deployed on the platform
            (see :meth:`Platform.deploy_dataset`).
        workers: number of workers (one per node).
        params: algorithm parameters, e.g. ``{"source": 0}`` for BFS and
            SSSP, ``{"iterations": 20}`` for PageRank/CDLP.
        job_id: explicit job id; auto-generated when empty.
    """

    algorithm: str
    dataset: str
    workers: int
    params: Dict[str, Any] = field(default_factory=dict)
    job_id: str = ""


class VertexValues(Mapping[int, Any]):
    """A job's per-vertex output ``{v: values[v]}`` over a value array.

    Equal to ``dict(enumerate(values.tolist()))`` in every mapping
    operation (lookup, ``get``, ``in``, ``len``, iteration order,
    equality) but built from the array only when a value is first read:
    the pipeline counts, logs and archives a job without reading its
    output, so a job pays nothing for it.  The array is a private
    read-only copy.
    """

    __slots__ = ("_array", "_values")

    def __init__(self, values: np.ndarray):
        array = np.array(values)
        array.flags.writeable = False
        self._array = array
        self._values: Optional[List[Any]] = None

    def _vertex(self, key: Any) -> Optional[int]:
        """The vertex id a dict would find ``key`` under, or None.

        A dict finds ``key`` under the id ``v`` iff ``hash(key) ==
        hash(v)`` and ``key == v``; ``hash(v) == v`` for every id, so
        the one candidate is ``hash(key)`` itself.  That gives ``1.0``,
        ``True`` and numpy integers their dict behaviour, and raises
        TypeError for unhashable keys.
        """
        v = hash(key)
        return v if 0 <= v < len(self._array) and key == v else None

    def __getitem__(self, key: Any) -> Any:
        v = self._vertex(key)
        if v is None:
            raise KeyError(key)
        if self._values is None:
            self._values = self._array.tolist()
        return self._values[v]

    def __contains__(self, key: Any) -> bool:
        return self._vertex(key) is not None

    def __len__(self) -> int:
        return len(self._array)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._array)))

    def __repr__(self) -> str:
        return f"VertexValues({dict(self)!r})"

    def __reduce__(self):
        return (VertexValues, (self._array,))


@dataclass
class JobResult:
    """Outcome of a platform job.

    Attributes:
        job_id: the id the platform assigned.
        algorithm: echo of the request.
        dataset: echo of the request.
        output: per-vertex results (levels, ranks, labels, ...); the
            vectorized engines return a :class:`VertexValues`.
        started_at: simulated job start time.
        finished_at: simulated job end time.
        log_lines: GRANULA-format platform log of the run.
        stats: engine statistics (supersteps, messages, bytes loaded, ...).
    """

    job_id: str
    algorithm: str
    dataset: str
    output: Mapping[int, Any]
    started_at: float
    finished_at: float
    log_lines: List[str] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """End-to-end job runtime in simulated seconds."""
        return self.finished_at - self.started_at


class Platform(abc.ABC):
    """Common surface of the two platform engines.

    Lifecycle: construct over a :class:`~repro.cluster.cluster.Cluster`,
    :meth:`deploy_dataset` once per graph, then :meth:`run_job` any number
    of times.  Implementations emit GRANULA platform logs and charge all
    activity to the cluster's clock and CPU accounts.
    """

    #: Platform name as it appears in Table 1 (subclasses override).
    name: str = "abstract"

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._datasets: Dict[str, Any] = {}
        self._job_counter = 0
        self.fault_plan: Optional["FaultPlan"] = None

    def inject_faults(self, plan: Optional["FaultPlan"]) -> None:
        """Arm (or with ``None`` disarm) fault injection for later jobs.

        The plan stays armed across jobs until replaced.  Engines that
        implement fault tolerance (Giraph, PowerGraph) consult it at
        each fault point and emit the recovery cost as Granula log
        operations; other engines ignore it.  Results stay correct
        either way.

        Raises:
            PlatformError: if the plan targets a node this cluster does
                not have (a typo would otherwise silently no-op).
        """
        if plan is not None:
            unknown = [name for name in plan.node_names()
                       if name not in self.cluster.node_names]
            if unknown:
                raise PlatformError(
                    f"fault plan targets unknown node(s) "
                    f"{', '.join(sorted(unknown))}; this cluster has "
                    f"{', '.join(self.cluster.node_names)}"
                )
        self.fault_plan = plan

    @abc.abstractmethod
    def deploy_dataset(self, name: str, graph: Graph) -> None:
        """Stage ``graph`` on the platform's storage system under ``name``.

        Giraph writes a vertex-store file into HDFS; PowerGraph writes an
        edge-list file into the shared filesystem.  Deployment happens
        before the measured job and costs no job time.
        """

    @abc.abstractmethod
    def run_job(self, request: JobRequest) -> JobResult:
        """Execute one job end-to-end and return its result.

        The engine resets per-run cluster state (clock, CPU accounting)
        itself so consecutive jobs start at time zero, like the per-job
        analysis in the paper.
        """

    def has_dataset(self, name: str) -> bool:
        """True when ``name`` was deployed."""
        return name in self._datasets

    def _next_job_id(self, request: JobRequest) -> str:
        if request.job_id:
            return request.job_id
        self._job_counter += 1
        return f"{self.name}-job-{self._job_counter:04d}"

    def _require_dataset(self, name: str) -> Any:
        try:
            return self._datasets[name]
        except KeyError:
            raise PlatformError(
                f"{self.name}: dataset {name!r} not deployed "
                f"(available: {sorted(self._datasets)})"
            ) from None

    def _check_workers(self, workers: int) -> None:
        if workers <= 0:
            raise PlatformError(f"worker count must be positive: {workers}")
        if workers > self.cluster.size:
            raise PlatformError(
                f"{workers} workers requested but cluster has only "
                f"{self.cluster.size} nodes"
            )
