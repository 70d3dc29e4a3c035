"""Scheduled, deterministic fault injection for the platform engines.

Supports the failure-diagnosis future-work item.  A :class:`FaultPlan`
is a *schedule* of typed :class:`FaultEvent`\\ s — worker crashes at a
superstep, transient container-launch failures, HDFS block-read errors,
flaky disks, degraded network links, a loader crash mid-load, or a dead
node — plus the fault-tolerance configuration the engines react with
(retry policy, checkpoint interval).  Identical plans with identical
seeds produce byte-identical Granula archives: every recovery action is
a pure function of the plan, so failure experiments are replayable.

Results stay correct under every fault; only the *performance* signature
changes, which is exactly what Granula is supposed to expose.  Recovery
shows up in the platform log as ``RetryContainer``, ``ReplicaFailover``,
``RestartLoad``, ``RecoverWorker`` and ``RedistributePartitions``
operations that :mod:`repro.core.analysis.diagnosis` attributes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

from repro.cluster.retry import CONTAINER_RETRY, RetryPolicy
from repro.errors import PlatformError
from repro.plancodec import EventPlan


# ---------------------------------------------------------------------------
# Typed fault events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Slowdown:
    """One node's time of some kind stretched by ``factor`` (> 1.0)."""

    node: str
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise PlatformError(
                f"{type(self).__name__} factor for {self.node!r} must "
                f"exceed 1.0, got {self.factor}"
            )


class SlowNode(_Slowdown):
    """A persistently slow node: compute time stretched every iteration."""


class SlowDisk(_Slowdown):
    """A flaky/slow disk: storage read time stretched on one node."""


class DegradedLink(_Slowdown):
    """A degraded network link: transfer time stretched on one node."""


@dataclass(frozen=True)
class WorkerCrash:
    """A worker/rank crash during one superstep/iteration.

    The engine recovers from its last checkpoint: the container is
    relaunched (``recovery_s``) and the work since the checkpoint is
    re-executed, emitted as a ``RecoverWorker`` operation.
    """

    worker: int
    superstep: int
    recovery_s: float = 7.5

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise PlatformError(
                f"crash worker must be >= 0, got {self.worker}"
            )
        if self.superstep < 0:
            raise PlatformError(
                f"crash superstep must be >= 0, got {self.superstep}"
            )
        if self.recovery_s <= 0:
            raise PlatformError(
                f"recovery_s must be positive, got {self.recovery_s}"
            )


@dataclass(frozen=True)
class ContainerLaunchFailure:
    """Transient container-launch failures on one node.

    The first ``failures`` launch attempts fail; the resource manager
    retries with backoff (``RetryContainer`` operations).  When
    ``failures`` reaches the retry policy's ``max_attempts`` the node is
    blacklisted, exactly like :class:`NodeFailure`.
    """

    node: str
    failures: int = 1

    def __post_init__(self) -> None:
        if self.failures < 1:
            raise PlatformError(
                f"container failure count must be >= 1, got {self.failures}"
            )


@dataclass(frozen=True)
class NodeFailure:
    """A dead node: every container launch on it fails.

    After the retry policy is exhausted the node is blacklisted and its
    partitions are redistributed across the survivors
    (``RedistributePartitions``); the job finishes on N-1 nodes.
    """

    node: str


@dataclass(frozen=True)
class HdfsReadError:
    """Block-read errors on one datanode during graph loading.

    The first ``blocks`` local block reads fail partway through; the
    reader fails over to a remote replica (``ReplicaFailover``).
    """

    node: str
    blocks: int = 1

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise PlatformError(
                f"failing block count must be >= 1, got {self.blocks}"
            )


@dataclass(frozen=True)
class LoaderCrash:
    """The sequential GAS loader crashes mid-load.

    The loader process dies after streaming ``at_fraction`` of the edge
    file, is relaunched (``restart_s``), and resumes from its last
    flushed offset, re-reading only a ``replay_fraction`` overlap
    (``RestartLoad`` operations).
    """

    at_fraction: float = 0.5
    restarts: int = 1
    restart_s: float = 3.0
    replay_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.at_fraction < 1.0:
            raise PlatformError(
                f"loader crash fraction must be in (0, 1), "
                f"got {self.at_fraction}"
            )
        if self.restarts < 1:
            raise PlatformError(
                f"loader restart count must be >= 1, got {self.restarts}"
            )
        if self.restart_s <= 0:
            raise PlatformError(
                f"loader restart_s must be positive, got {self.restart_s}"
            )
        if not 0.0 <= self.replay_fraction < 1.0:
            raise PlatformError(
                f"loader replay fraction must be in [0, 1), "
                f"got {self.replay_fraction}"
            )


FaultEvent = Union[
    SlowNode, SlowDisk, DegradedLink, WorkerCrash,
    ContainerLaunchFailure, NodeFailure, HdfsReadError, LoaderCrash,
]


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultPlan(EventPlan):
    """Faults to inject into one job execution, plus recovery config.

    Reads and writes ``granula run --faults`` JSON through the plan
    codec shared with the service's chaos plans
    (:mod:`repro.plancodec`).

    Attributes:
        events: scheduled typed fault events.
        seed: determinism seed — all plan-derived jitter (e.g. how far a
            failed block read got) is a pure function of it.
        retry: the retry policy the substrate reacts with.
        checkpoint_interval: checkpoint every k supersteps/iterations
            (None = the engine's implicit per-superstep checkpoint;
            k >= 1 also emits ``Checkpoint`` operations and charges
            their write cost).
        checkpoint_write_s: cost of writing one checkpoint.
        redistribute_s: base cost of redistributing a dead node's
            partitions across the survivors.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    retry: RetryPolicy = CONTAINER_RETRY
    checkpoint_interval: Optional[int] = None
    checkpoint_write_s: float = 0.6
    redistribute_s: float = 1.5

    EVENT_TYPES = {
        "slow_node": SlowNode,
        "slow_disk": SlowDisk,
        "degraded_link": DegradedLink,
        "worker_crash": WorkerCrash,
        "container_launch_failure": ContainerLaunchFailure,
        "node_failure": NodeFailure,
        "hdfs_read_error": HdfsReadError,
        "loader_crash": LoaderCrash,
    }
    ERROR = PlatformError
    KIND = "fault plan"

    def __post_init__(self) -> None:
        self._check_events()
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise PlatformError(
                f"checkpoint_interval must be >= 1, "
                f"got {self.checkpoint_interval}"
            )
        if self.checkpoint_write_s <= 0:
            raise PlatformError(
                f"checkpoint_write_s must be positive, "
                f"got {self.checkpoint_write_s}"
            )
        if self.redistribute_s <= 0:
            raise PlatformError(
                f"redistribute_s must be positive, got {self.redistribute_s}"
            )
        crashes = [e for e in self.events if isinstance(e, WorkerCrash)]
        seen = set()
        for crash in crashes:
            key = (crash.worker, crash.superstep)
            if key in seen:
                raise PlatformError(
                    f"duplicate worker crash at {key}"
                )
            seen.add(key)

    # -- per-node factors --------------------------------------------------

    def _factor(self, node_name: str, cls) -> float:
        factor = 1.0
        for event in self.events:
            if isinstance(event, cls) and event.node == node_name:
                factor *= event.factor
        return factor

    def slow_factor(self, node_name: str) -> float:
        """Compute-slowdown factor of a node (1.0 when healthy)."""
        return self._factor(node_name, SlowNode)

    def disk_factor(self, node_name: str) -> float:
        """Storage-read slowdown factor of a node (1.0 when healthy)."""
        return self._factor(node_name, SlowDisk)

    def link_factor(self, node_name: str) -> float:
        """Network-transfer slowdown factor of a node (1.0 when healthy)."""
        return self._factor(node_name, DegradedLink)

    # -- crashes -----------------------------------------------------------

    def crashes_at(self, worker: int, superstep: int) -> bool:
        """Whether this (worker, superstep) is an injected crash."""
        return self.worker_crash(worker, superstep) is not None

    def worker_crash(self, worker: int,
                     superstep: int) -> Optional[WorkerCrash]:
        """The crash event of one (worker, superstep), if scheduled."""
        for event in self.events:
            if (
                isinstance(event, WorkerCrash)
                and event.worker == worker
                and event.superstep == superstep
            ):
                return event
        return None

    def crash_in_superstep(self, superstep: int,
                           num_workers: int) -> Optional[WorkerCrash]:
        """The first scheduled crash of one superstep, if any worker
        below ``num_workers`` crashes in it."""
        for worker in range(num_workers):
            crash = self.worker_crash(worker, superstep)
            if crash is not None:
                return crash
        return None

    # -- provisioning / storage / loader faults ----------------------------

    def launch_failures(self, node_name: str) -> int:
        """Failing container-launch attempts scheduled on a node.

        A :class:`NodeFailure` returns the policy's ``max_attempts`` —
        the node never comes up and gets blacklisted.
        """
        failures = 0
        for event in self.events:
            if isinstance(event, NodeFailure) and event.node == node_name:
                return self.retry.max_attempts
            if (
                isinstance(event, ContainerLaunchFailure)
                and event.node == node_name
            ):
                failures = max(failures, event.failures)
        return failures

    def hdfs_read_failures(self, node_name: str) -> int:
        """Failing local block reads scheduled on a datanode."""
        blocks = 0
        for event in self.events:
            if isinstance(event, HdfsReadError) and event.node == node_name:
                blocks += event.blocks
        return blocks

    def loader_crash(self) -> Optional[LoaderCrash]:
        """The scheduled sequential-loader crash, if any."""
        for event in self.events:
            if isinstance(event, LoaderCrash):
                return event
        return None

    def interval(self) -> int:
        """Effective checkpoint interval (implicit default: 1)."""
        return 1 if self.checkpoint_interval is None else self.checkpoint_interval

    def has_faults(self) -> bool:
        """Whether the plan schedules any fault at all."""
        return bool(self.events)

    def node_names(self) -> Tuple[str, ...]:
        """Every node name the plan targets (for cluster validation)."""
        return tuple(dict.fromkeys(
            event.node for event in self.events if hasattr(event, "node")
        ))

    # -- determinism -------------------------------------------------------

    def jitter(self, *key: Any) -> float:
        """A deterministic pseudo-random float in [0, 1) for ``key``.

        Pure function of (seed, key): the same plan replayed yields the
        same value, which keeps fault archives byte-identical.
        """
        digest = hashlib.sha256(
            json.dumps([self.seed, *map(str, key)]).encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)
