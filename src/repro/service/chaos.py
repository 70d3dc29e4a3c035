"""Service-level fault injection for ``granula serve``.

The platform engines have :class:`repro.platforms.faults.FaultPlan` —
a typed, seeded schedule of failures that makes every recovery path
deterministically reproducible.  This module is the same vocabulary
aimed at the *service*: a :class:`ChaosPlan` schedules faults at the
four operations the write path performs —

- ``request``      handling an HTTP request,
- ``wal_append``   the durable WAL append behind ``POST /jobs``,
- ``store_save``   the ingestion worker persisting into the store,
- ``ack``          the worker acknowledging a drained WAL record —

and, since the sharded cluster tier, at the two operations the *front
router* performs —

- ``route``        proxying one request to its owner shard,
- ``probe``        the supervisor's periodic per-shard liveness probe —

and a :class:`ChaosController` fires them by *occurrence count* (the
``after``-th call onward, ``count`` times), so "the third WAL append
fails with ENOSPC" or "the worker crashes before its second ack" is a
plan, not a race.  ``granula serve --chaos plan.json`` arms one;
every degraded-mode transition in the test suite and the CI chaos
smoke reproduces from such a plan.

Event types:

- :class:`InjectLatency` — sleep before an operation (slow disk, slow
  handler);
- :class:`DiskFull` — raise ``OSError(ENOSPC)`` from ``wal_append``,
  driving the ``ok → degraded`` read-only transition;
- :class:`LockTimeout` — raise :class:`repro.errors.StoreBusyError`
  from ``store_save``, exercising the worker's backoff-and-retry;
- :class:`WorkerCrash` — raise :class:`WorkerCrashed` before ``ack``,
  killing the ingestion worker after the save but before the WAL ack,
  which is exactly the window WAL replay must make safe.

Router-level event types (cluster mode):

- :class:`WorkerKill` — SIGKILL one shard's worker process on the
  ``after``-th supervisor probe of that shard (the action is a
  registered callback, see :meth:`ChaosController.register_action`);
- :class:`ProbeTimeout` — make the supervisor's probe of one shard
  raise ``TimeoutError``, driving the live → suspect → restarting
  path without harming the worker;
- :class:`SlowShard` — add latency to every request the router proxies
  to one shard (a slow disk under one shard, not the whole tier).

Every event names the operation it intercepts as ``op``: a field of
:class:`InjectLatency`, a class constant of the others.  Router ops
carry a ``shard`` argument: occurrence counters are kept per ``(op,
shard)`` so "the third probe of shard 1 times out" is independent of
how often shard 0 is probed.
"""

from __future__ import annotations

import errno
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple, Union

from repro.errors import ChaosError, StoreBusyError
from repro.plancodec import EventPlan

#: Operations a shard worker's write path performs.
WORKER_OPS = ("request", "wal_append", "store_save", "ack")

#: Operations the cluster front router / supervisor performs.
ROUTER_OPS = ("route", "probe")

#: Every operation a chaos event may target.
CHAOS_OPS = WORKER_OPS + ROUTER_OPS


class WorkerCrashed(BaseException):
    """Injected ingestion-worker death (crash before ack).

    Derives from ``BaseException`` so ordinary ``except Exception``
    error handling inside the worker cannot swallow the crash — like a
    real ``kill -9``, it only stops at the supervisor.
    """


class _Event:
    """The field checks every chaos event shares."""

    def __post_init__(self) -> None:
        name = type(self).__name__
        if self.op not in CHAOS_OPS:
            raise ChaosError(
                f"{name}.op must be one of {', '.join(CHAOS_OPS)}; "
                f"got {self.op!r}"
            )
        if getattr(self, "delay_s", 1) <= 0:
            raise ChaosError(
                f"{name}.delay_s must be positive, got {self.delay_s}")
        shard = getattr(self, "shard", 0)
        if not isinstance(shard, int) or shard < 0:
            raise ChaosError(
                f"{name}.shard must be an int >= 0, got {shard!r}")
        if self.after < 0:
            raise ChaosError(f"{name}.after must be >= 0, got {self.after}")
        if getattr(self, "count", 1) < 1:
            raise ChaosError(f"{name}.count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class InjectLatency(_Event):
    """Sleep ``delay_s`` before occurrences [after, after+count) of op."""

    op: str
    delay_s: float
    after: int = 0
    count: int = 1


@dataclass(frozen=True)
class DiskFull(_Event):
    """``OSError(ENOSPC)`` on occurrences [after, after+count) of
    ``wal_append`` — the WAL disk filling up under the service."""

    op: ClassVar[str] = "wal_append"
    after: int = 0
    count: int = 1


@dataclass(frozen=True)
class LockTimeout(_Event):
    """:class:`StoreBusyError` on occurrences [after, after+count) of
    ``store_save`` — simulated index-lock contention."""

    op: ClassVar[str] = "store_save"
    after: int = 0
    count: int = 1


@dataclass(frozen=True)
class WorkerCrash(_Event):
    """Kill the ingestion worker before its ``after``-th ack."""

    op: ClassVar[str] = "ack"
    after: int = 0


@dataclass(frozen=True)
class WorkerKill(_Event):
    """SIGKILL one shard's worker on its ``after``-th supervisor probe.

    The kill itself is a registered action (the supervisor plugs in
    ``kill_worker``); a plan carrying this event outside cluster mode
    counts the occurrence and does nothing.
    """

    op: ClassVar[str] = "probe"
    shard: int
    after: int = 0


@dataclass(frozen=True)
class ProbeTimeout(_Event):
    """``TimeoutError`` on probes [after, after+count) of one shard."""

    op: ClassVar[str] = "probe"
    shard: int
    after: int = 0
    count: int = 1


@dataclass(frozen=True)
class SlowShard(_Event):
    """Sleep ``delay_s`` before routed requests [after, after+count)
    aimed at one shard — a slow shard, not a slow tier."""

    op: ClassVar[str] = "route"
    shard: int
    delay_s: float
    after: int = 0
    count: int = 1


ChaosEvent = Union[
    InjectLatency, DiskFull, LockTimeout, WorkerCrash,
    WorkerKill, ProbeTimeout, SlowShard,
]


def split_chaos_plan(plan: ChaosPlan) -> Tuple["ChaosPlan", "ChaosPlan"]:
    """Partition a plan into ``(worker_plan, router_plan)``.

    In cluster mode each shard worker arms its own controller over the
    worker-op events, while the front router / supervisor arms the
    router-op events; splitting here keeps one plan file the single
    source of truth for both tiers.
    """
    worker = tuple(e for e in plan.events if e.op not in ROUTER_OPS)
    router = tuple(e for e in plan.events if e.op in ROUTER_OPS)
    return (ChaosPlan(events=worker, seed=plan.seed),
            ChaosPlan(events=router, seed=plan.seed))


@dataclass(frozen=True)
class ChaosPlan(EventPlan):
    """A seeded schedule of service faults, in the plan format and codec
    of :class:`repro.platforms.faults.FaultPlan`."""

    events: Tuple[ChaosEvent, ...] = ()
    seed: int = 0

    EVENT_TYPES = {
        "latency": InjectLatency,
        "disk_full": DiskFull,
        "lock_timeout": LockTimeout,
        "worker_crash": WorkerCrash,
        "worker_kill": WorkerKill,
        "probe_timeout": ProbeTimeout,
        "slow_shard": SlowShard,
    }
    ERROR = ChaosError
    KIND = "chaos plan"

    def __post_init__(self) -> None:
        self._check_events()


class ChaosController:
    """Fires a plan's events against live operation streams.

    Each operation name carries its own occurrence counter; an event
    matches occurrences ``[after, after + count)`` of its operation.
    Counters are monotone and thread-safe, so the same plan against the
    same request/ingest sequence produces the same faults — that is the
    determinism contract the tests lean on.
    """

    def __init__(
        self,
        plan: ChaosPlan,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        self._occurrences: Dict[str, int] = {op: 0 for op in WORKER_OPS}
        self._injected: Dict[str, int] = {}
        self._actions: Dict[str, Callable[[int], None]] = {}

    def register_action(
        self, name: str, callback: Callable[[int], None],
    ) -> None:
        """Plug in the side effect for an action event.

        Currently ``worker_kill``: the cluster supervisor registers its
        SIGKILL-a-worker callback, which receives the shard index.
        """
        self._actions[name] = callback

    def on(self, op: str, shard: Optional[int] = None) -> None:
        """Account one occurrence of ``op``; fire matching events.

        Router ops (``route``, ``probe``) pass the targeted ``shard``;
        their occurrences are counted per ``(op, shard)`` and only
        events declaring that shard match.  May sleep (latency /
        slow_shard), raise :class:`OSError` (disk full),
        :class:`StoreBusyError` (lock timeout), :class:`WorkerCrashed`
        (crash before ack), or :class:`TimeoutError` (probe timeout) —
        and may invoke a registered action (worker kill).
        """
        if op not in CHAOS_OPS:
            raise ChaosError(f"unknown chaos operation {op!r}")
        key = op if shard is None else f"{op}[{shard}]"
        actions = []
        with self._lock:
            occurrence = self._occurrences.get(key, 0)
            self._occurrences[key] = occurrence + 1
            delay = 0.0
            failure: Optional[BaseException] = None
            for event in self.plan.events:
                if event.op != op or getattr(event, "shard", shard) != shard:
                    continue
                count = getattr(event, "count", 1)
                if not event.after <= occurrence < event.after + count:
                    continue
                self._count(ChaosPlan.type_name(event))
                if isinstance(event, (InjectLatency, SlowShard)):
                    # Latency-shaped: accumulates, never terminal.
                    delay += event.delay_s
                    continue
                if isinstance(event, WorkerKill):
                    # Action-shaped: fires the registered callback and
                    # lets the probe itself proceed (death is observed
                    # on the next tick, like a real kill -9).
                    actions.append(("worker_kill", event.shard))
                    continue
                if isinstance(event, DiskFull):
                    failure = OSError(
                        errno.ENOSPC, "injected: no space left on device"
                    )
                elif isinstance(event, LockTimeout):
                    failure = StoreBusyError(
                        "injected: store index lock timed out"
                    )
                elif isinstance(event, WorkerCrash):
                    failure = WorkerCrashed(
                        f"injected worker crash before ack {occurrence}"
                    )
                else:
                    failure = TimeoutError(
                        f"injected probe timeout for shard {shard}"
                    )
                break
        # Sleep, act, and raise outside the lock so a long injected
        # latency cannot serialize unrelated operations.
        if delay:
            self._sleep(delay)
        for name, target in actions:
            callback = self._actions.get(name)
            if callback is not None:
                callback(target)
        if failure is not None:
            raise failure

    def _count(self, kind: str) -> None:
        self._injected[kind] = self._injected.get(kind, 0) + 1

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "signature": self.plan.signature(),
                "occurrences": dict(self._occurrences),
                "injected": dict(self._injected),
            }


__all__ = [
    "CHAOS_OPS",
    "ROUTER_OPS",
    "WORKER_OPS",
    "ChaosController",
    "ChaosEvent",
    "ChaosPlan",
    "DiskFull",
    "InjectLatency",
    "LockTimeout",
    "ProbeTimeout",
    "SlowShard",
    "WorkerCrash",
    "WorkerCrashed",
    "WorkerKill",
    "split_chaos_plan",
]
