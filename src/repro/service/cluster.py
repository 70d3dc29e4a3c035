"""Front-tier assembly for the sharded archive service.

``granula serve --workers N`` builds this: one
:class:`repro.service.server.ArchiveServer` (the same stdlib HTTP
adapter, same request hygiene) hosting a
:class:`repro.service.router.ClusterService` instead of a single-shard
app, plus a :class:`repro.service.supervisor.ShardSupervisor` that
keeps N forked shard workers alive behind it.  It is served by the
same :func:`repro.service.server.serve` loop as a single worker; what
differs — the banner and what stopping means — is what
:class:`ClusterServer` overrides.

A chaos plan is split at the tier boundary by
:func:`repro.service.chaos.split_chaos_plan`: worker-level events
(disk-full, WAL latency, ...) ship into every forked worker, while
router-level events (``worker_kill``, ``probe_timeout``,
``slow_shard``) arm a controller owned by the front process — the
supervisor registers its ``kill_worker`` as the ``worker_kill`` action
so a plan can deterministically SIGKILL shard k after its j-th probe.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ServiceError
from repro.service.chaos import (
    ChaosController,
    ChaosPlan,
    split_chaos_plan,
)
from repro.service.router import MIN_VNODES, ClusterService
from repro.service.server import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_REQUEST_TIMEOUT,
    ArchiveServer,
)
from repro.service.supervisor import ShardSupervisor

logger = logging.getLogger(__name__)


class ClusterServer(ArchiveServer):
    """An :class:`ArchiveServer` whose service is a cluster router."""

    def __init__(
        self,
        address,
        service: ClusterService,
        supervisor: ShardSupervisor,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        super().__init__(
            address, service,
            request_timeout=request_timeout,
            max_body_bytes=max_body_bytes,
        )
        self.supervisor = supervisor

    stopped = "cluster stopped"

    def describe(self) -> str:
        degraded = self.supervisor.degraded()
        health = (
            "all live" if not degraded
            else f"degraded shards {degraded}"
        )
        return (f"routing {len(self.supervisor)} shard(s) at "
                f"{self.url} ({health}; Ctrl-C to stop)")

    def begin_stop(self) -> None:
        """Nothing to flip: the shard workers own the write path."""

    def finish_stop(self) -> None:
        """The front listener has stopped taking requests; the
        supervisor SIGTERMs every worker so each drains its own
        ingestion queue (anything slower stays in that shard's WAL for
        the next start); then the router's fan-out threads stop and its
        pooled shard connections close."""
        self.supervisor.stop()
        self.service.close()


def create_cluster(
    shard_directories: List[Union[str, Path]],
    host: str = "127.0.0.1",
    port: int = 8737,
    cache_size: int = 64,
    queue_size: int = 256,
    chaos: Optional[ChaosPlan] = None,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    vnodes: int = MIN_VNODES,
    probe_interval: float = 0.5,
    wait_live: float = 30.0,
) -> ClusterServer:
    """Build a bound (not yet serving) cluster front tier.

    Spawns one worker per shard directory (created if missing), waits
    up to ``wait_live`` seconds for the fleet to come up — each worker
    replays its own WAL before reporting ready — then binds the router.
    ``port=0`` binds an ephemeral port, as in :func:`create_server`.
    """
    if not shard_directories:
        raise ServiceError("a cluster needs at least one shard directory")
    worker_plan = router_plan = None
    if chaos is not None:
        worker_plan, router_plan = split_chaos_plan(chaos)
    controller = (
        ChaosController(router_plan) if router_plan is not None else None
    )
    supervisor = ShardSupervisor(
        [Path(directory) for directory in shard_directories],
        queue_size=queue_size,
        cache_size=cache_size,
        request_timeout=request_timeout,
        max_body_bytes=max_body_bytes,
        worker_chaos=worker_plan,
        chaos=controller,
        probe_interval=probe_interval,
    )
    supervisor.start()
    try:
        if not supervisor.wait_live(timeout=wait_live):
            logger.warning(
                "cluster starting degraded: shards %s are not live",
                supervisor.degraded(),
            )
        service = ClusterService(
            supervisor,
            vnodes=vnodes,
            chaos=controller,
            request_timeout=request_timeout,
        )
        server = ClusterServer(
            (host, port), service, supervisor,
            request_timeout=request_timeout,
            max_body_bytes=max_body_bytes,
        )
    except OSError as exc:
        supervisor.stop()
        raise ServiceError(f"cannot bind {host}:{port}: {exc}") from None
    except Exception:
        supervisor.stop()
        raise
    return server


__all__ = ["ClusterServer", "create_cluster"]
