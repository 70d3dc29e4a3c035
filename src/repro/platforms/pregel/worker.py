"""Worker-side state and superstep execution.

One :class:`WorkerState` per Giraph worker: its vertex partition, vertex
values, halt flags, and mailboxes.  ``compute_superstep`` runs the user
program over the worker's active vertices and reports the work counts the
cost model converts into simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.graph.graph import Graph
from repro.platforms.pregel.aggregators import AggregatorRegistry
from repro.platforms.pregel.api import VertexContext, VertexProgram
from repro.platforms.pregel.messages import IncomingStore, OutgoingStore
from repro.platforms.vecops import output_text_bytes


@dataclass
class SuperstepWork:
    """Work one worker performed in one superstep (cost-model input).

    Attributes:
        computed: vertices whose ``compute()`` ran.
        messages_in: messages consumed from the mailbox.
        messages_sent: logical sends (before combining).
        wire_remote: post-combining messages bound for other workers.
        wire_local: post-combining messages staying on this worker.
    """

    computed: int = 0
    messages_in: int = 0
    messages_sent: int = 0
    wire_remote: int = 0
    wire_local: int = 0


class WorkerState:
    """One Giraph worker: partition, values, mailbox, halt flags."""

    def __init__(
        self,
        worker_id: int,
        node_name: str,
        vertices: Sequence[int],
        graph: Graph,
        num_workers: int,
        owner_of: Sequence[int],
        program: VertexProgram,
    ):
        self.worker_id = worker_id
        self.node_name = node_name
        self.vertices = list(vertices)
        self.graph = graph
        self.num_workers = num_workers
        self.owner_of = owner_of
        self.program = program
        self.context = VertexContext(graph, num_workers)
        self.values: Dict[int, Any] = {}
        self.halted: Dict[int, bool] = {}
        self.incoming = IncomingStore()
        self._pending_mailbox: Dict[int, List[Any]] = {}
        # Mirror of ``halted`` kept as a set so supersteps can iterate the
        # active vertices directly instead of scanning the whole partition.
        self._unhalted: Set[int] = set()
        # Sorted partitions (the engine's hash partitioning yields these)
        # let us re-derive vertex order from the set; unsorted partitions
        # fall back to a filtered scan to preserve iteration order.
        self._vertices_sorted = all(
            a < b for a, b in zip(self.vertices, self.vertices[1:])
        )
        self._partition_bytes: Optional[int] = None

    def load_partition(self) -> None:
        """Initialize vertex values (the tail of LocalLoad)."""
        for v in self.vertices:
            self.context._begin_vertex(v)
            self.values[v] = self.program.initial_value(v, self.context)
            self.halted[v] = False
        self._unhalted = set(self.vertices)

    def partition_bytes(self) -> int:
        """Approximate in-memory size of the partition (vertices+edges)."""
        if self._partition_bytes is None:
            degrees = self.graph.csr().out_degrees()
            edge_count = int(
                degrees[np.asarray(self.vertices, dtype=np.int64)].sum()
            )
            self._partition_bytes = 48 * len(self.vertices) + 16 * edge_count
        return self._partition_bytes

    def begin_superstep(self, superstep: int, aggregated: Dict[str, Any]) -> None:
        """Take delivered messages and expose aggregator results."""
        self._pending_mailbox = self.incoming.take_all()
        self.context.superstep = superstep
        self.context._aggregated_previous = aggregated

    def active_count(self) -> int:
        """Vertices that will compute this superstep (pre-superstep)."""
        if len(self._unhalted) == len(self.vertices):
            return len(self.vertices)
        return len(
            self._unhalted.union(
                v for v in self._pending_mailbox if v in self.halted
            )
        )

    def compute_superstep(
        self,
        outgoing: OutgoingStore,
        aggregators: AggregatorRegistry,
    ) -> SuperstepWork:
        """Run ``compute()`` on all active vertices of this worker.

        A vertex is active when it has not voted to halt, or when it has
        incoming messages (which re-activate it, per Pregel semantics).
        """
        work = SuperstepWork()
        mailbox = self._pending_mailbox
        self._pending_mailbox = {}
        if len(self._unhalted) == len(self.vertices):
            active: Sequence[int] = self.vertices
        else:
            pending = self._unhalted.union(
                v for v in mailbox if v in self.halted
            )
            if self._vertices_sorted:
                active = sorted(pending)
            else:
                active = [v for v in self.vertices if v in pending]
        for v in active:
            messages = mailbox.get(v, [])
            self.context._begin_vertex(v)
            new_value = self.program.compute(
                v, self.values[v], messages, self.context
            )
            self.values[v] = new_value
            outbox, halted, aggregations = self.context._drain()
            self.halted[v] = halted
            if halted:
                self._unhalted.discard(v)
            else:
                self._unhalted.add(v)
            for dst, value in outbox:
                outgoing.send(dst, value)
            for name, value in aggregations:
                aggregators.contribute(name, value)
            work.computed += 1
            work.messages_in += len(messages)
            work.messages_sent += len(outbox)
        for w in range(self.num_workers):
            wire = outgoing.wire_messages(w)
            if w == self.worker_id:
                work.wire_local += wire
            else:
                work.wire_remote += wire
        return work

    def has_pending_messages(self) -> bool:
        """True when the mailbox holds messages for the next superstep."""
        return self.incoming.pending > 0

    def all_halted(self) -> bool:
        """True when every vertex of the partition voted to halt."""
        return not self._unhalted

    def output(self) -> Dict[int, Any]:
        """Final per-vertex output of this partition."""
        return {
            v: self.program.output_value(v, self.values[v])
            for v in self.vertices
        }

    def output_text_bytes(self) -> int:
        """Size of the ``"<vertex> <value>"`` lines this worker writes."""
        return output_text_bytes(self.output())
