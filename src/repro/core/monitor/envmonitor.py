"""Environment monitoring: per-node CPU series.

"Environment logs reveal the performance impact on the underlying
cluster environment."  The monitor samples each node's CPU account over
the job window at a fixed resolution, producing the series plotted in
Figures 6 and 7 ("CPU time / second" per node).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.cpu import UsageSeries, merge_series
from repro.core.monitor.records import EnvSample
from repro.errors import MonitorError


class EnvironmentMonitor:
    """Samples the simulated cluster's CPU accounting.

    On a real deployment this component tails ``/proc`` or a metrics
    daemon; here it reads the busy intervals the engines charged, which
    carries the same information at the same resolution.
    """

    def __init__(self, cluster: Cluster, step: float = 1.0):
        if step <= 0:
            raise MonitorError(f"sample step must be positive: {step}")
        self.cluster = cluster
        self.step = step

    def sample_window(
        self,
        t0: float,
        t1: float,
        nodes: Optional[List[str]] = None,
    ) -> Dict[str, UsageSeries]:
        """Per-node usage series over ``[t0, t1)``."""
        names = nodes if nodes is not None else self.cluster.node_names
        return {
            name: self.cluster.node(name).usage(t0, t1, self.step)
            for name in names
        }

    def samples(
        self,
        t0: float,
        t1: float,
        nodes: Optional[List[str]] = None,
    ) -> List[EnvSample]:
        """Flat, timestamp-ordered sample records over ``[t0, t1)``."""
        return self.flatten(self.sample_window(t0, t1, nodes))

    @staticmethod
    def flatten(series: Dict[str, UsageSeries]) -> List[EnvSample]:
        """:meth:`samples` of a window already taken by :meth:`sample_window`.

        Ordered by (timestamp, node): a stable sort of the timestamps
        over the series concatenated in node-name order.
        """
        names = sorted(series)
        times: List[float] = []
        values: List[float] = []
        nodes: List[str] = []
        for name in names:
            one = series[name]
            times += one.times
            values += one.values
            nodes += [name] * len(one.times)
        order = np.argsort(np.array(times, dtype=np.float64), kind="stable")
        return [EnvSample(times[i], nodes[i], values[i])
                for i in order.tolist()]

    def cluster_series(
        self,
        t0: float,
        t1: float,
        nodes: Optional[List[str]] = None,
    ) -> Optional[UsageSeries]:
        """Cluster-wide cumulative usage (sum over nodes)."""
        series = self.sample_window(t0, t1, nodes)
        return merge_series(series.values())
