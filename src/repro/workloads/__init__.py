"""Workloads: named datasets, end-to-end runners, parameter sweeps.

The experiment drivers and ablations go through this layer: it builds
DAS5-like clusters, materializes the named datasets (scaled replicas of
the paper's Datagen graphs), deploys them on the platforms, and runs
monitored jobs.
"""

from repro.workloads.datasets import DATASETS, DatasetSpec, build_dataset
from repro.workloads.parallel import RunRequest
from repro.workloads.spec import WorkloadSpec
from repro.workloads.runner import WorkloadRunner
from repro.workloads.sweep import ParameterSweep, SweepResult

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "build_dataset",
    "RunRequest",
    "WorkloadSpec",
    "WorkloadRunner",
    "ParameterSweep",
    "SweepResult",
]
