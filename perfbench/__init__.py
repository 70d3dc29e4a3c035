"""perfbench: this repository's benchmark.

Five named workloads drive the reproduction from outside — the paper's
experiment as users run it, the log→archive ingest side, the analyst's
read side, and the HTTP service with and without the shard router —
and report absolute end-to-end metrics plus a per-layer budget taken
in a separate traced pass.  See ``perfbench/README.md``; the contract
(command, workloads, metric names, units, bounds) lives in the
repo-root ``BENCHMARK.json``.

The package owns its input generators and imports nothing from
``benchmarks/`` or ``repro.experiments.*_bench``, so deleting one of
those slow twins can never change a workload.
"""
