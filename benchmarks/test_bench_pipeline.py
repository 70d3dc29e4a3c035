"""Pipeline benchmark: generate→run→ingest→archive→analyze end to end.

Times the experiment suite's run matrix serially against a cold
artifact cache and again with a warm cache fanned out over worker
processes, plus the warm columnar-query battery and the fan-out's
shared-memory residency.  Writes
``benchmarks/output/pipeline_bench.json`` as the trajectory artifact
and asserts the accelerators actually pay off.

``GRANULA_BENCH_SMALL=1`` shrinks the matrix for CI smoke runs (and
relaxes the speedup floors — the dg100 matrix is too small to amortize
process fan-out).  ``GRANULA_BENCH_JOBS`` overrides the worker count
(default 4).
"""

from __future__ import annotations

import os

from repro.experiments.pipeline_bench import (
    run_pipeline_bench,
    small_mode,
    write_pipeline_bench,
)

#: Full-matrix speedup floor from the issue's acceptance criteria.
FULL_END_TO_END_X = 3.0

#: Smoke-matrix floor: the accelerators must still win, just not by
#: the full-matrix margin.
SMALL_END_TO_END_X = 1.2

#: Warm archive queries through the mmap'd ``.gcol`` sidecar must beat
#: JSON tree materialization by at least 2x (both matrix sizes — the
#: ratio does not depend on the run matrix).
COLUMNAR_QUERY_X = 2.0

#: Doubling the fan-out workers must grow the dataset's physical
#: residency sublinearly.  Perfect sharing lands at 1.2 (each of W
#: workers owns 1/(W+1) of the pages, the parent the rest); a private
#: copy per worker lands at 2.0.
FANOUT_SHM_PSS_RATIO = 1.5


def test_bench_pipeline(output_dir):
    jobs = int(os.environ.get("GRANULA_BENCH_JOBS", "4"))
    document = run_pipeline_bench(jobs=jobs)
    write_pipeline_bench(output_dir / "pipeline_bench.json", document)

    assert document["byte_identical_archives"], (
        "parallel/warm archives diverged from the serial cold run"
    )
    end_to_end_floor = (
        SMALL_END_TO_END_X if small_mode() else FULL_END_TO_END_X
    )
    assert document["end_to_end"]["speedup"] >= end_to_end_floor, document

    columnar = document["columnar_query"]
    assert "skipped" not in columnar, columnar
    assert columnar["identical_results"], (
        "the .gcol view answered the query battery differently than "
        "the materialized tree"
    )
    assert columnar["speedup"] >= COLUMNAR_QUERY_X, document

    fanout = document["fanout_rss"]
    if "skipped" not in fanout:  # fork + /proc/self/smaps only
        assert fanout["shm_pss_ratio_4v2"] <= FANOUT_SHM_PSS_RATIO, document
