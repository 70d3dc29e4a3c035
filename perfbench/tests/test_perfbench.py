"""Tests of the benchmark's own arithmetic, limits and declared names.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repo root; the directory is outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys

import pytest

from perfbench.cli import load_spec
from perfbench.harness import (
    P90_MIN_SAMPLES,
    REPO_ROOT,
    p90_or_zero,
    percentile,
)
from perfbench.inputs import (
    HOT_DRAW_SHARE,
    SkewedKeys,
    pass_schedule,
    query_battery,
    reference_battery,
    synthetic_archive,
)
from perfbench.trace import Recorder, Span, self_seconds, self_time_table

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_percentiles_interpolate_and_p90_needs_a_hundred_samples():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile(list(range(101)), 90) == 90.0
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    assert p90_or_zero([1.0] * (P90_MIN_SAMPLES - 1)) == 0.0
    assert p90_or_zero(list(range(P90_MIN_SAMPLES))) == pytest.approx(89.1)


def _span(name, start, end, parent=None):
    span = Span(name, start, parent, "w", None, {})
    span.end = end
    return span


def test_self_time_is_duration_minus_the_union_of_child_intervals():
    spans = [
        _span("pass", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),    # overlaps a: union is 1..6
        _span("c", 8.0, 12.0, parent=0),   # clipped to the parent's end
        _span("a", 1.5, 2.0, parent=1),    # grandchild: only a's concern
    ]
    assert self_seconds(spans) == [3.0, 2.5, 3.0, 4.0, 0.5]
    table = self_time_table(spans)
    assert table["a"] == {"calls": 2, "total_s": 3.5, "self_s": 3.0}
    assert table["pass"]["self_s"] == 3.0


def test_recorder_nests_spans_and_keeps_counts():
    rec = Recorder("w")
    with rec.span("outer"):
        with rec.span("inner", op="x", lines=3) as span:
            span.counts["bytes"] = 9
    outer, inner = rec.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.counts == {"lines": 3, "bytes": 9} and inner.op == "x"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_benchmark_json_stays_inside_the_contract_limits():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == [
        "job_life", "ingest_archive", "archive_read", "service_direct",
        "service_routed"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"])


def test_inputs_repeat_for_a_seed_and_answer_their_own_reference():
    from repro.core.archive.query import ArchiveQuery
    from repro.core.archive.serialize import archive_to_json

    first = synthetic_archive("job", 5, random.Random(11))
    again = synthetic_archive("job", 5, random.Random(11))
    other = synthetic_archive("job", 5, random.Random(12))
    assert archive_to_json(first) == archive_to_json(again)
    assert archive_to_json(first) != archive_to_json(other)
    assert 450 <= first.size() <= 665
    assert query_battery(ArchiveQuery(first)) == reference_battery(first)


def test_passes_hold_a_fixed_mix_and_keys_are_skewed():
    rng = random.Random(3)
    counts = (("a", 9), ("b", 7), ("c", 1))
    for _ in range(3):
        schedule = pass_schedule(rng, counts)
        assert sorted(schedule) == ["a"] * 9 + ["b"] * 7 + ["c"]
    keys = SkewedKeys([f"k{i}" for i in range(100)], rng)
    assert len(keys.hot) == 20 and len(keys.cold) == 80
    draws = [keys.draw(rng) for _ in range(4000)]
    hot_share = sum(key in set(keys.hot) for key in draws) / len(draws)
    assert abs(hot_share - HOT_DRAW_SHARE) < 0.03


def test_quick_run_emits_exactly_the_declared_names(tmp_path):
    """Five workloads × two trace modes: no metric more, none fewer."""
    spec = load_spec()
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench", "--quick", "--seed", "5",
         "--out", str(tmp_path)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr[-2000:]
    document = json.loads((tmp_path / "result.json").read_text())
    assert list(document["runs"]) == [w["name"] for w in spec["workloads"]]
    for workload, modes in document["runs"].items():
        for mode, key in (("trace0", "end_to_end"), ("trace1", "per_layer")):
            run = modes[mode]
            assert run["correct"] and run["failed"] == 0, (workload, mode)
            assert run["attempted"] >= 1
            assert set(run) >= {"correct", "attempted", "failed", "metrics"}
            assert {name: m["unit"] for name, m in run["metrics"].items()} \
                == {m["name"]: m["unit"] for m in spec[key]}, (workload, mode)
        assert all(m["value"] > 0
                   for m in modes["trace0"]["metrics"].values()), workload
        assert (tmp_path / f"trace-{workload}.json").exists()
    # Temp roots are removed on the way out.
    assert not [path for path in tmp_path.iterdir() if path.is_dir()]
