"""Perf-trajectory gate: metric extraction, comparison, baseline file.

The slow measurement itself lives in ``benchmarks/``; these tests
cover the deterministic gate logic and the committed repo baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.pipeline_bench import (
    GATE_METRICS,
    baseline_document,
    compare_pipeline_bench,
    extract_metrics,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def document(end_to_end=3.0, columnar=4.0, shm_ratio=1.2):
    return {
        "small": True,
        "end_to_end": {"speedup": end_to_end},
        "columnar_query": {"speedup": columnar},
        "fanout_rss": {"shm_pss_ratio_4v2": shm_ratio},
    }


class TestExtractMetrics:
    def test_pulls_every_gate_metric(self):
        metrics = extract_metrics(document())
        assert set(metrics) == set(GATE_METRICS)
        assert metrics["end_to_end_speedup"] == 3.0
        assert metrics["fanout_shm_pss_ratio_4v2"] == 1.2

    def test_skipped_sections_extract_as_none(self):
        doc = document()
        doc["columnar_query"] = {"skipped": "no sidecar"}
        doc["fanout_rss"] = {"skipped": "no fork"}
        metrics = extract_metrics(doc)
        assert metrics["columnar_query_speedup"] is None
        assert metrics["fanout_shm_pss_ratio_4v2"] is None


class TestCompare:
    def baseline(self, **kwargs):
        return baseline_document(document(**kwargs))

    def test_identical_run_passes(self):
        assert compare_pipeline_bench(self.baseline(), document()) == []

    def test_within_tolerance_passes(self):
        current = document(end_to_end=2.3)  # -23% vs 3.0, tolerance 25%
        assert compare_pipeline_bench(self.baseline(), current) == []

    def test_speedup_regression_fails(self):
        current = document(columnar=2.9)  # -27.5% vs 4.0
        messages = compare_pipeline_bench(self.baseline(), current)
        assert len(messages) == 1
        assert "columnar_query_speedup" in messages[0]

    def test_lower_is_better_metric_regression_fails(self):
        current = document(shm_ratio=1.9)  # +58% vs 1.2
        messages = compare_pipeline_bench(self.baseline(), current)
        assert len(messages) == 1
        assert "fanout_shm_pss_ratio_4v2" in messages[0]

    def test_improvements_never_fail(self):
        current = document(end_to_end=9.0, columnar=9.0, shm_ratio=1.0)
        assert compare_pipeline_bench(self.baseline(), current) == []

    def test_unmeasured_metric_is_skipped(self):
        current = document()
        current["fanout_rss"] = {"skipped": "no fork"}
        assert compare_pipeline_bench(self.baseline(), current) == []
        baseline = self.baseline()
        baseline["metrics"]["columnar_query_speedup"] = None
        assert compare_pipeline_bench(baseline, document(columnar=0.1)) == []

    def test_explicit_tolerance_overrides_baseline(self):
        current = document(end_to_end=2.9)  # -3.3%
        assert compare_pipeline_bench(
            self.baseline(), current, tolerance=0.01)
        assert not compare_pipeline_bench(
            self.baseline(), current, tolerance=0.10)


class TestCommittedBaseline:
    def test_repo_baseline_is_complete(self):
        baseline = json.loads(
            (REPO_ROOT / "BENCH_pipeline.json").read_text())
        assert baseline["schema"] == 1
        assert set(baseline["metrics"]) == set(GATE_METRICS)
        for metric, value in baseline["metrics"].items():
            assert value is not None, f"{metric} missing from baseline"
        assert 0 < baseline["tolerance"] < 1

    def test_repo_baseline_meets_the_acceptance_floors(self):
        # The committed trajectory must itself satisfy the benchmark
        # suite's floors — a baseline below them would let CI pass
        # while the acceptance criteria fail.
        baseline = json.loads(
            (REPO_ROOT / "BENCH_pipeline.json").read_text())
        metrics = baseline["metrics"]
        assert metrics["columnar_query_speedup"] >= 2.0
        assert metrics["fanout_shm_pss_ratio_4v2"] <= 1.5


class TestBenchCliFlags:
    def test_parser_accepts_gate_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["bench", "--small", "--gate", "--baseline", "B.json"])
        assert args.gate and not args.update_baseline
        assert args.baseline == "B.json"

    def test_gate_and_update_are_exclusive(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bench", "--gate", "--update-baseline"])
