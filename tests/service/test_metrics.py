"""Unit tests for service request metrics."""

from repro.core.analysis.fleet import percentile_of
from repro.service.metrics import ServiceMetrics


class TestPercentile:
    """``/metrics`` reports :func:`percentile_of` — the one nearest-rank
    rule (``ceil(q·n)``) the fleet engine also answers with."""

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile_of(values, 50) == 50.0
        assert percentile_of(values, 99) == 99.0
        assert percentile_of([42.0], 90) == 42.0

    def test_even_counts_take_the_lower_median(self):
        # The deleted ``metrics.percentile`` rounded a fractional index
        # half-to-even: upper median of four values, lower of six.
        assert percentile_of([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert percentile_of([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 50) == 3.0

    def test_unsorted_input(self):
        metrics = ServiceMetrics()
        for seconds in (0.003, 0.001, 0.004, 0.002):
            metrics.observe("/jobs", 200, seconds)
        latency = metrics.snapshot({})["latency_ms"]["/jobs"]
        assert latency["p50_ms"] == 2.0
        assert latency["p99_ms"] == 4.0


class TestServiceMetrics:
    def test_counts_and_statuses(self):
        metrics = ServiceMetrics()
        metrics.observe("/jobs", 200, 0.010)
        metrics.observe("/jobs", 200, 0.020)
        metrics.observe("/jobs/{id}", 404, 0.001)
        metrics.observe("/jobs/{id}", 304, 0.0005)
        snapshot = metrics.snapshot({"hits": 1, "misses": 2})
        assert snapshot["requests_total"] == 4
        assert snapshot["requests_by_endpoint"]["/jobs"] == 2
        assert snapshot["responses_by_status"] == {
            "200": 2, "404": 1, "304": 1}
        assert snapshot["not_modified_total"] == 1
        assert snapshot["cache"] == {"hits": 1, "misses": 2}

    def test_latency_percentiles_in_ms(self):
        metrics = ServiceMetrics()
        for ms in (10, 20, 30, 40, 50):
            metrics.observe("/jobs", 200, ms / 1000.0)
        latency = metrics.snapshot({})["latency_ms"]["/jobs"]
        assert latency["p50_ms"] == 30.0
        assert latency["p99_ms"] == 50.0
