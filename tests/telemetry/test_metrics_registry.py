"""Unit tests for the streaming metrics runtime.

The contract under test: bounded memory (one fixed bucket geometry,
lifetime buckets only), canonical snapshots, exact export/restore
round-trips, and a null registry whose every operation is a no-op.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry.metrics import (BUCKET_BOUNDS, GROWTH, LOWEST,
                                     NULL_REGISTRY, NUM_BUCKETS,
                                     MetricsRegistry, NullRegistry,
                                     StreamingHistogram, get_metrics,
                                     set_metrics, use_metrics)


class TestStreamingHistogramBuckets:
    def test_bucket_bounds_are_geometric(self):
        assert len(BUCKET_BOUNDS) == NUM_BUCKETS - 1
        assert BUCKET_BOUNDS[0] == LOWEST
        assert BUCKET_BOUNDS[5] == LOWEST * GROWTH ** 5
        hist = StreamingHistogram()
        assert hist.bucket_index(LOWEST / 2) == 0
        assert hist.bucket_index(LOWEST) == 0
        assert hist.bucket_index(LOWEST * 1.2) == 1
        assert hist.bucket_index(LOWEST * GROWTH) == 1
        assert hist.bucket_index(LOWEST * GROWTH * 1.1) == 2
        assert hist.bucket_index(1e9) == NUM_BUCKETS - 1  # overflow

    def test_observe_tracks_count_sum_min_max(self):
        hist = StreamingHistogram()
        for value in (0.5, 2.0, 0.25):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(2.75)
        assert hist.min == 0.25
        assert hist.max == 2.0


class TestStreamingHistogramQuantiles:
    def test_empty_histogram_quantile_is_zero(self):
        assert StreamingHistogram().quantile(95.0) == 0.0

    def test_quantile_range_validated(self):
        hist = StreamingHistogram()
        with pytest.raises(ConfigurationError):
            hist.quantile(101.0)
        with pytest.raises(ConfigurationError):
            hist.quantile(-1.0)

    def test_quantiles_within_one_bucket_of_exact(self):
        """The accuracy guarantee: estimates land within one bucket's
        relative width of the exact order statistic."""
        hist = StreamingHistogram()
        values = [0.001 * (1 + (i * 37) % 1000) for i in range(1000)]
        for value in values:
            hist.observe(value)
        ordered = sorted(values)
        for q in (50.0, 95.0, 99.0):
            exact = ordered[int(q / 100.0 * (len(ordered) - 1))]
            estimate = hist.quantile(q)
            assert estimate == pytest.approx(exact, rel=GROWTH - 1)

    def test_overflow_bucket_interpolates_toward_max(self):
        hist = StreamingHistogram()
        hist.observe(100.0)  # far past the last bound (~8.4)
        assert hist.quantile(100.0) <= 100.0
        assert hist.quantile(100.0) > BUCKET_BOUNDS[-1]


class TestStreamingHistogramState:
    def test_export_restore_roundtrip_is_exact(self):
        hist = StreamingHistogram()
        for step in range(20):
            hist.observe(0.001 * (step + 1))
        clone = StreamingHistogram.from_state(hist.export_state())
        assert clone.snapshot() == hist.snapshot()
        # And the clone keeps evolving identically.
        hist.observe(0.5)
        clone.observe(0.5)
        assert clone.snapshot() == hist.snapshot()

    def test_state_is_json_serializable(self):
        hist = StreamingHistogram()
        hist.observe(0.01)
        restored = StreamingHistogram.from_state(
            json.loads(json.dumps(hist.export_state())))
        assert restored.snapshot() == hist.snapshot()

    def test_snapshot_shape(self):
        hist = StreamingHistogram()
        hist.observe(0.02)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert set(snap) == {"count", "sum", "min", "max", "p50", "p95",
                             "p99", "buckets"}
        [[upper, count]] = snap["buckets"]
        assert count == 1 and upper >= 0.02


class TestMetricsRegistry:
    def test_counters_accumulate_by_name_and_labels(self):
        registry = MetricsRegistry()
        registry.inc("lp_solves_total", mode="hit")
        registry.inc("lp_solves_total", 2.0, mode="hit")
        registry.inc("lp_solves_total", mode="cold")
        assert registry.counter("lp_solves_total", mode="hit") == 3.0
        assert registry.counter("lp_solves_total", mode="cold") == 1.0
        assert registry.counter("lp_solves_total") == 0.0

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        assert registry.gauge("queue_depth") is None
        registry.set_gauge("queue_depth", 3.0)
        registry.set_gauge("queue_depth", 1.0)
        assert registry.gauge("queue_depth") == 1.0

    def test_observe_creates_histogram_lazily(self):
        registry = MetricsRegistry()
        assert registry.histogram("lat") is None
        registry.observe("lat", 0.5)
        registry.observe("lat", 0.25, mode="hit")
        assert registry.histogram("lat").count == 1
        assert registry.histogram("lat", mode="hit").count == 1

    def test_snapshot_is_canonical_and_jsonable(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("b_total")
        left.inc("a_total", mode="x")
        right.inc("a_total", mode="x")
        right.inc("b_total")
        assert (json.dumps(left.snapshot(), sort_keys=True)
                == json.dumps(right.snapshot(), sort_keys=True))
        assert list(left.snapshot()["counters"]) == \
            ['a_total{mode="x"}', "b_total"]

    def test_export_restore_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("a_total", 3.0, mode="hit")
        registry.set_gauge("depth", 2.0)
        registry.observe("lat", 0.01)
        clone = MetricsRegistry()
        clone.restore_state(registry.export_state())
        assert clone.snapshot() == registry.snapshot()

    def test_clear(self):
        registry = MetricsRegistry()
        registry.inc("a_total")
        registry.observe("lat", 0.5)
        registry.clear()
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}


class TestPrometheusExposition:
    def test_counters_and_gauges_render_with_types(self):
        registry = MetricsRegistry()
        registry.inc("shed_total", 4, policy="greedy")
        registry.set_gauge("queue_depth", 7.0)
        text = registry.to_prometheus()
        assert "# TYPE shed_total counter" in text
        assert 'shed_total{policy="greedy"} 4' in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 7" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        registry.observe("lat", LOWEST / 2)
        registry.observe("lat", LOWEST * 1.2)
        registry.observe("lat", 99.0)
        lines = registry.to_prometheus().splitlines()
        buckets = [l for l in lines if l.startswith("lat_bucket")]
        assert len(buckets) == NUM_BUCKETS
        assert buckets[:3] == ['lat_bucket{le="1e-06"} 1',
                               'lat_bucket{le="1.41421e-06"} 2',
                               'lat_bucket{le="2e-06"} 2']
        assert buckets[-2:] == ['lat_bucket{le="8.38861"} 2',
                                'lat_bucket{le="+Inf"} 3']
        assert "lat_count 3" in lines
        assert any(l.startswith("lat_sum ") for l in lines)

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestNullRegistry:
    def test_every_operation_is_a_noop(self):
        null = NullRegistry()
        null.inc("a_total", 2.0, mode="x")
        null.set_gauge("g", 1.0)
        null.observe("h", 0.5)
        null.restore_state({"counters": {}})
        assert null.counter("a_total", mode="x") == 0.0
        assert null.gauge("g") is None
        assert null.histogram("h") is None
        assert null.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": {}}
        assert null.to_prometheus() == ""
        assert null.export_state() is None

    def test_disabled_flag(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True


class TestAmbientRegistry:
    def test_default_is_the_null_registry(self):
        assert get_metrics() is NULL_REGISTRY

    def test_use_metrics_installs_and_restores(self):
        registry = MetricsRegistry()
        with use_metrics(registry) as current:
            assert current is registry
            assert get_metrics() is registry
        assert get_metrics() is NULL_REGISTRY

    def test_use_metrics_nests(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_metrics(outer):
            with use_metrics(inner):
                assert get_metrics() is inner
            assert get_metrics() is outer
        assert get_metrics() is NULL_REGISTRY

    def test_use_metrics_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_metrics(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_metrics() is NULL_REGISTRY

    def test_set_metrics_none_restores_null(self):
        set_metrics(MetricsRegistry())
        try:
            assert get_metrics() is not NULL_REGISTRY
        finally:
            set_metrics(None)
        assert get_metrics() is NULL_REGISTRY
