"""Unit tests for the streaming metrics runtime.

The contract under test: bounded memory (fixed bucket geometry, ring
window), slot-keyed (never wall-clock) sliding windows, canonical
snapshots, exact export/restore round-trips, and a null registry whose
every operation is a no-op.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry.metrics import (NULL_REGISTRY, MetricsRegistry,
                                     NullRegistry, StreamingHistogram,
                                     get_metrics, set_metrics,
                                     use_metrics)


class TestStreamingHistogramBuckets:
    def test_bucket_bounds_are_geometric(self):
        hist = StreamingHistogram(lowest=1.0, growth=2.0, num_buckets=5)
        assert hist.bucket_index(0.5) == 0
        assert hist.bucket_index(1.0) == 0
        assert hist.bucket_index(1.5) == 1
        assert hist.bucket_index(2.0) == 1
        assert hist.bucket_index(3.0) == 2
        assert hist.bucket_index(1e9) == 4  # overflow bucket

    def test_observe_tracks_count_sum_min_max(self):
        hist = StreamingHistogram()
        for value in (0.5, 2.0, 0.25):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(2.75)
        assert hist.min == 0.25
        assert hist.max == 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingHistogram(lowest=0.0)
        with pytest.raises(ConfigurationError):
            StreamingHistogram(growth=1.0)
        with pytest.raises(ConfigurationError):
            StreamingHistogram(num_buckets=1)
        with pytest.raises(ConfigurationError):
            StreamingHistogram(window_slots=0)


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
        hist = StreamingHistogram(lowest=1e-4, growth=2 ** 0.25,
                                  num_buckets=96)
        values = [0.001 * (1 + (i * 37) % 1000) for i in range(1000)]
        for value in values:
            hist.observe(value)
        ordered = sorted(values)
        for q in (50.0, 95.0, 99.0):
            exact = ordered[int(q / 100.0 * (len(ordered) - 1))]
            estimate = hist.quantile(q)
            assert estimate == pytest.approx(exact, rel=hist.growth - 1)

    def test_overflow_bucket_interpolates_toward_max(self):
        hist = StreamingHistogram(lowest=1.0, growth=2.0, num_buckets=3)
        hist.observe(100.0)  # far past the last bound (2.0)
        assert hist.quantile(100.0) <= 100.0
        assert hist.quantile(100.0) > 2.0


class TestStreamingHistogramWindow:
    def test_window_drops_old_slots(self):
        hist = StreamingHistogram(window_slots=4)
        hist.observe(1.0, slot=0)
        hist.observe(1.0, slot=10)
        assert sum(hist.window_counts()) == 1  # slot 0 aged out
        assert hist.count == 2  # lifetime totals keep everything

    def test_ring_cell_recycled_on_wraparound(self):
        hist = StreamingHistogram(window_slots=2)
        hist.observe(1.0, slot=0)
        hist.observe(1.0, slot=2)  # same cell as slot 0, must reset
        assert sum(hist.window_counts(slot=2)) == 1

    def test_window_quantile_sees_only_recent_slots(self):
        hist = StreamingHistogram(lowest=1e-3, growth=2.0,
                                  num_buckets=32, window_slots=8)
        for slot in range(100):
            hist.observe(100.0 if slot < 50 else 0.001, slot=slot)
        assert hist.quantile(95.0, window=True) < 1.0
        assert hist.quantile(95.0, window=False) > 1.0

    def test_window_counts_at_explicit_slot(self):
        hist = StreamingHistogram(window_slots=4)
        for slot in range(4):
            hist.observe(1.0, slot=slot)
        assert sum(hist.window_counts(slot=3)) == 4
        # An end slot past the window sees nothing.
        assert sum(hist.window_counts(slot=10)) == 0


class TestStreamingHistogramState:
    def test_export_restore_roundtrip_is_exact(self):
        hist = StreamingHistogram(lowest=1e-5, growth=1.5,
                                  num_buckets=16, window_slots=8)
        for slot in range(20):
            hist.observe(0.001 * (slot + 1), slot=slot)
        clone = StreamingHistogram.from_state(hist.export_state())
        assert clone.snapshot() == hist.snapshot()
        # And the clone keeps evolving identically.
        hist.observe(0.5, slot=21)
        clone.observe(0.5, slot=21)
        assert clone.snapshot() == hist.snapshot()

    def test_state_is_json_serializable(self):
        hist = StreamingHistogram()
        hist.observe(0.01, slot=3)
        restored = StreamingHistogram.from_state(
            json.loads(json.dumps(hist.export_state())))
        assert restored.snapshot() == hist.snapshot()

    def test_snapshot_shape(self):
        hist = StreamingHistogram()
        hist.observe(0.02, slot=1)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert {"p50", "p95", "p99", "window", "buckets"} <= set(snap)
        assert snap["window"]["count"] == 1
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
        registry = MetricsRegistry(histogram_window_slots=7)
        assert registry.histogram("lat") is None
        registry.observe("lat", 0.5)
        assert registry.histogram("lat").window_slots == 7

    def test_observe_defaults_to_current_slot(self):
        registry = MetricsRegistry(histogram_window_slots=4)
        registry.advance_slot(9)
        registry.observe("lat", 1.0)
        hist = registry.histogram("lat")
        assert sum(hist.window_counts(slot=9)) == 1
        assert sum(hist.window_counts(slot=20)) == 0

    def test_advance_slot_is_monotone(self):
        registry = MetricsRegistry()
        registry.advance_slot(5)
        registry.advance_slot(3)
        assert registry.slot == 5

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
        registry = MetricsRegistry(histogram_window_slots=8)
        registry.advance_slot(4)
        registry.inc("a_total", 3.0, mode="hit")
        registry.set_gauge("depth", 2.0)
        registry.observe("lat", 0.01, slot=4)
        clone = MetricsRegistry()
        clone.restore_state(registry.export_state())
        assert clone.snapshot() == registry.snapshot()
        assert clone.slot == 4

    def test_restore_none_is_a_noop(self):
        registry = MetricsRegistry()
        registry.inc("kept_total")
        registry.restore_state(None)
        assert registry.counter("kept_total") == 1.0

    def test_clear(self):
        registry = MetricsRegistry()
        registry.advance_slot(3)
        registry.inc("a_total")
        registry.clear()
        assert registry.slot == 0
        assert registry.snapshot()["counters"] == {}

    def test_window_slots_validated(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry(histogram_window_slots=0)


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
        registry.register_histogram("lat", lowest=1.0, growth=2.0,
                                    num_buckets=3)
        registry.observe("lat", 0.5)
        registry.observe("lat", 1.5)
        registry.observe("lat", 99.0)
        lines = registry.to_prometheus().splitlines()
        buckets = [l for l in lines if l.startswith("lat_bucket")]
        assert buckets == ['lat_bucket{le="1"} 1',
                           'lat_bucket{le="2"} 2',
                           'lat_bucket{le="+Inf"} 3']
        assert "lat_count 3" in lines
        assert any(l.startswith("lat_sum ") for l in lines)

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestNullRegistry:
    def test_every_operation_is_a_noop(self):
        null = NullRegistry()
        null.advance_slot(5)
        null.inc("a_total", 2.0, mode="x")
        null.set_gauge("g", 1.0)
        null.observe("h", 0.5, slot=3)
        null.restore_state({"slot": 9})
        assert null.counter("a_total", mode="x") == 0.0
        assert null.gauge("g") is None
        assert null.histogram("h") is None
        assert null.snapshot() == {"slot": 0, "counters": {},
                                   "gauges": {}, "histograms": {}}
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
