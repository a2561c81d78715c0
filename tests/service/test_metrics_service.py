"""Service-side metrics wiring: registry instrumentation through
tick(), cumulative SlotReport tallies, and live status/__repr__.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.service import AdmissionService
from repro.service.loop import TALLY_SERIES
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry


def run_to_drain(service):
    reports = []
    while not service.done:
        reports.append(service.tick())
    service.close()
    return reports


class TestRegistryWiring:
    def test_service_counters_mirror_the_registry(
            self, make_service_config):
        registry = MetricsRegistry()
        service = AdmissionService(
            make_service_config(queue_limit=4,
                                mean_arrivals_per_slot=8.0),
            registry=registry)
        run_to_drain(service)
        counters = service.counters
        assert list(counters) == ["arrivals"] + [
            key for key, _ in TALLY_SERIES]
        for key, series in TALLY_SERIES:
            assert counters[key] == registry.counter(series), key
        assert counters["arrivals"] == \
            counters["accepted"] + counters["shed"]
        assert counters["shed"] > 0
        # A view, not a copy the caller could corrupt the tallies with.
        counters["shed"] = -1.0
        assert service.counters["shed"] == \
            registry.counter("service_shed_total")

    def test_registry_tracks_slot_and_latency_histogram(
            self, make_service_config):
        registry = MetricsRegistry()
        service = AdmissionService(make_service_config(max_arrivals=30),
                                   registry=registry)
        run_to_drain(service)
        assert registry.counter("service_slots_total") \
            == service.engine.clock.current_slot + 1
        latency = registry.histogram("service_slot_latency_seconds")
        assert latency is not None
        assert latency.count == service.counters["slots"]
        # Deterministic companion histogram for continuity tests.
        batch = registry.histogram("service_batch_size")
        assert batch is not None and batch.count == latency.count

    def test_dynamicrr_policy_populates_bandit_series(
            self, make_service_config):
        registry = MetricsRegistry()
        service = AdmissionService(
            make_service_config(policy="dynamicrr", max_arrivals=60),
            registry=registry)
        run_to_drain(service)
        assert registry.counter("bandit_rounds_total") > 0
        assert registry.gauge("bandit_surviving_arms") is not None
        assert registry.gauge("bandit_threshold_mhz") is not None

    def test_default_registry_is_a_fresh_live_one(
            self, make_service_config):
        service = AdmissionService(make_service_config(max_arrivals=10))
        other = AdmissionService(make_service_config(max_arrivals=10))
        run_to_drain(service)
        assert service.metrics.enabled is True
        assert service.metrics is not other.metrics
        assert service.metrics.counter("service_slots_total") == \
            service.counters["slots"] > 0

    def test_disabled_registry_is_refused(self, make_service_config):
        with pytest.raises(ConfigurationError, match="live"):
            AdmissionService(make_service_config(), registry=NULL_REGISTRY)


class TestSlotReportCumulative:
    def test_totals_accumulate_monotonically(self, make_service_config):
        service = AdmissionService(make_service_config(
            queue_limit=4, mean_arrivals_per_slot=8.0))
        reports = run_to_drain(service)
        previous = None
        for report in reports:
            for field in ("admitted_total", "deferred_total",
                          "shed_total", "dropped_total"):
                value = getattr(report, field)
                assert value >= 0
                if previous is not None:
                    assert value >= getattr(previous, field)
            previous = report
        final = reports[-1]
        assert final.admitted_total == service.counters["accepted"]
        assert final.shed_total == service.counters["shed"]
        assert final.deferred_total == service.counters["deferred"]
        assert final.dropped_total == service.counters["dropped"]

    def test_per_slot_deltas_sum_to_totals(self, make_service_config):
        service = AdmissionService(make_service_config(
            queue_limit=4, mean_arrivals_per_slot=8.0))
        reports = run_to_drain(service)
        assert sum(r.num_shed for r in reports) == \
            reports[-1].shed_total
        assert sum(r.num_deferred for r in reports) == \
            reports[-1].deferred_total


class TestLiveIntrospection:
    def test_status_is_jsonable_and_complete(self, make_service_config):
        service = AdmissionService(make_service_config(max_arrivals=20))
        service.tick()
        status = json.loads(json.dumps(service.status()))
        assert status["policy"] == "greedy"
        assert status["queue_limit"] == 64
        assert status["done"] is False
        assert set(status["counters"]) == {
            "arrivals", "accepted", "shed", "deferred", "started",
            "completed", "dropped", "reward", "slots"}
        assert status["counters"] == service.counters
        assert "slot_latency" not in status
        assert service.metrics.histogram(
            "service_slot_latency_seconds").count == 1
        run_to_drain(service)
        assert service.status()["done"] is True

    def test_repr_shows_live_state(self, make_service_config, tmp_path):
        service = AdmissionService(make_service_config(
            max_arrivals=20,
            checkpoint_path=str(tmp_path / "r.ckpt"),
            checkpoint_every=2))
        text = repr(service)
        assert "policy='greedy'" in text
        assert "checkpoint=never" in text
        assert "done=False" in text
        run_to_drain(service)
        text = repr(service)
        assert "pending=0/64" in text
        assert "checkpoint=@" in text
        assert "done=True" in text
