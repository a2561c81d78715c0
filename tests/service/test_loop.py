"""Tests for the admission loop: backpressure, deferral, drain, audit."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.requests.arrivals import MAX_MEAN_PER_SLOT
from repro.service import AdmissionService
from repro.telemetry.audit import InvariantMonitor


def run_to_drain(service):
    reports = []
    while not service.done:
        reports.append(service.tick())
    service.close()
    return reports


def read_journal(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


class TestAdmissionFlow:
    def test_runs_to_drain_and_accounts_every_arrival(
            self, make_service_config):
        service = AdmissionService(make_service_config())
        run_to_drain(service)
        counters = service.counters
        assert counters["arrivals"] == 150
        assert counters["accepted"] + counters["shed"] == 150
        # Every accepted request reaches exactly one terminal state.
        assert counters["started"] == pytest.approx(
            counters["accepted"] - counters["dropped"])
        assert service.engine.pending_count() == 0
        assert service.engine.active_total() == 0

    def test_backpressure_sheds_above_queue_limit(
            self, make_service_config):
        service = AdmissionService(make_service_config(
            queue_limit=2, mean_arrivals_per_slot=8.0))
        reports = run_to_drain(service)
        assert service.counters["shed"] > 0
        journal = read_journal(service.config.journal_path)
        sheds = [e for e in journal if e["kind"] == "shed"]
        assert len(sheds) == service.counters["shed"]
        # The journaled queue depth explains each shed decision.
        assert all(e["value"] >= 2 for e in sheds)
        assert sum(r.num_shed for r in reports) == len(sheds)

    def test_deferred_requests_are_journaled_once(
            self, make_service_config):
        service = AdmissionService(make_service_config(
            mean_arrivals_per_slot=6.0))
        run_to_drain(service)
        journal = read_journal(service.config.journal_path)
        deferred = [e["request"] for e in journal
                    if e["kind"] == "admit_deferred"]
        assert deferred, "workload too light to defer anything"
        assert len(deferred) == len(set(deferred))
        assert len(deferred) == service.counters["deferred"]

    def test_pending_queue_never_exceeds_limit(self,
                                               make_service_config):
        limit = 4
        service = AdmissionService(make_service_config(
            queue_limit=limit, mean_arrivals_per_slot=8.0))
        while not service.done:
            report = service.tick()
            assert report.outcome.pending_after <= limit
        service.close()

    def test_tick_after_drain_raises(self, make_service_config):
        service = AdmissionService(make_service_config(max_arrivals=5))
        run_to_drain(service)
        with pytest.raises(ConfigurationError):
            service.tick()


class TestJournalAudit:
    @pytest.mark.parametrize("policy", ["greedy", "dynamicrr"])
    def test_monitor_stays_green_over_service_journal(
            self, make_service_config, policy):
        """The full decision stream satisfies every invariant,
        including the new deferred_resolution."""
        service = AdmissionService(make_service_config(
            policy=policy, max_arrivals=60))
        run_to_drain(service)
        events = read_journal(service.config.journal_path)
        monitor = InvariantMonitor(mode="collect")
        monitor.check_events(events)
        monitor.finish(None)
        assert monitor.ok, monitor.report()
        assert monitor.checks["deferred_resolution"] > 0

    def test_journal_off_still_counts(self, make_service_config):
        service = AdmissionService(make_service_config(
            journal_path=None))
        run_to_drain(service)
        assert service.journal is None
        assert service.counters["arrivals"] == 150


class TestAsyncServe:
    def test_serve_drains_like_tick_loop(self, make_service_config):
        service = AdmissionService(make_service_config())
        processed = asyncio.run(service.serve())
        service.close()
        assert service.done
        assert processed == service.counters["slots"]

    def test_serve_respects_max_slots(self, make_service_config):
        service = AdmissionService(make_service_config())
        processed = asyncio.run(service.serve(max_slots=7))
        assert processed == 7
        assert not service.done
        # And it can continue afterwards.
        asyncio.run(service.serve())
        service.close()
        assert service.done


class TestValidation:
    def test_unknown_policy_rejected(self, make_service_config):
        with pytest.raises(ConfigurationError):
            AdmissionService(make_service_config(policy="offline"))

    def test_checkpoint_cadence_needs_path(self, make_service_config):
        with pytest.raises(ConfigurationError):
            AdmissionService(make_service_config(checkpoint_every=10))

    def test_checkpoint_path_needs_cadence(self, make_service_config,
                                           tmp_path):
        # Accepted, a path with no cadence never wrote a checkpoint, so
        # a later resume found no file.
        with pytest.raises(ConfigurationError,
                           match="checkpoint_path needs a "
                                 "checkpoint_every"):
            AdmissionService(make_service_config(
                checkpoint_path=str(tmp_path / "nc.ckpt")))

    def test_queue_limit_must_be_positive(self, make_service_config):
        with pytest.raises(ConfigurationError):
            AdmissionService(make_service_config(queue_limit=0))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_arrival_rate_rejected(self, make_service_config,
                                              rate):
        # Accepted, these reached numpy's Poisson draw on the first tick
        # and failed there with a bare ValueError.
        with pytest.raises(ConfigurationError):
            make_service_config(mean_arrivals_per_slot=rate).validate()

    def test_arrival_rate_above_numpy_poisson_limit_rejected(
            self, make_service_config):
        # Finite but above numpy's limit: used to construct and then
        # fail the first tick with "lam value too large".
        with pytest.raises(ConfigurationError):
            AdmissionService(make_service_config(
                mean_arrivals_per_slot=1e20))

    def test_arrival_rate_at_numpy_poisson_limit_accepted(
            self, make_service_config):
        # Constructs only: a tick would draw ~9e18 arrivals.
        service = AdmissionService(make_service_config(
            mean_arrivals_per_slot=MAX_MEAN_PER_SLOT))
        service.close()
