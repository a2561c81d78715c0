"""The metrics inertness property, and counter continuity over resume.

Inertness is the determinism contract's key clause for observability:
an ambient :class:`MetricsRegistry` around the sweep executor must not
perturb a single byte of its records or merged journals, serial or with
a process pool.  The admission service always records into a live
registry (the one store of its tallies), so on the service side the
property is *continuity*: a killed-and-resumed service reports the same
final deterministic series as an uninterrupted one, and its journal
stays byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.greedy import GreedyOnline
from repro.core.dynamic_rr import DynamicRR
from repro.experiments.executor import (ONLINE, RunSpec, execute_specs)
from repro.experiments.settings import base_config
from repro.service import AdmissionService
from repro.telemetry import collect_sweep_journal
from repro.telemetry.metrics import (NULL_REGISTRY, MetricsRegistry,
                                     get_metrics, host_measured,
                                     use_metrics)

def run_to_drain(service):
    while not service.done:
        service.tick()
    service.close()


def run_killed(service, kill_slot):
    while not service.done:
        report = service.tick()
        if report.outcome.slot >= kill_slot:
            return


def deterministic_view(registry):
    """The registry's seed-determined slice (no wall-clock series)."""
    snapshot = registry.snapshot()
    counters = {name: value
                for name, value in snapshot["counters"].items()
                if not host_measured(name)}
    hist = registry.histogram("service_batch_size")
    return counters, (hist.snapshot() if hist is not None else None)


class TestServiceInertness:
    def test_ambient_registry_restored_after_run(
            self, make_service_config):
        """tick() installs the service registry and always restores."""
        service = AdmissionService(make_service_config(max_arrivals=10),
                                   registry=MetricsRegistry())
        run_to_drain(service)
        assert get_metrics() is NULL_REGISTRY


class TestExecutorInertness:
    """Ambient metrics around the sweep executor: records and merged
    journals are unchanged, serial and with a process pool."""

    def specs(self):
        cfg = base_config(0)
        cfg = cfg.with_overrides(
            network=cfg.network.__class__(num_base_stations=6))
        return [RunSpec(mode=ONLINE, factory=factory, x=6.0, seed=seed,
                        config=cfg, num_requests=6, horizon_slots=10,
                        journal=True)
                for factory in (GreedyOnline, DynamicRR)
                for seed in (0, 1)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_journals_identical_with_ambient_metrics(self, workers):
        plain = execute_specs(self.specs(), workers=workers,
                              journal=True)
        with use_metrics(MetricsRegistry()):
            metered = execute_specs(self.specs(), workers=workers,
                                    journal=True)
        assert (collect_sweep_journal(plain)
                == collect_sweep_journal(metered))

    def test_serial_run_populates_the_registry(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            execute_specs(self.specs(), workers=1, journal=True)
        assert registry.counter("engine_arrivals_total") > 0
        assert registry.counter("bandit_rounds_total") > 0


class TestResumeContinuity:
    def test_kill_at_random_slots_yields_continuous_counters(
            self, make_service_config, tmp_path):
        """The headline property: kill at a random slot, resume with a
        fresh registry, and the deterministic series end at exactly the
        uninterrupted run's values - counters continue, never reset."""
        overrides = dict(max_arrivals=60, mean_arrivals_per_slot=3.0,
                         checkpoint_every=5)
        baseline_config = make_service_config(
            journal_path=str(tmp_path / "base.jsonl"),
            checkpoint_path=str(tmp_path / "base.ckpt"), **overrides)
        baseline_registry = MetricsRegistry()
        baseline = AdmissionService(baseline_config,
                                    registry=baseline_registry)
        run_to_drain(baseline)
        total_slots = int(baseline.counters["slots"])
        expected = deterministic_view(baseline_registry)
        baseline_bytes = open(baseline_config.journal_path, "rb").read()

        rng = np.random.default_rng(20260808)
        kill_slots = sorted(set(
            int(s) for s in rng.integers(6, total_slots - 2, size=3)))
        for kill_slot in kill_slots:
            config = make_service_config(
                journal_path=str(tmp_path / f"k{kill_slot}.jsonl"),
                checkpoint_path=str(tmp_path / f"k{kill_slot}.ckpt"),
                **overrides)
            killed = AdmissionService(config,
                                      registry=MetricsRegistry())
            run_killed(killed, kill_slot)
            resumed_registry = MetricsRegistry()
            resumed = AdmissionService.resume(config.checkpoint_path,
                                              registry=resumed_registry)
            run_to_drain(resumed)
            assert open(config.journal_path, "rb").read() == \
                baseline_bytes, f"journal diverged for kill@{kill_slot}"
            counters, batch_hist = deterministic_view(resumed_registry)
            expected_counters, expected_hist = expected
            # The resume marker is the one counter the baseline lacks.
            assert counters.pop("service_resumes_total") == 1.0
            assert counters == expected_counters, \
                f"series reset for kill@{kill_slot}"
            assert batch_hist == expected_hist
            # The tallies come back through the registry state alone.
            assert resumed.counters == baseline.counters
