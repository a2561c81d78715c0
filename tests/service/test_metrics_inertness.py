"""The metrics inertness property, and counter continuity over resume.

Inertness is the determinism contract's key clause for observability:
attaching a live :class:`MetricsRegistry` must not perturb a single
byte of the decision journal, the sweep records, or the checkpoint's
deterministic state - in serial ticking, through the parallel sweep
executor, and across a kill/resume boundary.  Conversely, the metric
series themselves must be *continuous*: a killed-and-resumed service
reports the same final deterministic counters as an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.baselines.greedy import GreedyOnline
from repro.core.dynamic_rr import DynamicRR
from repro.experiments.executor import (ONLINE, RunSpec, execute_specs)
from repro.experiments.settings import base_config
from repro.service import AdmissionService, read_checkpoint
from repro.telemetry import collect_sweep_journal
from repro.telemetry.metrics import (NULL_REGISTRY, MetricsRegistry,
                                     get_metrics, host_measured,
                                     use_metrics)

#: Registry counters that are pure functions of the seeded run (the
#: wall-clock latency histogram is deliberately excluded).
DETERMINISTIC_COUNTERS = (
    "service_slots_total", "service_admitted_total",
    "service_shed_total", "service_deferred_total",
    "engine_arrivals_total", "engine_starts_total",
    "engine_completions_total", "engine_drops_total",
    "engine_reward_total",
)


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
    @pytest.mark.parametrize("policy", ["greedy", "dynamicrr"])
    def test_journal_bytes_identical_with_and_without_metrics(
            self, make_service_config, tmp_path, policy):
        overrides = dict(policy=policy, max_arrivals=60,
                         mean_arrivals_per_slot=6.0, queue_limit=8)
        plain_config = make_service_config(
            journal_path=str(tmp_path / f"plain-{policy}.jsonl"),
            **overrides)
        metered_config = make_service_config(
            journal_path=str(tmp_path / f"metered-{policy}.jsonl"),
            **overrides)
        run_to_drain(AdmissionService(plain_config))
        run_to_drain(AdmissionService(metered_config,
                                      registry=MetricsRegistry()))
        assert open(plain_config.journal_path, "rb").read() == \
            open(metered_config.journal_path, "rb").read()

    def test_checkpoint_deterministic_state_identical(
            self, make_service_config, tmp_path):
        """Checkpoints differ only in the metrics_state they embed."""
        overrides = dict(max_arrivals=60, checkpoint_every=5)
        plain_config = make_service_config(
            journal_path=str(tmp_path / "p.jsonl"),
            checkpoint_path=str(tmp_path / "p.ckpt"), **overrides)
        metered_config = make_service_config(
            journal_path=str(tmp_path / "m.jsonl"),
            checkpoint_path=str(tmp_path / "m.ckpt"), **overrides)
        run_to_drain(AdmissionService(plain_config))
        run_to_drain(AdmissionService(metered_config,
                                      registry=MetricsRegistry()))
        plain = read_checkpoint(plain_config.checkpoint_path)
        metered = read_checkpoint(metered_config.checkpoint_path)
        assert plain.metrics_state is None
        assert metered.metrics_state is not None
        # Engine state holds live objects without value equality;
        # pickled bytes are the canonical comparison (the config is
        # swapped in because the two runs use different file paths).
        stripped = dataclasses.replace(
            metered, config=plain.config, metrics_state=None)
        assert pickle.dumps(stripped) == pickle.dumps(plain)

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

    def test_resuming_unmetered_checkpoint_starts_from_zero(
            self, make_service_config, tmp_path):
        config = make_service_config(
            journal_path=str(tmp_path / "u.jsonl"),
            checkpoint_path=str(tmp_path / "u.ckpt"),
            max_arrivals=60, checkpoint_every=5)
        killed = AdmissionService(config)  # null registry
        run_killed(killed, 12)
        registry = MetricsRegistry()
        resumed = AdmissionService.resume(config.checkpoint_path,
                                          registry=registry)
        run_to_drain(resumed)
        # Only post-resume slots are counted; the service's own
        # counters still cover the whole run.
        assert registry.counter("service_slots_total") < \
            resumed.counters["slots"]
        assert registry.counter("service_resumes_total") == 1.0

    def test_resume_with_null_registry_drops_series(
            self, make_service_config, tmp_path):
        config = make_service_config(
            journal_path=str(tmp_path / "n.jsonl"),
            checkpoint_path=str(tmp_path / "n.ckpt"),
            max_arrivals=60, checkpoint_every=5)
        killed = AdmissionService(config, registry=MetricsRegistry())
        run_killed(killed, 12)
        resumed = AdmissionService.resume(config.checkpoint_path)
        run_to_drain(resumed)
        assert resumed.metrics.enabled is False
        assert resumed.counters["arrivals"] == 60
