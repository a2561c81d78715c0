"""Tracing through the sweep executor: determinism and attribution.

The two load-bearing properties:

* tracing is *inert* - records (and the metrics inside them) are
  identical with tracing on or off, and the canonical trace (wall
  clock stripped) is identical between serial and parallel backends;
* tracing is *complete* - the run's profile digest attributes nearly
  all of its wall time to named top-level spans.
"""

import dataclasses

from repro.baselines.greedy import GreedyOffline, GreedyOnline
from repro.core.appro import Appro
from repro.core.dynamic_rr import DynamicRR
from repro.experiments.executor import (OFFLINE, ONLINE, RunSpec,
                                        execute_run, execute_specs)
from repro.experiments.runner import run_offline_sweep
from repro.experiments.settings import base_config
from repro.telemetry import (canonical_events, collect_sweep_trace,
                             digest_from_events, get_tracer, NULL_TRACER)


def tiny_config(x=0, seed=0):
    cfg = base_config(seed)
    return cfg.with_overrides(
        network=cfg.network.__class__(num_base_stations=6))


def record_key(record):
    return (record.algorithm, record.x, record.seed,
            tuple(sorted((k, v) for k, v in record.metrics.items()
                         if k != "runtime_s")))


def offline_spec(trace=False, factory=GreedyOffline, num_requests=8):
    return RunSpec(mode=OFFLINE, factory=factory, x=8.0, seed=1,
                   config=tiny_config(8, 1),
                   num_requests=num_requests, trace=trace)


def online_spec(trace=False, factory=GreedyOnline):
    return RunSpec(mode=ONLINE, factory=factory, x=6.0, seed=0,
                   config=tiny_config(6, 0), num_requests=6,
                   horizon_slots=10, trace=trace)


class TestTraceIsInert:
    def test_untraced_record_has_no_trace(self):
        assert execute_run(offline_spec()).trace is None

    def test_traced_record_carries_events(self):
        record = execute_run(offline_spec(trace=True))
        assert record.trace
        assert all(isinstance(e, dict) for e in record.trace)

    def test_metrics_identical_with_and_without_tracing(self):
        plain = execute_run(offline_spec())
        traced = execute_run(offline_spec(trace=True))
        assert record_key(plain) == record_key(traced)

    def test_online_metrics_identical_with_tracing(self):
        plain = execute_run(online_spec(factory=DynamicRR))
        traced = execute_run(online_spec(factory=DynamicRR, trace=True))
        assert record_key(plain) == record_key(traced)

    def test_tracer_restored_after_traced_run(self):
        execute_run(offline_spec(trace=True))
        assert get_tracer() is NULL_TRACER


class TestSerialParallelTraceEquivalence:
    def specs(self):
        return [offline_spec(), online_spec(),
                online_spec(factory=DynamicRR)]

    def test_canonical_traces_identical(self):
        specs = self.specs()
        serial = execute_specs(specs, workers=1, trace=True)
        parallel = execute_specs(specs, workers=3, trace=True)
        assert ([record_key(r) for r in serial]
                == [record_key(r) for r in parallel])
        for left, right in zip(serial, parallel):
            assert (canonical_events(left.trace)
                    == canonical_events(right.trace))

    def test_merged_stream_is_canonical_spec_order(self):
        records = execute_specs(self.specs(), workers=3, trace=True)
        merged = collect_sweep_trace(records)
        runs = [e["run"] for e in merged]
        assert runs == sorted(runs)
        assert set(runs) == {0, 1, 2}


class TestExpectedSpans:
    def test_offline_appro_spans(self):
        record = execute_run(offline_spec(trace=True, factory=Appro,
                                          num_requests=10))
        names = [e["name"] for e in record.trace
                 if e["kind"] == "span"]
        assert {"offline_run", "build_lp", "lp_solve",
                "rounding"} <= set(names)
        counters = {e["name"]: e["value"] for e in record.trace
                    if e["kind"] == "counter"}
        # One registry inc per call, worth one per rounding pass.
        assert counters["rounding_rounds"] == names.count("rounding")

    def test_online_dynamic_rr_spans(self):
        record = execute_run(dataclasses.replace(
            online_spec(trace=True, factory=DynamicRR), journal=True))
        names = [e["name"] for e in record.trace
                 if e["kind"] == "span"]
        assert {"slot_admission", "bandit_round"} <= set(names)
        # The trajectory is the journal's: one ARM_SELECTED per round.
        selected = [e for e in record.journal
                    if e["kind"] == "arm_selected"]
        assert len(selected) == names.count("bandit_round") > 0
        assert {e["kind"] for e in record.trace} == {"span", "counter"}

    def test_runner_trace_knob(self):
        sweep = run_offline_sweep(
            algorithm_factories=[GreedyOffline],
            x_values=[8],
            make_config=tiny_config,
            num_requests_of=lambda x: int(x),
            num_seeds=1,
            x_label="num_requests",
            trace=True)
        assert all(r.trace for r in sweep.records)


class TestAttribution:
    def test_traced_run_attributes_most_wall_time(self):
        """Top-level spans must cover >= 90% of the run's wall time."""
        record = execute_run(offline_spec(trace=True, factory=Appro,
                                          num_requests=30))
        total = record.metrics["runtime_s"]
        assert total > 0
        # offline_run wraps the full algorithm pipeline; runtime_s is
        # measured inside it, so coverage should be essentially 1.
        assert digest_from_events(record.trace).top_level_s >= 0.9 * total

    def test_online_run_attributes_most_wall_time(self):
        record = execute_run(online_spec(trace=True, factory=DynamicRR))
        assert (digest_from_events(record.trace).top_level_s
                >= 0.9 * record.metrics["runtime_s"])
