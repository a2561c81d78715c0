"""Unit and behavioural tests for the DynamicRR online policy."""

from collections import Counter

import pytest

from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig)
from repro.core.dynamic_rr import DynamicRR
from repro.core.instance import ProblemInstance
from repro.experiments.report import bandit_rounds
from repro.sim.online_engine import OnlineEngine
from repro.telemetry.audit import InvariantMonitor, Journal, use_journal


def run_dynamic(instance, workload, horizon=40, seed=0, **kwargs):
    policy = DynamicRR(rng=seed, **kwargs)
    engine = OnlineEngine(instance, workload, horizon_slots=horizon,
                          rng=seed)
    result = engine.run(policy)
    return policy, result


class TestBasics:
    def test_runs_and_covers_all_requests(self, small_instance,
                                          online_workload):
        _policy, result = run_dynamic(small_instance, online_workload)
        assert len(result) == len(online_workload)
        assert result.algorithm == "DynamicRR"

    def test_empty_workload(self, small_instance):
        _policy, result = run_dynamic(small_instance, [])
        assert len(result) == 0

    def test_bandit_initialized_from_config(self, small_instance,
                                            online_workload):
        config = OnlineConfig(num_arms=5,
                              threshold_range_mhz=(100.0, 500.0))
        policy, _ = run_dynamic(small_instance, online_workload,
                                online_config=config)
        assert policy.bandit is not None
        assert policy.bandit.grid.num_arms == 5
        assert policy.bandit.grid.interval == (100.0, 500.0)

    def test_current_threshold_in_range(self, small_instance,
                                        online_workload):
        policy, _ = run_dynamic(small_instance, online_workload)
        threshold = policy.current_threshold_mhz()
        lo, hi = policy.config.threshold_range_mhz
        assert lo <= threshold <= hi

    def test_threshold_none_before_run(self):
        assert DynamicRR().current_threshold_mhz() is None


class TestBehaviour:
    def test_admitted_requests_get_decisions_with_latency(
            self, small_instance, online_workload):
        _policy, result = run_dynamic(small_instance, online_workload)
        for decision in result.decisions.values():
            if decision.admitted and decision.primary_station is not None:
                assert decision.latency_ms is not None
                assert decision.latency_ms >= 0.0

    def test_rewarded_only_if_deadline_met(self, small_instance,
                                           online_workload):
        _policy, result = run_dynamic(small_instance, online_workload)
        for decision in result.decisions.values():
            if decision.reward > 0:
                assert decision.deadline_met

    def test_journal_records_plays(self, small_instance,
                                   online_workload):
        """The journal's rounds are the bandit's: each arm's plays and
        its mean normalized reward, rebuilt from ``ARM_SELECTED`` and
        that slot's ``START`` rewards, match the arm statistics."""
        journal = Journal()
        with use_journal(journal):
            policy, _ = run_dynamic(small_instance, online_workload)
        [rounds] = bandit_rounds(journal.events()).values()
        assert rounds
        samples = {}
        for _slot, arm, _threshold, reward, _eliminated in rounds:
            samples.setdefault(arm, []).append(
                min(1.0, max(0.0, reward / policy._reward_scale)))
        arms = policy.bandit.policy
        for arm in range(policy.bandit.grid.num_arms):
            assert arms.count(arm) == len(samples.get(arm, []))
            if arm in samples:
                assert arms.mean(arm) == pytest.approx(
                    sum(samples[arm]) / len(samples[arm]))

    def test_deterministic_given_seed(self, small_instance):
        a_wl = small_instance.new_workload(20, seed=2, horizon_slots=40)
        _p, a = run_dynamic(small_instance, a_wl, seed=2)
        b_wl = small_instance.new_workload(20, seed=2, horizon_slots=40)
        _p, b = run_dynamic(small_instance, b_wl, seed=2)
        assert a.total_reward == pytest.approx(b.total_reward)

    def test_earns_reward_under_load(self, small_instance):
        workload = small_instance.new_workload(30, seed=5,
                                               horizon_slots=40)
        _policy, result = run_dynamic(small_instance, workload, seed=5)
        assert result.total_reward > 0.0
        assert result.num_admitted > 0


class TestTheorem3EndToEnd:
    """Successive elimination on a real run, under the online audit.

    The regret ablation's grid (11 arms) with narrow confidence bounds
    over 150 slots, so arms are eliminated inside the run and the
    strict monitor checks each elimination against its confidence
    intervals (``arm_separation``) as it is journaled.
    """

    def test_eliminations_pass_strict_arm_separation(self):
        horizon = 150
        sim = SimulationConfig(
            network=NetworkConfig(num_base_stations=8),
            requests=RequestConfig(num_requests=150,
                                   stream_duration_slots=10),
            online=OnlineConfig(horizon_slots=horizon, num_arms=11,
                                confidence_scale=0.05),
            seed=7,
        ).validate()
        instance = ProblemInstance.build(sim, seed=7)
        workload = instance.new_workload(num_requests=150, seed=7,
                                         horizon_slots=horizon)
        journal = Journal()
        monitor = InvariantMonitor(mode="strict")
        journal.attach(monitor)
        with use_journal(journal):
            result = OnlineEngine(instance, workload,
                                  horizon_slots=horizon, rng=7).run(
                DynamicRR(sim.online, rng=7))
        monitor.finish(result)
        counts = Counter(event["kind"] for event in journal.events())
        assert counts["arm_eliminated"] >= 1
        assert monitor.checks["arm_separation"] \
            == counts["arm_eliminated"]
        assert monitor.ok
