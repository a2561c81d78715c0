"""Unit and behavioural tests for algorithm Appro."""

import pytest

from repro.core.appro import Appro
from repro.core.dynamic_rr import DynamicRR
from repro.core.heu import Heu
from repro.core.ilp_rm import solve_ilp_rm
from repro.sim.engine import run_offline


class TestBasics:
    def test_empty_workload(self, small_instance):
        result = run_offline(Appro(), small_instance, [], seed=0)
        assert len(result) == 0
        assert result.total_reward == 0.0

    def test_one_decision_per_request(self, small_instance,
                                      small_workload):
        result = run_offline(Appro(), small_instance, small_workload,
                             seed=0)
        assert len(result) == len(small_workload)

    def test_invalid_max_rounds(self):
        with pytest.raises(ValueError):
            Appro(max_rounds=0)

    @pytest.mark.parametrize("algorithm", [Heu, DynamicRR])
    def test_max_rounds_rule_is_shared(self, algorithm):
        # DynamicRR once accepted 0 and then never admitted a request.
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            algorithm(max_rounds=0)

    def test_runtime_measured(self, small_instance, small_workload):
        result = run_offline(Appro(), small_instance, small_workload,
                             seed=0)
        assert result.runtime_s > 0.0

    def test_lp_objective_exposed(self, small_instance, small_workload):
        algo = Appro()
        run_offline(algo, small_instance, small_workload, seed=0)
        assert algo.last_lp_objective is not None
        assert algo.last_lp_objective >= 0.0


class TestFeasibility:
    def test_admitted_meet_deadlines(self, small_instance,
                                     small_workload):
        result = run_offline(Appro(), small_instance, small_workload,
                             seed=0)
        by_id = {r.request_id: r for r in small_workload}
        for decision in result.decisions.values():
            if decision.admitted:
                assert decision.deadline_met
                assert decision.latency_ms <= (
                    by_id[decision.request_id].deadline_ms + 1e-9)

    def test_rewarded_subset_of_admitted(self, small_instance,
                                         small_workload):
        result = run_offline(Appro(), small_instance, small_workload,
                             seed=0)
        for decision in result.decisions.values():
            if decision.reward > 0:
                assert decision.admitted

    def test_latency_matches_model(self, small_instance, small_workload):
        result = run_offline(Appro(), small_instance, small_workload,
                             seed=0)
        by_id = {r.request_id: r for r in small_workload}
        for decision in result.decisions.values():
            if decision.admitted:
                expected = small_instance.latency.total_delay_ms(
                    by_id[decision.request_id],
                    decision.primary_station)
                assert decision.latency_ms == pytest.approx(expected)


class TestQuality:
    def test_multi_round_no_worse_than_single(self, small_instance):
        """Repeated rounding only adds reward (on average)."""
        single_total = 0.0
        multi_total = 0.0
        for seed in range(5):
            workload = small_instance.new_workload(num_requests=25,
                                                   seed=seed)
            single = run_offline(Appro(max_rounds=1), small_instance,
                                 workload, seed=seed)
            workload = small_instance.new_workload(num_requests=25,
                                                   seed=seed)
            multi = run_offline(Appro(max_rounds=24), small_instance,
                                workload, seed=seed)
            single_total += single.total_reward
            multi_total += multi.total_reward
        assert multi_total >= single_total

    def test_empirical_ratio_beats_one_eighth(self, small_instance):
        """Theorem 1: expected reward >= Opt / 8.

        Averaged over seeds against the exact ILP-RM optimum on small
        instances (multi-round rounding makes the margin comfortable).
        """
        ratios = []
        for seed in range(4):
            workload = small_instance.new_workload(num_requests=8,
                                                   seed=seed)
            solution, _ = solve_ilp_rm(small_instance, workload)
            workload = small_instance.new_workload(num_requests=8,
                                                   seed=seed)
            result = run_offline(Appro(), small_instance, workload,
                                 seed=seed)
            if solution.objective > 0:
                ratios.append(result.total_reward / solution.objective)
        assert sum(ratios) / len(ratios) >= 1.0 / 8.0

    def test_deterministic_given_seed(self, small_instance):
        a = run_offline(Appro(), small_instance,
                        small_instance.new_workload(20, seed=3), seed=3)
        b = run_offline(Appro(), small_instance,
                        small_instance.new_workload(20, seed=3), seed=3)
        assert a.total_reward == pytest.approx(b.total_reward)
        assert a.num_admitted == b.num_admitted
