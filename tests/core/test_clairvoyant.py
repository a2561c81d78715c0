"""Tests for the clairvoyant offline bound."""

import pytest

from repro.baselines import GreedyOnline, HeuKktOnline, OcorpOnline
from repro.core.clairvoyant import (ClairvoyantResult, clairvoyant_bound,
                                    competitive_ratio)
from repro.core.dynamic_rr import DynamicRR
from repro.exceptions import ConfigurationError
from repro.sim.online_engine import OnlineEngine


class TestBound:
    def test_bound_fields(self, small_instance, online_workload):
        bound = clairvoyant_bound(small_instance, online_workload,
                                  horizon_slots=40, rng=0)
        assert bound.upper_bound >= 0.0
        assert 0 <= bound.num_servable <= len(online_workload)

    def test_validation(self, small_instance, online_workload):
        with pytest.raises(ConfigurationError):
            clairvoyant_bound(small_instance, online_workload,
                              horizon_slots=0)

    def test_bound_dominates_online_policy(self, small_instance):
        """The clairvoyant bound must exceed what every online policy
        achieves on the same arrivals and realizations, also when 60
        requests in 10 slots oversubscribe the stations: round-robin
        shares then earn rewards that a capacity packing cannot hold."""
        cases = ([(25, 40, seed) for seed in (1, 2)]
                 + [(60, 10, seed) for seed in range(4)])
        for num_requests, horizon, seed in cases:
            for policy in (DynamicRR(rng=seed), GreedyOnline(),
                           HeuKktOnline(), OcorpOnline()):
                workload = small_instance.new_workload(
                    num_requests, seed=seed, horizon_slots=horizon)
                engine = OnlineEngine(small_instance, workload,
                                      horizon_slots=horizon, rng=seed)
                result = engine.run(policy)
                # Same (already realized) workload feeds the bound.
                bound = clairvoyant_bound(small_instance, workload,
                                          horizon_slots=horizon, rng=seed)
                assert (bound.upper_bound >= result.total_reward * 0.999
                        ), (num_requests, seed, policy.name)

    def test_empty_workload(self, small_instance):
        bound = clairvoyant_bound(small_instance, [], horizon_slots=10)
        assert bound.upper_bound == 0.0
        assert bound.num_servable == 0

    def test_arrivals_beyond_horizon_ignored(self, small_instance):
        workload = small_instance.new_workload(5, seed=0,
                                               horizon_slots=40)
        full = clairvoyant_bound(small_instance, workload,
                                 horizon_slots=40, rng=0)
        # Same requests, but with a 1-slot horizon only slot-0 arrivals
        # can count.
        for request in workload:
            request.reset_realization()
        tiny = clairvoyant_bound(small_instance, workload,
                                 horizon_slots=1, rng=0)
        assert tiny.upper_bound <= full.upper_bound + 1e-9


class TestCompetitiveRatio:
    def test_basic(self):
        bound = ClairvoyantResult(upper_bound=100.0, num_servable=10)
        assert competitive_ratio(80.0, bound) == pytest.approx(0.8)

    def test_zero_bound(self):
        bound = ClairvoyantResult(upper_bound=0.0, num_servable=0)
        assert competitive_ratio(0.0, bound) == 1.0

    def test_negative_reward_rejected(self):
        bound = ClairvoyantResult(upper_bound=10.0, num_servable=1)
        with pytest.raises(ConfigurationError):
            competitive_ratio(-1.0, bound)
