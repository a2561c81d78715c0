"""Tests for the library-level ablation drivers (reduced sizes)."""

from repro.experiments.ablations import (approximation_ratio_study,
                                         clairvoyant_study,
                                         system_regret_study)


class TestOfflineStudies:
    def test_approximation_ratio_study(self):
        mean, ratios = approximation_ratio_study(num_requests=6,
                                                 seeds=(0, 1),
                                                 max_rounds=24)
        assert 0.0 < mean <= 1.2
        assert set(ratios).issubset({0, 1})


class TestOnlineStudies:
    def test_system_regret_study(self):
        out = system_regret_study(thresholds=(200.0, 800.0),
                                  num_requests=40, horizon_slots=30,
                                  seed=0)
        assert out["best_threshold"] in (200.0, 800.0)
        assert out["best_fixed_reward"] > 0.0
        assert out["dynamic_reward"] > 0.0
        assert out["relative_regret"] < 0.9

    def test_clairvoyant_study(self):
        out = clairvoyant_study(num_requests=40, horizon_slots=30,
                                seed=0)
        assert out["clairvoyant_bound"] >= out["online_reward"] * 0.999
        assert 0.0 < out["competitive_ratio"] <= 1.0 + 1e-9

    def test_clairvoyant_study_with_baseline(self):
        from repro.baselines.ocorp import OcorpOnline

        out = clairvoyant_study(num_requests=30, horizon_slots=30,
                                seed=1, policy_factory=OcorpOnline)
        assert out["competitive_ratio"] <= 1.0 + 1e-9
