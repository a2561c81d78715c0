"""Unit and property tests for the (rate, reward) joint distribution."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.requests.distributions import (RateGrid, RateRewardDistribution,
                                          decaying_distribution_on_grid,
                                          make_decaying_distribution)


@pytest.fixture()
def dist():
    return RateRewardDistribution(
        rates_mbps=[30.0, 40.0, 50.0],
        probabilities=[0.5, 0.3, 0.2],
        rewards=[400.0, 500.0, 450.0],
    )


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            RateRewardDistribution([1.0, 2.0], [1.0], [1.0, 2.0])

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            RateRewardDistribution([1.0, 2.0], [0.4, 0.4], [1.0, 1.0])

    def test_rates_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            RateRewardDistribution([2.0, 1.0], [0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            RateRewardDistribution([1.0, 1.0], [0.5, 0.5], [1.0, 1.0])

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            RateRewardDistribution([-1.0, 2.0], [0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            RateRewardDistribution([1.0, 2.0], [0.5, 0.5], [-1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            RateRewardDistribution([], [], [])

    def test_views_read_only(self, dist):
        with pytest.raises(ValueError):
            dist.rates_mbps[0] = 99.0


class TestExpectations:
    def test_expected_rate(self, dist):
        assert dist.expected_rate() == pytest.approx(
            30 * 0.5 + 40 * 0.3 + 50 * 0.2)

    def test_expected_reward(self, dist):
        assert dist.expected_reward() == pytest.approx(
            400 * 0.5 + 500 * 0.3 + 450 * 0.2)

    def test_truncated_rate_below_support(self, dist):
        assert dist.expected_truncated_rate(0.0) == 0.0

    def test_truncated_rate_above_support(self, dist):
        assert dist.expected_truncated_rate(100.0) == pytest.approx(
            dist.expected_rate())

    def test_truncated_rate_mid(self, dist):
        # min(rho, 35): 30*0.5 + 35*0.3 + 35*0.2
        assert dist.expected_truncated_rate(35.0) == pytest.approx(
            30 * 0.5 + 35 * 0.5)

    def test_truncation_monotone(self, dist):
        caps = np.linspace(0, 60, 20)
        values = [dist.expected_truncated_rate(c) for c in caps]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_reward_within_zero_cap(self, dist):
        assert dist.expected_reward_within(-1.0) == 0.0

    def test_reward_prefixes_are_expected_reward_within(self, dist):
        """Entry k is the exact value a cap admitting k rates gets."""
        caps = [-1.0, 30.0, 45.0, 50.0]
        assert dist.reward_prefixes().tolist() == \
            [dist.expected_reward_within(cap) for cap in caps]
        with pytest.raises(ValueError):
            dist.reward_prefixes()[0] = 1.0

    def test_reward_prefixes_stay_out_of_pickles(self, dist):
        before = pickle.dumps(dist)
        dist.reward_prefixes()
        assert pickle.dumps(dist) == before
        again = pickle.loads(before)
        assert again.reward_prefixes().tolist() == \
            dist.reward_prefixes().tolist()
        assert dist.expected_reward_within(10.0) == 0.0

    def test_reward_within_partial(self, dist):
        # Only the 30 MB/s level fits.
        assert dist.expected_reward_within(35.0) == pytest.approx(200.0)

    def test_reward_within_full(self, dist):
        assert dist.expected_reward_within(50.0) == pytest.approx(
            dist.expected_reward())

    def test_probability_within(self, dist):
        assert dist.probability_within(35.0) == pytest.approx(0.5)
        assert dist.probability_within(50.0) == pytest.approx(1.0)

    def test_reward_of_rate(self, dist):
        assert dist.reward_of_rate(40.0) == 500.0
        with pytest.raises(ConfigurationError):
            dist.reward_of_rate(41.0)


class TestSampling:
    def test_sample_in_support(self, dist):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rate, reward = dist.sample(rng)
            assert rate in (30.0, 40.0, 50.0)
            assert reward == dist.reward_of_rate(rate)

    def test_sample_frequencies(self, dist):
        rng = np.random.default_rng(1)
        samples = [dist.sample(rng)[0] for _ in range(4000)]
        freq30 = sum(1 for s in samples if s == 30.0) / len(samples)
        assert freq30 == pytest.approx(0.5, abs=0.05)

    def test_sample_deterministic_with_seed(self, dist):
        a = [dist.sample(np.random.default_rng(3)) for _ in range(5)]
        b = [dist.sample(np.random.default_rng(3)) for _ in range(5)]
        assert a == b


class TestFactory:
    def test_decay_makes_large_rates_rare(self):
        dist = make_decaying_distribution((30.0, 50.0), 5, 0.6, 13.0, rng=0)
        probs = dist.probabilities
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_uniform_when_decay_one(self):
        dist = make_decaying_distribution((30.0, 50.0), 4, 1.0, 13.0, rng=0)
        assert np.allclose(dist.probabilities, 0.25)

    def test_rewards_demand_independent(self):
        """Paper Section I: rewards and data rates are independent.

        Within one request the reward column must be (nearly) flat
        across rate levels - not proportional to the level.
        """
        dist = make_decaying_distribution((30.0, 50.0), 5, 0.6, 13.0,
                                          rng=0, price_jitter=0.0)
        rewards = dist.rewards
        assert np.allclose(rewards, rewards[0])

    def test_reward_scale_follows_price_and_range(self):
        dist = make_decaying_distribution((30.0, 50.0), 5, 0.6, 13.0,
                                          rng=0, price_jitter=0.0)
        assert 13.0 * 30.0 <= dist.rewards[0] <= 13.0 * 50.0

    def test_single_level(self):
        dist = make_decaying_distribution((30.0, 50.0), 1, 0.6, 13.0, rng=0)
        assert dist.num_levels == 1
        assert dist.rates_mbps[0] == pytest.approx(40.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_decaying_distribution((50.0, 30.0), 5, 0.6, 13.0)
        with pytest.raises(ConfigurationError):
            make_decaying_distribution((30.0, 50.0), 0, 0.6, 13.0)
        with pytest.raises(ConfigurationError):
            make_decaying_distribution((30.0, 50.0), 5, 0.0, 13.0)
        with pytest.raises(ConfigurationError):
            make_decaying_distribution((30.0, 50.0), 5, 0.6, -1.0)

    @settings(max_examples=25, deadline=None)
    @given(levels=st.integers(min_value=1, max_value=10),
           decay=st.floats(min_value=0.1, max_value=1.0),
           seed=st.integers(min_value=0, max_value=500))
    def test_factory_always_valid_property(self, levels, decay, seed):
        dist = make_decaying_distribution((30.0, 50.0), levels, decay,
                                          13.0, rng=seed)
        assert dist.probabilities.sum() == pytest.approx(1.0)
        assert dist.expected_rate() <= 50.0
        assert dist.expected_rate() >= 30.0
        assert dist.expected_reward_within(50.0) == pytest.approx(
            dist.expected_reward())


class TestSharedGrid:
    def test_grid_arrays_read_only_and_copied(self):
        rates = np.array([1.0, 2.0, 3.0])
        grid = RateGrid(rates, [0.5, 0.3, 0.2])
        rates[0] = 0.5  # the caller's array stays the caller's
        assert grid.rates[0] == 1.0
        with pytest.raises(ValueError):
            grid.rates[0] = 9.0
        with pytest.raises(ValueError):
            grid.probabilities[0] = 9.0

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            RateGrid([1.0, 2.0], [1.0])
        with pytest.raises(ConfigurationError):
            RateGrid([2.0, 1.0], [0.5, 0.5])
        with pytest.raises(ConfigurationError):
            RateGrid.decaying((30.0, 50.0), 5, 1.5)

    def test_on_grid_checks_rewards(self):
        grid = RateGrid.decaying((30.0, 50.0), 3, 0.8)
        with pytest.raises(ConfigurationError):
            RateRewardDistribution.on_grid(grid, np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            RateRewardDistribution.on_grid(grid, np.array([1.0, 1.0]))

    def test_on_grid_equals_validating_constructor(self):
        grid = RateGrid.decaying((30.0, 50.0), 4, 0.7)
        rewards = np.array([400.0, 410.0, 395.0, 405.0])
        shared = RateRewardDistribution.on_grid(grid, rewards)
        checked = RateRewardDistribution(grid.rates, grid.probabilities,
                                         rewards)
        for field in ("rates_mbps", "probabilities", "rewards"):
            assert (getattr(shared, field).tobytes()
                    == getattr(checked, field).tobytes())

    def test_factory_draws_over_the_same_grid(self):
        grid = RateGrid.decaying((30.0, 50.0), 5, 0.6)
        direct = decaying_distribution_on_grid(
            grid, (30.0, 50.0), 13.0, np.random.default_rng(4))
        factory = make_decaying_distribution((30.0, 50.0), 5, 0.6, 13.0,
                                             rng=np.random.default_rng(4))
        for field in ("rates_mbps", "probabilities", "rewards"):
            assert (getattr(direct, field).tobytes()
                    == getattr(factory, field).tobytes())
