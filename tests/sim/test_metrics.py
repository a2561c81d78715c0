"""Unit tests for Jain's fairness index."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.metrics import jains_fairness_index


class TestJainsFairnessIndex:
    def test_equal_values_are_perfectly_fair(self):
        assert jains_fairness_index([7.0, 7.0, 7.0]) == pytest.approx(1.0)

    def test_all_zero_is_perfectly_fair(self):
        assert jains_fairness_index([0.0, 0.0, 0.0]) == 1.0

    def test_empty_is_perfectly_fair(self):
        assert jains_fairness_index([]) == 1.0

    def test_exact_value_without_epsilon_shift(self):
        # (1+0)^2 / (2 * (1+0)) = 0.5 exactly; an epsilon shift would
        # nudge this off.
        assert jains_fairness_index([1.0, 0.0]) == 0.5

    def test_maximally_unfair_approaches_one_over_n(self):
        assert jains_fairness_index([0.0, 0.0, 0.0, 1000.0]) == (
            pytest.approx(0.25))

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            jains_fairness_index([1.0, -2.0])
