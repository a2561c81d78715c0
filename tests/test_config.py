"""Unit tests for :mod:`repro.config` validation and defaults."""

from dataclasses import replace

import pytest

from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig, paper_default_config)
from repro.exceptions import ConfigurationError


class TestPaperDefaults:
    """Section VI-A parameters must be the library defaults."""

    def test_network_defaults(self):
        cfg = paper_default_config().network
        assert cfg.num_base_stations == 20
        assert cfg.capacity_range_mhz == (3000.0, 3600.0)
        assert cfg.slot_size_mhz == 1000.0

    def test_request_defaults(self):
        cfg = paper_default_config().requests
        assert cfg.data_rate_range_mbps == (30.0, 50.0)
        assert cfg.tasks_range == (3, 5)
        assert cfg.c_unit_mhz_per_mbps == 20.0
        assert cfg.reward_unit_range == (12.0, 15.0)
        assert cfg.deadline_ms == 200.0
        assert cfg.num_requests == 150

    def test_online_defaults(self):
        cfg = paper_default_config().online
        assert cfg.slot_length_ms == 50.0  # 0.05 s slots

    def test_validate_returns_self(self):
        cfg = SimulationConfig()
        assert cfg.validate() is cfg


class TestNetworkValidation:
    def test_zero_stations_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(num_base_stations=0).validate()

    def test_bad_capacity_range_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(capacity_range_mhz=(3600.0, 3000.0)).validate()
        with pytest.raises(ConfigurationError):
            NetworkConfig(capacity_range_mhz=(0.0, 3000.0)).validate()

    def test_slot_larger_than_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(capacity_range_mhz=(500.0, 800.0),
                          slot_size_mhz=1000.0).validate()

    def test_bad_waxman_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(waxman_alpha=0.0).validate()
        with pytest.raises(ConfigurationError):
            NetworkConfig(waxman_beta=1.5).validate()


class TestRequestValidation:
    def test_negative_requests_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestConfig(num_requests=-1).validate()

    def test_bad_rate_range_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestConfig(data_rate_range_mbps=(50.0, 30.0)).validate()

    def test_bad_decay_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestConfig(rate_decay=0.0).validate()
        with pytest.raises(ConfigurationError):
            RequestConfig(rate_decay=1.5).validate()

    def test_bad_tasks_range_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestConfig(tasks_range=(0, 3)).validate()
        with pytest.raises(ConfigurationError):
            RequestConfig(tasks_range=(5, 3)).validate()

    def test_bad_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestConfig(deadline_ms=0.0).validate()

    def test_nan_deadline_rejected(self):
        # NaN compares false with every deadline check downstream, so
        # it would silently drop every request.
        with pytest.raises(ConfigurationError):
            RequestConfig(deadline_ms=float("nan")).validate()

    def test_infinite_deadline_is_legal(self):
        RequestConfig(deadline_ms=float("inf")).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_c_unit_rejected(self, value):
        with pytest.raises(ConfigurationError):
            RequestConfig(c_unit_mhz_per_mbps=value).validate()

    @pytest.mark.parametrize("bounds", [(12.0, float("inf")),
                                        (float("nan"), 15.0),
                                        (12.0, float("nan"))])
    def test_non_finite_reward_range_rejected(self, bounds):
        with pytest.raises(ConfigurationError):
            RequestConfig(reward_unit_range=bounds).validate()


class TestOnlineValidation:
    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            OnlineConfig(horizon_slots=0).validate()

    def test_bad_threshold_range_rejected(self):
        with pytest.raises(ConfigurationError):
            OnlineConfig(threshold_range_mhz=(0.0, 100.0)).validate()
        with pytest.raises(ConfigurationError):
            OnlineConfig(threshold_range_mhz=(500.0, 100.0)).validate()

    def test_bad_arms_rejected(self):
        with pytest.raises(ConfigurationError):
            OnlineConfig(num_arms=0).validate()


class TestOverrides:
    def test_with_overrides_validates(self):
        cfg = SimulationConfig()
        with pytest.raises(ConfigurationError):
            cfg.with_overrides(network=NetworkConfig(num_base_stations=0))

    def test_with_overrides_replaces(self):
        cfg = SimulationConfig()
        new = cfg.with_overrides(seed=99)
        assert new.seed == 99
        assert cfg.seed == 0  # original untouched (frozen dataclass)

    def test_nested_replace(self):
        cfg = SimulationConfig()
        new = cfg.with_overrides(
            network=replace(cfg.network, num_base_stations=50))
        assert new.network.num_base_stations == 50
