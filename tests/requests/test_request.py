"""Unit tests for the ARRequest realization protocol."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SchedulingError
from repro.requests.distributions import RateRewardDistribution
from repro.requests.request import ARRequest
from repro.requests.tasks import standard_ar_pipeline


def make_request(request_id=0, **kwargs):
    dist = RateRewardDistribution(
        rates_mbps=[30.0, 50.0],
        probabilities=[0.7, 0.3],
        rewards=[450.0, 460.0],
    )
    defaults = dict(
        request_id=request_id, serving_station=0,
        pipeline=standard_ar_pipeline(4), distribution=dist,
        deadline_ms=200.0, c_unit_mhz_per_mbps=20.0)
    defaults.update(kwargs)
    return ARRequest(**defaults)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_request(request_id=-1)
        with pytest.raises(ConfigurationError):
            make_request(serving_station=-1)
        with pytest.raises(ConfigurationError):
            make_request(deadline_ms=0.0)
        with pytest.raises(ConfigurationError):
            make_request(arrival_slot=-1)
        with pytest.raises(ConfigurationError):
            make_request(stream_duration_slots=0)
        with pytest.raises(ConfigurationError):
            make_request(c_unit_mhz_per_mbps=0.0)

    @pytest.mark.parametrize("field, value", [
        ("deadline_ms", float("nan")),
        ("c_unit_mhz_per_mbps", float("nan")),
        ("c_unit_mhz_per_mbps", float("inf")),
    ])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            make_request(**{field: value})

    def test_infinite_deadline_is_legal(self):
        assert make_request(deadline_ms=float("inf")).deadline_ms == \
            float("inf")


class TestDistributionViews:
    def test_expected_rate_and_demand(self):
        req = make_request()
        assert req.expected_rate_mbps == pytest.approx(36.0)
        assert req.expected_demand_mhz == pytest.approx(720.0)

    def test_max_demand(self):
        req = make_request()
        assert req.max_demand_mhz == pytest.approx(1000.0)

    def test_expected_reward(self):
        req = make_request()
        assert req.expected_reward == pytest.approx(453.0)

    def test_demand_of_rate(self):
        req = make_request()
        assert req.demand_of_rate_mhz(40.0) == pytest.approx(800.0)


class TestRealization:
    def test_unrealized_access_raises(self):
        req = make_request()
        assert not req.is_realized
        with pytest.raises(SchedulingError):
            _ = req.realized_rate_mbps
        with pytest.raises(SchedulingError):
            _ = req.realized_reward

    def test_realize_is_idempotent(self):
        req = make_request()
        first = req.realize(np.random.default_rng(0))
        second = req.realize(np.random.default_rng(999))
        assert first == second
        assert req.is_realized

    def test_realized_values_consistent(self):
        req = make_request()
        rate, reward = req.realize(np.random.default_rng(0))
        assert req.realized_rate_mbps == rate
        assert req.realized_reward == reward
        assert req.realized_demand_mhz == pytest.approx(rate * 20.0)

    def test_force_realization(self):
        req = make_request()
        req.force_realization(30.0, 450.0)
        assert req.realized_rate_mbps == 30.0
        # Same values again are fine.
        req.force_realization(30.0, 450.0)
        # Conflicting values raise.
        with pytest.raises(SchedulingError):
            req.force_realization(50.0, 460.0)

    def test_reset_realization(self):
        req = make_request()
        req.force_realization(30.0, 450.0)
        req.reset_realization()
        assert not req.is_realized


class TestWork:
    def test_total_work(self):
        req = make_request(stream_duration_slots=40)
        req.force_realization(30.0, 450.0)
        # 30 MB/s for 40 slots of 50 ms = 2 s -> 60 MB.
        assert req.total_work_mb(50.0) == pytest.approx(60.0)

    def test_total_work_validation(self):
        req = make_request()
        req.force_realization(30.0, 450.0)
        with pytest.raises(ConfigurationError):
            req.total_work_mb(0.0)

    def test_repr_mentions_state(self):
        req = make_request()
        assert "unrealized" in repr(req)
        req.force_realization(30.0, 450.0)
        assert "realized" in repr(req)
