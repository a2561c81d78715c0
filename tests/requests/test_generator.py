"""Unit tests for the workload generators."""

import pytest

from repro.config import NetworkConfig, RequestConfig
from repro.exceptions import ConfigurationError
from repro.network.topology import generate_topology
from repro.requests.generator import RequestGenerator, slotted_arrivals


@pytest.fixture(scope="module")
def net():
    return generate_topology(NetworkConfig(num_base_stations=6), rng=0)


@pytest.fixture()
def generator(net):
    return RequestGenerator(RequestConfig(), net, rng=0)


class TestGenerateOne:
    def test_fields_within_config(self, generator, net):
        cfg = generator.config
        req = generator.generate_one(0)
        assert req.request_id == 0
        assert req.serving_station in net.station_ids
        assert cfg.tasks_range[0] <= len(req.pipeline) <= cfg.tasks_range[1]
        assert req.deadline_ms == cfg.deadline_ms
        assert req.c_unit_mhz_per_mbps == cfg.c_unit_mhz_per_mbps
        lo, hi = cfg.data_rate_range_mbps
        assert lo <= req.distribution.min_rate_mbps
        assert req.distribution.max_rate_mbps <= hi

    def test_explicit_station(self, generator):
        req = generator.generate_one(1, serving_station=4)
        assert req.serving_station == 4

    def test_rewards_within_price_bounds(self, generator):
        cfg = generator.config
        lo, hi = cfg.reward_unit_range
        rlo, rhi = cfg.data_rate_range_mbps
        for j in range(20):
            req = generator.generate_one(j)
            rewards = req.distribution.rewards
            assert rewards.max() <= hi * rhi * 1.1  # + jitter headroom
            assert rewards.min() >= lo * rlo * 0.9


class TestGenerateBatch:
    def test_batch_size_and_ids(self, generator):
        batch = generator.generate_batch(12)
        assert len(batch) == 12
        assert [r.request_id for r in batch] == list(range(12))
        assert all(r.arrival_slot == 0 for r in batch)

    def test_default_size_from_config(self, net):
        gen = RequestGenerator(RequestConfig(num_requests=7), net, rng=0)
        assert len(gen.generate_batch()) == 7

    def test_negative_size_rejected(self, generator):
        with pytest.raises(ConfigurationError):
            generator.generate_batch(-1)

    def test_deterministic_with_seed(self, net):
        a = RequestGenerator(RequestConfig(), net, rng=5).generate_batch(5)
        b = RequestGenerator(RequestConfig(), net, rng=5).generate_batch(5)
        for ra, rb in zip(a, b):
            assert ra.serving_station == rb.serving_station
            assert len(ra.pipeline) == len(rb.pipeline)
            assert ra.expected_reward == pytest.approx(rb.expected_reward)


class TestGenerateArrivals:
    def test_arrivals_sorted_and_in_horizon(self, generator):
        arrivals = generator.generate_arrivals(20, horizon_slots=50)
        slots = [r.arrival_slot for r in arrivals]
        assert slots == sorted(slots)
        assert all(0 <= s < 50 for s in slots)

    def test_bad_horizon_rejected(self, generator):
        with pytest.raises(ConfigurationError):
            generator.generate_arrivals(5, horizon_slots=0)


class TestSlottedArrivals:
    def test_bucketing(self, generator):
        arrivals = generator.generate_arrivals(30, horizon_slots=40)
        buckets = slotted_arrivals(arrivals, horizon_slots=40)
        assert len(buckets) == 40
        total = sum(len(b) for b in buckets)
        assert total == 30
        for t, bucket in enumerate(buckets):
            assert all(r.arrival_slot == t for r in bucket)

    def test_out_of_horizon_dropped(self, generator):
        arrivals = generator.generate_arrivals(30, horizon_slots=40)
        buckets = slotted_arrivals(arrivals, horizon_slots=10)
        kept = sum(len(b) for b in buckets)
        assert kept == sum(1 for r in arrivals if r.arrival_slot < 10)

    def test_bad_horizon(self):
        with pytest.raises(ConfigurationError):
            slotted_arrivals([], horizon_slots=0)


class TestSkipOne:
    """``skip_one`` must make exactly ``generate_one``'s draws."""

    @pytest.mark.parametrize("config, num_requests", [
        (RequestConfig(), 100_000),
        (RequestConfig(num_rate_levels=1, tasks_range=(1, 8)), 10_000),
        (RequestConfig(num_rate_levels=17, tasks_range=(4, 4)), 10_000),
    ], ids=["default", "one-level", "fine"])
    def test_twins_stay_in_step(self, net, config, num_requests):
        # Twin generators take turns building and skipping; after every
        # request both random streams must be in the same state, so a
        # draw added to one method and not the other fails here.
        generating = RequestGenerator(config, net, rng=2024)
        skipping = RequestGenerator(config, net, rng=2024)
        for request_id in range(num_requests):
            generating.generate_one(request_id)
            skipping.skip_one()
            assert generating.rng.bit_generator.state == \
                skipping.rng.bit_generator.state, request_id
            generating, skipping = skipping, generating
