"""Unit tests for the Eq. (2) latency model."""

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.latency import LatencyModel, meets_deadline
from repro.exceptions import ConfigurationError
from repro.network.paths import PathTable
from repro.network.topology import generate_topology
from repro.requests.distributions import RateRewardDistribution
from repro.requests.request import ARRequest
from repro.requests.tasks import standard_ar_pipeline


@pytest.fixture(scope="module")
def net():
    return generate_topology(NetworkConfig(num_base_stations=6), rng=2)


@pytest.fixture(scope="module")
def table(net):
    return PathTable(net)


@pytest.fixture(scope="module")
def model(net, table):
    return LatencyModel(net, table, proc_delay_range_ms=(5.0, 15.0), rng=0)


def make_request(serving=0, deadline=200.0, num_tasks=4):
    dist = RateRewardDistribution([30.0, 50.0], [0.7, 0.3],
                                  [450.0, 450.0])
    return ARRequest(request_id=0, serving_station=serving,
                     pipeline=standard_ar_pipeline(num_tasks),
                     distribution=dist, deadline_ms=deadline)


class TestComponents:
    def test_base_delays_in_range(self, net, model):
        for sid in net.station_ids:
            assert 5.0 <= model.base_delay_ms(sid) <= 15.0

    def test_unknown_station(self, model):
        with pytest.raises(ConfigurationError):
            model.base_delay_ms(99)
        with pytest.raises(ConfigurationError):
            model.placement_delay_ms(make_request(), 99)

    def test_proc_delay_scales_with_weights(self, model):
        """At the serving station the delay is pure processing: the
        sum of the per-task delays ``base * weight``."""
        req = make_request(serving=0)
        total = sum(model.base_delay_ms(0) * task.compute_weight
                    for task in req.pipeline)
        assert model.placement_delay_ms(req, 0) == pytest.approx(total)

    def test_render_task_heavier(self, model, net):
        """Moving the render task to the fastest station saves more than
        moving the lighter tracking task there."""
        req = make_request()
        slow = max(net.station_ids, key=model.base_delay_ms)
        fast = min(net.station_ids, key=model.base_delay_ms)
        assert (model.split_delay_ms(req, slow, {0: fast})
                < model.split_delay_ms(req, slow, {1: fast}))

    def test_local_placement_no_transfer(self, model):
        req = make_request(serving=3)
        assert model.placement_delay_ms(req, 3) == (
            model.base_delay_ms(3) * req.pipeline.total_compute_weight)

    def test_remote_placement_round_trip(self, model, table):
        req = make_request(serving=0)
        proc = model.base_delay_ms(4) * req.pipeline.total_compute_weight
        assert model.placement_delay_ms(req, 4) - proc == pytest.approx(
            2.0 * table.one_way_delay_ms(0, 4))

    def test_total_decomposition(self, model, table):
        req = make_request(serving=0)
        total = model.total_delay_ms(req, 2, waiting_ms=30.0)
        assert total == pytest.approx(
            30.0 + table.round_trip_delay_ms(0, 2)
            + model.base_delay_ms(2) * req.pipeline.total_compute_weight)

    def test_negative_waiting_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.total_delay_ms(make_request(), 0, waiting_ms=-1.0)


class TestRestoreBaseDelays:
    def test_restore_refreshes_vectorized_delays(self, net, table):
        """Regression: the deserialization path replaces the drawn base
        delays, and every delay must follow - a stale copy silently
        reorders feasible_stations."""
        model = LatencyModel(net, table, rng=0)
        req = make_request(serving=0)
        model.placement_delays(req)  # populate the round-trip cache
        replaced = {sid: 7.5 for sid in net.station_ids}
        model.restore_base_delays(replaced)
        weight = req.pipeline.total_compute_weight
        for k, sid in enumerate(net.station_ids):
            assert model.base_delay_ms(sid) == 7.5
            assert model.placement_delays(req)[k] == (
                table.round_trip_delay_ms(0, sid) + 7.5 * weight)
            assert model.placement_delay_ms(req, sid) == (
                model.placement_delays(req)[k])

    def test_restore_rejects_mismatched_stations(self, net, table):
        model = LatencyModel(net, table, rng=0)
        with pytest.raises(ConfigurationError):
            model.restore_base_delays({0: 7.5})

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"),
                                     None, "slow", [7.5]])
    def test_restore_rejects_bad_values(self, net, table, bad):
        """A negative, NaN or infinite delay would make a station
        silently never or always feasible."""
        model = LatencyModel(net, table, rng=0)
        before = [model.base_delay_ms(sid) for sid in net.station_ids]
        delays = {sid: 7.5 for sid in net.station_ids}
        delays[net.station_ids[-1]] = bad
        with pytest.raises(ConfigurationError):
            model.restore_base_delays(delays)
        assert [model.base_delay_ms(sid)
                for sid in net.station_ids] == before


class TestSplitDelay:
    def test_no_migration_matches_total(self, model):
        req = make_request(serving=0)
        assert model.split_delay_ms(req, 1, {}) == pytest.approx(
            model.total_delay_ms(req, 1))

    def test_migration_adds_round_trip(self, model, table):
        req = make_request(serving=0)
        base = model.split_delay_ms(req, 1, {})
        migrated = model.split_delay_ms(req, 1, {2: 3})
        extra_rt = table.round_trip_delay_ms(1, 3)
        weight = req.pipeline[2].compute_weight
        delta_proc = (model.base_delay_ms(3) * weight
                      - model.base_delay_ms(1) * weight)
        assert migrated == pytest.approx(base + extra_rt + delta_proc)

    def test_migration_to_primary_is_noop(self, model):
        req = make_request(serving=0)
        assert model.split_delay_ms(req, 1, {0: 1}) == pytest.approx(
            model.split_delay_ms(req, 1, {}))


class TestFeasibility:
    def test_generous_deadline_all_feasible(self, net, model):
        req = make_request(deadline=10_000.0)
        assert model.feasible_stations(req) == sorted(
            net.station_ids,
            key=lambda sid: (model.placement_delay_ms(req, sid), sid))
        assert len(model.feasible_stations(req)) == len(net)

    def test_impossible_deadline_none_feasible(self, model):
        req = make_request(deadline=0.001)
        assert model.feasible_stations(req) == []

    def test_waiting_shrinks_feasible_set(self, model):
        req = make_request(deadline=200.0)
        without = set(model.feasible_stations(req))
        with_wait = set(model.feasible_stations(req, waiting_ms=150.0))
        assert with_wait.issubset(without)

    def test_feasible_sorted_by_delay(self, model):
        req = make_request(deadline=200.0)
        order = model.feasible_stations(req)
        delays = [model.placement_delay_ms(req, sid) for sid in order]
        assert delays == sorted(delays)

    def test_is_feasible_matches_list(self, net, model):
        req = make_request(deadline=120.0)
        listed = set(model.feasible_stations(req))
        for sid in net.station_ids:
            assert model.is_feasible(req, sid) == (sid in listed)

    def test_mismatched_path_table_rejected(self, net):
        other = generate_topology(NetworkConfig(num_base_stations=6),
                                  rng=9)
        table = PathTable(other)
        with pytest.raises(ConfigurationError):
            LatencyModel(net, table)


class TestMeetsDeadline:
    """Eq. (1) ``D_j <= D_hat_j`` at its boundary (1e-9 ms tolerance)."""

    def test_exact_deadline_counts_as_hit(self):
        assert meets_deadline(25.0, 25.0)

    def test_within_tolerance_counts_as_hit(self):
        assert meets_deadline(25.0 + 5e-10, 25.0)

    def test_beyond_tolerance_misses(self):
        assert not meets_deadline(25.0 + 2e-9, 25.0)
        assert not meets_deadline(25.001, 25.0)

    def test_array_form_is_elementwise(self):
        latencies = np.array([24.0, 25.0, 25.0 + 5e-10, 25.0 + 2e-9])
        mask = meets_deadline(latencies, 25.0)
        assert mask.dtype == bool
        assert mask.tolist() == [True, True, True, False]
