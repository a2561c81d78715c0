"""Unit and property tests for the MEC topology generator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig
from repro.exceptions import ConfigurationError
from repro.network.topology import (BaseStation, MECNetwork, components,
                                    generate_topology)


def is_connected(net):
    return len(components(net.station_ids, net.links)) == 1


class TestBaseStation:
    def test_num_slots_floor(self):
        bs = BaseStation(station_id=0, capacity_mhz=3300.0)
        assert bs.num_slots(1000.0) == 3

    def test_num_slots_exact_division(self):
        bs = BaseStation(station_id=0, capacity_mhz=3000.0)
        assert bs.num_slots(1000.0) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            BaseStation(station_id=0, capacity_mhz=0.0)

    def test_invalid_id(self):
        with pytest.raises(ConfigurationError):
            BaseStation(station_id=-1, capacity_mhz=100.0)

    def test_invalid_slot_size(self):
        bs = BaseStation(station_id=0, capacity_mhz=3300.0)
        with pytest.raises(ConfigurationError):
            bs.num_slots(0.0)


class TestGeneration:
    def test_default_size(self):
        net = generate_topology(NetworkConfig(), rng=0)
        assert len(net) == 20

    def test_connected(self):
        for seed in range(5):
            net = generate_topology(NetworkConfig(), rng=seed)
            assert is_connected(net)

    def test_capacities_in_range(self):
        net = generate_topology(NetworkConfig(), rng=1)
        for bs in net:
            assert 3000.0 <= bs.capacity_mhz <= 3600.0

    def test_link_delays_in_range(self):
        cfg = NetworkConfig(link_delay_range_ms=(2.0, 5.0))
        net = generate_topology(cfg, rng=2)
        for u, v in net.links:
            assert 2.0 <= net.link_delay_ms(u, v) <= 5.0

    def test_deterministic_from_seed(self):
        a = generate_topology(NetworkConfig(), rng=7)
        b = generate_topology(NetworkConfig(), rng=7)
        assert [s.capacity_mhz for s in a] == [s.capacity_mhz for s in b]
        assert a.links == b.links

    def test_single_station(self):
        net = generate_topology(NetworkConfig(num_base_stations=1), rng=0)
        assert len(net) == 1
        assert net.links == {}

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=2, max_value=30),
           seed=st.integers(min_value=0, max_value=1000))
    def test_always_connected_property(self, n, seed):
        net = generate_topology(
            NetworkConfig(num_base_stations=n), rng=seed)
        assert is_connected(net)
        assert len(net) == n


class TestMECNetwork:
    def test_station_lookup(self):
        net = generate_topology(NetworkConfig(num_base_stations=5), rng=0)
        assert net.station(3).station_id == 3
        with pytest.raises(ConfigurationError):
            net.station(99)

    def test_station_ids_sorted(self):
        net = generate_topology(NetworkConfig(num_base_stations=7), rng=0)
        assert net.station_ids == sorted(net.station_ids)

    def test_total_capacity(self):
        net = generate_topology(NetworkConfig(num_base_stations=5), rng=0)
        assert net.total_capacity_mhz() == pytest.approx(
            sum(bs.capacity_mhz for bs in net))

    def test_num_slots_consistency(self):
        net = generate_topology(NetworkConfig(), rng=3)
        for sid in net.station_ids:
            expected = int(math.floor(
                net.station(sid).capacity_mhz / net.slot_size_mhz))
            assert net.num_slots(sid) == expected
            # Paper geometry: 3000-3600 MHz at C_l=1000 gives L=3.
            assert net.num_slots(sid) == 3

    def test_closest_station(self):
        net = generate_topology(NetworkConfig(num_base_stations=6), rng=0)
        target = net.station(2)
        found = net.closest_station(target.position)
        assert found.station_id == 2

    def test_closest_station_with_exclusion(self):
        net = generate_topology(NetworkConfig(num_base_stations=6), rng=0)
        target = net.station(2)
        found = net.closest_station(target.position, exclude={2})
        assert found.station_id != 2

    def test_closest_station_all_excluded(self):
        net = generate_topology(NetworkConfig(num_base_stations=2), rng=0)
        with pytest.raises(ConfigurationError):
            net.closest_station((0.5, 0.5), exclude={0, 1})

    def test_duplicate_ids_rejected(self):
        stations = [BaseStation(0, 1000.0), BaseStation(0, 1000.0)]
        with pytest.raises(ConfigurationError):
            MECNetwork(stations=stations, links={}, slot_size_mhz=500.0)

    def test_disconnected_graph_rejected(self):
        stations = [BaseStation(0, 1000.0), BaseStation(1, 1000.0)]
        with pytest.raises(ConfigurationError):
            MECNetwork(stations=stations, links={}, slot_size_mhz=500.0)

    @pytest.mark.parametrize("links", [{(0, 2): 1.0}, {(0, 0): 1.0},
                                       {(0, 1): 1.0, (1, 0): 2.0}])
    def test_bad_links_rejected(self, links):
        stations = [BaseStation(0, 1000.0), BaseStation(1, 1000.0)]
        with pytest.raises(ConfigurationError):
            MECNetwork(stations=stations, links=links, slot_size_mhz=500.0)

    def test_link_keys_normalized(self):
        stations = [BaseStation(0, 1000.0), BaseStation(1, 1000.0)]
        net = MECNetwork(stations=stations, links={(1, 0): 3},
                         slot_size_mhz=500.0)
        assert net.links == {(0, 1): 3.0}
        assert net.link_delay_ms(1, 0) == net.link_delay_ms(0, 1) == 3.0

    def test_neighbors(self):
        net = generate_topology(NetworkConfig(num_base_stations=10), rng=4)
        for sid in net.station_ids:
            for nb in net.neighbors(sid):
                assert (min(sid, nb), max(sid, nb)) in net.links
