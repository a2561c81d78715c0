"""Unit and property tests for the shortest-path table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig
from repro.exceptions import ConfigurationError
from repro.network.paths import PathTable
from repro.network.topology import generate_topology


@pytest.fixture(scope="module")
def net():
    return generate_topology(NetworkConfig(num_base_stations=12), rng=3)


@pytest.fixture(scope="module")
def table(net):
    return PathTable(net)


class TestDelays:
    def test_self_delay_zero(self, net, table):
        for sid in net.station_ids:
            assert table.one_way_delay_ms(sid, sid) == 0.0

    def test_symmetry(self, net, table):
        for u in net.station_ids:
            for v in net.station_ids:
                assert table.one_way_delay_ms(u, v) == pytest.approx(
                    table.one_way_delay_ms(v, u))

    def test_round_trip_is_twice_one_way(self, net, table):
        u, v = net.station_ids[0], net.station_ids[-1]
        assert table.round_trip_delay_ms(u, v) == pytest.approx(
            2.0 * table.one_way_delay_ms(u, v))

    def test_triangle_inequality(self, net, table):
        ids = net.station_ids
        for u in ids[:6]:
            for v in ids[:6]:
                for w in ids[:6]:
                    assert (table.one_way_delay_ms(u, w)
                            <= table.one_way_delay_ms(u, v)
                            + table.one_way_delay_ms(v, w) + 1e-9)

    def test_path_delay_matches_link_sum(self, net, table):
        u, v = net.station_ids[0], net.station_ids[-1]
        path = table.path(u, v)
        total = sum(net.link_delay_ms(a, b)
                    for a, b in zip(path, path[1:]))
        assert total == pytest.approx(table.one_way_delay_ms(u, v))

    def test_unknown_station_raises(self, table):
        with pytest.raises(ConfigurationError):
            table.one_way_delay_ms(0, 999)


class TestPathStructure:
    def test_path_endpoints(self, net, table):
        u, v = 0, net.station_ids[-1]
        path = table.path(u, v)
        assert path[0] == u and path[-1] == v

    def test_path_uses_real_edges(self, net, table):
        u, v = 0, net.station_ids[-1]
        path = table.path(u, v)
        for a, b in zip(path, path[1:]):
            assert (min(a, b), max(a, b)) in net.links

    def test_hop_count(self, net, table):
        u, v = 0, net.station_ids[-1]
        assert table.hop_count(u, v) == len(table.path(u, v)) - 1
        assert table.hop_count(u, u) == 0


class TestNearest:
    def test_nearest_by_delay_is_minimum(self, net, table):
        src = 0
        nearest = table.nearest_by_delay(src)
        best = min(table.one_way_delay_ms(src, sid)
                   for sid in net.station_ids if sid != src)
        assert table.one_way_delay_ms(src, nearest) == pytest.approx(best)

    def test_nearest_excludes(self, net, table):
        src = 0
        first = table.nearest_by_delay(src)
        second = table.nearest_by_delay(src, exclude=(first,))
        assert second not in (src, first)

    def test_nearest_all_excluded_raises(self, net, table):
        others = tuple(sid for sid in net.station_ids if sid != 0)
        with pytest.raises(ConfigurationError):
            table.nearest_by_delay(0, exclude=others)

    def test_stations_by_delay_sorted(self, net, table):
        order = table.stations_by_delay(0)
        delays = [table.one_way_delay_ms(0, sid) for sid in order]
        assert delays == sorted(delays)
        assert len(order) == len(net) - 1

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_all_pairs_reachable_property(self, seed):
        net = generate_topology(NetworkConfig(num_base_stations=9),
                                rng=seed)
        table = PathTable(net)
        for u in net.station_ids:
            for v in net.station_ids:
                assert table.one_way_delay_ms(u, v) >= 0.0
