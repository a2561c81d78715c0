"""A/B: the link-table topology and csgraph paths against networkx.

The frozen copy below is the networkx-based generator and path table
that :mod:`repro.network.topology` and :mod:`repro.network.paths`
replaced.  Over seeded configs of 1-60 stations both must agree
exactly: link order and delays, capacities, positions, the generator's
RNG state after generation, and every all-pairs delay (``==``).
networkx is a test-only dependency (the ``dev`` extra).
"""

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.network.paths import PathTable
from repro.network.topology import (_repair_connectivity, _waxman_edges,
                                    generate_topology)

nx = pytest.importorskip("networkx")

CONFIGS = 1000


def _old_repair_connectivity(graph, positions):
    """Returns the bridges in the order they were added."""
    # The old loop, plus a cache of each pair's (deterministic) distance
    # so the test runs in seconds.
    distance = {}
    bridges = []
    while not nx.is_connected(graph):
        components = [sorted(c) for c in nx.connected_components(graph)]
        base = components[0]
        best = None
        for other in components[1:]:
            for u in base:
                for v in other:
                    if (u, v) not in distance:
                        distance[(u, v)] = float(
                            np.linalg.norm(positions[u] - positions[v]))
                    d = distance[(u, v)]
                    if best is None or d < best[0]:
                        best = (d, u, v)
        graph.add_edge(best[1], best[2])
        bridges.append((best[1], best[2]))
    return bridges


def _old_generate(config, rng):
    """The networkx generator: ``(graph, capacities, positions,
    bridges)``."""
    n = config.num_base_stations
    positions = rng.random((n, 2))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(
        _waxman_edges(positions, config.waxman_alpha, config.waxman_beta, rng))
    bridges = _old_repair_connectivity(graph, positions) if n > 1 else []
    lo_d, hi_d = config.link_delay_range_ms
    for u, v in graph.edges:
        graph[u][v]["delay_ms"] = float(rng.uniform(lo_d, hi_d))
    lo_c, hi_c = config.capacity_range_mhz
    capacities = [float(rng.uniform(lo_c, hi_c)) for _ in range(n)]
    return (graph, capacities,
            [(float(x), float(y)) for x, y in positions], bridges)


def _config(draw):
    """A random valid config of 1-60 stations, sparse or dense."""
    lo_d = float(draw.uniform(0.0, 5.0))
    lo_c = float(draw.uniform(1000.0, 4000.0))
    return NetworkConfig(
        num_base_stations=int(draw.integers(1, 61)),
        waxman_alpha=float(draw.uniform(0.01, 1.0)),
        waxman_beta=float(draw.uniform(0.01, 1.0)),
        link_delay_range_ms=(lo_d, lo_d + float(draw.uniform(0.0, 5.0))),
        capacity_range_mhz=(lo_c, lo_c + float(draw.uniform(0.0, 1000.0))),
        slot_size_mhz=500.0)


def test_matches_networkx_on_seeded_configs():
    draw = np.random.default_rng(20261019)
    multi_bridged = 0
    for case in range(CONFIGS):
        config = _config(draw)
        old_rng = np.random.default_rng(case)
        new_rng = np.random.default_rng(case)
        graph, capacities, positions, bridges = _old_generate(config,
                                                              old_rng)
        net = generate_topology(config, new_rng)
        where = f"case {case}: {config}"

        assert list(net.links) == list(graph.edges), where
        assert list(net.links.values()) == [
            graph[u][v]["delay_ms"] for u, v in graph.edges], where
        assert [bs.capacity_mhz for bs in net] == capacities, where
        assert [bs.position for bs in net] == positions, where
        assert (new_rng.bit_generator.state
                == old_rng.bit_generator.state), where

        old_delays = dict(nx.all_pairs_dijkstra_path_length(
            graph, weight="delay_ms"))
        table = PathTable(net)
        for src in net.station_ids:
            for dst in net.station_ids:
                assert (table.one_way_delay_ms(src, dst)
                        == old_delays[src][dst]), (where, src, dst)
        multi_bridged += len(bridges) > 1
    # The repair loop's order matters only when it adds several bridges.
    assert multi_bridged > CONFIGS // 10


def test_repair_breaks_ties_like_networkx():
    """Random positions never tie; lattice points (some repeated) tie
    often, so the bridge scan order and its strict ``<`` both matter."""
    draw = np.random.default_rng(7)
    ties = 0
    for case in range(300):
        n = int(draw.integers(2, 25))
        positions = draw.integers(0, 4, size=(n, 2)) / 4.0
        edges = sorted({(int(min(u, v)), int(max(u, v)))
                        for u, v in draw.integers(0, n, size=(n // 2, 2))
                        if u != v})
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        expected = _old_repair_connectivity(graph, positions)
        assert _repair_connectivity(edges, positions) == expected, case
        ties += len(expected) > 1
    assert ties > 100
