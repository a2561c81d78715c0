"""MEC network topology: base stations and the backhaul graph.

The paper generates topologies with GT-ITM [13].  GT-ITM's flat random
graphs use the Waxman model: nodes are placed uniformly in the unit
square and an edge between nodes ``u`` and ``v`` appears with
probability ``alpha * exp(-d(u, v) / (beta * d_max))``.  We reproduce
that model (seeded, connectivity-repaired); the backhaul is a link
table ``{(u, v): delay_ms}``, and connectivity comes from
``scipy.sparse.csgraph``.

Each base station carries a computing capacity ``C(bs_i)`` drawn
uniformly from the configured range, and each backhaul link carries a
transmission delay for one ``rho_unit`` of data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from ..config import NetworkConfig
from ..exceptions import ConfigurationError
from ..rng import RngLike, ensure_rng


@dataclass(frozen=True)
class BaseStation:
    """A 5G base station with co-located edge computing resources.

    Attributes:
        station_id: index of the station in the network (0-based).
        capacity_mhz: computing capacity ``C(bs_i)`` in MHz.
        position: (x, y) coordinates in the unit square; used by the
            Waxman model and by "closest base station" queries.
    """

    station_id: int
    capacity_mhz: float
    position: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.station_id < 0:
            raise ConfigurationError(
                f"station_id must be >= 0, got {self.station_id}")
        if self.capacity_mhz <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity_mhz}")

    def num_slots(self, slot_size_mhz: float) -> int:
        """Number of resource slots ``L = floor(C(bs_i) / C_l)``."""
        return slot_count(self.capacity_mhz, slot_size_mhz)


def slot_count(capacity_mhz: float, slot_size_mhz: float) -> int:
    """The paper's ``L = floor(C / C_l)``: the one slot-count rule.

    The float quotient is floored, so a capacity that is a whole
    multiple of ``C_l`` in decimal (1834.2 / 203.8) has that many slots
    even when ``C // C_l`` would lose one to binary rounding.
    """
    if slot_size_mhz <= 0:
        raise ConfigurationError(
            f"slot size must be positive, got {slot_size_mhz}")
    return int(math.floor(capacity_mhz / slot_size_mhz))


@dataclass
class MECNetwork:
    """The MEC network ``G = (BS, E)``.

    The backhaul is an undirected weighted graph over station ids,
    held as a link table: ``links[(u, v)]`` is the delay (ms) of
    transmitting one ``rho_unit`` of data across link ``(u, v)``.

    Attributes:
        stations: the base stations, indexed by ``station_id``.
        links: ``{(u, v): delay_ms}``, one entry per undirected link;
            construction stores each key as ``(min, max)`` and keeps
            the given order.
        slot_size_mhz: the resource slot capacity ``C_l``.
    """

    stations: List[BaseStation]
    links: Dict[Tuple[int, int], float]
    slot_size_mhz: float
    _by_id: Dict[int, BaseStation] = field(init=False, repr=False)
    _ids: List[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.stations:
            raise ConfigurationError("a network needs at least one station")
        if self.slot_size_mhz <= 0:
            raise ConfigurationError(
                f"slot size must be positive, got {self.slot_size_mhz}")
        self._by_id = {bs.station_id: bs for bs in self.stations}
        if len(self._by_id) != len(self.stations):
            raise ConfigurationError("duplicate station ids in network")
        self._ids = sorted(self._by_id)
        links: Dict[Tuple[int, int], float] = {}
        for (u, v), delay_ms in self.links.items():
            if u not in self._by_id or v not in self._by_id:
                raise ConfigurationError(
                    f"link ({u}, {v}) names an unknown station")
            key = (min(u, v), max(u, v))
            if u == v or key in links:
                raise ConfigurationError(
                    f"link ({u}, {v}) is a self-loop or a duplicate")
            links[key] = float(delay_ms)
        self.links = links
        if len(components(self._ids, links)) > 1:
            raise ConfigurationError("backhaul graph must be connected")

    def __len__(self) -> int:
        return len(self.stations)

    def __iter__(self) -> Iterator[BaseStation]:
        return iter(self.stations)

    def station(self, station_id: int) -> BaseStation:
        """Return the station with the given id."""
        try:
            return self._by_id[station_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown station id {station_id}") from None

    def has_station(self, station_id: int) -> bool:
        """Whether the network has a station with this id."""
        return station_id in self._by_id

    @property
    def station_ids(self) -> List[int]:
        """All station ids, sorted ascending (a fresh list)."""
        return list(self._ids)

    def link_delay_ms(self, u: int, v: int) -> float:
        """Per-``rho_unit`` transmission delay of backhaul link (u, v)."""
        try:
            return self.links[(min(u, v), max(u, v))]
        except KeyError:
            raise ConfigurationError(f"no backhaul link ({u}, {v})") from None

    def num_slots(self, station_id: int) -> int:
        """Resource slots of one station under this network's ``C_l``."""
        return self.station(station_id).num_slots(self.slot_size_mhz)

    def total_capacity_mhz(self) -> float:
        """Aggregate computing capacity of the whole network."""
        return float(sum(bs.capacity_mhz for bs in self.stations))

    def neighbors(self, station_id: int) -> List[int]:
        """Backhaul neighbours of a station, sorted ascending."""
        self.station(station_id)
        return sorted(v if u == station_id else u for u, v in self.links
                      if station_id in (u, v))

    def closest_station(self, position: Tuple[float, float],
                        exclude: Optional[set] = None) -> BaseStation:
        """The station geometrically closest to `position`.

        Used to attach a mobile user to its serving base station, and by
        the Heu migration step ("closest base station of bs_i").

        Args:
            position: (x, y) query point in the unit square.
            exclude: station ids to skip (e.g. the overloaded station
                itself during migration).
        """
        exclude = exclude or set()
        candidates = [bs for bs in self.stations
                      if bs.station_id not in exclude]
        if not candidates:
            raise ConfigurationError("no candidate stations left")
        return min(
            candidates,
            key=lambda bs: ((bs.position[0] - position[0]) ** 2
                            + (bs.position[1] - position[1]) ** 2,
                            bs.station_id))


def _waxman_edges(positions: np.ndarray, alpha: float, beta: float,
                  rng: np.random.Generator) -> List[Tuple[int, int]]:
    """Sample Waxman-model edges over the given node positions."""
    n = positions.shape[0]
    if n < 2:
        return []
    diffs = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    d_max = float(dist.max())
    if d_max <= 0:
        d_max = 1.0
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            prob = alpha * math.exp(-dist[u, v] / (beta * d_max))
            if rng.random() < prob:
                edges.append((u, v))
    return edges


def adjacency_matrix(ids: List[int],
                     links: Dict[Tuple[int, int], float]) -> csr_array:
    """``links`` as a square sparse matrix over the positions of the
    sorted station ``ids``, ``[i, j] = delay`` once per link: the
    undirected input of ``scipy.sparse.csgraph``."""
    index = {sid: i for i, sid in enumerate(ids)}
    rows = [index[u] for u, _ in links]
    cols = [index[v] for _, v in links]
    return csr_array((np.array(list(links.values()), dtype=float),
                      (np.array(rows, dtype=np.intp),
                       np.array(cols, dtype=np.intp))),
                     shape=(len(ids), len(ids)))


def components(ids: List[int], links: Dict[Tuple[int, int], float]
               ) -> List[List[int]]:
    """Connected components of the backhaul, each sorted ascending and
    ordered by smallest member (the order networkx reports them in for
    nodes inserted in id order)."""
    _, labels = connected_components(adjacency_matrix(ids, links),
                                     directed=False)
    groups: Dict[int, List[int]] = {}
    for sid, label in zip(ids, labels.tolist()):
        groups.setdefault(label, []).append(sid)
    return sorted(groups.values())


def _repair_connectivity(edges: List[Tuple[int, int]],
                         positions: np.ndarray) -> List[Tuple[int, int]]:
    """The bridges that connect the graph, geometrically shortest first.

    GT-ITM guarantees connected topologies; a raw Waxman sample may not
    be connected, so we add the shortest edge from the component of
    station 0 to any other until the graph is connected.  This keeps
    the added edges plausible (they are exactly the edges the Waxman
    model was most likely to create).  Returns them as ``(u, v)`` with
    ``u`` in station 0's component, in the order they were added.
    """
    ids = list(range(positions.shape[0]))
    links = dict.fromkeys(edges, 1.0)
    bridges: List[Tuple[int, int]] = []
    # Each pass rescans every (base, other) pair; compute each distance
    # once, so a sparse sample with many components stays quadratic.
    distance: Dict[Tuple[int, int], float] = {}
    groups = components(ids, links)
    while len(groups) > 1:
        base = groups[0]
        best = None
        for other in groups[1:]:
            for u in base:
                for v in other:
                    d = distance.get((u, v))
                    if d is None:
                        d = distance[(u, v)] = float(
                            np.linalg.norm(positions[u] - positions[v]))
                    if best is None or d < best[0]:
                        best = (d, u, v)
        assert best is not None
        bridges.append((best[1], best[2]))
        links[(min(best[1], best[2]), max(best[1], best[2]))] = 1.0
        groups = components(ids, links)
    return bridges


def generate_topology(config: NetworkConfig,
                      rng: RngLike = None) -> MECNetwork:
    """Generate a seeded GT-ITM-style MEC topology.

    Nodes are placed uniformly at random in the unit square; edges
    follow the Waxman model with the configured ``alpha``/``beta``;
    connectivity is repaired with shortest bridges; capacities and link
    delays are drawn uniformly from the configured ranges.

    Args:
        config: network parameters (validated before use).
        rng: seed or generator for all random draws.

    Returns:
        A connected :class:`MECNetwork`.
    """
    config.validate()
    rng = ensure_rng(rng)
    n = config.num_base_stations

    positions = rng.random((n, 2))
    waxman = _waxman_edges(positions, config.waxman_alpha,
                           config.waxman_beta, rng)
    bridges = _repair_connectivity(waxman, positions) if n > 1 else []
    # Delays are drawn in networkx's ``Graph.edges`` order for nodes and
    # edges added in this order: station by station, each station's
    # links to higher ids, Waxman links (ascending) before bridges.
    higher: List[List[int]] = [[] for _ in range(n)]
    for u, v in waxman + bridges:
        higher[min(u, v)].append(max(u, v))
    lo_d, hi_d = config.link_delay_range_ms
    links = {(u, v): float(rng.uniform(lo_d, hi_d))
             for u in range(n) for v in higher[u]}

    lo_c, hi_c = config.capacity_range_mhz
    stations = [
        BaseStation(
            station_id=i,
            capacity_mhz=float(rng.uniform(lo_c, hi_c)),
            position=(float(positions[i, 0]), float(positions[i, 1])),
        )
        for i in range(n)
    ]
    return MECNetwork(stations=stations, links=links,
                      slot_size_mhz=config.slot_size_mhz)
