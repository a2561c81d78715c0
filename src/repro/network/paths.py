"""Latency-weighted shortest paths over the MEC backhaul.

The latency model of Eq. (2) charges, per assignment of request ``r_j``
to base station ``bs_i``, twice the transmission delay of every link on
the shortest path ``p_{ji}`` between the user's serving station and
``bs_i`` (uplink + downlink), plus the per-task processing delays.

:class:`PathTable` runs one all-pairs Dijkstra by transmission delay
(``scipy.sparse.csgraph.dijkstra`` over the network's link table) and
keeps the delay matrix and the predecessor matrix, so algorithms can
query round-trip delays in O(1) and any path by walking predecessors.
"""

from __future__ import annotations

from typing import List, Tuple

from scipy.sparse.csgraph import dijkstra

from ..exceptions import ConfigurationError
from .topology import MECNetwork, adjacency_matrix


class PathTable:
    """All-pairs shortest paths of an MEC backhaul by transmission delay.

    Args:
        network: the MEC network whose backhaul to index.

    The table is immutable after construction; rebuilding it after a
    topology change is the caller's responsibility.  Each delay is the
    smallest left-to-right float sum of link delays over all paths, so
    it does not depend on how Dijkstra breaks ties.
    """

    def __init__(self, network: MECNetwork) -> None:
        self._network = network
        self._ids = network.station_ids
        self._index = {sid: i for i, sid in enumerate(self._ids)}
        delays, self._predecessors = dijkstra(
            adjacency_matrix(self._ids, network.links), directed=False,
            return_predecessors=True)
        #: ``[src position][dst position]`` -> one-way delay (ms).
        self._delay: List[List[float]] = delays.tolist()

    def _positions(self, src: int, dst: int) -> Tuple[int, int]:
        try:
            return self._index[src], self._index[dst]
        except KeyError:
            raise ConfigurationError(
                f"no path between stations {src} and {dst}") from None

    @property
    def network(self) -> MECNetwork:
        """The network this table was built from."""
        return self._network

    def one_way_delay_ms(self, src: int, dst: int) -> float:
        """One-way transmission delay of one ``rho_unit`` from src to dst."""
        i, j = self._positions(src, dst)
        return self._delay[i][j]

    def round_trip_delay_ms(self, src: int, dst: int) -> float:
        """Round-trip delay ``sum_{e in p_ji} 2 * d^trans_je`` of Eq. (2)."""
        return 2.0 * self.one_way_delay_ms(src, dst)

    def path(self, src: int, dst: int) -> List[int]:
        """Station ids along the shortest path (inclusive of endpoints)."""
        i, j = self._positions(src, dst)
        path = [dst]
        while j != i:
            j = int(self._predecessors[i, j])
            path.append(self._ids[j])
        return path[::-1]

    def hop_count(self, src: int, dst: int) -> int:
        """Number of backhaul links on the shortest path."""
        return max(0, len(self.path(src, dst)) - 1)

    def nearest_by_delay(self, src: int, exclude: Tuple[int, ...] = ()) -> int:
        """Station with the smallest one-way delay from `src`.

        Used by the Heu migration step: tasks of an overflowing request
        migrate to the *closest* base station of the overloaded one.

        Args:
            src: origin station id.
            exclude: station ids to skip (always implicitly includes
                `src` itself).
        """
        skip = set(exclude) | {src}
        candidates = [sid for sid in self._network.station_ids
                      if sid not in skip]
        if not candidates:
            raise ConfigurationError(
                f"no candidate stations reachable from {src}")
        return min(candidates,
                   key=lambda sid: (self.one_way_delay_ms(src, sid), sid))

    def stations_by_delay(self, src: int) -> List[int]:
        """All other stations sorted by increasing one-way delay."""
        others = [sid for sid in self._network.station_ids if sid != src]
        return sorted(others,
                      key=lambda sid: (self.one_way_delay_ms(src, sid), sid))
