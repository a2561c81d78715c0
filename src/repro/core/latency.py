"""The latency model of Eqs. (1) and (2).

The experienced latency of request ``r_j`` assigned to station
``bs_i`` is::

    D_j = (b_j - a_j)                                # scheduling wait
        + sum_{e in p_ji} 2 * d^trans_je             # round trip
        + sum_k d^pro_{jki}                          # pipeline processing

Per-task processing delays ``d^pro_{jki}`` "vary between base stations"
(Section III-D): we draw a base per-``rho_unit`` task delay for every
station and scale it by each task's compute weight, so rendering
dominates and fast stations are consistently fast.  Eq. (2) is thus
separable: :meth:`LatencyModel.placement_delays` is the one kernel
``rt[serving_j] + base * w_j`` over all stations, every scalar delay is
a view of it, and :func:`meets_deadline` is the one Eq. (1) test.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..network.paths import PathTable
from ..network.topology import MECNetwork
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng


_DEADLINE_TOL_MS = 1e-9  # float slack of the Eq. (1) comparison


def meets_deadline(latency_ms, deadline_ms):
    """Eq. (1) ``D_j <= D_hat_j``, with a 1e-9 ms float tolerance.

    Elementwise on arrays: ``meets_deadline(waiting +
    model.placement_delays(r), r.deadline_ms)`` is the per-station mask
    in ``station_ids`` order.
    """
    return latency_ms <= deadline_ms + _DEADLINE_TOL_MS


def _checked_waiting(waiting_ms: float) -> float:
    if waiting_ms < 0:
        raise ConfigurationError(f"waiting must be >= 0, got {waiting_ms}")
    return waiting_ms


class LatencyModel:
    """Evaluates Eq. (2) for any (request, station) pair.

    Holds the per-station base delays as one array in
    ``network.station_ids`` order, plus cached round-trip rows.

    Args:
        network: the MEC network.
        path_table: shortest paths by transmission delay.
        proc_delay_range_ms: uniform range for each station's base
            per-task processing delay of one ``rho_unit``.
        rng: randomness for the per-station base delays.
    """

    def __init__(self, network: MECNetwork, path_table: PathTable,
                 proc_delay_range_ms: Tuple[float, float] = (5.0, 15.0),
                 rng: RngLike = None) -> None:
        lo, hi = proc_delay_range_ms
        if not 0 <= lo <= hi:
            raise ConfigurationError(
                f"invalid processing delay range {proc_delay_range_ms}")
        if path_table.network is not network:
            raise ConfigurationError(
                "path table was built from a different network")
        rng = ensure_rng(rng)
        self._network = network
        self._paths = path_table
        self._ids: List[int] = list(network.station_ids)
        self._index = {sid: k for k, sid in enumerate(self._ids)}
        self._base = np.array([float(rng.uniform(lo, hi))
                               for _ in self._ids])
        self._rt_rows: Dict[int, np.ndarray] = {}

    def restore_base_delays(self, base_delay_ms: Dict[int, float]) -> None:
        """Replace the drawn per-station base delays (deserialization).

        Raises:
            ConfigurationError: the mapping does not cover exactly the
                network's stations, or a delay is not a finite number
                ``>= 0``.
        """
        if set(base_delay_ms) != set(self._ids):
            raise ConfigurationError(
                "base delay mapping does not match the network's "
                "stations")
        try:
            base = np.array([base_delay_ms[sid] for sid in self._ids],
                            dtype=float)
            valid = bool(np.all(np.isfinite(base) & (base >= 0)))
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ConfigurationError(
                "base delays must be finite numbers >= 0")
        self._base = base

    @property
    def network(self) -> MECNetwork:
        """The underlying network."""
        return self._network

    @property
    def paths(self) -> PathTable:
        """The underlying path table."""
        return self._paths

    def _position(self, station_id: int) -> int:
        try:
            return self._index[station_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown station id {station_id}") from None

    def _round_trips(self, src: int) -> np.ndarray:
        """``sum_e 2 * d^trans_je`` from ``src`` to every station."""
        row = self._rt_rows.get(src)
        if row is None:
            row = self._rt_rows[src] = np.array([
                self._paths.round_trip_delay_ms(src, sid)
                for sid in self._ids])
        return row

    def base_delay_ms(self, station_id: int) -> float:
        """Base per-task processing delay of one station."""
        return float(self._base[self._position(station_id)])

    def placement_delays(self, request: ARRequest) -> np.ndarray:
        """Transmission + processing part of Eq. (2) (no waiting), to
        every station in ``station_ids`` order."""
        return (self._round_trips(request.serving_station)
                + self._base * request.pipeline.total_compute_weight)

    def placement_delay_ms(self, request: ARRequest,
                           station_id: int) -> float:
        """:meth:`placement_delays` at one station."""
        return float(self.placement_delays(request)[
            self._position(station_id)])

    def total_delay_ms(self, request: ARRequest, station_id: int,
                       waiting_ms: float = 0.0) -> float:
        """Full Eq. (2): waiting + transmission + processing."""
        return (_checked_waiting(waiting_ms)
                + self.placement_delay_ms(request, station_id))

    def split_delay_ms(self, request: ARRequest, primary: int,
                       migrated_tasks: Dict[int, int],
                       waiting_ms: float = 0.0) -> float:
        """Latency when some tasks run on other stations (Heu).

        Each migrated task adds a round trip between the primary and
        its host (intermediate matrices travel there and back) and is
        processed at the host's speed.

        Args:
            request: the request.
            primary: primary station id.
            migrated_tasks: task index -> hosting station id.
            waiting_ms: scheduling wait.
        """
        at = self._position(primary)
        hops = self._round_trips(primary)
        total = waiting_ms + float(
            self._round_trips(request.serving_station)[at])
        for k, task in enumerate(request.pipeline):
            host = self._position(migrated_tasks.get(k, primary))
            total += float(self._base[host]) * task.compute_weight
            if host != at:
                total += float(hops[host])
        return total

    def is_feasible(self, request: ARRequest, station_id: int,
                    waiting_ms: float = 0.0) -> bool:
        """Whether Eq. (1) ``D_j <= D_hat_j`` holds for a placement."""
        return meets_deadline(self.total_delay_ms(
            request, station_id, waiting_ms), request.deadline_ms)

    def feasible_stations(self, request: ARRequest,
                          waiting_ms: float = 0.0) -> List[int]:
        """Stations meeting the deadline, sorted by placement delay.

        This is the pruning that enforces constraint (11) inside the LP
        (a binary solution satisfies Eq. (11) iff every selected station
        is in this list).
        """
        delays = self.placement_delays(request)
        mask = meets_deadline(_checked_waiting(waiting_ms) + delays,
                              request.deadline_ms)
        ids = self._ids
        order = sorted(np.flatnonzero(mask).tolist(),
                       key=lambda k: (delays[k], ids[k]))
        return [ids[k] for k in order]
