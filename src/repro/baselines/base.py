"""Shared machinery for the baseline algorithms.

All three baselines share one *physics*: requests are considered in an
algorithm-specific order, each picks a station by an algorithm-specific
rule using **expected** demands (the baselines do not model
uncertainty), the data rate is realized at admission, the realized
demand is reserved (truncated at capacity), and - as everywhere in this
reproduction - the reward is earned only if the realized demand fully
fit the station's remaining capacity.  This keeps the uncertainty
penalty identical across all algorithms; what differs is only how
carefully each algorithm leaves room for it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.assignment import OffloadDecision, ScheduleResult
from ..core.instance import ProblemInstance
from ..core.latency import meets_deadline
from ..core.rounding import settle
from ..network.capacity import CapacityLedger
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng

#: Picks a station for a request given the current ledger, or None to
#: reject.  Receives (instance, request, ledger).
StationChooser = Callable[[ProblemInstance, ARRequest, CapacityLedger],
                          Optional[int]]


def expected_feasible_stations(instance: ProblemInstance,
                               request: ARRequest,
                               ledger: CapacityLedger,
                               waiting_ms: float = 0.0) -> List[int]:
    """Stations meeting the deadline with room for the expected demand.

    This is the admission view of a baseline: it believes the expected
    demand and checks the latency requirement (Eq. 1) for the placement.
    """
    demand = request.expected_demand_mhz
    return [sid
            for sid in instance.latency.feasible_stations(request,
                                                          waiting_ms)
            if ledger.fits(sid, demand)]


def admit_sequential(algorithm_name: str,
                     instance: ProblemInstance,
                     ordered_requests: Sequence[ARRequest],
                     choose_station: StationChooser,
                     rng: RngLike = None,
                     unplaced: Optional[Callable[
                         [ARRequest, RngLike], OffloadDecision]] = None
                     ) -> ScheduleResult:
    """Run the shared sequential admission loop.

    Args:
        algorithm_name: label for the result.
        instance: the problem instance.
        ordered_requests: requests in the algorithm's processing order.
        choose_station: the algorithm's placement rule.
        rng: randomness for rate realization.
        unplaced: decides a request the rule placed on no station
            (HeuKKT's cloud spill); None rejects it.

    Returns:
        A :class:`ScheduleResult` with one decision per request.
    """
    rng = ensure_rng(rng)
    result = ScheduleResult(algorithm=algorithm_name)
    ledger = instance.new_ledger()
    for request in ordered_requests:
        station_id = choose_station(instance, request, ledger)
        if station_id is None:
            result.add(OffloadDecision(request_id=request.request_id)
                       if unplaced is None else unplaced(request, rng))
            continue
        _, earned = settle(request, station_id, ledger, rng)
        latency = instance.latency.total_delay_ms(request, station_id)
        result.add(OffloadDecision(
            request_id=request.request_id,
            admitted=True,
            primary_station=station_id,
            realized_rate_mbps=request.realized_rate_mbps,
            reward=earned,
            latency_ms=latency,
            waiting_ms=0.0,
            deadline_met=meets_deadline(latency, request.deadline_ms),
        ))
    return result


class OnlineBaselinePolicy:
    """Base class for the online versions of the baselines.

    Subclasses implement :meth:`order` (the per-slot processing order)
    and :meth:`pick_station` (the placement rule given the engine's
    live occupancy view).  Placement is immediate and greedy - these
    baselines never hold a placeable request back, which is what gives
    them their low waiting times (and their congestion problems).
    """

    name = "OnlineBaseline"

    def __init__(self) -> None:
        self._engine = None
        self._slot = 0
        #: Station id -> free capacity at this slot, before placements.
        self._free: Dict[int, float] = {}

    def begin(self, engine) -> None:
        """Keep the engine view."""
        self._engine = engine

    def order(self, slot: int,
              pending: Sequence[ARRequest]) -> List[ARRequest]:
        """The processing order for this slot (subclass hook)."""
        raise NotImplementedError

    def pick_station(self, request: ARRequest,
                     planned_mhz) -> Optional[int]:
        """The placement rule (subclass hook).

        Args:
            request: the candidate.
            planned_mhz: station id -> demand already planned this slot
                (on top of the engine's active demand).
        """
        raise NotImplementedError

    def schedule(self, slot: int, pending: Sequence[ARRequest]) -> List:
        """Greedy immediate placement of every request that fits."""
        from ..sim.online_engine import Placement  # local: avoid cycle

        engine = self._engine
        assert engine is not None
        self._slot = slot
        # Nothing starts or ends inside schedule(): one snapshot, with
        # the arithmetic of OnlineEngine.free_mhz, serves every request.
        self._free = engine.station_free_mhz()
        placements = []
        planned = {sid: 0.0 for sid in engine.instance.network.station_ids}
        for request in self.order(slot, pending):
            station_id = self.pick_station(request, planned)
            if station_id is None:
                continue
            planned[station_id] += request.expected_demand_mhz
            placements.append(Placement(request_id=request.request_id,
                                        station_id=station_id))
        return placements

    def observe(self, slot: int, slot_reward: float) -> None:
        """Baselines do not learn from feedback."""

    # Shared helpers ----------------------------------------------------
    def _free_for(self, station_id: int, planned_mhz) -> float:
        """Free capacity net of both active and this-slot-planned demand."""
        return self._free[station_id] - planned_mhz.get(station_id, 0.0)

    def _feasible_stations(self, request: ARRequest) -> List[int]:
        """Stations meeting the deadline if placed this slot, nearest
        first (:meth:`OnlineEngine.feasible_stations`)."""
        engine = self._engine
        assert engine is not None
        return engine.feasible_stations(request, self._slot)
