"""**OCORP** baseline (Liu et al. [20]).

"In each time slot, algorithm OCORP sorts the unfinished jobs according
to arriving time and remaining to-be-processed data, then assigns tasks
to edge servers based on a best-fit algorithm."

Offline (all arrivals at slot 0) the order reduces to increasing
expected stream volume; placement is classic best-fit packing - the
feasible station whose free capacity exceeds the expected demand by the
*smallest* margin.  Best-fit keeps stations tightly packed, which is
great for deterministic demands and exactly wrong for uncertain ones:
a station packed to its expected capacity overflows on roughly half of
the realizations, forfeiting those rewards.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.assignment import ScheduleResult
from ..core.instance import ProblemInstance
from ..network.capacity import CapacityLedger
from ..requests.request import ARRequest
from ..rng import RngLike
from .base import OnlineBaselinePolicy, admit_sequential


def _ocorp_order(requests: Sequence[ARRequest]) -> List[ARRequest]:
    """Arrival time, then remaining (expected) data, then id."""
    return sorted(requests, key=lambda r: (r.arrival_slot,
                                           r.expected_rate_mbps
                                           * r.stream_duration_slots,
                                           r.request_id))


#: OCORP's local view: each job only considers this many nearest (by
#: placement delay) edge servers.  [20] schedules within a local server
#: cluster; the paper's Fig. 4 discussion attributes OCORP's behaviour
#: to "a local strategy instead of considering the global optimal
#: solution".
LOCAL_CANDIDATES = 2


def _local_candidates(instance: ProblemInstance,
                      request: ARRequest) -> List[int]:
    """The request's nearest deadline-feasible stations."""
    return instance.latency.feasible_stations(request)[:LOCAL_CANDIDATES]


def _best_fit_station(instance: ProblemInstance, request: ARRequest,
                      ledger: CapacityLedger) -> Optional[int]:
    """Best-fit among the request's local candidate stations."""
    candidates = [sid for sid in _local_candidates(instance, request)
                  if ledger.fits(sid, request.expected_demand_mhz)]
    if not candidates:
        return None
    return min(candidates, key=lambda sid: (ledger.free_mhz(sid), sid))


class OcorpOffline:
    """Batch version of the OCORP baseline."""

    name = "OCORP"

    def run(self, instance: ProblemInstance,
            requests: Sequence[ARRequest],
            rng: RngLike = None) -> ScheduleResult:
        """Best-fit pack requests in (arrival, size) order."""
        ordered = _ocorp_order(requests)
        return admit_sequential(self.name, instance, ordered,
                                _best_fit_station, rng=rng)


class OcorpOnline(OnlineBaselinePolicy):
    """Slotted version: best-fit the pending queue every slot."""

    name = "OCORP"

    def order(self, slot: int,
              pending: Sequence[ARRequest]) -> List[ARRequest]:
        return _ocorp_order(pending)

    def pick_station(self, request: ARRequest,
                     planned_mhz) -> Optional[int]:
        # Waiting only trims the far end of the nearest-first list, so
        # the local candidates still feasible now are its head.
        demand = request.expected_demand_mhz
        candidates = [
            sid for sid in self._feasible_stations(request)[:LOCAL_CANDIDATES]
            if self._free_for(sid, planned_mhz) >= demand
        ]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda sid: (self._free_for(sid, planned_mhz), sid))
