"""**Greedy** baseline (Yang et al. [32]).

"The algorithm sorts tasks in a decreasing order according to their
execution times, and assigns the task to the optimal edge server
one-by-one."  Interpretation, as in the paper's comparison: requests
are ordered by expected execution time (pipeline compute weight x
expected rate - the heaviest streams first) and each is placed on the
*optimal* edge server in the latency sense - the feasible station with
the smallest transfer + processing delay whose expected free capacity
covers the request's expected demand.

The result is the paper's observed behaviour: very low latency (every
request runs on its fastest station) but poor reward - the fast
stations congest, expected-demand packing leaves no headroom for
realized rates, and the reward distribution is never consulted.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.assignment import ScheduleResult
from ..core.instance import ProblemInstance
from ..network.capacity import CapacityLedger
from ..requests.request import ARRequest
from ..rng import RngLike
from .base import OnlineBaselinePolicy, admit_sequential


def _execution_time_key(instance: ProblemInstance,
                        request: ARRequest) -> float:
    """Expected execution time proxy: compute weight x expected rate."""
    return (request.pipeline.total_compute_weight
            * request.expected_rate_mbps)


def _greedy_order(instance: ProblemInstance,
                  requests: Sequence[ARRequest]) -> List[ARRequest]:
    """Decreasing execution time (ties by id for determinism)."""
    return sorted(requests,
                  key=lambda r: (-_execution_time_key(instance, r),
                                 r.request_id))


def _min_latency_station(instance: ProblemInstance, request: ARRequest,
                         ledger: CapacityLedger) -> Optional[int]:
    """The *optimal* (lowest-latency) station - or nothing.

    [32]'s greedy assigns each task to "the optimal edge server"; it
    has no global fallback - when the optimal server lacks room the
    request is rejected, even though distant servers may be idle.  The
    paper attributes Greedy's low reward to exactly this local view
    ("they utilize a local strategy instead of considering the global
    optimal solution").
    """
    feasible = instance.latency.feasible_stations(request)
    if not feasible:
        return None
    best = feasible[0]
    if not ledger.fits(best, request.expected_demand_mhz):
        return None
    return best


class GreedyOffline:
    """Batch version of the Greedy baseline."""

    name = "Greedy"

    def run(self, instance: ProblemInstance,
            requests: Sequence[ARRequest],
            rng: RngLike = None) -> ScheduleResult:
        """Place requests heaviest-first onto their fastest stations."""
        ordered = _greedy_order(instance, requests)
        return admit_sequential(self.name, instance, ordered,
                                _min_latency_station, rng=rng)


class GreedyOnline(OnlineBaselinePolicy):
    """Slotted version: same rule applied to the pending queue.

    A request's sort key and expected demand are computed once, when it
    is first seen pending, and kept while it stays pending.  They derive
    from the request alone, so a resumed policy rebuilds them and a
    checkpoint does not carry them.
    """

    name = "Greedy"

    def __init__(self) -> None:
        super().__init__()
        #: Request id -> ``((-execution time, id), expected demand)``
        #: of the requests pending at the last slot.
        self._keys: Dict[int, Tuple[Tuple[float, int], float]] = {}

    def begin(self, engine) -> None:
        """Keep the engine view; forget the last run's requests."""
        super().begin(engine)
        self._keys = {}

    def order(self, slot: int,
              pending: Sequence[ARRequest]) -> List[ARRequest]:
        engine = self._engine
        assert engine is not None
        known = self._keys
        keys = self._keys = {}
        ranked = []
        for request in pending:
            request_id = request.request_id
            entry = known.get(request_id)
            if entry is None:
                entry = ((-_execution_time_key(engine.instance, request),
                          request_id), request.expected_demand_mhz)
            keys[request_id] = entry
            ranked.append((entry[0], request))
        # The (key, id) order of _greedy_order.
        ranked.sort(key=itemgetter(0))
        return [request for _, request in ranked]

    def pick_station(self, request: ARRequest,
                     planned_mhz) -> Optional[int]:
        engine = self._engine
        assert engine is not None
        best = engine.fastest_feasible(request, self._slot)
        if best is None:
            return None
        if self._free_for(best, planned_mhz) < \
                self._keys[request.request_id][1]:
            return None  # optimal server full: wait, no fallback
        return best
