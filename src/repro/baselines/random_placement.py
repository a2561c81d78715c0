"""Random placement - the sanity-floor baseline.

Not in the paper's comparison set, but indispensable for testing and
calibration: any algorithm that cannot beat uniform-random placement on
a saturated workload is broken.  Offline and online versions follow the
same machinery as the other baselines (expected-demand admission,
realize-at-schedule, reward-iff-fits).
"""

from __future__ import annotations

from typing import List, Optional, Sequence


from ..core.assignment import ScheduleResult
from ..core.instance import ProblemInstance
from ..network.capacity import CapacityLedger
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng
from .base import (OnlineBaselinePolicy, admit_sequential,
                   expected_feasible_stations)


class RandomOffline:
    """Batch random placement.

    Args:
        rng: placement randomness (separate from the executor's
            realization stream so results stay reproducible).
    """

    name = "Random"

    def __init__(self, rng: RngLike = None) -> None:
        self._rng = ensure_rng(rng)

    def run(self, instance: ProblemInstance,
            requests: Sequence[ARRequest],
            rng: RngLike = None) -> ScheduleResult:
        """Place each request on a uniform random feasible station."""
        placement_rng = self._rng

        def choose(instance_: ProblemInstance, request: ARRequest,
                   ledger: CapacityLedger) -> Optional[int]:
            candidates = expected_feasible_stations(instance_, request,
                                                    ledger)
            if not candidates:
                return None
            return int(placement_rng.choice(candidates))

        ordered = sorted(requests, key=lambda r: r.request_id)
        return admit_sequential(self.name, instance, ordered, choose,
                                rng=rng)


class RandomOnline(OnlineBaselinePolicy):
    """Slotted random placement."""

    name = "Random"

    def __init__(self, rng: RngLike = None) -> None:
        super().__init__()
        self._rng = ensure_rng(rng)

    def order(self, slot: int,
              pending: Sequence[ARRequest]) -> List[ARRequest]:
        return sorted(pending, key=lambda r: r.request_id)

    def pick_station(self, request: ARRequest,
                     planned_mhz) -> Optional[int]:
        engine = self._engine
        assert engine is not None
        demand = request.expected_demand_mhz
        feasible = set(self._feasible_stations(request))
        candidates = [
            sid for sid in engine.instance.network.station_ids
            if sid in feasible and self._free_for(sid, planned_mhz) >= demand
        ]
        if not candidates:
            return None
        return int(self._rng.choice(candidates))

    def export_state(self) -> dict:
        """The placement RNG state (the service checkpoints it)."""
        return {"rng_state": self._rng.bit_generator.state}

    def restore_state(self, state: dict) -> None:
        """Install a snapshot produced by :meth:`export_state`."""
        self._rng.bit_generator.state = state["rng_state"]
