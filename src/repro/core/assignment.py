"""Decision and result containers shared by all algorithms.

Every algorithm - exact, approximate, heuristic, online, or baseline -
produces a :class:`ScheduleResult`: one :class:`OffloadDecision` per
request recording whether it was admitted, where it ran, what rate it
realized, the reward earned, and the experienced latency.
:meth:`ScheduleResult.summary` aggregates these into the series the
paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..exceptions import SchedulingError


@dataclass(frozen=True)
class SlotAssignment:
    """A (request, station, starting slot) triple from rounding.

    Attributes:
        request_id: the request.
        station_id: base station it was randomly assigned to.
        slot: starting resource-slot index (0-based).
    """

    request_id: int
    station_id: int
    slot: int


@dataclass
class OffloadDecision:
    """Terminal outcome for one request.

    Attributes:
        request_id: the request.
        admitted: whether it was scheduled onto the network at all.
        primary_station: station hosting (most of) the pipeline, or
            None when rejected.
        migrated_tasks: task index -> station, for tasks Heu moved off
            the primary station.
        realized_rate_mbps: revealed data rate (None if never realized,
            e.g. rejected before scheduling).
        reward: dollars earned (0 for rejected / failed requests).
        latency_ms: experienced latency ``D_j`` (None when rejected).
        waiting_ms: the ``b_j - a_j`` component of the latency.
        deadline_met: whether Eq. (1) held (vacuously False when
            rejected).
    """

    request_id: int
    admitted: bool = False
    primary_station: Optional[int] = None
    migrated_tasks: Dict[int, int] = field(default_factory=dict)
    realized_rate_mbps: Optional[float] = None
    reward: float = 0.0
    latency_ms: Optional[float] = None
    waiting_ms: float = 0.0
    deadline_met: bool = False

    def stations(self) -> List[int]:
        """All stations serving this request (primary first)."""
        if self.primary_station is None:
            return []
        extra = [sid for sid in self.migrated_tasks.values()
                 if sid != self.primary_station]
        seen = {self.primary_station}
        ordered = [self.primary_station]
        for sid in extra:
            if sid not in seen:
                seen.add(sid)
                ordered.append(sid)
        return ordered


class ScheduleResult:
    """The set of per-request decisions produced by one algorithm run.

    Args:
        algorithm: display name of the producing algorithm.
    """

    def __init__(self, algorithm: str) -> None:
        self.algorithm = algorithm
        self._decisions: Dict[int, OffloadDecision] = {}
        self.runtime_s: float = 0.0

    def add(self, decision: OffloadDecision) -> None:
        """Record one decision.

        Raises:
            SchedulingError: if the request already has a decision.
        """
        if decision.request_id in self._decisions:
            raise SchedulingError(
                f"duplicate decision for request {decision.request_id}")
        self._decisions[decision.request_id] = decision

    def decision(self, request_id: int) -> OffloadDecision:
        """The decision for one request."""
        try:
            return self._decisions[request_id]
        except KeyError:
            raise SchedulingError(
                f"no decision recorded for request {request_id}") from None

    @property
    def decisions(self) -> Mapping[int, OffloadDecision]:
        """All decisions keyed by request id."""
        return dict(self._decisions)

    def __len__(self) -> int:
        return len(self._decisions)

    # ------------------------------------------------------------------
    # Aggregates (the quantities the paper's figures plot)
    # ------------------------------------------------------------------
    @property
    def total_reward(self) -> float:
        """Total reward across all requests."""
        return float(sum(d.reward for d in self._decisions.values()))

    @property
    def num_admitted(self) -> int:
        """Number of admitted requests."""
        return sum(1 for d in self._decisions.values() if d.admitted)

    @property
    def num_rewarded(self) -> int:
        """Admitted requests that actually earned a reward."""
        return sum(1 for d in self._decisions.values() if d.reward > 0)

    @property
    def admission_rate(self) -> float:
        """Fraction of requests admitted (0 when empty)."""
        if not self._decisions:
            return 0.0
        return self.num_admitted / len(self._decisions)

    def average_latency_ms(self) -> float:
        """Mean experienced latency over admitted requests (0 if none).

        Matches the figures' "average latency of a request": rejected
        requests have no experienced latency and are excluded.
        """
        latencies = [d.latency_ms for d in self._decisions.values()
                     if d.admitted and d.latency_ms is not None]
        if not latencies:
            return 0.0
        return float(sum(latencies) / len(latencies))

    def latency_distribution_ms(self) -> List[float]:
        """All experienced latencies (admitted requests), sorted."""
        return sorted(d.latency_ms for d in self._decisions.values()
                      if d.admitted and d.latency_ms is not None)

    def waiting_distribution_ms(self) -> List[float]:
        """All scheduling waits ``b_j - a_j``, sorted (all requests).

        Rejected/dropped requests contribute the waiting they
        accumulated before the system gave up on them - exactly the
        starvation the paper's Section V sets out to avoid.
        """
        return sorted(d.waiting_ms for d in self._decisions.values())

    def average_waiting_ms(self) -> float:
        """Mean scheduling wait over all requests (0 when empty)."""
        waits = self.waiting_distribution_ms()
        if not waits:
            return 0.0
        return float(sum(waits) / len(waits))

    def max_waiting_ms(self) -> float:
        """Worst scheduling wait - the starvation indicator."""
        waits = self.waiting_distribution_ms()
        return waits[-1] if waits else 0.0

    def summary(self) -> Dict[str, float]:
        """A compact numeric summary for tables."""
        return {
            "total_reward": self.total_reward,
            "avg_latency_ms": self.average_latency_ms(),
            "num_admitted": float(self.num_admitted),
            "num_rewarded": float(self.num_rewarded),
            "admission_rate": self.admission_rate,
            "runtime_s": self.runtime_s,
        }

    def __repr__(self) -> str:
        return (f"ScheduleResult({self.algorithm!r}, n={len(self)}, "
                f"reward={self.total_reward:.1f}, "
                f"avg_latency={self.average_latency_ms():.1f} ms)")
