"""The AR request object shared by every algorithm in the library.

An :class:`ARRequest` carries everything Section III attaches to
``r_j``: the arrival slot ``a_j``, the task pipeline
``{M_{j,1}..M_{j,K_j}}``, the joint (rate, reward) distribution, the
latency requirement ``D_hat_j``, and the serving base station through
which the user reaches the MEC network.

The defining property of the problem is that the data rate is **not
known until the request is scheduled**: algorithms decide placements
from the distribution alone, and only then call :meth:`ARRequest.realize`
to reveal ``(rho_j, RD_{j,rho})``.  The class enforces that protocol -
reading :attr:`realized_rate_mbps` before realization raises.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..exceptions import ConfigurationError, SchedulingError
from ..rng import RngLike, ensure_rng
from ..units import demand_mhz
from .distributions import RateRewardDistribution
from .tasks import TaskPipeline


class ARRequest:
    """One AR offloading request ``r_j``.

    Args:
        request_id: unique id within a workload.
        serving_station: id of the base station the user attaches to
            (requests enter the network there; Eq. (2) charges the
            round-trip path delay from here to the execution station).
        pipeline: the request's task pipeline.
        distribution: joint (rate, reward) distribution over ``DR``.
        deadline_ms: latency requirement ``D_hat_j``.
        arrival_slot: arrival time slot ``a_j`` (0 for batch workloads).
        stream_duration_slots: number of slots the request's stream
            lasts once scheduled (used by the preemptive online engine).
        c_unit_mhz_per_mbps: ``C_unit`` - MHz per MB/s, used by the
            demand helpers.
    """

    def __init__(self, request_id: int, serving_station: int,
                 pipeline: TaskPipeline,
                 distribution: RateRewardDistribution,
                 deadline_ms: float,
                 arrival_slot: int = 0,
                 stream_duration_slots: int = 1,
                 c_unit_mhz_per_mbps: float = 20.0) -> None:
        if request_id < 0:
            raise ConfigurationError(
                f"request_id must be >= 0, got {request_id}")
        if serving_station < 0:
            raise ConfigurationError(
                f"serving_station must be >= 0, got {serving_station}")
        if not deadline_ms > 0:  # NaN fails too; inf is legal
            raise ConfigurationError(
                f"deadline must be positive, got {deadline_ms}")
        if arrival_slot < 0:
            raise ConfigurationError(
                f"arrival_slot must be >= 0, got {arrival_slot}")
        if stream_duration_slots < 1:
            raise ConfigurationError(
                "stream_duration_slots must be >= 1, got "
                f"{stream_duration_slots}")
        if not 0 < c_unit_mhz_per_mbps < math.inf:
            raise ConfigurationError(
                "C_unit must be finite and positive, got "
                f"{c_unit_mhz_per_mbps}")
        self.request_id = request_id
        self.serving_station = serving_station
        self.pipeline = pipeline
        self.distribution = distribution
        self.deadline_ms = float(deadline_ms)
        self.arrival_slot = int(arrival_slot)
        self.stream_duration_slots = int(stream_duration_slots)
        self.c_unit_mhz_per_mbps = float(c_unit_mhz_per_mbps)
        self._realized: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # Distribution-side views (available before scheduling)
    # ------------------------------------------------------------------
    @property
    def expected_rate_mbps(self) -> float:
        """``E[rho_j]``."""
        return self.distribution.expected_rate()

    @property
    def expected_reward(self) -> float:
        """``E[RD_j]``."""
        return self.distribution.expected_reward()

    @property
    def expected_demand_mhz(self) -> float:
        """``E[rho_j] * C_unit``."""
        return demand_mhz(self.expected_rate_mbps, self.c_unit_mhz_per_mbps)

    @property
    def max_demand_mhz(self) -> float:
        """Worst-case demand ``max(DR) * C_unit``."""
        return demand_mhz(self.distribution.max_rate_mbps,
                          self.c_unit_mhz_per_mbps)

    def demand_of_rate_mhz(self, rate_mbps: float) -> float:
        """Demand of a particular realized rate."""
        return demand_mhz(rate_mbps, self.c_unit_mhz_per_mbps)

    # ------------------------------------------------------------------
    # Realization protocol
    # ------------------------------------------------------------------
    @property
    def is_realized(self) -> bool:
        """Whether the data rate has been revealed."""
        return self._realized is not None

    def realize(self, rng: RngLike = None) -> Tuple[float, float]:
        """Reveal the actual (rate, reward); idempotent after first call.

        The paper's protocol: "after the scheduling of each request, it
        may instantiate its data rate and reveal the information to the
        system".  Calling :meth:`realize` twice returns the same pair.
        """
        if self._realized is None:
            self._realized = self.distribution.sample(ensure_rng(rng))
        return self._realized

    def force_realization(self, rate_mbps: float, reward: float) -> None:
        """Set the realization explicitly (tests, trace replay).

        Raises:
            SchedulingError: if already realized with different values.
        """
        if self._realized is not None and self._realized != (rate_mbps,
                                                             reward):
            raise SchedulingError(
                f"request {self.request_id} already realized as "
                f"{self._realized}")
        self._realized = (float(rate_mbps), float(reward))

    def reset_realization(self) -> None:
        """Clear the realization (for replaying a workload)."""
        self._realized = None

    @property
    def realized_rate_mbps(self) -> float:
        """The revealed rate ``rho_j``; raises before realization."""
        if self._realized is None:
            raise SchedulingError(
                f"request {self.request_id} not realized yet")
        return self._realized[0]

    @property
    def realized_reward(self) -> float:
        """The revealed reward ``RD_{j,rho}``; raises before realization."""
        if self._realized is None:
            raise SchedulingError(
                f"request {self.request_id} not realized yet")
        return self._realized[1]

    @property
    def realized_demand_mhz(self) -> float:
        """Demand of the revealed rate."""
        return self.demand_of_rate_mhz(self.realized_rate_mbps)

    # ------------------------------------------------------------------
    # Online-engine helpers
    # ------------------------------------------------------------------
    def total_work_mb(self, slot_length_ms: float) -> float:
        """Total stream volume = realized rate x stream duration (MB)."""
        if slot_length_ms <= 0:
            raise ConfigurationError(
                f"slot length must be positive, got {slot_length_ms}")
        duration_s = self.stream_duration_slots * slot_length_ms / 1000.0
        return self.realized_rate_mbps * duration_s

    def __repr__(self) -> str:
        state = "realized" if self.is_realized else "unrealized"
        return (f"ARRequest(id={self.request_id}, "
                f"station={self.serving_station}, "
                f"tasks={len(self.pipeline)}, "
                f"E[rate]={self.expected_rate_mbps:.1f} MB/s, {state})")
