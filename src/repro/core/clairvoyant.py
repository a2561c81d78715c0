"""Clairvoyant offline bound for the dynamic (online) problem.

The regret of Theorem 3 is measured against the best fixed threshold;
a stronger comparator is the **clairvoyant scheduler** that knows every
arrival and every realized data rate in advance.  This module computes
an upper bound (not a policy) on the reward any schedule earns in the
online engine (:mod:`repro.sim.online_engine`):

* a request earns its realized reward at most once, and only if it
  arrives inside the monitoring period, and
* it earns it only if ``waiting + transfer + processing x slowdown``
  meets its deadline (Eq. 1).  Waiting is ``>= 0`` and the round-robin
  slowdown is ``>= 1``, so its fastest placement - a station's
  unslowed delay, or the cloud - must meet the deadline with no wait.

Capacity does not enter.  Round-robin shares let a full station start
one more request, stretching every share instead of refusing it, and
the stretch may still meet the deadline; so no packing of realized
demands into station capacity bounds the engine's reward.  The bound
is tight when deadlines, not stations, limit the reward; the gap to it
is the reward lost to queueing and congestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..exceptions import ConfigurationError
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng
from ..sim.online_engine import CLOUD_LATENCY_MS
from .instance import ProblemInstance
from .latency import meets_deadline


@dataclass(frozen=True)
class ClairvoyantResult:
    """Outcome of the clairvoyant bound computation.

    Attributes:
        upper_bound: bound on the total reward of any schedule.
        num_servable: requests that can meet their deadline at all.
    """

    upper_bound: float
    num_servable: int


def clairvoyant_bound(instance: ProblemInstance,
                      requests: Sequence[ARRequest],
                      horizon_slots: int,
                      rng: RngLike = None) -> ClairvoyantResult:
    """Upper bound on the reward of any schedule of `requests`.

    Realizes every request arriving inside the horizon (idempotent if
    already realized) and sums the realized rewards of those whose
    fastest placement meets the deadline.

    Args:
        instance: the problem instance.
        requests: the arrival sequence (arrival slots set).
        horizon_slots: monitoring period ``T``.
        rng: randomness for realizing still-unrealized requests.
    """
    if horizon_slots < 1:
        raise ConfigurationError(
            f"horizon must be >= 1 slot, got {horizon_slots}")
    rng = ensure_rng(rng)
    total = 0.0
    served = 0
    for request in requests:
        if request.arrival_slot >= horizon_slots:
            continue
        request.realize(rng)
        fastest = min(float(instance.latency.placement_delays(request).min()),
                      CLOUD_LATENCY_MS)
        if meets_deadline(fastest, request.deadline_ms):
            total += request.realized_reward
            served += 1
    return ClairvoyantResult(upper_bound=total, num_servable=served)


def competitive_ratio(online_reward: float,
                      bound: ClairvoyantResult) -> float:
    """``online reward / clairvoyant bound`` (1.0 when bound is 0)."""
    if online_reward < 0:
        raise ConfigurationError(
            f"online reward must be >= 0, got {online_reward}")
    if bound.upper_bound <= 0:
        return 1.0
    return online_reward / bound.upper_bound
