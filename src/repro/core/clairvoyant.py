"""Clairvoyant offline bound for the dynamic (online) problem.

The regret of Theorem 3 is measured against the best fixed threshold;
a stronger comparator is the **clairvoyant scheduler** that knows every
arrival and every realized data rate in advance.  This module computes
a clairvoyant *bound* (not a policy): with full knowledge, the best any
schedule can do is

* start each request within its waiting budget (the deadline minus its
  best-case placement delay - later starts forfeit the reward), and
* never exceed, at any slot, the network's computing capacity with the
  realized demands of the concurrently running streams.

Relaxing placement to a single network-wide capacity pool and admitting
requests greedily by reward density (reward per MHz-slot) yields an
upper-bound estimate that is cheap to compute and empirically tight
enough to contextualize the online algorithms' rewards.  Every
admission the greedy makes is feasible for the pooled relaxation, so
``clairvoyant_bound >= greedy admission total`` and the pooled optimum
upper-bounds every real schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng
from .instance import ProblemInstance


@dataclass(frozen=True)
class ClairvoyantResult:
    """Outcome of the clairvoyant bound computation.

    Attributes:
        upper_bound: pooled-capacity greedy bound on total reward.
        num_servable: requests the bound managed to schedule.
        peak_utilization: max fraction of pooled capacity used.
    """

    upper_bound: float
    num_servable: int
    peak_utilization: float


def clairvoyant_bound(instance: ProblemInstance,
                      requests: Sequence[ARRequest],
                      horizon_slots: int,
                      slot_length_ms: float = 50.0,
                      rng: RngLike = None) -> ClairvoyantResult:
    """Upper-bound estimate of the best offline schedule's reward.

    Realizes every request (idempotent if already realized), sorts by
    reward per unit of MHz-slot consumption, and packs them into the
    pooled capacity timeline within each request's feasible start
    window.

    Args:
        instance: the problem instance.
        requests: the arrival sequence (arrival slots set).
        horizon_slots: monitoring period ``T``.
        slot_length_ms: slot duration.
        rng: randomness for realizing still-unrealized requests.
    """
    if horizon_slots < 1:
        raise ConfigurationError(
            f"horizon must be >= 1 slot, got {horizon_slots}")
    rng = ensure_rng(rng)
    pool = instance.network.total_capacity_mhz()
    usage = np.zeros(horizon_slots)

    candidates = []
    for request in requests:
        if request.arrival_slot >= horizon_slots:
            continue
        request.realize(rng)
        demand = request.realized_demand_mhz
        duration = request.stream_duration_slots
        # Latest start still meeting the deadline via the best station.
        best_delay = float(instance.latency.placement_delays(request).min())
        budget_ms = request.deadline_ms - best_delay
        if budget_ms < 0:
            continue
        latest_start = request.arrival_slot + int(
            budget_ms // slot_length_ms)
        latest_start = min(latest_start, horizon_slots - 1)
        density = request.realized_reward / max(demand * duration, 1e-9)
        candidates.append((density, request, demand, duration,
                           latest_start))

    candidates.sort(key=lambda c: (-c[0], c[1].request_id))
    total = 0.0
    served = 0
    for _density, request, demand, duration, latest_start in candidates:
        placed = False
        for start in range(request.arrival_slot, latest_start + 1):
            end = min(start + duration, horizon_slots)
            window = usage[start:end]
            if np.all(window + demand <= pool + 1e-9):
                usage[start:end] += demand
                total += request.realized_reward
                served += 1
                placed = True
                break
        _ = placed
    peak = float(usage.max() / pool) if pool > 0 else 0.0
    return ClairvoyantResult(upper_bound=total, num_servable=served,
                             peak_utilization=peak)


def competitive_ratio(online_reward: float,
                      bound: ClairvoyantResult) -> float:
    """``online reward / clairvoyant bound`` (1.0 when bound is 0)."""
    if online_reward < 0:
        raise ConfigurationError(
            f"online reward must be >= 0, got {online_reward}")
    if bound.upper_bound <= 0:
        return 1.0
    return online_reward / bound.upper_bound
