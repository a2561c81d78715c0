"""Arrival processes for the online (dynamic) setting.

The paper's dynamic problem only says requests "arrive into the system
dynamically"; the uniform arrivals of
:meth:`~repro.requests.generator.RequestGenerator.generate_arrivals`
are the neutral default.  This module adds two more:

* **burst** - a constant trickle plus one dense burst window, the
  worst case for the over-congestion that ``C^th`` guards against.
  :func:`burst_arrivals` returns sorted arrival slots; stamp them onto
  generated requests with :func:`assign_arrival_slots`.
* **Poisson stream** - :class:`PoissonArrivalStream`, the lazy
  per-slot Poisson source of the long-lived admission service
  (:mod:`repro.service`).  It never materializes more than one slot's
  batch, runs unbounded (or up to an optional ``limit``), and
  checkpoints/restores its exact position so a resumed service draws
  the same remaining arrivals.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..rng import RngLike, ensure_rng
from .generator import RequestGenerator
from .request import ARRequest


def _check_horizon(horizon_slots: int) -> None:
    if horizon_slots < 1:
        raise ConfigurationError(
            f"horizon must be >= 1 slot, got {horizon_slots}")


def burst_arrivals(num_requests: int, horizon_slots: int,
                   burst_start: int, burst_length: int,
                   burst_fraction: float = 0.6,
                   rng: RngLike = None) -> List[int]:
    """A trickle plus one dense burst window.

    Args:
        num_requests: total arrivals.
        horizon_slots: monitoring period ``T``.
        burst_start: first slot of the burst window.
        burst_length: burst window length in slots.
        burst_fraction: fraction of arrivals landing in the burst.
        rng: randomness.
    """
    _check_horizon(horizon_slots)
    if not 0 <= burst_start < horizon_slots:
        raise ConfigurationError(
            f"burst_start {burst_start} outside horizon")
    if burst_length < 1 or burst_start + burst_length > horizon_slots:
        raise ConfigurationError(
            f"burst window {burst_start}+{burst_length} outside horizon")
    if not 0.0 <= burst_fraction <= 1.0:
        raise ConfigurationError(
            f"burst_fraction must lie in [0, 1], got {burst_fraction}")
    rng = ensure_rng(rng)
    in_burst = int(round(num_requests * burst_fraction))
    burst = rng.integers(burst_start, burst_start + burst_length,
                         size=in_burst)
    trickle = rng.integers(0, horizon_slots,
                           size=num_requests - in_burst)
    return sorted(int(s) for s in list(burst) + list(trickle))


def assign_arrival_slots(requests: Sequence[ARRequest],
                         slots: Sequence[int]) -> List[ARRequest]:
    """Stamp arrival slots onto requests (in request order).

    Args:
        requests: requests to re-stamp.
        slots: one slot per request (same length).

    Returns:
        New :class:`ARRequest` objects sorted by arrival slot.
    """
    if len(requests) != len(slots):
        raise ConfigurationError(
            f"{len(requests)} requests but {len(slots)} arrival slots")
    stamped = []
    for request, slot in zip(requests, slots):
        stamped.append(ARRequest(
            request_id=request.request_id,
            serving_station=request.serving_station,
            pipeline=request.pipeline,
            distribution=request.distribution,
            deadline_ms=request.deadline_ms,
            arrival_slot=int(slot),
            stream_duration_slots=request.stream_duration_slots,
            c_unit_mhz_per_mbps=request.c_unit_mhz_per_mbps,
        ))
    return sorted(stamped, key=lambda r: (r.arrival_slot, r.request_id))


class PoissonArrivalStream:
    """A lazy, unbounded Poisson arrival source for the streaming service.

    Each call to :meth:`next_batch` advances one slot and draws
    ``Poisson(mean_per_slot)`` fresh requests with monotonically
    increasing ids.  Nothing is precomputed: memory stays flat no
    matter how many slots are consumed.  The stream is fully
    deterministic given its seed and is checkpointable - the pair
    :meth:`export_state` / :meth:`restore_state` captures the exact
    position (next id, next slot, both RNG states), so a resumed stream
    emits byte-identical remaining arrivals.

    Args:
        generator: draws per-request parameters (owns its own RNG; its
            state is part of the stream checkpoint).
        mean_per_slot: mean arrivals per slot (Poisson rate).
        rng: randomness for the per-slot *counts* (kept separate from
            the generator's parameter draws so the two streams stay
            statistically independent).
        limit: optional cap on total arrivals; once reached, further
            batches are empty (the count RNG is no longer drawn, which
            is deterministic as long as both runs share the limit).
    """

    def __init__(self, generator: RequestGenerator, mean_per_slot: float,
                 rng: RngLike = None,
                 limit: Optional[int] = None) -> None:
        if mean_per_slot <= 0:
            raise ConfigurationError(
                f"mean_per_slot must be > 0, got {mean_per_slot}")
        if limit is not None and limit < 0:
            raise ConfigurationError(
                f"limit must be >= 0, got {limit}")
        self._generator = generator
        self._mean = float(mean_per_slot)
        self._rng = ensure_rng(rng)
        self._limit = limit
        self._next_id = 0
        self._next_slot = 0

    @property
    def emitted(self) -> int:
        """Total requests emitted so far."""
        return self._next_id

    @property
    def next_slot(self) -> int:
        """The slot the next :meth:`next_batch` call will produce."""
        return self._next_slot

    @property
    def exhausted(self) -> bool:
        """True when a ``limit`` was set and has been reached."""
        return self._limit is not None and self._next_id >= self._limit

    def next_batch(self) -> Tuple[int, List[ARRequest]]:
        """Advance one slot; return ``(slot, fresh requests)``.

        The batch is empty when the Poisson draw is 0 or the stream is
        exhausted.
        """
        slot = self._next_slot
        self._next_slot += 1
        if self.exhausted:
            return slot, []
        count = int(self._rng.poisson(self._mean))
        if self._limit is not None:
            count = min(count, self._limit - self._next_id)
        batch = [self._generator.generate_one(
            request_id=self._next_id + k, arrival_slot=slot)
            for k in range(count)]
        self._next_id += count
        return slot, batch

    def export_state(self) -> Dict[str, Any]:
        """Snapshot the stream position for a service checkpoint."""
        return {
            "next_id": self._next_id,
            "next_slot": self._next_slot,
            "count_rng": self._rng.bit_generator.state,
            "generator_rng": self._generator.rng.bit_generator.state,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install a snapshot produced by :meth:`export_state`."""
        self._next_id = int(state["next_id"])
        self._next_slot = int(state["next_slot"])
        self._rng.bit_generator.state = state["count_rng"]
        self._generator.rng.bit_generator.state = state["generator_rng"]

    def __repr__(self) -> str:
        return (f"PoissonArrivalStream(mean={self._mean:g}, "
                f"emitted={self._next_id}, next_slot={self._next_slot}, "
                f"limit={self._limit})")
