"""Offline experiment executor.

Runs a batch (non-preemptive) algorithm on a workload and returns its
:class:`~repro.core.assignment.ScheduleResult`.  The executor owns the
two pieces of protocol hygiene every offline comparison needs:

* **fresh realizations** - request rate realizations are reset before
  the run, so comparing algorithms on the same workload stays fair
  (each algorithm reveals rates through its own admission order, and a
  request realizes the same (rate, reward) pair under every algorithm
  because realization draws come from a per-request replayable stream);
* **timing** - ``runtime_s`` is the wall time of ``algorithm.run``
  (for Appro and Heu the full solve + round + admit pipeline, which
  Fig. 3(c) plots), measured here for every algorithm alike.
"""

from __future__ import annotations

import time
from typing import List, Protocol, Sequence

from ..core.assignment import ScheduleResult
from ..core.instance import ProblemInstance
from ..requests.request import ARRequest
from ..rng import RngForks
from ..telemetry import get_tracer
from ..telemetry.audit import emit, emit_many
from .events import EventKind


class OfflineAlgorithm(Protocol):
    """The batch-algorithm surface (Appro, Heu, and offline baselines)."""

    name: str

    def run(self, instance: ProblemInstance,
            requests: Sequence[ARRequest],
            rng) -> ScheduleResult:
        """Place a batch of requests and return per-request decisions."""


def _prepare(requests: Sequence[ARRequest],
             seed: int) -> List[ARRequest]:
    """Reset realizations and pre-draw each request's realization.

    Pre-drawing with a per-request named stream makes the realized
    (rate, reward) of request ``j`` identical across algorithms - the
    standard common-random-numbers variance-reduction for comparisons.
    """
    forks = RngForks(seed)
    for request in requests:
        request.reset_realization()
        rate, reward = request.distribution.sample(
            forks.child(f"real_{request.request_id}"))
        request.force_realization(rate, reward)
    return list(requests)


def run_offline(algorithm: OfflineAlgorithm,
                instance: ProblemInstance,
                requests: Sequence[ARRequest],
                seed: int = 0) -> ScheduleResult:
    """Run one offline algorithm on one workload, fairly.

    Args:
        algorithm: the batch algorithm.
        instance: the problem instance.
        requests: the workload (mutated: realizations are reset and
            re-drawn deterministically from `seed`).
        seed: controls both the common realizations and the
            algorithm's internal randomness (rounding).

    Returns:
        The algorithm's :class:`ScheduleResult`, with ``runtime_s`` set
        to the wall time of ``algorithm.run``.
    """
    tracer = get_tracer()
    with tracer.span("prepare_workload"):
        prepared = _prepare(requests, seed)
        forks = RngForks(seed)
    _emit_arrivals(instance, prepared)
    with tracer.span("offline_run", algorithm=algorithm.name):
        rng = forks.child(f"algo_{algorithm.name}")
        start = time.perf_counter()  # repro: noqa DET010 -- advisory runtime metric
        result = algorithm.run(instance, prepared, rng=rng)
        result.runtime_s = time.perf_counter() - start  # repro: noqa DET010 -- advisory runtime metric
    _emit_decisions(prepared, result)
    return result


def _emit_arrivals(instance: ProblemInstance,
                   requests: Sequence[ARRequest]) -> None:
    """Open the offline audit trail: stations, then the batch.

    Offline is a single decision epoch, so every lifecycle event lives
    at slot 0 (algorithm-level ADMIT/REJECT/MIGRATE events in between
    carry *resource-slot* indices instead - see
    :class:`~repro.sim.events.Event`).
    """
    network = instance.network
    emit_many(EventKind.STATION_UP, 0, network.station_ids,
              lambda sid: dict(station_id=sid,
                               value=network.station(sid).capacity_mhz))
    emit_many(EventKind.ARRIVAL, 0,
              sorted(requests, key=lambda r: r.request_id),
              lambda request: dict(request_id=request.request_id))


def _emit_decisions(requests: Sequence[ARRequest],
                    result: ScheduleResult) -> None:
    """Close the offline audit trail from the final decisions.

    Every admitted request gets a START (with its settled reward and
    latency) and an immediate COMPLETE - the batch setting has no
    streaming phase - and every rejected request a DROP, in request-id
    order so the journal is canonical.
    """
    decisions = result.decisions
    for request in sorted(requests, key=lambda r: r.request_id):
        decision = decisions.get(request.request_id)
        if decision is None or not decision.admitted:
            emit(EventKind.DROP, 0, request_id=request.request_id)
            continue
        for kind in (EventKind.START, EventKind.COMPLETE):
            emit(kind, 0, request_id=request.request_id,
                 station_id=decision.primary_station,
                 reward=decision.reward, latency_ms=decision.latency_ms)
