"""Algorithm **Appro** (Algorithm 1): LP rounding with slot-by-slot admission.

Pipeline: build the slot-indexed LP (Eqs. 8-12), solve it, round with
probability ``y_{jil}/4``, then admit slot by slot under the prefix
test.  Theorem 1: the expected reward is at least ``Opt / 8``.

Rounding rounds: a single ``y/4`` pass leaves at least 3/4 of the LP
mass unassigned in expectation.  Theorem 1 analyzes that single pass;
for the evaluation we repeat the pass over the not-yet-admitted
requests (against the same LP solution and the same admission ledger)
until a round makes no progress.  Every repetition can only add reward,
so the 1/8 guarantee is preserved; set ``max_rounds=1`` for the
literally analyzed algorithm (the ablation benchmark compares both).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng
from ..solver.interface import solve_lp
from ..telemetry import get_tracer
from .assignment import OffloadDecision, ScheduleResult
from .instance import ProblemInstance
from .latency import meets_deadline
from .lp_relaxation import build_lp_relaxation
from .rounding import (DEFAULT_ROUNDING_SCALE, AdmissionOutcome,
                       admit_slot_by_slot, randomized_round)


class Appro:
    """The paper's approximation algorithm for consolidated requests.

    Args:
        lp_backend: LP solver backend (``"scipy"`` or ``"simplex"``).
        rounding_scale: divisor of the rounding probability (paper: 4;
            the ablation bench sweeps it).
        max_rounds: rounding passes over not-yet-admitted requests;
            1 = the literally analyzed single pass.
    """

    name = "Appro"

    def __init__(self, lp_backend: str = "scipy",
                 rounding_scale: float = DEFAULT_ROUNDING_SCALE,
                 max_rounds: int = 24) -> None:
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.lp_backend = lp_backend
        self.rounding_scale = rounding_scale
        self.max_rounds = max_rounds
        #: Objective value of the most recent LP solve (``LPOpt``);
        #: useful for empirical approximation-ratio studies.
        self.last_lp_objective: Optional[float] = None

    def run(self, instance: ProblemInstance,
            requests: Sequence[ARRequest],
            rng: RngLike = None) -> ScheduleResult:
        """Place a batch of non-preemptive requests.

        Args:
            instance: the problem instance.
            requests: the workload (rates must be unrealized; they are
                revealed during admission, per the paper's protocol).
            rng: randomness for rounding and realization.

        Returns:
            A :class:`ScheduleResult` with one decision per request.
        """
        rng = ensure_rng(rng)
        start = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
        result = ScheduleResult(algorithm=self.name)
        if not requests:
            result.runtime_s = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
            return result

        tracer = get_tracer()
        with tracer.span("build_lp", algorithm=self.name):
            lp, index = build_lp_relaxation(instance, requests)
        if lp.num_variables == 0:
            for request in requests:
                result.add(OffloadDecision(request_id=request.request_id))
            result.runtime_s = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
            return result
        solution = solve_lp(lp, backend=self.lp_backend)
        self.last_lp_objective = solution.objective

        ledger = instance.new_ledger()
        outcomes: List[AdmissionOutcome] = []
        remaining = list(requests)
        stalled_rounds = 0
        options = index.options_table(solution.values)
        for _ in range(self.max_rounds):
            if not remaining or stalled_rounds >= 4:
                break
            with tracer.span("rounding", algorithm=self.name):
                assignments = randomized_round(
                    index, solution.values, remaining,
                    rng=rng, scale=self.rounding_scale,
                    options_table=options)
                round_outcomes = admit_slot_by_slot(
                    instance, remaining, assignments, ledger, rng=rng)
            admitted_ids = {o.request.request_id for o in round_outcomes
                            if o.admitted}
            tracer.count("rounding_rounds")
            tracer.count("requests_admitted", len(admitted_ids))
            outcomes.extend(o for o in round_outcomes if o.admitted)
            remaining = [r for r in remaining
                         if r.request_id not in admitted_ids]
            stalled_rounds = 0 if admitted_ids else stalled_rounds + 1
        self._record_outcomes(instance, requests, outcomes, result)
        result.runtime_s = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
        return result

    def _record_outcomes(self, instance: ProblemInstance,
                         requests: Sequence[ARRequest],
                         outcomes: List[AdmissionOutcome],
                         result: ScheduleResult) -> None:
        """Translate admission outcomes into per-request decisions."""
        outcome_by_id = {o.request.request_id: o for o in outcomes}
        for request in requests:
            outcome = outcome_by_id.get(request.request_id)
            if outcome is None or not outcome.admitted:
                result.add(OffloadDecision(request_id=request.request_id))
                continue
            station_id = outcome.assignment.station_id
            latency = instance.latency.total_delay_ms(request, station_id)
            result.add(OffloadDecision(
                request_id=request.request_id,
                admitted=True,
                primary_station=station_id,
                realized_rate_mbps=request.realized_rate_mbps,
                reward=outcome.reward,
                latency_ms=latency,
                waiting_ms=0.0,
                deadline_met=meets_deadline(latency, request.deadline_ms),
            ))
