"""Algorithm **Appro** (Algorithm 1): LP rounding with slot-by-slot admission.

Pipeline: build the slot-indexed LP (Eqs. 8-12), solve it, round with
probability ``y_{jil}/4``, then admit slot by slot under the prefix
test.  Theorem 1: the expected reward is at least ``Opt / 8``.

Rounding rounds: a single ``y/4`` pass leaves at least 3/4 of the LP
mass unassigned in expectation.  Theorem 1 analyzes that single pass;
for the evaluation we repeat the pass over the not-yet-admitted
requests (against the same LP solution and the same admission ledger)
until a round makes no progress - see
:func:`~repro.core.rounding.round_and_admit`.  Every repetition can only
add reward, so the 1/8 guarantee is preserved; set ``max_rounds=1`` for
the literally analyzed algorithm (the ablation benchmark compares both).

:class:`~repro.core.heu.Heu` is this pipeline plus a migration hook, so
both run through :meth:`Appro._place`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..requests.request import ARRequest
from ..rng import RngLike
from ..solver.interface import solve_lp
from ..telemetry import get_tracer
from .assignment import OffloadDecision, ScheduleResult
from .instance import ProblemInstance
from .latency import meets_deadline
from .lp_relaxation import build_lp_relaxation
from .rounding import (DEFAULT_ROUNDING_SCALE, PassHandler, RejectHandler,
                       check_max_rounds, round_and_admit)


class Appro:
    """The paper's approximation algorithm for consolidated requests.

    Args:
        rounding_scale: divisor of the rounding probability (paper: 4;
            the ablation bench sweeps it).
        max_rounds: rounding passes over not-yet-admitted requests;
            1 = the literally analyzed single pass.
    """

    name = "Appro"

    def __init__(self, rounding_scale: float = DEFAULT_ROUNDING_SCALE,
                 max_rounds: int = 24) -> None:
        self.rounding_scale = rounding_scale
        self.max_rounds = check_max_rounds(max_rounds)
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
        return self._place(instance, requests, rng)

    def _place(self, instance: ProblemInstance,
               requests: Sequence[ARRequest], rng: RngLike,
               migrations: Optional[Mapping[int, Dict[int, int]]] = None,
               on_reject: Optional[RejectHandler] = None,
               on_pass: Optional[PassHandler] = None) -> ScheduleResult:
        """Solve the LP, round and admit, then decide; ``migrations``
        (request -> task -> station) is what the hooks moved."""
        result = ScheduleResult(algorithm=self.name)
        if not requests:
            return result

        with get_tracer().span("build_lp", algorithm=self.name):
            lp, index = build_lp_relaxation(instance, requests)
        if lp.num_variables == 0:
            for request in requests:
                result.add(OffloadDecision(request_id=request.request_id))
            return result
        solution = solve_lp(lp)
        self.last_lp_objective = solution.objective

        admitted = round_and_admit(
            instance, index.options_table(solution.x), requests,
            instance.new_ledger(), rng, scale=self.rounding_scale,
            max_rounds=self.max_rounds, algorithm=self.name,
            on_reject=on_reject, on_pass=on_pass)
        outcome_by_id = {o.request.request_id: o for o in admitted}
        for request in requests:
            outcome = outcome_by_id.get(request.request_id)
            if outcome is None:
                result.add(OffloadDecision(request_id=request.request_id))
                continue
            station_id = outcome.assignment.station_id
            moved = (migrations or {}).get(request.request_id, {})
            if moved:
                latency = instance.latency.split_delay_ms(
                    request, station_id, moved)
            else:
                latency = instance.latency.total_delay_ms(request,
                                                          station_id)
            result.add(OffloadDecision(
                request_id=request.request_id,
                admitted=True,
                primary_station=station_id,
                migrated_tasks=dict(moved),
                realized_rate_mbps=request.realized_rate_mbps,
                reward=outcome.reward,
                latency_ms=latency,
                waiting_ms=0.0,
                deadline_met=meets_deadline(latency, request.deadline_ms),
            ))
        return result
