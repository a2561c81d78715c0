"""Algorithm **Heu** (Algorithm 2): Appro plus task migration.

Heu removes the single-base-station assumption: when the prefix test of
Algorithm 1 line 6 rejects a request, Heu tries to make room by
migrating **one task** of the already-pre-assigned request with the
*maximum realized data rate* to the *closest* (by transmission delay)
base station that can host it without violating the donor's latency
requirement (Algorithm 2 lines 11-14).  If the migration brings the
station's accumulated occupancy back under ``l * C_l``, the rejected
request is admitted after all.

Theorem 2: the solution remains feasible - every migration re-checks
both the capacity of the target and the donor's deadline.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..network.capacity import CapacityLedger
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng
from ..sim.events import EventKind
from ..solver.interface import solve_lp
from ..telemetry import get_tracer
from ..telemetry.audit import emit
from .assignment import OffloadDecision, ScheduleResult
from .instance import ProblemInstance
from .latency import meets_deadline
from .lp_relaxation import build_lp_relaxation
from .rounding import (DEFAULT_ROUNDING_SCALE, AdmissionOutcome,
                       admit_slot_by_slot, randomized_round)


class Heu:
    """The paper's efficient heuristic for distributed task placement.

    Args:
        lp_backend: LP solver backend.
        rounding_scale: rounding probability divisor (paper: 4).
        max_migration_targets: how many nearest stations to try as the
            migration destination before giving up.
        max_rounds: rounding passes over not-yet-admitted requests
            (see :class:`~repro.core.appro.Appro` - repetitions only
            add reward; 1 = single analyzed pass).
    """

    name = "Heu"

    def __init__(self, lp_backend: str = "scipy",
                 rounding_scale: float = DEFAULT_ROUNDING_SCALE,
                 max_migration_targets: int = 5,
                 max_rounds: int = 24) -> None:
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.lp_backend = lp_backend
        self.rounding_scale = rounding_scale
        self.max_migration_targets = max_migration_targets
        self.max_rounds = max_rounds
        self.last_lp_objective: Optional[float] = None
        #: Number of successful task migrations in the last run.
        self.last_num_migrations: int = 0

    def run(self, instance: ProblemInstance,
            requests: Sequence[ARRequest],
            rng: RngLike = None) -> ScheduleResult:
        """Place a batch of non-preemptive requests with migrations.

        Args:
            instance: the problem instance.
            requests: the workload (unrealized rates).
            rng: randomness for rounding and realization.
        """
        rng = ensure_rng(rng)
        start = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
        result = ScheduleResult(algorithm=self.name)
        self.last_num_migrations = 0
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

        # Mutable bookkeeping shared with the reject handler.
        admitted_at: Dict[int, List[ARRequest]] = {}
        primary_of: Dict[int, int] = {}
        migrations: Dict[int, Dict[int, int]] = {}

        def on_reject(request: ARRequest, station_id: int, slot: int,
                      ledger_: CapacityLedger) -> bool:
            return self._try_migration(
                instance, ledger_, station_id, slot,
                admitted_at, primary_of, migrations)

        outcomes: List[AdmissionOutcome] = []
        remaining = list(requests)
        stalled_rounds = 0
        options = index.options_table(solution.x)
        for _ in range(self.max_rounds):
            if not remaining or stalled_rounds >= 4:
                break
            with tracer.span("rounding", algorithm=self.name):
                assignments = randomized_round(
                    index, solution.x, remaining,
                    rng=rng, scale=self.rounding_scale,
                    options_table=options)
                round_outcomes = admit_slot_by_slot(
                    instance, remaining, assignments, ledger, rng=rng,
                    on_reject=on_reject)
            tracer.count("rounding_rounds")
            admitted_ids = set()
            for outcome in round_outcomes:
                if outcome.admitted:
                    admitted_ids.add(outcome.request.request_id)
                    outcomes.append(outcome)
                    station_id = outcome.assignment.station_id
                    admitted_at.setdefault(station_id, []).append(
                        outcome.request)
                    primary_of[outcome.request.request_id] = station_id
            remaining = [r for r in remaining
                         if r.request_id not in admitted_ids]
            stalled_rounds = 0 if admitted_ids else stalled_rounds + 1

        self._record_outcomes(instance, requests, outcomes, migrations,
                              result)
        result.runtime_s = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
        return result

    # ------------------------------------------------------------------
    # Migration (Algorithm 2, lines 11-14)
    # ------------------------------------------------------------------
    def _try_migration(self, instance: ProblemInstance,
                       ledger: CapacityLedger, station_id: int, slot: int,
                       admitted_at: Dict[int, List[ARRequest]],
                       primary_of: Dict[int, int],
                       migrations: Dict[int, Dict[int, int]]) -> bool:
        """Migrate one task of the largest-rate donor able to shed one.

        Donors are tried in decreasing realized data rate (the paper
        picks "the one with the maximum realized rate"; when that donor
        has nothing left to shed, the next-largest is the natural
        continuation).  Returns True after one successful single-task
        migration - the admission loop re-tests the prefix condition
        (line 12) and calls back if the slot is still closed.
        """
        with get_tracer().span("migration", algorithm=self.name):
            return self._migrate_one(instance, ledger, station_id, slot,
                                     admitted_at, primary_of, migrations)

    def _migrate_one(self, instance: ProblemInstance,
                     ledger: CapacityLedger, station_id: int, slot: int,
                     admitted_at: Dict[int, List[ARRequest]],
                     primary_of: Dict[int, int],
                     migrations: Dict[int, Dict[int, int]]) -> bool:
        donors = sorted(admitted_at.get(station_id, []),
                        key=lambda r: (-r.realized_rate_mbps,
                                       r.request_id))
        targets = instance.paths.stations_by_delay(station_id)
        for donor in donors:
            pipeline = donor.pipeline
            existing = migrations.get(donor.request_id, {})
            local_tasks = [k for k in range(len(pipeline))
                           if k not in existing]
            if len(local_tasks) < 2:
                # Keep at least one task on the primary station.
                continue
            task_idx = max(local_tasks,
                           key=lambda k: pipeline[k].compute_weight)
            held = ledger.holding_mhz(donor.request_id, station_id)
            local_weight = sum(pipeline[k].compute_weight
                               for k in local_tasks)
            share = held * pipeline[task_idx].compute_weight / local_weight
            if share <= 0:
                continue
            # Closer candidates skipped before the chosen target, each
            # with the free MHz observed at decision time - the
            # journaled justification that the migration landed on the
            # *closest feasible* neighbour (Theorem 2).
            skipped: List[tuple] = []
            for target in targets[:self.max_migration_targets]:
                if not ledger.fits(target, share):
                    skipped.append((target, ledger.free_mhz(target),
                                    "capacity"))
                    continue
                trial = dict(existing)
                trial[task_idx] = target
                latency = instance.latency.split_delay_ms(
                    donor, primary_of[donor.request_id], trial)
                if not meets_deadline(latency, donor.deadline_ms):
                    skipped.append((target, ledger.free_mhz(target),
                                    "latency"))
                    continue
                ledger.migrate(donor.request_id, station_id, target,
                               share)
                migrations[donor.request_id] = trial
                self.last_num_migrations += 1
                emit(EventKind.MIGRATE, slot, request_id=donor.request_id,
                     station_id=target, src_station_id=station_id,
                     task_index=task_idx, reserved_mhz=share,
                     detail=tuple(skipped))
                return True
        return False

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _record_outcomes(self, instance: ProblemInstance,
                         requests: Sequence[ARRequest],
                         outcomes: List[AdmissionOutcome],
                         migrations: Dict[int, Dict[int, int]],
                         result: ScheduleResult) -> None:
        """Translate admission outcomes (with migrations) into decisions."""
        outcome_by_id = {o.request.request_id: o for o in outcomes}
        for request in requests:
            outcome = outcome_by_id.get(request.request_id)
            if outcome is None or not outcome.admitted:
                result.add(OffloadDecision(request_id=request.request_id))
                continue
            station_id = outcome.assignment.station_id
            moved = migrations.get(request.request_id, {})
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
