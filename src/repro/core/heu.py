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

from typing import Dict, List, Sequence

from ..network.capacity import CapacityLedger
from ..requests.request import ARRequest
from ..rng import RngLike
from ..sim.events import EventKind
from ..telemetry import get_tracer
from ..telemetry.audit import emit
from .appro import Appro
from .assignment import ScheduleResult
from .instance import ProblemInstance
from .latency import meets_deadline
from .rounding import DEFAULT_ROUNDING_SCALE, AdmissionOutcome

#: How many nearest stations Heu tries as a migration destination
#: before giving up on a donor.
MAX_MIGRATION_TARGETS = 5


class Heu(Appro):
    """The paper's efficient heuristic for distributed task placement.

    Appro's pipeline with a migration hook on every rejection.

    Args:
        rounding_scale: rounding probability divisor (paper: 4).
        max_rounds: rounding passes over not-yet-admitted requests
            (see :class:`~repro.core.appro.Appro` - repetitions only
            add reward; 1 = single analyzed pass).
    """

    name = "Heu"

    def __init__(self, rounding_scale: float = DEFAULT_ROUNDING_SCALE,
                 max_rounds: int = 24) -> None:
        super().__init__(rounding_scale, max_rounds)
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
        self.last_num_migrations = 0
        # Donors: requests admitted in *earlier* passes, by primary
        # station.  The loop adds a pass's admissions only after it.
        admitted_at: Dict[int, List[ARRequest]] = {}
        migrations: Dict[int, Dict[int, int]] = {}

        def on_reject(request: ARRequest, station_id: int, slot: int,
                      ledger: CapacityLedger) -> bool:
            with get_tracer().span("migration", algorithm=self.name):
                return self._try_migration(instance, ledger, station_id,
                                           slot, admitted_at, migrations)

        def on_pass(admitted: List[AdmissionOutcome]) -> None:
            for outcome in admitted:
                admitted_at.setdefault(outcome.assignment.station_id,
                                       []).append(outcome.request)

        return self._place(instance, requests, rng, migrations,
                           on_reject=on_reject, on_pass=on_pass)

    def _try_migration(self, instance: ProblemInstance,
                       ledger: CapacityLedger, station_id: int, slot: int,
                       admitted_at: Dict[int, List[ARRequest]],
                       migrations: Dict[int, Dict[int, int]]) -> bool:
        """Algorithm 2 lines 11-14: migrate one task of the largest-rate
        donor able to shed one.

        Donors are tried in decreasing realized data rate (the paper
        picks "the one with the maximum realized rate"; when that donor
        has nothing left to shed, the next-largest is the natural
        continuation).  Returns True after one successful single-task
        migration - the admission loop re-tests the prefix condition
        (line 12) and calls back if the slot is still closed.
        """
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
            for target in targets[:MAX_MIGRATION_TARGETS]:
                if not ledger.fits(target, share):
                    skipped.append((target, ledger.free_mhz(target),
                                    "capacity"))
                    continue
                trial = dict(existing)
                trial[task_idx] = target
                latency = instance.latency.split_delay_ms(
                    donor, station_id, trial)
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
