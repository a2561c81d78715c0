"""Randomized rounding and slot-by-slot admission (Algorithm 1, lines 2-7).

Rounding: each request picks at most one (station, starting slot) pair;
option ``(i, l)`` is chosen with probability ``y_{jil} / 4`` and the
request is *completely ignored* with the remaining mass (the scale 4 is
what gives Lemma 2 its 1/2 failure bound and Theorem 1 its 1/8 ratio -
the ablation benchmark sweeps it).

Admission: slots are visited in index order; a request assigned to
starting slot ``l`` of station ``bs_i`` is admitted iff the requests
already admitted there occupy at most ``l * C_l`` (Algorithm 1 line 6).
Only after admission does the request *realize* its data rate; the
realized demand is reserved (truncated at the physical capacity), and
the reward is earned only when the untruncated demand fits - the event
whose expectation is ``ER_{jil}`` (Eq. 8); :func:`settle` applies that
rule here and in the baselines.  :func:`round_and_admit` is the rounding
loop of Appro, Heu (with its migration hook) and DynamicRR (over LP-PT).

Solver tolerance: HiGHS returns ``y`` only within its feasibility
tolerance, so entries can be slightly negative and a request's mass can
exceed constraint (9)'s 1 by rounding noise.  Rounding has one
documented tolerance, :data:`~repro.core.lp_relaxation.MASS_TOL`
(1e-9): entries at or below it are dropped (negatives included), a
per-request mass up to ``1 + MASS_TOL`` is accepted as is, and anything
above raises :class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..network.capacity import CapacityLedger
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng
from ..sim.events import EventKind
from ..telemetry import get_tracer
from ..telemetry.audit import emit
from ..telemetry.metrics import get_metrics
from .assignment import SlotAssignment
from .instance import ProblemInstance
from .lp_relaxation import MASS_TOL

#: The paper's rounding scale: assignment probability is y / ROUNDING_SCALE.
DEFAULT_ROUNDING_SCALE = 4.0

#: :func:`round_and_admit` stops after this many passes in a row admit
#: nothing.
MAX_STALLED_ROUNDS = 4

#: :meth:`~repro.core.lp_relaxation.LpIndex.options_table` of a solution.
OptionsTable = Mapping[int, Sequence[Tuple[int, int, float]]]

#: Called when a request fails the prefix test; returns True when the
#: handler made room (Heu's migration) so admission can proceed.
RejectHandler = Callable[[ARRequest, int, int, CapacityLedger], bool]


@dataclass
class AdmissionOutcome:
    """What happened to one rounded request during admission.

    Attributes:
        request: the request.
        assignment: the rounded (station, slot) it was sent to.
        admitted: whether it passed the prefix test (possibly after a
            migration by the reject handler).
        reward: reward earned (realized reward when the realized demand
            fit the remaining capacity, else 0).
        reserved_mhz: capacity actually reserved at the station.
    """

    request: ARRequest
    assignment: SlotAssignment
    admitted: bool = False
    reward: float = 0.0
    reserved_mhz: float = 0.0


#: Called after each rounding pass with the outcomes it admitted.
PassHandler = Callable[[List[AdmissionOutcome]], None]


def check_max_rounds(max_rounds: int) -> int:
    """Validate the pass budget of Appro, Heu and DynamicRR (>= 1)."""
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    return max_rounds


def randomized_round(options_table: OptionsTable,
                     requests: Sequence[ARRequest],
                     rng: RngLike = None,
                     scale: float = DEFAULT_ROUNDING_SCALE
                     ) -> List[SlotAssignment]:
    """Round a fractional LP solution into tentative slot assignments.

    Args:
        options_table: the solution's
            :meth:`~repro.core.lp_relaxation.LpIndex.options_table`;
            read only, so one table serves every pass.
        requests: the requests to round (a subset of the LP's).
        rng: randomness.
        scale: divide each ``y_{jil}`` by this before sampling (the
            paper uses 4).

    Returns:
        At most one :class:`SlotAssignment` per request; requests that
        drew the "ignore" outcome are absent.

    Raises:
        ConfigurationError: on ``scale < 1``, or when a request's LP
            mass exceeds ``1 + MASS_TOL`` (constraint (9) violated).
    """
    if scale < 1.0:
        raise ConfigurationError(
            f"rounding scale must be >= 1 (probabilities must not exceed "
            f"the LP mass), got {scale}")
    rng = ensure_rng(rng)
    # Validate every mass first, so a bad request raises before any
    # draw; then one block draw, which yields the same doubles, and
    # leaves the generator in the same state, as one draw per request.
    drawn: List[Tuple[int, Sequence[Tuple[int, int, float]]]] = []
    for request in requests:
        options = options_table.get(request.request_id, ())
        if not options:
            continue
        total_mass = sum(mass for _, _, mass in options)
        if total_mass > 1.0 + MASS_TOL:
            raise ConfigurationError(
                f"request {request.request_id} has LP mass "
                f"{total_mass!r} > 1; constraint (9) violated upstream")
        drawn.append((request.request_id, options))
    if not drawn:
        return []
    assignments: List[SlotAssignment] = []
    for (request_id, options), draw in zip(
            drawn, rng.random(len(drawn)).tolist()):
        cumulative = 0.0
        for station_id, slot, mass in options:
            cumulative += mass / scale
            if draw < cumulative:
                assignments.append(SlotAssignment(
                    request_id=request_id, station_id=station_id,
                    slot=slot))
                break
    return assignments


def admit_slot_by_slot(instance: ProblemInstance,
                       requests: Sequence[ARRequest],
                       assignments: Sequence[SlotAssignment],
                       ledger: CapacityLedger,
                       rng: RngLike = None,
                       on_reject: Optional[RejectHandler] = None,
                       reserve_cap_mhz: Optional[float] = None
                       ) -> List[AdmissionOutcome]:
    """Algorithm 1 lines 3-7 (with Heu's line-11-14 hook).

    Slots are processed in increasing index order; within a slot,
    candidate requests are considered in increasing *expected* data
    rate (their realized rates are still unknown at test time - the
    paper's "request with the l-th smallest data rate" can only refer
    to rates the scheduler can see).  After passing the prefix test a
    request realizes its rate, reserves the (capacity-truncated)
    demand, and earns its realized reward iff the demand fully fit.

    Args:
        instance: the problem instance.
        requests: the workload (for id -> request resolution).
        assignments: tentative rounded assignments.
        ledger: capacity ledger to admit into (mutated).
        rng: randomness for rate realization.
        on_reject: optional hook (Heu migration); returning True means
            room was made and the prefix test should be re-evaluated.
        reserve_cap_mhz: when given, each admitted request reserves at
            most this much (the *guaranteed share* semantics of the
            round-robin online setting, where ``C^th`` - not the full
            realized demand - is the committed allocation); None keeps
            the non-preemptive semantics of reserving the realized
            demand.

    Returns:
        One outcome per tentative assignment, in admission order.
    """
    rng = ensure_rng(rng)
    request_by_id = {r.request_id: r for r in requests}
    by_slot_station: Dict[Tuple[int, int], List[SlotAssignment]] = {}
    for assignment in assignments:
        key = (assignment.slot, assignment.station_id)
        by_slot_station.setdefault(key, []).append(assignment)

    def rank(assignment: SlotAssignment) -> Tuple[float, int]:
        return (request_by_id[assignment.request_id].expected_rate_mbps,
                assignment.request_id)

    outcomes: List[AdmissionOutcome] = []
    max_slots = instance.max_num_slots()
    network = instance.network
    # Only the keys with candidates, in (slot, station) order; keys
    # outside the slot range or the network are skipped.
    for key in sorted(by_slot_station):
        slot, station_id = key
        if not (0 <= slot < max_slots and network.has_station(station_id)):
            continue
        candidates = sorted(by_slot_station[key], key=rank)
        for assignment in candidates:
            request = request_by_id[assignment.request_id]
            outcome = AdmissionOutcome(request=request,
                                       assignment=assignment)
            outcomes.append(outcome)
            open_now = ledger.prefix_open(station_id, slot)
            # Algorithm 2 lines 11-14: migrate one task per attempt
            # until the slot opens or no donor can help ("if there
            # is no such preassigned request ..., reject").  The
            # attempt cap guards against a handler that reports
            # progress without making any.
            attempts = 0
            while (not open_now and on_reject is not None
                   and attempts < 10):
                if not on_reject(request, station_id, slot, ledger):
                    break
                attempts += 1
                open_now = ledger.prefix_open(station_id, slot)
            if not open_now:
                emit(EventKind.REJECT_ROUNDING, slot,
                     request_id=request.request_id,
                     station_id=station_id)
                continue
            reserved, outcome.reward = settle(
                request, station_id, ledger, rng, reserve_cap_mhz)
            outcome.admitted = True
            outcome.reserved_mhz = reserved
            # Guaranteed-share admissions (the online RR setting)
            # are elastic; batch admissions commit the reservation -
            # the monitor accumulates only the latter against
            # capacity.
            committed = reserve_cap_mhz is None
            emit(EventKind.ADMIT, slot, request_id=request.request_id,
                 station_id=station_id, reward=outcome.reward,
                 reserved_mhz=reserved if committed else None,
                 share_mhz=None if committed else reserved)
    return outcomes


def settle(request: ARRequest, station_id: int, ledger: CapacityLedger,
           rng: RngLike, cap_mhz: Optional[float] = None
           ) -> Tuple[float, float]:
    """Realize an admitted request's rate and reserve its demand.

    Reserves the realized demand truncated at the station's free
    capacity (and at ``cap_mhz``); returns ``(reserved_mhz, reward)``,
    the reward earned only when the untruncated demand fit.
    """
    rate, reward = request.realize(rng)
    demand = request.demand_of_rate_mhz(rate)
    free = ledger.free_mhz(station_id)
    reserved = min(demand, free)
    if cap_mhz is not None:
        reserved = min(reserved, cap_mhz)
    if reserved > 0:
        ledger.reserve(request.request_id, station_id, reserved)
    return reserved, (reward if demand <= free + 1e-9 else 0.0)


def round_and_admit(instance: ProblemInstance,
                    options_table: OptionsTable,
                    requests: Sequence[ARRequest],
                    ledger: CapacityLedger,
                    rng: RngLike,
                    *,
                    scale: float,
                    max_rounds: int,
                    algorithm: str,
                    on_reject: Optional[RejectHandler] = None,
                    on_pass: Optional[PassHandler] = None,
                    reserve_cap_mhz: Optional[float] = None
                    ) -> List[AdmissionOutcome]:
    """Repeat rounding + admission over the requests not yet admitted.

    Each pass re-rounds the same solution against the same ledger (one
    ``y/4`` pass leaves >= 3/4 of the LP mass unassigned in
    expectation).  The loop stops after ``max_rounds`` passes (1 =
    Theorem 1's single pass), once every request is admitted, or after
    :data:`MAX_STALLED_ROUNDS` passes in a row admit nothing.  Each pass
    is one ``rounding`` span labelled ``algorithm``; the call adds its
    pass count to the registry counter ``rounding_rounds``.
    ``on_reject`` and ``reserve_cap_mhz`` go to
    :func:`admit_slot_by_slot`; ``on_pass`` gets each pass's admitted
    outcomes after the pass, so they reach ``on_reject`` (Heu's donors)
    only from the next pass on.

    Returns:
        The admitted outcomes, in admission order.
    """
    rng = ensure_rng(rng)
    tracer = get_tracer()
    admitted: List[AdmissionOutcome] = []
    remaining = list(requests)
    stalled_rounds = 0
    passes = 0
    while (passes < max_rounds and remaining
           and stalled_rounds < MAX_STALLED_ROUNDS):
        passes += 1
        with tracer.span("rounding", algorithm=algorithm):
            assignments = randomized_round(options_table, remaining,
                                           rng=rng, scale=scale)
            outcomes = admit_slot_by_slot(
                instance, remaining, assignments, ledger, rng=rng,
                on_reject=on_reject, reserve_cap_mhz=reserve_cap_mhz)
        passed = [o for o in outcomes if o.admitted]
        admitted.extend(passed)
        if on_pass is not None:
            on_pass(passed)
        admitted_ids = {o.request.request_id for o in passed}
        remaining = [r for r in remaining
                     if r.request_id not in admitted_ids]
        stalled_rounds = 0 if passed else stalled_rounds + 1
    if passes:
        get_metrics().inc("rounding_rounds", passes)
    return admitted
