"""The slotted, preemptive online engine (dynamic reward maximization).

Section V's setting: requests arrive over a monitoring period of ``T``
time slots, wait in a queue (the ``b_j - a_j`` term of Eq. (2)), and -
once started - stream work through their assigned station.  Stations
serve their active requests **round-robin**: each active request
receives ``min(demand, C(bs_i) / n_active)`` MHz per slot, so admitting
too many requests at once slows everyone down (the over-congestion that
the ``C^th`` threshold of Algorithm 3 exists to prevent).

Latency and reward semantics follow Section III-D: the experienced
latency ``D_j`` is the *responsiveness* of the request -
``waiting (b_j - a_j) + round-trip transfer + pipeline processing``
where the processing term is stretched by the congestion slowdown
``demand / received share >= 1`` of the request's first served slot.
``D_j`` is therefore known as soon as the request starts, and the
reward is earned iff ``D_j <= D_hat_j`` (Eq. 1) - an over-congested
station (everyone's RR share collapsing) misses deadlines and earns
nothing, which is exactly the failure mode the ``C^th`` threshold of
Algorithm 3 exists to prevent.  The stream then keeps occupying its
share until its volume (realized rate x stream duration) has been
processed; completion frees the capacity.

Policies (DynamicRR and the online baselines) only decide *which*
pending requests start *where* each slot; all physics lives here so
every algorithm is measured identically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import (Dict, List, NamedTuple, Optional, Protocol, Sequence,
                    Tuple)

from ..core.assignment import OffloadDecision, ScheduleResult
from ..core.instance import ProblemInstance
from ..core.latency import deadline_prefix, meets_deadline
from ..exceptions import ConfigurationError, SchedulingError
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng
from ..telemetry import get_tracer
from ..telemetry.audit import emit, emit_many
from ..telemetry.metrics import get_metrics
from .clock import SlotClock
from .events import EventKind


#: Pseudo station id directing a request to the remote cloud.  The
#: cloud has unbounded capacity but its round trip exceeds the AR
#: deadline, so cloud-served requests are admitted with high latency
#: and zero reward (the HeuKKT baseline's spillover path).
CLOUD_STATION = -1

#: Experienced latency of the remote-cloud path (ms).
CLOUD_LATENCY_MS = 320.0

#: A drop offset of this many slots or more counts as never: such a
#: wait is beyond any run, and the float ``k * slot_length`` stops
#: telling consecutive waits apart near it.
_NEVER_SLOTS = 2 ** 52


@dataclass(frozen=True)
class SlotOutcome:
    """What one engine slot did (the :meth:`OnlineEngine.step` result).

    The streaming service consumes these instead of the end-of-run
    :class:`~repro.core.assignment.ScheduleResult`, so its metrics stay
    flat in memory no matter how long the run is.

    Attributes:
        slot: the time slot that was executed.
        num_arrivals: requests admitted into the pending queue.
        num_dropped: pending requests dropped as deadline-hopeless.
        num_started: requests started (placed) this slot.
        num_completed: streams that finished their volume this slot.
        slot_reward: reward settled by this slot's starts.
        pending_after: queue depth after the slot.
        active_after: running streams after the slot.
    """

    slot: int
    num_arrivals: int
    num_dropped: int
    num_started: int
    num_completed: int
    slot_reward: float
    pending_after: int
    active_after: int


class StationLoad(NamedTuple):
    """One station at one slot, as :meth:`OnlineEngine.station_loads`
    reports it.

    Attributes:
        station_id: the station.
        capacity_mhz: its physical capacity ``C(bs_i)``.
        down: whether it is inside an injected outage window.
        active_count: requests it is serving.
        active_demand_mhz: the sum of their demands.
    """

    station_id: int
    capacity_mhz: float
    down: bool
    active_count: int
    active_demand_mhz: float

    @property
    def effective_capacity_mhz(self) -> float:
        """Capacity it serves with: 0 during an outage."""
        return 0.0 if self.down else self.capacity_mhz


@dataclass(frozen=True)
class Placement:
    """A policy's decision to start one pending request at a station.

    ``station_id`` may be :data:`CLOUD_STATION` to serve the request
    from the remote cloud.
    """

    request_id: int
    station_id: int


class OnlinePolicy(Protocol):
    """What the engine needs from an online algorithm."""

    name: str

    def begin(self, engine: "OnlineEngine") -> None:
        """Called once before the first slot."""

    def schedule(self, slot: int,
                 pending: Sequence[ARRequest]) -> List[Placement]:
        """Choose which pending requests start this slot, and where."""

    def observe(self, slot: int, slot_reward: float) -> None:
        """Feedback after the slot: reward settled in it (rewards
        settle at start time - see the module docstring)."""


@dataclass
class _Active:
    """Engine-internal state of one running request."""

    request: ARRequest
    station_id: int
    demand_mhz: float
    remaining_mb: float
    start_slot: int
    first_share_mhz: Optional[float] = None
    reward: float = 0.0
    latency_ms: Optional[float] = None

    def slowdown(self) -> float:
        """Congestion stretch of the first served slot."""
        if self.first_share_mhz is None:
            return 1.0
        if self.first_share_mhz <= 0:
            return float("inf")
        return max(1.0, self.demand_mhz / self.first_share_mhz)


def _request_fields(request: ARRequest) -> Dict[str, object]:
    """Event fields naming a request."""
    return dict(request_id=request.request_id)


def _host_fields(active: _Active) -> Dict[str, object]:
    """Event fields naming a running request and its station."""
    return dict(request_id=active.request.request_id,
                station_id=active.station_id)


def _completion_fields(active: _Active) -> Dict[str, object]:
    """COMPLETE fields: the host plus the reward and latency settled at
    START."""
    return dict(_host_fields(active), reward=active.reward,
                latency_ms=active.latency_ms)


class OnlineEngine:
    """Runs one policy over one arrival sequence.

    Args:
        instance: the problem instance.
        requests: the workload, with arrival slots inside the horizon.
        horizon_slots: monitoring period ``T``.
        slot_length_ms: slot duration.
        rng: randomness for rate realization.
        outages: optional failure injection - station id ->
            ``(first_down_slot, last_down_slot)`` during which the
            station serves nothing (its shares are 0 and its effective
            capacity is 0 in every engine view).  Models the "network
            uncertainties" the paper motivates beyond demand
            uncertainty; policies see the outage through
            :meth:`free_mhz` / :meth:`station_capacity_mhz` and must
            route around it.

    The decision journal (:mod:`repro.telemetry.audit`) is the run's
    only event record.  :meth:`run` also keeps the per-request
    :class:`OffloadDecision` table its :class:`ScheduleResult` needs;
    an engine driven by :meth:`step` alone (the long-lived service)
    keeps none, so its memory stays flat over an unbounded slot
    stream.
    """

    def __init__(self, instance: ProblemInstance,
                 requests: Sequence[ARRequest],
                 horizon_slots: int,
                 slot_length_ms: float = 50.0,
                 rng: RngLike = None,
                 outages: Optional[Dict[int, Tuple[int, int]]] = None
                 ) -> None:
        self.instance = instance
        self.clock = SlotClock(horizon_slots, slot_length_ms)
        self._rng = ensure_rng(rng)
        self._outages: Dict[int, Tuple[int, int]] = dict(outages or {})
        for sid, (start, end) in self._outages.items():
            if sid not in set(instance.network.station_ids):
                raise ConfigurationError(
                    f"outage names unknown station {sid}")
            if start > end or start < 0:
                raise ConfigurationError(
                    f"invalid outage window {start}..{end} for "
                    f"station {sid}")
        self._requests = list(requests)
        self._pending: List[ARRequest] = []
        self._active: Dict[int, _Active] = {}
        #: Request id -> decision; created by :meth:`run` only.
        self._decided: Optional[Dict[int, OffloadDecision]] = None
        #: ``(serving station, compute weight, deadline)`` -> the shared
        #: station ranking and its drop offset (see :meth:`_ranking`).
        #: Every pending request's key has an entry (made on admission
        #: and on restore), so ``_min_offset`` bounds their offsets.
        self._ranking_memo: Dict[
            Tuple[int, float, float],
            Tuple[Tuple[int, ...], Tuple[float, ...], float]] = {}
        self._min_offset: float = math.inf
        self._load: Optional[Dict[int, Tuple[int, float]]] = None
        #: ``(slot, load snapshot, view)`` of the last station_loads().
        self._station_view: Optional[Tuple[int, Dict[int, Tuple[int, float]],
                                           Tuple[StationLoad, ...]]] = None
        arrivals: Dict[int, List[ARRequest]] = {}
        for request in self._requests:
            arrivals.setdefault(request.arrival_slot, []).append(request)
        self._arrivals = arrivals

    # ------------------------------------------------------------------
    # Views for policies
    # ------------------------------------------------------------------
    def _loads(self) -> Dict[int, Tuple[int, float]]:
        """Station -> ``(active count, active demand)`` of the stations
        serving anything: one scan per change."""
        if self._load is None:
            demands: Dict[int, List[float]] = {}
            for a in self._active.values():
                demands.setdefault(a.station_id, []).append(a.demand_mhz)
            self._load = {sid: (len(mhz), float(sum(mhz)))
                          for sid, mhz in demands.items()}
        return self._load

    def _station_load(self, station_id: int) -> Tuple[int, float]:
        """``(active count, active demand)`` of one station."""
        load = self._load
        return (self._loads() if load is None else load).get(station_id,
                                                             (0, 0.0))

    def station_loads(self) -> Tuple[StationLoad, ...]:
        """Every station at the current slot, in station id order.

        One snapshot per slot and load change: repeated calls in between
        return the same tuple.
        """
        load = self._loads()
        slot = self.clock.current_slot
        cached = self._station_view
        if cached is None or cached[0] != slot or cached[1] is not load:
            network = self.instance.network
            view = tuple(
                StationLoad(sid, network.station(sid).capacity_mhz,
                            self.is_down(sid, slot),
                            *load.get(sid, (0, 0.0)))
                for sid in network.station_ids)
            cached = self._station_view = (slot, load, view)
        return cached[2]

    def active_count(self, station_id: int) -> int:
        """Active requests currently served by a station."""
        return self._station_load(station_id)[0]

    def active_demand_mhz(self, station_id: int) -> float:
        """Sum of active demands at a station."""
        return self._station_load(station_id)[1]

    def is_down(self, station_id: int,
                slot: Optional[int] = None) -> bool:
        """Whether a station is inside an injected outage window."""
        window = self._outages.get(station_id)
        if window is None:
            return False
        t = self.clock.current_slot if slot is None else slot
        return window[0] <= t <= window[1]

    def station_capacity_mhz(self, station_id: int) -> float:
        """Effective capacity: 0 during an injected outage."""
        if self.is_down(station_id):
            return 0.0
        return self.instance.network.station(station_id).capacity_mhz

    def free_mhz(self, station_id: int) -> float:
        """Effective capacity minus active demand (floored at 0)."""
        return max(0.0, self.station_capacity_mhz(station_id)
                   - self.active_demand_mhz(station_id))

    def total_free_mhz(self) -> float:
        """Network-wide free capacity."""
        return float(sum(max(0.0, station.effective_capacity_mhz
                             - station.active_demand_mhz)
                         for station in self.station_loads()))

    def pending_count(self) -> int:
        """Requests waiting in the pending queue."""
        return len(self._pending)

    def pending_ids(self) -> Tuple[int, ...]:
        """Ids of pending requests, in queue order."""
        return tuple(r.request_id for r in self._pending)

    def still_pending(self, arrivals: Sequence[ARRequest]
                      ) -> List[ARRequest]:
        """Those of the last :meth:`step`'s `arrivals` still pending.

        The step appends its arrivals to the queue and every removal
        keeps queue order, so the ones left are the queue's tail, in
        arrival order; only that tail is read.
        """
        pending = self._pending
        left: List[ARRequest] = []
        at = len(pending)
        for request in reversed(arrivals):
            if at and pending[at - 1].request_id == request.request_id:
                at -= 1
                left.append(request)
        left.reverse()
        return left

    def active_total(self) -> int:
        """Running streams across every station."""
        return len(self._active)

    def waiting_ms(self, request: ARRequest, slot: int) -> float:
        """Waiting time if the request started at `slot`."""
        return self.clock.waiting_ms(request.arrival_slot, slot)

    def _ranking(self, request: ARRequest
                 ) -> Tuple[Tuple[int, ...], Tuple[float, ...], float]:
        """The shared :meth:`LatencyModel.ranked_stations` of the
        request's ``(serving station, compute weight, deadline)``, plus
        its drop offset: a request that has waited that many slots
        cannot meet its deadline even at the fastest station."""
        key = (request.serving_station,
               request.pipeline.total_compute_weight, request.deadline_ms)
        entry = self._ranking_memo.get(key)
        if entry is None:
            ids, delays = self.instance.latency.ranked_stations(request)
            offset = self._drop_offset(delays[0], request.deadline_ms)
            entry = self._ranking_memo[key] = (ids, delays, offset)
            self._min_offset = min(self._min_offset, offset)
        return entry

    def _drop_offset(self, fastest_ms: float, deadline_ms: float) -> float:
        """The first wait ``k`` (slots) failing Eq. (1) at the fastest
        station, ``math.inf`` for never (an infinite deadline).

        ``meets_deadline(ms_of(k) + fastest_ms, deadline_ms)`` is the
        exact test; it fails from some ``k`` on, as IEEE addition is
        monotone, so the arithmetic estimate is settled with it.
        """
        ms_of = self.clock.ms_of

        def hopeless(k: int) -> bool:
            return not meets_deadline(ms_of(k) + fastest_ms, deadline_ms)

        slack = (deadline_ms - fastest_ms) / self.clock.slot_length_ms
        if not slack < _NEVER_SLOTS:
            return math.inf
        k = int(slack) if slack > 0 else 0
        while k > 0 and hopeless(k - 1):
            k -= 1
        while not hopeless(k):
            k += 1
        return k

    def feasible_stations(self, request: ARRequest, slot: int) -> List[int]:
        """:meth:`LatencyModel.feasible_stations` at `slot`, cached."""
        ids, delays, _ = self._ranking(request)
        return list(ids[:deadline_prefix(delays,
                                         self.waiting_ms(request, slot),
                                         request.deadline_ms)])

    def fastest_feasible(self, request: ARRequest,
                         slot: int) -> Optional[int]:
        """``feasible_stations(request, slot)[0]``, or None when that is
        empty: the ranking's first station while the request has waited
        fewer slots than its drop offset."""
        ids, _, offset = self._ranking(request)
        if slot - request.arrival_slot < offset:
            return ids[0]
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, policy: OnlinePolicy) -> ScheduleResult:
        """Simulate the whole horizon under one policy.

        Returns:
            A :class:`ScheduleResult` covering every request that
            arrived within the horizon.
        """
        start_time = time.perf_counter()  # repro: noqa DET010 -- advisory runtime metric
        decided = self._decided = {}
        self.announce_stations()
        policy.begin(self)
        for t in self.clock.ticks():
            self.step(policy, t, self._arrivals.get(t, ()))
        self._finalize()
        result = ScheduleResult(algorithm=policy.name)
        for request in self._requests:
            if request.arrival_slot < self.clock.horizon_slots:
                result.add(decided[request.request_id])
        result.runtime_s = time.perf_counter() - start_time  # repro: noqa DET010 -- advisory runtime metric
        return result

    def announce_stations(self) -> None:
        """Emit the initial STATION_UP capacity announcements."""
        network = self.instance.network
        emit_many(EventKind.STATION_UP, 0, network.station_ids,
                  lambda sid: dict(
                      station_id=sid,
                      value=network.station(sid).capacity_mhz))

    def step(self, policy: OnlinePolicy, t: int,
             arrivals: Sequence[ARRequest] = ()) -> SlotOutcome:
        """Execute one time slot of the admission loop.

        The slot phases are exactly those of :meth:`run` (which is
        implemented on top of this method): admit arrivals, drop
        deadline-hopeless pending requests, let the policy place, apply
        placements, progress streams, settle this slot's starts, free
        completed streams, and feed the settled reward back to the
        policy.  The streaming service calls this directly with
        externally batched arrivals.

        Args:
            policy: the online policy (must have seen :meth:`begin`).
            t: the slot to execute (callers drive slots in order).
            arrivals: requests entering the pending queue this slot.

        Returns:
            The slot's :class:`SlotOutcome`.
        """
        tracer = get_tracer()
        if self._outages:
            self._emit_outage_transitions(t)
        with tracer.span("slot_admission", policy=policy.name):
            self._admit_arrivals(t, arrivals)
            dropped = self._drop_hopeless(t)
            placements = policy.schedule(t, tuple(self._pending))
            started = self._apply_placements(t, placements)
            self._progress(t)
            slot_reward = self._settle_started(t, started)
            completed = self._complete(t)
            policy.observe(t, slot_reward)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("engine_reward_total", slot_reward)
            metrics.set_gauge("engine_pending", float(len(self._pending)))
            metrics.set_gauge("engine_active", float(len(self._active)))
        return SlotOutcome(
            slot=t,
            num_arrivals=len(arrivals),
            num_dropped=dropped,
            num_started=len(started),
            num_completed=completed,
            slot_reward=slot_reward,
            pending_after=len(self._pending),
            active_after=len(self._active),
        )

    # ------------------------------------------------------------------
    # Slot phases
    # ------------------------------------------------------------------
    def _emit_outage_transitions(self, t: int) -> None:
        """Announce injected outage edges (down at the window start,
        back up - with capacity - the slot after it ends)."""
        for sid in self.instance.network.station_ids:
            window = self._outages.get(sid)
            if window is None:
                continue
            if t == window[0]:
                emit(EventKind.STATION_DOWN, t, station_id=sid)
            elif t == window[1] + 1:
                emit(EventKind.STATION_UP, t, station_id=sid,
                     value=self.instance.network.station(sid).capacity_mhz)

    def _admit_arrivals(self, t: int,
                        arrivals: Sequence[ARRequest]) -> None:
        self._pending.extend(arrivals)
        for request in arrivals:
            self._ranking(request)
        emit_many(EventKind.ARRIVAL, t, arrivals, _request_fields)

    def _drop_hopeless(self, t: int) -> int:
        """Drop pending requests that can no longer meet their deadline.

        Returns:
            The number of requests dropped.
        """
        # Only a request older than the smallest offset can be late.
        ranking, oldest = self._ranking, t - self._min_offset
        hopeless = [request for request in self._pending
                    if request.arrival_slot <= oldest
                    and t - request.arrival_slot >= ranking(request)[2]]
        if not hopeless:
            return 0
        decided = self._decided
        if decided is not None:
            for request in hopeless:
                decided[request.request_id] = OffloadDecision(
                    request_id=request.request_id, admitted=False,
                    waiting_ms=self.waiting_ms(request, t))
        emit_many(EventKind.DROP, t, hopeless, _request_fields)
        gone = {request.request_id for request in hopeless}
        self._pending = [request for request in self._pending
                         if request.request_id not in gone]
        return len(hopeless)

    def _apply_placements(self, t: int,
                          placements: Sequence[Placement]
                          ) -> List["_Active"]:
        if not placements:
            return []
        started: List[_Active] = []
        placed = {placement.request_id for placement in placements}
        pending_by_id = {r.request_id: r for r in self._pending
                         if r.request_id in placed}
        network = self.instance.network
        for placement in placements:
            request = pending_by_id.get(placement.request_id)
            if request is None:
                raise SchedulingError(
                    f"policy placed request {placement.request_id} which "
                    f"is not pending at slot {t}")
            if placement.station_id == CLOUD_STATION:
                self._serve_from_cloud(t, request)
                del pending_by_id[request.request_id]
                continue
            if not network.has_station(placement.station_id):
                raise SchedulingError(
                    f"policy placed request {placement.request_id} on "
                    f"unknown station {placement.station_id}")
            rate, _reward = request.realize(self._rng)
            demand = request.demand_of_rate_mhz(rate)
            active = _Active(
                request=request,
                station_id=placement.station_id,
                demand_mhz=demand,
                remaining_mb=request.total_work_mb(self.clock.slot_length_ms),
                start_slot=t,
            )
            self._active[request.request_id] = active
            self._load = None
            started.append(active)
            del pending_by_id[request.request_id]
        self._pending = [r for r in self._pending
                         if r.request_id not in placed]
        return started

    def _serve_from_cloud(self, t: int, request: ARRequest) -> None:
        """Settle a cloud placement immediately.

        The cloud path's latency exceeds the AR deadline, so the
        request is admitted with :data:`CLOUD_LATENCY_MS` experienced
        latency and earns no reward.
        """
        get_metrics().inc("engine_cloud_served_total")
        request.realize(self._rng)
        waiting = self.clock.waiting_ms(request.arrival_slot, t)
        latency = waiting + CLOUD_LATENCY_MS
        met = meets_deadline(latency, request.deadline_ms)
        reward = request.realized_reward if met else 0.0
        if self._decided is not None:
            self._decided[request.request_id] = OffloadDecision(
                request_id=request.request_id,
                admitted=True,
                primary_station=None,
                realized_rate_mbps=request.realized_rate_mbps,
                reward=reward,
                latency_ms=latency,
                waiting_ms=waiting,
                deadline_met=met,
            )
        emit(EventKind.START, t, request_id=request.request_id,
             station_id=CLOUD_STATION, reward=reward, latency_ms=latency)

    def _progress(self, t: int) -> None:
        # Each serving station's round-robin share, once per slot.
        fair = {sid: self.station_capacity_mhz(sid) / count
                for sid, (count, _) in self._loads().items()}
        c_unit, slot_length_s = self.instance.c_unit, self.clock.slot_length_s
        for active in self._active.values():
            share = min(active.demand_mhz, fair[active.station_id])
            if active.first_share_mhz is None:
                active.first_share_mhz = share
            processed_mb = share / c_unit * slot_length_s
            active.remaining_mb -= processed_mb

    def _settle_started(self, t: int, started: Sequence[_Active]) -> float:
        """Decide reward/latency for this slot's newly started requests.

        The responsiveness ``D_j`` is known after the first served slot
        (its RR share fixes the congestion slowdown); the reward is
        earned iff ``D_j`` meets the deadline.
        """
        slot_reward = 0.0
        decided = self._decided
        for active in started:
            request = active.request
            latency = self._experienced_latency_ms(active)
            if not math.isfinite(latency):
                # Started on a dead station: no response at all.
                latency = None
            met = (latency is not None
                   and meets_deadline(latency, request.deadline_ms))
            reward = request.realized_reward if met else 0.0
            active.reward = reward
            active.latency_ms = latency
            slot_reward += reward
            if decided is not None:
                decided[request.request_id] = OffloadDecision(
                    request_id=request.request_id,
                    admitted=True,
                    primary_station=active.station_id,
                    realized_rate_mbps=request.realized_rate_mbps,
                    reward=reward,
                    latency_ms=latency,
                    waiting_ms=self.clock.waiting_ms(
                        request.arrival_slot, active.start_slot),
                    deadline_met=met,
                )
        emit_many(EventKind.START, t, started,
                  lambda active: dict(
                      request_id=active.request.request_id,
                      station_id=active.station_id, reward=active.reward,
                      latency_ms=active.latency_ms,
                      share_mhz=active.first_share_mhz))
        return slot_reward

    def _complete(self, t: int) -> int:
        """Release the capacity of streams that finished their volume.

        Returns:
            The number of streams completed.
        """
        done = [a for a in self._active.values() if a.remaining_mb <= 1e-9]
        emit_many(EventKind.COMPLETE, t, done, _completion_fields)
        for active in done:
            del self._active[active.request.request_id]
        if done:
            self._load = None
        return len(done)

    def _experienced_latency_ms(self, active: _Active) -> float:
        request = active.request
        waiting = self.clock.waiting_ms(request.arrival_slot,
                                        active.start_slot)
        transfer = self.instance.paths.round_trip_delay_ms(
            request.serving_station, active.station_id)
        processing = (
            self.instance.latency.base_delay_ms(active.station_id)
            * request.pipeline.total_compute_weight)
        return waiting + transfer + processing * active.slowdown()

    def finalize(self) -> None:
        """Settle leftovers at shutdown (the streaming service's hook).

        Journals a DROP for every request still pending or running so
        the decision stream closes every lifecycle (the
        deferred_resolution invariant needs deferred requests to end in
        a terminal event even when the service stops early).
        """
        self._finalize()

    def _finalize(self) -> None:
        """Settle everything still pending at the horizon.

        Requests still *running* at the horizon already carry their
        start-time decision; only never-started requests remain open.
        """
        t = self.clock.horizon_slots - 1
        if self._decided is not None:
            for request in self._pending:
                self._decided[request.request_id] = OffloadDecision(
                    request_id=request.request_id, admitted=False,
                    waiting_ms=self.waiting_ms(request, t))
        emit_many(EventKind.DROP, t, self._pending, _request_fields)
        # Started on a station that died under it: the stream never
        # responded.  The DROP carries the station that last hosted the
        # request.
        silent = [active for active in self._active.values()
                  if active.latency_ms is None]
        emit_many(EventKind.DROP, t, silent, _host_fields)
        self._pending = []
        self._active = {}
        self._load = None

    # ------------------------------------------------------------------
    # Checkpoint/restore (streaming service)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Snapshot the engine's mutable state (deep-copied).

        Everything a resumed engine needs to reproduce the remaining
        slots byte-for-byte: the pending queue, the active streams
        (with their realized rates and remaining volumes), the
        realization RNG state, and the current slot.  The static parts
        (instance, outages, clock geometry) are reconstructed from
        configuration by the caller.
        """
        import copy

        return {
            "slot": self.clock.current_slot,
            "rng_state": self._rng.bit_generator.state,
            "pending": copy.deepcopy(self._pending),
            "active": copy.deepcopy(self._active),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Install a snapshot produced by :meth:`export_state`."""
        self._rng.bit_generator.state = state["rng_state"]
        self._pending = list(state["pending"])  # type: ignore[arg-type]
        for request in self._pending:
            self._ranking(request)
        self._active = dict(state["active"])  # type: ignore[arg-type]
        self._load = None
        self.clock.advance_to(int(state["slot"]))  # type: ignore[arg-type]
